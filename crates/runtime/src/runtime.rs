//! The sharded runtime: shards, job queues, the work-stealing drain loop
//! and the submission front-end.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use gramc_core::tiling::TileMapping;
#[cfg(feature = "fault-inject")]
use gramc_core::FaultConfig;
use gramc_core::{CoreError, MacroConfig, MacroGroup, ProbeReport};
use gramc_linalg::{lu, qr, vector, Matrix};
#[cfg(feature = "telemetry")]
use gramc_telemetry::{FlowPhase, HwSnapshot, JournalEvent};

use crate::error::RuntimeError;
use crate::health::{HealthConfig, HealthEvent, ShardHealth};
use crate::job::{Job, JobHandle, JobKind, JobOutput, RequestMeta, Slot};
use crate::registry::{ExecTarget, FreeTarget, OperatorHandle, Placement, Registry};
#[cfg(feature = "telemetry")]
use crate::telemetry::{
    kind_index, kind_queued_name, kind_span_name, split_hw, MetricsSnapshot, RtTelemetry,
    WORKER_LANE_BASE,
};
use crate::tenant::{RequestId, TenantEntry, TenantId, TenantQuota, TenantTable};

/// Where submitted jobs are enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// Each job lands on its target shard's deque (the default). Workers
    /// then mostly run their own shard's work and steal only under
    /// imbalance.
    #[default]
    HomeShard,
    /// Every job lands on one deque regardless of its target shard — a
    /// worst-case skew that makes progress depend entirely on stealing
    /// (used by the scheduler stress tests).
    Fixed(usize),
}

/// What one [`Runtime::run_all`] drain did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Jobs retired during this drain.
    pub executed: usize,
    /// Jobs taken from a peer's deque during this drain (only due jobs are
    /// ever stolen, so every stolen job was executed by its thief).
    pub stolen: usize,
    /// Jobs retired per worker during this drain.
    pub per_worker: Vec<usize>,
    /// Health checks that failed during this drain: residual misses, failed
    /// probes, loads whose write-verify stayed over threshold.
    pub failed_checks: usize,
    /// Jobs answered from the digital fallback path during this drain
    /// (out of retries, or their operator had been degraded).
    pub degraded: usize,
    /// Recovery actions taken since the previous drain (quarantines,
    /// migrations, degradations, failed loads) in the order they happened.
    /// Probes between drains report here too.
    pub events: Vec<HealthEvent>,
    /// Hardware events this drain's job bodies caused (snapshot-diffed
    /// under each shard's group lock, so the attribution is exact).
    #[cfg(feature = "telemetry")]
    pub hw: HwSnapshot,
}

#[cfg(feature = "telemetry")]
impl RunSummary {
    /// Modeled analog latency/energy of this drain's hardware events.
    pub fn analog_cost(
        &self,
        model: &gramc_core::metrics::AnalogCostModel,
    ) -> gramc_core::metrics::Cost {
        model.attribute(&self.hw)
    }
}

/// One shard: an independent macro group plus its ticket counters.
///
/// `next_ticket` numbers submissions; `exec_ticket` is the ticket allowed
/// to run next. Together they serialize each shard's jobs into program
/// order no matter which worker executes them.
#[derive(Debug)]
struct Shard {
    group: Mutex<MacroGroup>,
    seed: u64,
    next_ticket: AtomicU64,
    exec_ticket: AtomicU64,
}

/// MVM requests against one operator, awaiting their batch's dispatch job
/// (enqueued by the first request). The three vectors run parallel, in
/// submission order.
#[derive(Debug, Default)]
struct PendingMvms {
    xs: Vec<Vec<f64>>,
    slots: Vec<Arc<Slot>>,
    meta: Vec<RequestMeta>,
}

/// A sharded analog runtime over `N` independent [`MacroGroup`] shards.
///
/// See the crate docs for the architecture; in short: operators are placed
/// through the registry, jobs are submitted against global
/// [`OperatorHandle`]s, and [`run_all`](Self::run_all) drains the queues
/// with one worker per shard plus work stealing.
///
/// # Examples
///
/// ```
/// use gramc_linalg::Matrix;
/// use gramc_runtime::{Placement, Runtime};
/// use gramc_core::tiling::TileMapping;
/// use gramc_core::MacroConfig;
///
/// # fn main() -> Result<(), gramc_runtime::RuntimeError> {
/// let rt = Runtime::new(2, 2, MacroConfig::small_ideal(4), 7);
/// let a = Matrix::from_rows(&[&[1.0, -0.5], &[0.25, 0.75]]);
/// let op = rt.load(&a, TileMapping::FourBit, Placement::LeastLoaded)?;
/// // Many users, one model: requests coalesce into one analog dispatch.
/// let h1 = rt.submit_mvm(op, vec![1.0, 2.0])?;
/// let h2 = rt.submit_mvm(op, vec![-1.0, 0.5])?;
/// rt.run_all();
/// let y1 = h1.wait_vector()?;
/// assert!((y1[0] - 0.0).abs() < 0.05);
/// let _ = h2.wait_vector()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Runtime {
    shards: Vec<Shard>,
    queues: Vec<Mutex<VecDeque<Job>>>,
    registry: Mutex<Registry>,
    pending_mvm: Mutex<BTreeMap<OperatorHandle, PendingMvms>>,
    /// Jobs enqueued but not yet retired (drain-loop termination).
    remaining: AtomicUsize,
    /// Admission bound: submissions are rejected with
    /// [`RuntimeError::QueueFull`] while `remaining` is at or over this.
    /// `None` (the default) admits everything.
    queue_limit: Option<usize>,
    /// Parking/wake state of persistent serving workers
    /// ([`RuntimeServer`](crate::RuntimeServer)).
    serve: ServeState,
    /// Monotonic request-id mint (ids start at 1; 0 means "none").
    next_request: AtomicU64,
    /// Per-tenant accounting entries, created on first contact.
    tenants: TenantTable,
    /// Per-tenant fair-admission quota; `None` (the default) admits
    /// everything.
    tenant_quota: Option<TenantQuota>,
    queue_policy: QueuePolicy,
    executed: Vec<AtomicUsize>,
    stolen: AtomicUsize,
    health_cfg: HealthConfig,
    health: Vec<ShardHealth>,
    events: Mutex<Vec<HealthEvent>>,
    failed_checks: AtomicUsize,
    degraded: AtomicUsize,
    #[cfg(feature = "telemetry")]
    telemetry: RtTelemetry,
}

impl Runtime {
    /// The sharded constructor: `shards` independent macro groups of
    /// `macros_per_shard` macros each. Shard `s` is seeded with
    /// [`shard_seed_of(seed, s)`](Self::shard_seed_of), so shard 0
    /// reproduces `MacroGroup::new(macros_per_shard, config, seed)`
    /// exactly.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: usize, macros_per_shard: usize, config: MacroConfig, seed: u64) -> Self {
        Self::with_queue_policy(shards, macros_per_shard, config, seed, QueuePolicy::HomeShard)
    }

    /// [`new`](Self::new) with an explicit [`QueuePolicy`].
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or a [`QueuePolicy::Fixed`] queue index is
    /// out of range.
    pub fn with_queue_policy(
        shards: usize,
        macros_per_shard: usize,
        config: MacroConfig,
        seed: u64,
        queue_policy: QueuePolicy,
    ) -> Self {
        assert!(shards >= 1, "a runtime needs at least one shard");
        if let QueuePolicy::Fixed(q) = queue_policy {
            assert!(q < shards, "fixed queue {q} out of range for {shards} shards");
        }
        let mk_shard = |s: usize| {
            let shard_seed = Self::shard_seed_of(seed, s);
            Shard {
                group: Mutex::new(MacroGroup::new(macros_per_shard, config.clone(), shard_seed)),
                seed: shard_seed,
                next_ticket: AtomicU64::new(0),
                exec_ticket: AtomicU64::new(0),
            }
        };
        Self {
            shards: (0..shards).map(mk_shard).collect(),
            queues: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            registry: Mutex::new(Registry::new(shards)),
            pending_mvm: Mutex::new(BTreeMap::new()),
            remaining: AtomicUsize::new(0),
            queue_limit: None,
            serve: ServeState::default(),
            next_request: AtomicU64::new(0),
            tenants: TenantTable::default(),
            tenant_quota: None,
            queue_policy,
            executed: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            stolen: AtomicUsize::new(0),
            health_cfg: HealthConfig::default(),
            health: (0..shards).map(|_| ShardHealth::default()).collect(),
            events: Mutex::new(Vec::new()),
            failed_checks: AtomicUsize::new(0),
            degraded: AtomicUsize::new(0),
            #[cfg(feature = "telemetry")]
            telemetry: RtTelemetry::new(shards),
        }
    }

    /// Replaces the health-monitoring policy (builder style). The default
    /// [`HealthConfig`] has per-job residual checks **off**, which keeps
    /// results bit-identical to a runtime without health machinery.
    #[must_use]
    pub fn with_health_config(mut self, cfg: HealthConfig) -> Self {
        self.health_cfg = cfg;
        self
    }

    /// The active health-monitoring policy.
    pub fn health_config(&self) -> &HealthConfig {
        &self.health_cfg
    }

    /// Bounds the job queue (builder style): while `limit` jobs are already
    /// submitted and unretired, further submissions are rejected with
    /// [`RuntimeError::QueueFull`] instead of enqueueing — typed
    /// backpressure for serving deployments. The bound is approximate under
    /// concurrent submitters (each checks then enqueues without a global
    /// lock), which is the usual admission-control contract: it bounds the
    /// queue to `limit + O(submitters)`, never rejects below `limit`.
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0` — a queue that admits nothing deadlocks every
    /// caller.
    #[must_use]
    pub fn with_queue_limit(mut self, limit: usize) -> Self {
        assert!(limit > 0, "a zero queue limit would reject every submission");
        self.queue_limit = Some(limit);
        self
    }

    /// The admission bound, if one is set.
    pub fn queue_limit(&self) -> Option<usize> {
        self.queue_limit
    }

    /// Applies a per-tenant fair-admission quota (builder style): while a
    /// tenant already has [`TenantQuota::max_in_flight`] unretired
    /// requests, its further submissions — riders joining a coalesced
    /// batch included — are rejected with [`RuntimeError::QueueFull`]
    /// carrying the quota as its `limit`. Other tenants are unaffected, so
    /// one tenant's flood backs up on itself instead of starving the rest.
    ///
    /// # Panics
    ///
    /// Panics if `quota.max_in_flight == 0` — a tenant that may submit
    /// nothing deadlocks every caller.
    #[must_use]
    pub fn with_tenant_quota(mut self, quota: TenantQuota) -> Self {
        assert!(quota.max_in_flight > 0, "a zero tenant quota would reject every submission");
        self.tenant_quota = Some(quota);
        self
    }

    /// The per-tenant admission quota, if one is set.
    pub fn tenant_quota(&self) -> Option<TenantQuota> {
        self.tenant_quota
    }

    /// Resizes the event-journal ring (builder style; default 4096
    /// events). Serving runs dense enough to wrap the default ring surface
    /// a non-zero drop rate in the metrics stream — size the ring to the
    /// run instead of losing the early spans.
    #[cfg(feature = "telemetry")]
    #[must_use]
    pub fn with_journal_capacity(mut self, capacity: usize) -> Self {
        self.telemetry.journal = gramc_telemetry::EventJournal::new(capacity);
        self
    }

    /// Mints the next request id (unique per runtime lifetime, starting
    /// at 1).
    fn mint_request(&self) -> RequestId {
        RequestId(self.next_request.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Tenant-quota admission: takes one in-flight unit for the request,
    /// or rejects it with [`RuntimeError::QueueFull`] when the tenant sits
    /// at its quota. Called as the **last** fallible step of every submit
    /// path, so a rejected submission has taken no state.
    fn admit_tenant(&self, entry: &TenantEntry) -> Result<(), RuntimeError> {
        let limit = self.tenant_quota.map(|q| q.max_in_flight);
        if !entry.try_acquire(limit) {
            let limit = limit.expect("acquire only fails under a quota");
            entry.rejected.fetch_add(1, Ordering::Relaxed);
            #[cfg(feature = "telemetry")]
            {
                self.telemetry.rejected.fetch_add(1, Ordering::Relaxed);
                self.telemetry.journal.instant("rejected_tenant", "runtime", limit as u64, 0);
            }
            return Err(RuntimeError::QueueFull { limit });
        }
        entry.requests.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Admission control: rejects the submission while the queue sits at or
    /// over the configured bound. Called by every `submit_*` before any
    /// state is mutated, so a rejected call has no side effects.
    fn admit(&self) -> Result<(), RuntimeError> {
        let Some(limit) = self.queue_limit else {
            return Ok(());
        };
        if self.remaining.load(Ordering::SeqCst) >= limit {
            #[cfg(feature = "telemetry")]
            {
                self.telemetry.rejected.fetch_add(1, Ordering::Relaxed);
                self.telemetry.journal.instant("rejected", "runtime", limit as u64, 0);
            }
            return Err(RuntimeError::QueueFull { limit });
        }
        Ok(())
    }

    /// The paper's macro complement per shard: `shards` groups of 16
    /// macros of 128×128 each.
    pub fn paper_sharded(shards: usize, seed: u64) -> Self {
        Self::new(shards, 16, MacroConfig::default(), seed)
    }

    /// Seed of shard `s` for base seed `base` — the decorrelation is a
    /// fixed odd multiplier so shard 0 keeps the base seed verbatim.
    pub fn shard_seed_of(base: u64, shard: usize) -> u64 {
        base ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Seed of shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_seed(&self, shard: usize) -> u64 {
        self.shards[shard].seed
    }

    /// The macro configuration (identical across shards).
    pub fn config(&self) -> MacroConfig {
        self.shards[0].group.lock().expect("shard lock").config().clone()
    }

    /// Direct access to one shard's macro group, for inspection or
    /// single-shard workflows. Do not hold the guard across
    /// [`run_all`](Self::run_all) — workers need the same lock.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BadShard`] if out of range.
    pub fn shard_group(&self, shard: usize) -> Result<MutexGuard<'_, MacroGroup>, RuntimeError> {
        self.shards
            .get(shard)
            .map(|s| s.group.lock().expect("shard lock"))
            .ok_or(RuntimeError::BadShard { shard, shards: self.shards.len() })
    }

    /// Live-operator count per shard (the least-loaded placement metric).
    pub fn live_operators_per_shard(&self) -> Vec<usize> {
        self.registry.lock().expect("registry lock").live_per_shard().to_vec()
    }

    /// Jobs currently enqueued (each open coalesced MVM batch counts as
    /// its one dispatch job).
    pub fn queued_jobs(&self) -> usize {
        self.remaining.load(Ordering::SeqCst)
    }

    // ── submission ────────────────────────────────────────────────────

    /// Takes the next ticket of `shard` and enqueues the job under the
    /// queue policy. The queue lock is held across ticket assignment so
    /// queue order equals ticket order for every shard.
    fn enqueue(&self, shard: usize, kind: JobKind, slots: Vec<Arc<Slot>>, meta: Vec<RequestMeta>) {
        self.enqueue_job(shard, kind, slots, meta, 0);
    }

    /// [`enqueue`](Self::enqueue) carrying a retry count — how the recovery
    /// path re-dispatches failed or migrated jobs.
    fn enqueue_job(
        &self,
        shard: usize,
        kind: JobKind,
        slots: Vec<Arc<Slot>>,
        #[allow(unused_mut)] mut meta: Vec<RequestMeta>,
        retries: u32,
    ) {
        let q = match self.queue_policy {
            QueuePolicy::HomeShard => shard,
            QueuePolicy::Fixed(q) => q,
        };
        let mut queue = self.queues[q].lock().expect("queue lock");
        let ticket = self.shards[shard].next_ticket.fetch_add(1, Ordering::SeqCst);
        let prev_depth = self.remaining.fetch_add(1, Ordering::SeqCst);
        #[cfg(feature = "telemetry")]
        let submit_ns = self.telemetry.journal.now_ns();
        #[cfg(feature = "telemetry")]
        {
            // Riders stamp themselves at their own submission; the job's
            // requests are stamped here, at ticket assignment (a
            // re-dispatch restamps — per-dispatch latency, matching the
            // serving histograms).
            for m in &mut meta {
                m.submit_ns = submit_ns;
            }
            self.telemetry.queue_depth_max.fetch_max(prev_depth + 1, Ordering::Relaxed);
            self.telemetry.journal.record(JournalEvent {
                name: "submit",
                category: "runtime",
                ts_ns: submit_ns,
                dur_ns: 0,
                arg_a: shard as u64,
                arg_b: ticket,
                ..JournalEvent::default()
            });
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = prev_depth;
        queue.push_back(Job {
            shard,
            ticket,
            kind,
            slots,
            meta,
            retries,
            #[cfg(feature = "telemetry")]
            submitted: std::time::Instant::now(),
            #[cfg(feature = "telemetry")]
            submit_ns,
        });
        drop(queue);
        // Wake parked serving workers. The park mutex is taken (empty
        // critical section) so a worker between its `remaining` re-check
        // and its wait cannot miss the notification.
        if self.serve.active.load(Ordering::SeqCst) {
            drop(self.serve.park.lock().expect("serve lock"));
            self.serve.wake.notify_all();
        }
    }

    /// Rejects `NaN`/`±inf` inputs at submission time (mirroring the shape
    /// check): an analog driver cannot encode them, and catching them here
    /// keeps one malformed request from poisoning a coalesced batch.
    fn check_finite(xs: &[f64]) -> Result<(), RuntimeError> {
        if xs.iter().all(|x| x.is_finite()) {
            Ok(())
        } else {
            Err(RuntimeError::NonFiniteInput)
        }
    }

    /// Queues a matrix load. The returned [`OperatorHandle`] is valid for
    /// submissions immediately — tickets guarantee the load executes
    /// before any job submitted after it on the same shard.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BadShard`] for an out-of-range pinned placement;
    /// [`RuntimeError::QueueFull`] past the admission bound.
    pub fn submit_load(
        &self,
        a: &Matrix,
        mapping: TileMapping,
        placement: Placement,
    ) -> Result<(OperatorHandle, JobHandle), RuntimeError> {
        self.submit_load_for(TenantId::DEFAULT, a, mapping, placement)
    }

    /// [`submit_load`](Self::submit_load) attributed to an explicit tenant.
    ///
    /// # Errors
    ///
    /// As [`submit_load`](Self::submit_load), plus
    /// [`RuntimeError::QueueFull`] when `tenant` sits at its quota.
    pub fn submit_load_for(
        &self,
        tenant: TenantId,
        a: &Matrix,
        mapping: TileMapping,
        placement: Placement,
    ) -> Result<(OperatorHandle, JobHandle), RuntimeError> {
        self.admit()?;
        let entry = self.tenants.entry(tenant);
        self.admit_tenant(&entry)?;
        let matrix = Arc::new(a.clone());
        let placed = self.registry.lock().expect("registry lock").place(
            placement,
            a.rows(),
            a.cols(),
            matrix.clone(),
            mapping,
        );
        let (handle, shard) = match placed {
            Ok(p) => p,
            Err(e) => {
                // Admission succeeded but placement did not: hand the
                // in-flight unit back, the request never existed.
                entry.release();
                return Err(e);
            }
        };
        let request = self.mint_request();
        let jh = JobHandle::new(request, entry);
        self.enqueue(
            shard,
            JobKind::Load { handle, matrix, mapping },
            vec![jh.slot.clone()],
            vec![RequestMeta::new(request, tenant, 1)],
        );
        Ok((handle, jh))
    }

    /// Submits one MVM request. Requests against the same operator are
    /// **coalesced**: the first pending request opens a batch and enqueues
    /// its dispatch job (so the batch takes its shard ticket — its place in
    /// program order — at that first submission point), and later requests
    /// join the open batch until the job executes it as a single
    /// `mvm_batch` — one analog dispatch for the whole crowd, never
    /// reordered after jobs submitted later.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidHandle`] for dead handles;
    /// [`CoreError::ShapeMismatch`](gramc_core::CoreError) for a wrong
    /// input length — checked here so one malformed request cannot poison
    /// the whole coalesced batch it would have joined;
    /// [`RuntimeError::QueueFull`] past the admission bound (only a request
    /// that would *open* a batch is subject to the bound — a rider joining
    /// an already-open batch adds no queue entry).
    pub fn submit_mvm(&self, op: OperatorHandle, x: Vec<f64>) -> Result<JobHandle, RuntimeError> {
        self.submit_mvm_for(TenantId::DEFAULT, op, x)
    }

    /// [`submit_mvm`](Self::submit_mvm) attributed to an explicit tenant.
    /// Riders joining an open batch keep their own [`RequestId`] and
    /// tenant — the batch executes once, but its cost is split among the
    /// riders and each rider's causal chain stays visible in the trace.
    ///
    /// # Errors
    ///
    /// As [`submit_mvm`](Self::submit_mvm), plus
    /// [`RuntimeError::QueueFull`] when `tenant` sits at its quota (riders
    /// are subject to the tenant quota even though they add no queue
    /// entry — each holds a result slot).
    pub fn submit_mvm_for(
        &self,
        tenant: TenantId,
        op: OperatorHandle,
        x: Vec<f64>,
    ) -> Result<JobHandle, RuntimeError> {
        let (shard, cols) = self.registry.lock().expect("registry lock").shard_and_cols(op)?;
        if x.len() != cols {
            return Err(CoreError::ShapeMismatch { expected: cols, found: x.len() }.into());
        }
        Self::check_finite(&x)?;
        let entry = self.tenants.entry(tenant);
        // The pending lock is held across the enqueue so opening the batch
        // and taking its ticket are atomic.
        let mut pending = self.pending_mvm.lock().expect("pending lock");
        let batch = pending.entry(op).or_default();
        let opens_batch = batch.xs.is_empty();
        if opens_batch {
            self.admit()?;
        }
        // Tenant admission is the last fallible step: a rejected request
        // has joined nothing.
        self.admit_tenant(&entry)?;
        let request = self.mint_request();
        let jh = JobHandle::new(request, entry);
        #[allow(unused_mut)]
        let mut m = RequestMeta::new(request, tenant, 1);
        #[cfg(feature = "telemetry")]
        {
            // Riders stamp their own submission time — their queue wait
            // starts here, not at the batch's ticket.
            m.submit_ns = self.telemetry.journal.now_ns();
        }
        batch.xs.push(x);
        batch.slots.push(jh.slot.clone());
        batch.meta.push(m);
        if opens_batch {
            // The dispatch job starts empty: hydration drains the pending
            // batch (slots and meta included) when it executes.
            self.enqueue(shard, JobKind::MvmMany { handle: op }, Vec::new(), Vec::new());
        } else {
            // Joined an already-open batch: no new job, just one more rider.
            #[cfg(feature = "telemetry")]
            self.telemetry.journal.instant(
                "coalesce",
                "runtime",
                shard as u64,
                batch.xs.len() as u64,
            );
        }
        Ok(jh)
    }

    /// Submits an explicit batch MVM (one job, one handle for the whole
    /// batch) — bypasses coalescing.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidHandle`] for dead handles;
    /// [`RuntimeError::QueueFull`] past the admission bound.
    pub fn submit_mvm_batch(
        &self,
        op: OperatorHandle,
        xs: Vec<Vec<f64>>,
    ) -> Result<JobHandle, RuntimeError> {
        self.submit_mvm_batch_for(TenantId::DEFAULT, op, xs)
    }

    /// [`submit_mvm_batch`](Self::submit_mvm_batch) attributed to an
    /// explicit tenant. The batch is one request of weight `xs.len()` in
    /// the tenant's cost attribution.
    ///
    /// # Errors
    ///
    /// As [`submit_mvm_batch`](Self::submit_mvm_batch), plus
    /// [`RuntimeError::QueueFull`] when `tenant` sits at its quota.
    pub fn submit_mvm_batch_for(
        &self,
        tenant: TenantId,
        op: OperatorHandle,
        xs: Vec<Vec<f64>>,
    ) -> Result<JobHandle, RuntimeError> {
        self.admit()?;
        let shard = self.registry.lock().expect("registry lock").shard_of(op)?;
        for x in &xs {
            Self::check_finite(x)?;
        }
        let entry = self.tenants.entry(tenant);
        self.admit_tenant(&entry)?;
        let request = self.mint_request();
        let rows = xs.len().max(1) as u64;
        let jh = JobHandle::new(request, entry);
        self.enqueue(
            shard,
            JobKind::MvmBatch { handle: op, xs },
            vec![jh.slot.clone()],
            vec![RequestMeta::new(request, tenant, rows)],
        );
        Ok(jh)
    }

    /// Submits a single-RHS INV solve.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidHandle`] for dead handles;
    /// [`RuntimeError::QueueFull`] past the admission bound.
    pub fn submit_solve_inv(
        &self,
        op: OperatorHandle,
        b: Vec<f64>,
    ) -> Result<JobHandle, RuntimeError> {
        self.submit_solve_inv_for(TenantId::DEFAULT, op, b)
    }

    /// [`submit_solve_inv`](Self::submit_solve_inv) attributed to an
    /// explicit tenant.
    ///
    /// # Errors
    ///
    /// As [`submit_solve_inv`](Self::submit_solve_inv), plus
    /// [`RuntimeError::QueueFull`] when `tenant` sits at its quota.
    pub fn submit_solve_inv_for(
        &self,
        tenant: TenantId,
        op: OperatorHandle,
        b: Vec<f64>,
    ) -> Result<JobHandle, RuntimeError> {
        self.admit()?;
        let shard = self.registry.lock().expect("registry lock").shard_of(op)?;
        Self::check_finite(&b)?;
        let entry = self.tenants.entry(tenant);
        self.admit_tenant(&entry)?;
        let request = self.mint_request();
        let jh = JobHandle::new(request, entry);
        self.enqueue(
            shard,
            JobKind::SolveInv { handle: op, b },
            vec![jh.slot.clone()],
            vec![RequestMeta::new(request, tenant, 1)],
        );
        Ok(jh)
    }

    /// Submits a multi-RHS INV solve (`MacroGroup::solve_inv_batch`): all
    /// right-hand sides share one conductance read and one factorization.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidHandle`] for dead handles;
    /// [`RuntimeError::QueueFull`] past the admission bound.
    pub fn submit_solve_inv_batch(
        &self,
        op: OperatorHandle,
        bs: Vec<Vec<f64>>,
    ) -> Result<JobHandle, RuntimeError> {
        self.submit_solve_inv_batch_for(TenantId::DEFAULT, op, bs)
    }

    /// [`submit_solve_inv_batch`](Self::submit_solve_inv_batch) attributed
    /// to an explicit tenant.
    ///
    /// # Errors
    ///
    /// As [`submit_solve_inv_batch`](Self::submit_solve_inv_batch), plus
    /// [`RuntimeError::QueueFull`] when `tenant` sits at its quota.
    pub fn submit_solve_inv_batch_for(
        &self,
        tenant: TenantId,
        op: OperatorHandle,
        bs: Vec<Vec<f64>>,
    ) -> Result<JobHandle, RuntimeError> {
        self.admit()?;
        let shard = self.registry.lock().expect("registry lock").shard_of(op)?;
        for b in &bs {
            Self::check_finite(b)?;
        }
        let entry = self.tenants.entry(tenant);
        self.admit_tenant(&entry)?;
        let request = self.mint_request();
        let rows = bs.len().max(1) as u64;
        let jh = JobHandle::new(request, entry);
        self.enqueue(
            shard,
            JobKind::SolveInvBatch { handle: op, bs },
            vec![jh.slot.clone()],
            vec![RequestMeta::new(request, tenant, rows)],
        );
        Ok(jh)
    }

    /// Submits a multi-RHS PINV (least-squares) solve
    /// (`MacroGroup::solve_pinv_batch`): all right-hand sides share one
    /// conductance read and one MNA factorization.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidHandle`] for dead handles;
    /// [`CoreError::ShapeMismatch`](gramc_core::CoreError) when a
    /// right-hand side's length is not the operator's row count;
    /// [`RuntimeError::QueueFull`] past the admission bound.
    pub fn submit_solve_pinv_batch(
        &self,
        op: OperatorHandle,
        bs: Vec<Vec<f64>>,
    ) -> Result<JobHandle, RuntimeError> {
        self.submit_solve_pinv_batch_for(TenantId::DEFAULT, op, bs)
    }

    /// [`submit_solve_pinv_batch`](Self::submit_solve_pinv_batch)
    /// attributed to an explicit tenant.
    ///
    /// # Errors
    ///
    /// As [`submit_solve_pinv_batch`](Self::submit_solve_pinv_batch), plus
    /// [`RuntimeError::QueueFull`] when `tenant` sits at its quota.
    pub fn submit_solve_pinv_batch_for(
        &self,
        tenant: TenantId,
        op: OperatorHandle,
        bs: Vec<Vec<f64>>,
    ) -> Result<JobHandle, RuntimeError> {
        self.admit()?;
        let (shard, rows) = self.registry.lock().expect("registry lock").shard_and_rows(op)?;
        for b in &bs {
            if b.len() != rows {
                return Err(CoreError::ShapeMismatch { expected: rows, found: b.len() }.into());
            }
            Self::check_finite(b)?;
        }
        let entry = self.tenants.entry(tenant);
        self.admit_tenant(&entry)?;
        let request = self.mint_request();
        let weight = bs.len().max(1) as u64;
        let jh = JobHandle::new(request, entry);
        self.enqueue(
            shard,
            JobKind::SolvePinvBatch { handle: op, bs },
            vec![jh.slot.clone()],
            vec![RequestMeta::new(request, tenant, weight)],
        );
        Ok(jh)
    }

    /// Queues the release of an operator. The handle is dead to further
    /// submissions immediately; a second free is rejected. A still-queued
    /// load is fine — the free enqueues behind it (fully pipelined
    /// load → work → free); if that load then fails, the free job reports
    /// [`RuntimeError::InvalidHandle`] (there was nothing to release).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::DoubleFree`] if already freed or free-queued,
    /// [`RuntimeError::InvalidHandle`] for unknown handles,
    /// [`RuntimeError::QueueFull`] past the admission bound.
    pub fn submit_free(&self, op: OperatorHandle) -> Result<JobHandle, RuntimeError> {
        self.admit()?;
        let entry = self.tenants.entry(TenantId::DEFAULT);
        self.admit_tenant(&entry)?;
        let shard = match self.registry.lock().expect("registry lock").queue_free(op) {
            Ok(shard) => shard,
            Err(e) => {
                entry.release();
                return Err(e);
            }
        };
        let request = self.mint_request();
        let jh = JobHandle::new(request, entry);
        self.enqueue(
            shard,
            JobKind::Free { handle: op },
            vec![jh.slot.clone()],
            vec![RequestMeta::new(request, TenantId::DEFAULT, 1)],
        );
        Ok(jh)
    }

    // ── synchronous convenience front-end ─────────────────────────────
    //
    // Each of these submits, drains ALL outstanding work (not just its own
    // job — run_all has no way to retire one job selectively without
    // breaking per-shard program order), and waits.

    /// Loads a matrix and blocks until it is placed.
    ///
    /// # Errors
    ///
    /// Placement and mapping errors from the shard.
    pub fn load(
        &self,
        a: &Matrix,
        mapping: TileMapping,
        placement: Placement,
    ) -> Result<OperatorHandle, RuntimeError> {
        let (_, jh) = self.submit_load(a, mapping, placement)?;
        self.run_all();
        match jh.wait()? {
            JobOutput::Loaded(handle) => Ok(handle),
            _ => Err(RuntimeError::WrongOutput),
        }
    }

    /// Synchronous single MVM.
    ///
    /// # Errors
    ///
    /// Handle and shard errors.
    pub fn mvm(&self, op: OperatorHandle, x: &[f64]) -> Result<Vec<f64>, RuntimeError> {
        let jh = self.submit_mvm(op, x.to_vec())?;
        self.run_all();
        jh.wait_vector()
    }

    /// Synchronous batch MVM.
    ///
    /// # Errors
    ///
    /// Handle and shard errors.
    pub fn mvm_batch(
        &self,
        op: OperatorHandle,
        xs: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, RuntimeError> {
        let jh = self.submit_mvm_batch(op, xs.to_vec())?;
        self.run_all();
        jh.wait_vectors()
    }

    /// Synchronous single-RHS INV solve.
    ///
    /// # Errors
    ///
    /// Handle and shard errors.
    pub fn solve_inv(&self, op: OperatorHandle, b: &[f64]) -> Result<Vec<f64>, RuntimeError> {
        let jh = self.submit_solve_inv(op, b.to_vec())?;
        self.run_all();
        jh.wait_vector()
    }

    /// Synchronous multi-RHS INV solve.
    ///
    /// # Errors
    ///
    /// Handle and shard errors.
    pub fn solve_inv_batch(
        &self,
        op: OperatorHandle,
        bs: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, RuntimeError> {
        let jh = self.submit_solve_inv_batch(op, bs.to_vec())?;
        self.run_all();
        jh.wait_vectors()
    }

    /// Synchronous multi-RHS PINV (least-squares) solve.
    ///
    /// # Errors
    ///
    /// Handle and shard errors.
    pub fn solve_pinv_batch(
        &self,
        op: OperatorHandle,
        bs: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, RuntimeError> {
        let jh = self.submit_solve_pinv_batch(op, bs.to_vec())?;
        self.run_all();
        jh.wait_vectors()
    }

    /// Synchronous free.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::DoubleFree`] / [`RuntimeError::InvalidHandle`].
    pub fn free(&self, op: OperatorHandle) -> Result<(), RuntimeError> {
        let jh = self.submit_free(op)?;
        self.run_all();
        jh.wait().map(|_| ())
    }

    // ── the drain loop ────────────────────────────────────────────────

    /// Drains every queue to empty. With the `parallel` feature one scoped
    /// worker per shard runs concurrently (idle workers steal from the back
    /// of peers' deques); without it the calling thread plays worker 0 and
    /// steals everything itself. Either way every shard retires its jobs in
    /// ticket order, so results are identical.
    ///
    /// Job failures are reported through their [`JobHandle`]s, not here —
    /// but a job that *panics* (as opposed to returning an error) retires
    /// its ticket, fills its handles with [`RuntimeError::JobPanicked`]
    /// (so waiters on other threads wake instead of hanging) and then
    /// propagates the panic out of `run_all`; the runtime must not be
    /// reused after that.
    pub fn run_all(&self) -> RunSummary {
        let executed_before: Vec<usize> =
            self.executed.iter().map(|c| c.load(Ordering::SeqCst)).collect();
        let stolen_before = self.stolen.load(Ordering::SeqCst);
        let failed_before = self.failed_checks.load(Ordering::SeqCst);
        let degraded_before = self.degraded.load(Ordering::SeqCst);
        #[cfg(feature = "telemetry")]
        let hw_before = self.telemetry.kind_hw_total();
        self.drain();
        let per_worker: Vec<usize> = self
            .executed
            .iter()
            .zip(&executed_before)
            .map(|(c, b)| c.load(Ordering::SeqCst) - b)
            .collect();
        RunSummary {
            executed: per_worker.iter().sum(),
            stolen: self.stolen.load(Ordering::SeqCst) - stolen_before,
            per_worker,
            failed_checks: self.failed_checks.load(Ordering::SeqCst) - failed_before,
            degraded: self.degraded.load(Ordering::SeqCst) - degraded_before,
            events: std::mem::take(&mut *self.events.lock().expect("events lock")),
            #[cfg(feature = "telemetry")]
            hw: self.telemetry.kind_hw_total().since(&hw_before),
        }
    }

    // ── telemetry ─────────────────────────────────────────────────────

    /// A consistent cut of the serving metrics: lifecycle latency
    /// histograms, the queue-depth high-water mark, per-shard scheduler
    /// counters and per-job-kind hardware attribution. Cheap (atomic
    /// loads); callable at any time, including between drains.
    #[cfg(feature = "telemetry")]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::capture(
            &self.telemetry,
            self.remaining.load(Ordering::SeqCst),
            &self.tenants.entries(),
        )
    }

    /// The telemetry sink, for in-crate observers (the SLO monitor).
    #[cfg(feature = "telemetry")]
    pub(crate) fn rt_telemetry(&self) -> &RtTelemetry {
        &self.telemetry
    }

    /// Total hardware counters summed across every shard's macro group.
    /// Unlike the per-kind attribution in
    /// [`metrics_snapshot`](Self::metrics_snapshot), this includes work
    /// driven through [`shard_group`](Self::shard_group) directly. Briefly
    /// locks each
    /// group in turn — do not call while holding a shard group guard.
    #[cfg(feature = "telemetry")]
    pub fn hw_snapshot(&self) -> HwSnapshot {
        let mut total = HwSnapshot::default();
        for s in &self.shards {
            total += &s.group.lock().expect("shard lock").hw_snapshot();
        }
        total
    }

    /// The event journal (job spans, coalesce/submit instants, health
    /// events) exported in chrome://tracing trace-event JSON.
    #[cfg(feature = "telemetry")]
    pub fn journal_chrome_trace(&self) -> String {
        self.telemetry.journal.to_chrome_trace()
    }

    #[cfg(feature = "parallel")]
    fn drain(&self) {
        let workers = self.queues.len();
        if workers <= 1 {
            self.worker_loop(0);
            return;
        }
        std::thread::scope(|scope| {
            for w in 0..workers {
                scope.spawn(move || self.worker_loop(w));
            }
        });
    }

    #[cfg(not(feature = "parallel"))]
    fn drain(&self) {
        // Single-threaded fallback: worker 0 pops its own queue and
        // "steals" every other queue dry, honoring the same tickets.
        self.worker_loop(0);
    }

    fn worker_loop(&self, w: usize) {
        let mut idle = 0u32;
        while self.remaining.load(Ordering::SeqCst) > 0 {
            let advanced = match self.grab_job(w) {
                Some(job) => self.try_execute(w, job),
                None => false,
            };
            if advanced {
                idle = 0;
            } else {
                // Nothing runnable right now (peers hold the due tickets):
                // yield briefly, then back off to a micro-sleep.
                idle += 1;
                if idle < 64 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
    }

    // ── persistent serving ────────────────────────────────────────────

    /// Jobs retired so far across all workers (lifetime total).
    pub(crate) fn executed_total(&self) -> usize {
        self.executed.iter().map(|c| c.load(Ordering::SeqCst)).sum()
    }

    /// Marks the runtime as served by persistent workers (submissions start
    /// notifying the park condvar) and clears any previous shutdown flag.
    /// Called by [`RuntimeServer::start`](crate::RuntimeServer::start).
    pub(crate) fn begin_serving(&self) {
        self.serve.shutdown.store(false, Ordering::SeqCst);
        self.serve.active.store(true, Ordering::SeqCst);
    }

    /// Raises the shutdown flag and wakes every parked worker. Workers
    /// finish draining the queues before exiting, so in-flight jobs still
    /// complete (graceful shutdown).
    pub(crate) fn signal_shutdown(&self) {
        self.serve.shutdown.store(true, Ordering::SeqCst);
        drop(self.serve.park.lock().expect("serve lock"));
        self.serve.wake.notify_all();
    }

    /// Marks serving over (submissions stop notifying the condvar). Called
    /// after every serving worker has joined.
    pub(crate) fn end_serving(&self) {
        self.serve.active.store(false, Ordering::SeqCst);
    }

    /// Times a serving worker has gone to sleep so far.
    #[cfg(test)]
    pub(crate) fn parks(&self) -> usize {
        self.serve.parks.load(Ordering::SeqCst)
    }

    /// Body of one persistent serving worker: [`worker_loop`](Self::worker_loop)
    /// that parks on the serve condvar instead of returning when the queues
    /// run dry, and exits only once shutdown is signalled **and** every
    /// queued job has retired.
    pub(crate) fn serve_loop(&self, w: usize) {
        let mut idle = 0u32;
        loop {
            if self.remaining.load(Ordering::SeqCst) == 0 {
                if self.serve.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let guard = self.serve.park.lock().expect("serve lock");
                // Re-check under the park mutex, then sleep until notified.
                // No wakeup can be lost: only `enqueue_job` raises
                // `remaining`, and after raising it takes this mutex before
                // notifying. Either it took the mutex before this re-check,
                // which then sees the job, or only once `wait` released it,
                // so the notification finds this worker asleep.
                // `signal_shutdown` raises its flag the same way.
                if self.remaining.load(Ordering::SeqCst) == 0
                    && !self.serve.shutdown.load(Ordering::SeqCst)
                {
                    #[cfg(test)]
                    self.serve.parks.fetch_add(1, Ordering::SeqCst);
                    drop(self.serve.wake.wait(guard).expect("serve lock"));
                }
                idle = 0;
                continue;
            }
            let advanced = match self.grab_job(w) {
                Some(job) => self.try_execute(w, job),
                None => false,
            };
            if advanced {
                idle = 0;
            } else {
                idle += 1;
                if idle < 64 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
    }

    /// Whether the job's shard has retired every earlier ticket, i.e. the
    /// job may execute right now.
    fn is_due(&self, job: &Job) -> bool {
        self.shards[job.shard].exec_ticket.load(Ordering::SeqCst) == job.ticket
    }

    /// Own deque front first; otherwise steal from a peer's deque, taking
    /// the job **closest to its back whose ticket is due**. Stealing only
    /// runnable jobs is what keeps a lone worker (the single-threaded
    /// fallback, or the last awake worker) from spinning on a stolen job
    /// whose predecessors it itself still has to run.
    fn grab_job(&self, w: usize) -> Option<Job> {
        if let Some(job) = self.queues[w].lock().expect("queue lock").pop_front() {
            return Some(job);
        }
        let n = self.queues.len();
        for d in 1..n {
            let peer = (w + d) % n;
            let mut queue = self.queues[peer].lock().expect("queue lock");
            if let Some(idx) = queue.iter().rposition(|job| self.is_due(job)) {
                let job = queue.remove(idx).expect("index from rposition");
                self.stolen.fetch_add(1, Ordering::SeqCst);
                #[cfg(feature = "telemetry")]
                self.telemetry.per_shard[job.shard].steals.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    /// Runs the job if its shard's program order allows it; otherwise puts
    /// it back on this worker's deque (only a job whose predecessor is
    /// mid-execution on another worker lands here, so the wait is
    /// bounded). Workers never block holding a job, which is what keeps
    /// stealing deadlock-free.
    fn try_execute(&self, w: usize, mut job: Job) -> bool {
        let shard = &self.shards[job.shard];
        if !self.is_due(&job) {
            self.queues[w].lock().expect("queue lock").push_back(job);
            return false;
        }
        // A panicking job must still retire its ticket and decrement
        // `remaining`, or the surviving workers would spin on the stuck
        // shard forever while `std::thread::scope` waits for them. Its
        // slots are filled with `JobPanicked` so waiters on other threads
        // wake with an error instead of hanging; the panic itself is
        // re-raised below and propagates out of `run_all`. (A coalesced
        // dispatch hydrates its riders' slots into the job before
        // executing, so the panic fill covers them too.)
        //
        // `kind_ix` is taken *before* hydration turns an `MvmMany` into an
        // `MvmSet`, so coalesced batches keep attributing as `mvm_many`.
        #[cfg(feature = "telemetry")]
        let (dispatched, span_start, kind_ix) =
            (std::time::Instant::now(), self.telemetry.journal.now_ns(), kind_index(&job.kind));
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut group = shard.group.lock().expect("shard lock");
            // Snapshot-diff under the shard lock: no other job of this
            // shard can interleave, so the delta is exactly this job's.
            #[cfg(feature = "telemetry")]
            {
                let hw_before = group.hw_snapshot();
                let verdict = self.run_kind(&mut group, &mut job);
                (verdict, group.hw_snapshot().since(&hw_before))
            }
            #[cfg(not(feature = "telemetry"))]
            {
                self.run_kind(&mut group, &mut job)
            }
        }));
        shard.exec_ticket.store(job.ticket + 1, Ordering::SeqCst);
        self.executed[w].fetch_add(1, Ordering::SeqCst);
        // Aggregation happens outside the shard lock (only the snapshot
        // diff needs it): global per-kind counters first, then the
        // tenant split — each rider's share proportional to its row
        // weight, remainder-exact, so the tenant totals always sum to the
        // per-kind totals bit-for-bit.
        #[cfg(feature = "telemetry")]
        let run = run.map(|(verdict, delta)| {
            self.telemetry.record_job(kind_ix, &delta);
            if !job.meta.is_empty() {
                let weights: Vec<u64> = job.meta.iter().map(|m| m.rows).collect();
                let shares = split_hw(&delta, &weights);
                for (m, share) in job.meta.iter().zip(&shares) {
                    self.tenants.entry(m.tenant).hw.add_snapshot(share);
                }
            }
            verdict
        });
        #[cfg(feature = "telemetry")]
        {
            let completed = std::time::Instant::now();
            let exec_ns = completed.duration_since(dispatched).as_nanos() as u64;
            let t = &self.telemetry;
            t.submit_to_dispatch
                .record_ns(dispatched.duration_since(job.submitted).as_nanos() as u64);
            t.dispatch_to_complete.record_ns(exec_ns);
            t.submit_to_complete
                .record_ns(completed.duration_since(job.submitted).as_nanos() as u64);
            t.per_shard[job.shard].busy_ns.fetch_add(exec_ns, Ordering::Relaxed);
            let exec_dur = exec_ns.max(1);
            let end_ns = span_start + exec_dur;
            // Per-tenant latency: one record per riding request, per
            // dispatch (a re-dispatched job restarts the clock, matching
            // the global serving histograms).
            for m in &job.meta {
                self.tenants.entry(m.tenant).latency.record_ns(end_ns.saturating_sub(m.submit_ns));
            }
            // The submit→complete breakdown as two abutting duration spans:
            // the queue wait on the job's shard lane, the execution on the
            // executing worker's lane. The queued span doubles as the lead
            // request's flow *start*; riders of a hydrated coalesced batch
            // get their own queue-wait span (their wait began at their own
            // submission) starting their own flow.
            let lead_flow = job.meta.first().map_or(0, |m| m.request.0);
            t.journal.record(JournalEvent {
                name: kind_queued_name(kind_ix),
                category: "runtime",
                ts_ns: job.submit_ns,
                dur_ns: span_start.saturating_sub(job.submit_ns).max(1),
                arg_a: job.shard as u64,
                arg_b: job.ticket,
                flow: if lead_flow == 0 { FlowPhase::None } else { FlowPhase::Start },
                flow_id: lead_flow,
            });
            for m in job.meta.iter().skip(1) {
                t.journal.record(JournalEvent {
                    name: "queued:rider",
                    category: "runtime",
                    ts_ns: m.submit_ns,
                    dur_ns: span_start.saturating_sub(m.submit_ns).max(1),
                    arg_a: job.shard as u64,
                    arg_b: job.ticket,
                    flow: FlowPhase::Start,
                    flow_id: m.request.0,
                });
            }
            // The execution span, recorded explicitly so each request's
            // flow *end* can land at its midpoint — that is how chrome
            // (and `trace_analyze`) bind the arrows to this slice.
            t.journal.record(JournalEvent {
                name: kind_span_name(kind_ix),
                category: "runtime",
                ts_ns: span_start,
                dur_ns: exec_dur,
                arg_a: WORKER_LANE_BASE + w as u64,
                arg_b: job.ticket,
                ..JournalEvent::default()
            });
            for m in &job.meta {
                t.journal.record(JournalEvent {
                    name: "req",
                    category: "flow",
                    ts_ns: span_start + exec_dur / 2,
                    dur_ns: 0,
                    arg_a: WORKER_LANE_BASE + w as u64,
                    arg_b: m.rows,
                    flow: FlowPhase::End,
                    flow_id: m.request.0,
                });
            }
        }
        // Recovery runs here, after the group lock is released — healing
        // locks other shards' groups and must never do so while holding
        // one. `remaining` is decremented for the original job LAST, after
        // any re-dispatch has incremented it, so a lone re-enqueued job
        // can never make `remaining` touch zero and end the drain early.
        match run {
            Ok(Verdict::Done) => {}
            Ok(Verdict::Requeue { to, kind, slots, meta }) => {
                #[cfg(feature = "telemetry")]
                self.telemetry.per_shard[job.shard].requeues.fetch_add(1, Ordering::Relaxed);
                self.enqueue_job(to, kind, slots, meta, job.retries);
            }
            Ok(Verdict::Failed { kind, slots, meta }) => {
                self.handle_failure(job.shard, job.retries, kind, slots, meta);
            }
            Ok(Verdict::ShardSuspect) => {
                self.note_failure(job.shard);
            }
            Err(payload) => {
                self.remaining.fetch_sub(1, Ordering::SeqCst);
                for slot in &job.slots {
                    slot.fill(Err(RuntimeError::JobPanicked));
                }
                std::panic::resume_unwind(payload);
            }
        }
        self.remaining.fetch_sub(1, Ordering::SeqCst);
        true
    }

    /// Executes the job body against its shard's group, fills its slots,
    /// and reports what the recovery path (running later, outside the
    /// group lock) must do. The registry lock is only ever taken *inside*
    /// (leaf lock).
    ///
    /// An `MvmMany` dispatch is **hydrated** first: the operator's pending
    /// batch (inputs, result slots, request metadata) drains into the job
    /// and the kind becomes `MvmSet` — so by the time anything can fail or
    /// panic, the riders' slots are the job's slots and every completion
    /// path in [`try_execute`](Self::try_execute) covers them.
    fn run_kind(&self, group: &mut MacroGroup, job: &mut Job) -> Verdict {
        if let JobKind::MvmMany { handle } = &job.kind {
            let handle = *handle;
            // Drain whatever the batch accumulated between its opening
            // submission and now (nothing, if a redundant dispatch raced).
            let Some(batch) = self.pending_mvm.lock().expect("pending lock").remove(&handle) else {
                return Verdict::Done;
            };
            job.kind = JobKind::MvmSet { handle, xs: batch.xs };
            job.slots = batch.slots;
            job.meta = batch.meta;
        }
        // One registry lookup decides where a compute job actually runs.
        // A job whose operator is still homed on a *quarantined* shard hit
        // the migration window: bounce it (a requeue that burns no retry)
        // until the healer has relocated or demoted the operator, instead
        // of wasting analog dispatches — and the job's retries — on arrays
        // already known to be bad.
        let route = |op: OperatorHandle| -> Route {
            let reg = self.registry.lock().expect("registry lock");
            match reg.exec_target(op) {
                Err(e) => Route::Fail(e),
                Ok(ExecTarget::Digital(m)) => Route::Digital(m),
                Ok(ExecTarget::Analog { shard, id }) => {
                    if shard == job.shard && !reg.is_quarantined(shard) {
                        Route::Run(id)
                    } else {
                        Route::Requeue(shard)
                    }
                }
            }
        };
        match &job.kind {
            JobKind::MvmMany { .. } => {
                unreachable!("hydrated into MvmSet above")
            }
            JobKind::MvmSet { handle, xs } => match route(*handle) {
                Route::Fail(e) => {
                    for slot in &job.slots {
                        slot.fill(Err(e.clone()));
                    }
                    Verdict::Done
                }
                Route::Digital(m) => {
                    for (slot, x) in job.slots.iter().zip(xs) {
                        slot.fill(Ok(JobOutput::Vector(m.matvec(x))));
                    }
                    self.degraded.fetch_add(1, Ordering::SeqCst);
                    Verdict::Done
                }
                Route::Requeue(to) => Verdict::Requeue {
                    to,
                    kind: job.kind.clone(),
                    slots: job.slots.clone(),
                    meta: job.meta.clone(),
                },
                Route::Run(id) => match group.mvm_batch(id, xs) {
                    Ok(ys) => {
                        if !self.mvm_residuals_ok(group, id, xs, &ys) {
                            return Verdict::Failed {
                                kind: job.kind.clone(),
                                slots: job.slots.clone(),
                                meta: job.meta.clone(),
                            };
                        }
                        for (slot, y) in job.slots.iter().zip(ys) {
                            slot.fill(Ok(JobOutput::Vector(y)));
                        }
                        Verdict::Done
                    }
                    Err(e) => {
                        for slot in &job.slots {
                            slot.fill(Err(RuntimeError::from(e.clone())));
                        }
                        Verdict::Done
                    }
                },
            },
            JobKind::MvmBatch { handle, xs } => match route(*handle) {
                Route::Fail(e) => {
                    job.slots[0].fill(Err(e));
                    Verdict::Done
                }
                Route::Digital(m) => {
                    let ys = xs.iter().map(|x| m.matvec(x)).collect();
                    job.slots[0].fill(Ok(JobOutput::Vectors(ys)));
                    self.degraded.fetch_add(1, Ordering::SeqCst);
                    Verdict::Done
                }
                Route::Requeue(to) => Verdict::Requeue {
                    to,
                    kind: job.kind.clone(),
                    slots: job.slots.clone(),
                    meta: job.meta.clone(),
                },
                Route::Run(id) => match group.mvm_batch(id, xs) {
                    Ok(ys) => {
                        if !self.mvm_residuals_ok(group, id, xs, &ys) {
                            return Verdict::Failed {
                                kind: job.kind.clone(),
                                slots: job.slots.clone(),
                                meta: job.meta.clone(),
                            };
                        }
                        job.slots[0].fill(Ok(JobOutput::Vectors(ys)));
                        Verdict::Done
                    }
                    Err(e) => {
                        job.slots[0].fill(Err(e.into()));
                        Verdict::Done
                    }
                },
            },
            JobKind::SolveInv { handle, b } => match route(*handle) {
                Route::Fail(e) => {
                    job.slots[0].fill(Err(e));
                    Verdict::Done
                }
                Route::Digital(m) => {
                    job.slots[0].fill(Self::digital_solve(&m, b).map(JobOutput::Vector));
                    self.degraded.fetch_add(1, Ordering::SeqCst);
                    Verdict::Done
                }
                Route::Requeue(to) => Verdict::Requeue {
                    to,
                    kind: job.kind.clone(),
                    slots: job.slots.clone(),
                    meta: job.meta.clone(),
                },
                Route::Run(id) => match group.solve_inv(id, b) {
                    Ok(x) => {
                        if !self.solve_residuals_ok(
                            group,
                            id,
                            std::slice::from_ref(b),
                            std::slice::from_ref(&x),
                        ) {
                            return Verdict::Failed {
                                kind: job.kind.clone(),
                                slots: job.slots.clone(),
                                meta: job.meta.clone(),
                            };
                        }
                        job.slots[0].fill(Ok(JobOutput::Vector(x)));
                        Verdict::Done
                    }
                    Err(e) => {
                        job.slots[0].fill(Err(e.into()));
                        Verdict::Done
                    }
                },
            },
            JobKind::SolveInvBatch { handle, bs } => match route(*handle) {
                Route::Fail(e) => {
                    job.slots[0].fill(Err(e));
                    Verdict::Done
                }
                Route::Digital(m) => {
                    let xs: Result<Vec<_>, _> =
                        bs.iter().map(|b| Self::digital_solve(&m, b)).collect();
                    job.slots[0].fill(xs.map(JobOutput::Vectors));
                    self.degraded.fetch_add(1, Ordering::SeqCst);
                    Verdict::Done
                }
                Route::Requeue(to) => Verdict::Requeue {
                    to,
                    kind: job.kind.clone(),
                    slots: job.slots.clone(),
                    meta: job.meta.clone(),
                },
                Route::Run(id) => match group.solve_inv_batch(id, bs) {
                    Ok(xs) => {
                        if !self.solve_residuals_ok(group, id, bs, &xs) {
                            return Verdict::Failed {
                                kind: job.kind.clone(),
                                slots: job.slots.clone(),
                                meta: job.meta.clone(),
                            };
                        }
                        job.slots[0].fill(Ok(JobOutput::Vectors(xs)));
                        Verdict::Done
                    }
                    Err(e) => {
                        job.slots[0].fill(Err(e.into()));
                        Verdict::Done
                    }
                },
            },
            JobKind::SolvePinvBatch { handle, bs } => match route(*handle) {
                Route::Fail(e) => {
                    job.slots[0].fill(Err(e));
                    Verdict::Done
                }
                Route::Digital(m) => {
                    let xs: Result<Vec<_>, _> =
                        bs.iter().map(|b| Self::digital_least_squares(&m, b)).collect();
                    job.slots[0].fill(xs.map(JobOutput::Vectors));
                    self.degraded.fetch_add(1, Ordering::SeqCst);
                    Verdict::Done
                }
                Route::Requeue(to) => Verdict::Requeue {
                    to,
                    kind: job.kind.clone(),
                    slots: job.slots.clone(),
                    meta: job.meta.clone(),
                },
                Route::Run(id) => match group.solve_pinv_batch(id, bs) {
                    Ok(xs) => {
                        if !self.pinv_residuals_ok(group, id, bs, &xs) {
                            return Verdict::Failed {
                                kind: job.kind.clone(),
                                slots: job.slots.clone(),
                                meta: job.meta.clone(),
                            };
                        }
                        job.slots[0].fill(Ok(JobOutput::Vectors(xs)));
                        Verdict::Done
                    }
                    Err(e) => {
                        job.slots[0].fill(Err(e.into()));
                        Verdict::Done
                    }
                },
            },
            JobKind::Load { handle, matrix, mapping } => {
                self.run_load(group, job, *handle, matrix, *mapping)
            }
            JobKind::Free { handle } => {
                let target =
                    self.registry.lock().expect("registry lock").retire_on(*handle, job.shard);
                match target {
                    Ok(FreeTarget::Local(Some(id))) => {
                        let result = group.free_operator(id).map_err(RuntimeError::from);
                        job.slots[0].fill(result.map(|()| JobOutput::Freed));
                        Verdict::Done
                    }
                    Ok(FreeTarget::Local(None)) => {
                        job.slots[0].fill(Ok(JobOutput::Freed));
                        Verdict::Done
                    }
                    Ok(FreeTarget::Moved(to)) => Verdict::Requeue {
                        to,
                        kind: job.kind.clone(),
                        slots: job.slots.clone(),
                        meta: job.meta.clone(),
                    },
                    Err(e) => {
                        job.slots[0].fill(Err(e));
                        Verdict::Done
                    }
                }
            }
        }
    }

    /// The `Load` arm: places the matrix on the job's shard, enforcing the
    /// health policy's write-verify threshold with bounded reprogram
    /// retries; a quarantined shard fulfils the load on the digital
    /// fallback path instead.
    fn run_load(
        &self,
        group: &mut MacroGroup,
        job: &Job,
        handle: OperatorHandle,
        matrix: &Matrix,
        mapping: TileMapping,
    ) -> Verdict {
        if self.registry.lock().expect("registry lock").is_quarantined(job.shard) {
            self.registry.lock().expect("registry lock").fulfill_digital(handle);
            self.degraded.fetch_add(1, Ordering::SeqCst);
            self.push_event(HealthEvent::OperatorDegraded { op: handle, shard: job.shard });
            job.slots[0].fill(Ok(JobOutput::Loaded(handle)));
            return Verdict::Done;
        }
        let mut attempt = 0;
        loop {
            let loaded = match mapping {
                TileMapping::FourBit => group.load_matrix(matrix),
                TileMapping::BitSlicedInt8 => group.load_matrix_bitsliced(matrix),
            };
            match loaded {
                Ok(id) => {
                    let program = group.operator_info(id).expect("just loaded").program;
                    if program.failure_frac() <= self.health_cfg.max_load_failure_frac {
                        self.registry.lock().expect("registry lock").fulfill(handle, id);
                        job.slots[0].fill(Ok(JobOutput::Loaded(handle)));
                        return Verdict::Done;
                    }
                    // Over threshold: release the botched planes and either
                    // reprogram (fresh pulse noise) or give up with a typed
                    // error, flagging the shard to the health monitor.
                    group.free_operator(id).expect("freeing the operator just loaded");
                    attempt += 1;
                    if attempt > self.health_cfg.max_retries {
                        self.registry.lock().expect("registry lock").abandon(handle);
                        self.push_event(HealthEvent::LoadFailedVerify {
                            shard: job.shard,
                            failed_cells: program.failures,
                            total_cells: program.cells,
                        });
                        job.slots[0].fill(Err(RuntimeError::ProgramVerifyFailed {
                            failed_cells: program.failures,
                            total_cells: program.cells,
                        }));
                        return Verdict::ShardSuspect;
                    }
                }
                Err(e) => {
                    self.registry.lock().expect("registry lock").abandon(handle);
                    job.slots[0].fill(Err(e.into()));
                    return Verdict::Done;
                }
            }
        }
    }

    // ── health monitoring and recovery ────────────────────────────────

    /// Whether every result of an MVM dispatch sits within the residual
    /// tolerance of the operator's quantized target (always true with
    /// checks disabled).
    fn mvm_residuals_ok(
        &self,
        group: &MacroGroup,
        id: gramc_core::OperatorId,
        xs: &[Vec<f64>],
        ys: &[Vec<f64>],
    ) -> bool {
        let Some(tol) = self.health_cfg.residual_tolerance else {
            return true;
        };
        let Ok(info) = group.operator_info(id) else {
            return true;
        };
        xs.iter().zip(ys).all(|(x, y)| {
            let y_ref = info.quantized.matvec(x);
            vector::rel_error(y, &y_ref) <= tol
        })
    }

    /// Whether every solve satisfies `‖A·x − b‖/‖b‖ ≤ tol` against the
    /// quantized operator (always true with checks disabled).
    fn solve_residuals_ok(
        &self,
        group: &MacroGroup,
        id: gramc_core::OperatorId,
        bs: &[Vec<f64>],
        xs: &[Vec<f64>],
    ) -> bool {
        let Some(tol) = self.health_cfg.residual_tolerance else {
            return true;
        };
        let Ok(info) = group.operator_info(id) else {
            return true;
        };
        bs.iter().zip(xs).all(|(b, x)| {
            let ax = info.quantized.matvec(x);
            vector::rel_error(&ax, b) <= tol
        })
    }

    /// Whether every PINV solution sits within the residual tolerance of
    /// the digital least-squares answer on the quantized operator (always
    /// true with checks disabled). `‖A·x − b‖` is not small for an
    /// overdetermined system, so unlike [`solve_residuals_ok`]
    /// (Self::solve_residuals_ok) the check compares solutions, not
    /// residual norms.
    fn pinv_residuals_ok(
        &self,
        group: &MacroGroup,
        id: gramc_core::OperatorId,
        bs: &[Vec<f64>],
        xs: &[Vec<f64>],
    ) -> bool {
        let Some(tol) = self.health_cfg.residual_tolerance else {
            return true;
        };
        let Ok(info) = group.operator_info(id) else {
            return true;
        };
        bs.iter().zip(xs).all(|(b, x)| match qr::least_squares(&info.quantized, b) {
            Ok(x_ref) => vector::rel_error(x, &x_ref) <= tol,
            // A rank-deficient reference cannot arbitrate — pass the check.
            Err(_) => true,
        })
    }

    /// Digital-reference solve on the registry's kept matrix.
    fn digital_solve(matrix: &Matrix, b: &[f64]) -> Result<Vec<f64>, RuntimeError> {
        lu::solve(matrix, b).map_err(|e| RuntimeError::from(CoreError::from(e)))
    }

    /// Digital-reference least squares (the PINV fallback path).
    fn digital_least_squares(matrix: &Matrix, b: &[f64]) -> Result<Vec<f64>, RuntimeError> {
        qr::least_squares(matrix, b).map_err(|e| RuntimeError::from(CoreError::from(e)))
    }

    fn push_event(&self, event: HealthEvent) {
        #[cfg(feature = "telemetry")]
        {
            let (name, a, b) = match &event {
                HealthEvent::ShardQuarantined { shard, failures } => {
                    ("shard_quarantined", *shard as u64, u64::from(*failures))
                }
                HealthEvent::OperatorMigrated { from, to, .. } => {
                    ("operator_migrated", *from as u64, *to as u64)
                }
                HealthEvent::OperatorDegraded { shard, .. } => {
                    ("operator_degraded", *shard as u64, 0)
                }
                HealthEvent::LoadFailedVerify { shard, failed_cells, .. } => {
                    ("load_failed_verify", *shard as u64, *failed_cells as u64)
                }
            };
            self.telemetry.journal.instant(name, "health", a, b);
        }
        self.events.lock().expect("events lock").push(event);
    }

    /// Records one failed check against `shard` and quarantines it (with
    /// migration) once the failure count crosses the policy threshold.
    /// Must not be called while holding any shard's group lock.
    fn note_failure(&self, shard: usize) {
        let failures = self.health[shard].failures.fetch_add(1, Ordering::SeqCst) + 1;
        self.failed_checks.fetch_add(1, Ordering::SeqCst);
        if failures >= self.health_cfg.quarantine_after {
            self.heal_shard(shard, failures);
        }
    }

    /// Recovery for a job whose result failed its residual check: count
    /// the failure (possibly quarantining the shard), then re-dispatch the
    /// job to its operator's current home — or, out of retries, answer it
    /// from the digital reference path. Called outside all group locks.
    fn handle_failure(
        &self,
        shard: usize,
        retries: u32,
        kind: JobKind,
        slots: Vec<Arc<Slot>>,
        meta: Vec<RequestMeta>,
    ) {
        self.note_failure(shard);
        let Some(op) = kind.operator() else {
            unreachable!("only compute jobs fail residual checks");
        };
        if retries < self.health_cfg.max_retries {
            match self.registry.lock().expect("registry lock").exec_target(op) {
                Ok(ExecTarget::Analog { shard: home, .. }) => {
                    #[cfg(feature = "telemetry")]
                    self.telemetry.per_shard[shard].retries.fetch_add(1, Ordering::Relaxed);
                    self.enqueue_job(home, kind, slots, meta, retries + 1);
                    return;
                }
                Ok(ExecTarget::Digital(_)) => {} // fall through to digital
                Err(e) => {
                    for slot in &slots {
                        slot.fill(Err(e.clone()));
                    }
                    return;
                }
            }
        }
        // Out of retries (or the operator was degraded meanwhile): answer
        // digitally from the registry's matrix so the caller still gets a
        // result, and record the degradation.
        let matrix = match self.registry.lock().expect("registry lock").matrix_and_mapping(op) {
            Ok((m, _)) => m,
            Err(e) => {
                for slot in &slots {
                    slot.fill(Err(e.clone()));
                }
                return;
            }
        };
        self.degraded.fetch_add(1, Ordering::SeqCst);
        self.push_event(HealthEvent::OperatorDegraded { op, shard });
        match kind {
            JobKind::MvmSet { xs, .. } => {
                for (slot, x) in slots.iter().zip(&xs) {
                    slot.fill(Ok(JobOutput::Vector(matrix.matvec(x))));
                }
            }
            JobKind::MvmBatch { xs, .. } => {
                let ys = xs.iter().map(|x| matrix.matvec(x)).collect();
                slots[0].fill(Ok(JobOutput::Vectors(ys)));
            }
            JobKind::SolveInv { b, .. } => {
                slots[0].fill(Self::digital_solve(&matrix, &b).map(JobOutput::Vector));
            }
            JobKind::SolveInvBatch { bs, .. } => {
                let xs: Result<Vec<_>, _> =
                    bs.iter().map(|b| Self::digital_solve(&matrix, b)).collect();
                slots[0].fill(xs.map(JobOutput::Vectors));
            }
            JobKind::SolvePinvBatch { bs, .. } => {
                let xs: Result<Vec<_>, _> =
                    bs.iter().map(|b| Self::digital_least_squares(&matrix, b)).collect();
                slots[0].fill(xs.map(JobOutput::Vectors));
            }
            JobKind::MvmMany { .. } | JobKind::Load { .. } | JobKind::Free { .. } => {
                unreachable!("these kinds never carry a Failed verdict")
            }
        }
    }

    /// Quarantines `sick` and migrates its analog operators to healthy
    /// shards (re-programming each matrix through the normal load path);
    /// with no healthy shard left, operators degrade to the digital
    /// fallback. Guarded so exactly one thread heals a given shard, and
    /// never called while holding a group lock — it locks one group at a
    /// time (target, then sick), with the registry only as a leaf.
    fn heal_shard(&self, sick: usize, failures: u32) {
        if self.health[sick].healing.swap(true, Ordering::SeqCst) {
            return;
        }
        let ops = {
            let mut reg = self.registry.lock().expect("registry lock");
            if !reg.quarantine(sick) {
                return;
            }
            reg.analog_ops_on(sick)
        };
        #[cfg(feature = "telemetry")]
        self.telemetry.per_shard[sick].quarantines.fetch_add(1, Ordering::Relaxed);
        self.push_event(HealthEvent::ShardQuarantined { shard: sick, failures });
        for (op, old_id) in ops {
            let Ok((matrix, mapping)) =
                self.registry.lock().expect("registry lock").matrix_and_mapping(op)
            else {
                continue;
            };
            let target = self.registry.lock().expect("registry lock").migration_target();
            let migrated = target.and_then(|to| {
                let mut group = self.shards[to].group.lock().expect("shard lock");
                let loaded = match mapping {
                    TileMapping::FourBit => group.load_matrix(&matrix),
                    TileMapping::BitSlicedInt8 => group.load_matrix_bitsliced(&matrix),
                };
                loaded.ok().map(|new_id| (to, new_id))
            });
            match migrated {
                Some((to, new_id)) => {
                    self.registry.lock().expect("registry lock").relocate(op, to, new_id);
                    self.push_event(HealthEvent::OperatorMigrated { op, from: sick, to });
                }
                None => {
                    self.registry.lock().expect("registry lock").demote_to_digital(op);
                    self.degraded.fetch_add(1, Ordering::SeqCst);
                    self.push_event(HealthEvent::OperatorDegraded { op, shard: sick });
                }
            }
            // Either way the sick shard's planes are released — harmless
            // if the shard is truly broken, and it keeps the group's
            // capacity bookkeeping exact.
            let mut group = self.shards[sick].group.lock().expect("shard lock");
            let _ = group.free_operator(old_id);
        }
    }

    // ── health introspection and probing ──────────────────────────────

    /// Shards currently quarantined.
    pub fn quarantined_shards(&self) -> Vec<usize> {
        self.registry.lock().expect("registry lock").quarantined_shards()
    }

    /// Failed health checks recorded against `shard` so far.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_failures(&self, shard: usize) -> u32 {
        self.health[shard].failures.load(Ordering::SeqCst)
    }

    /// Health-probes every analog operator on `shard`: reads its planes
    /// back through [`MacroGroup::health_probe`] and feeds the per-shard
    /// failure counters — a probe whose residual exceeds
    /// [`HealthConfig::probe_residual_tolerance`] counts as a failed
    /// check and can quarantine the shard (triggering migration) just
    /// like a failed job would.
    ///
    /// Call between drains, not while holding a shard group guard.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BadShard`] if out of range; probe errors from the
    /// group.
    pub fn probe_shard(
        &self,
        shard: usize,
    ) -> Result<Vec<(OperatorHandle, ProbeReport)>, RuntimeError> {
        if shard >= self.shards.len() {
            return Err(RuntimeError::BadShard { shard, shards: self.shards.len() });
        }
        let ops = self.registry.lock().expect("registry lock").analog_ops_on(shard);
        let mut reports = Vec::with_capacity(ops.len());
        #[cfg(feature = "telemetry")]
        let probe_start = self.telemetry.journal.now_ns();
        {
            let group = self.shards[shard].group.lock().expect("shard lock");
            for (op, id) in ops {
                reports.push((op, group.health_probe(id, 0.5)?));
            }
        }
        #[cfg(feature = "telemetry")]
        self.telemetry.journal.span(
            "probe",
            "health",
            probe_start,
            shard as u64,
            reports.len() as u64,
        );
        for (_, report) in &reports {
            if report.residual > self.health_cfg.probe_residual_tolerance {
                self.note_failure(shard);
            } else {
                self.health[shard].successes.fetch_add(1, Ordering::SeqCst);
            }
        }
        Ok(reports)
    }

    /// [`probe_shard`](Self::probe_shard) across every shard; returns the
    /// probe reports flattened in shard order.
    ///
    /// # Errors
    ///
    /// First probe error encountered.
    pub fn probe_all(&self) -> Result<Vec<(OperatorHandle, ProbeReport)>, RuntimeError> {
        let mut all = Vec::new();
        for shard in 0..self.shards.len() {
            all.extend(self.probe_shard(shard)?);
        }
        Ok(all)
    }
}

/// Fault-injection controls (the `fault-inject` feature): deterministic
/// device-fault campaigns against individual shards, driving the recovery
/// machinery in tests, benches and the serving example.
#[cfg(feature = "fault-inject")]
impl Runtime {
    /// Samples and installs a seeded fault plan on every macro of `shard`
    /// (see [`MacroGroup::inject_faults`]). An all-zero `config` leaves the
    /// shard's behavior bit-identical.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BadShard`] if out of range.
    pub fn inject_shard_faults(
        &self,
        shard: usize,
        config: &FaultConfig,
        seed: u64,
    ) -> Result<(), RuntimeError> {
        self.shard_group(shard)?.inject_faults(config, seed);
        Ok(())
    }

    /// Advances `shard`'s fault clock by `dt` seconds (conductance drift).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BadShard`] if out of range.
    pub fn advance_shard_fault_time(&self, shard: usize, dt: f64) -> Result<(), RuntimeError> {
        self.shard_group(shard)?.advance_fault_time(dt);
        Ok(())
    }

    /// Clears all fault plans on `shard`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BadShard`] if out of range.
    pub fn clear_shard_faults(&self, shard: usize) -> Result<(), RuntimeError> {
        self.shard_group(shard)?.clear_faults();
        Ok(())
    }
}

/// Parking/wake state shared between submitters and persistent serving
/// workers. The mutex guards nothing by itself — it exists so the condvar
/// handshake (worker re-checks `remaining` under it, submitter takes it
/// between raising `remaining` and notifying) has no lost-wakeup window.
#[derive(Debug, Default)]
struct ServeState {
    park: Mutex<()>,
    wake: Condvar,
    /// Raised by [`RuntimeServer::shutdown`](crate::RuntimeServer::shutdown):
    /// workers drain the queues, then exit instead of parking.
    shutdown: AtomicBool,
    /// Whether persistent workers are attached (submitters only notify the
    /// condvar while they are — `run_all` callers skip the overhead).
    active: AtomicBool,
    /// Times a serving worker went to sleep on `wake`, counted under
    /// `park` just before the wait.
    #[cfg(test)]
    parks: AtomicUsize,
}

/// Where one compute job actually runs, resolved against the registry at
/// execution time (operators move under recovery).
#[derive(Debug)]
enum Route {
    /// The handle is dead or was abandoned — fail the waiters.
    Fail(RuntimeError),
    /// The operator lives on the digital fallback path.
    Digital(Arc<Matrix>),
    /// The operator is analog but not runnable here (homed elsewhere, or
    /// its shard is mid-migration) — requeue toward its current home.
    Requeue(usize),
    /// Runnable on this worker's group under this id.
    Run(gramc_core::OperatorId),
}

/// What the recovery path must do after a job body ran (decided inside the
/// group lock, acted on outside it).
#[derive(Debug)]
enum Verdict {
    /// Slots filled; nothing to do.
    Done,
    /// The operator lives elsewhere now — re-enqueue the job there with
    /// the same retry count (attribution metadata rides along).
    Requeue { to: usize, kind: JobKind, slots: Vec<Arc<Slot>>, meta: Vec<RequestMeta> },
    /// The result failed its residual check — slots are unfilled; retry or
    /// degrade per policy (attribution metadata rides along).
    Failed { kind: JobKind, slots: Vec<Arc<Slot>>, meta: Vec<RequestMeta> },
    /// Slots filled (with a typed error), but the shard should be flagged
    /// to the health monitor (a load that could not verify).
    ShardSuspect,
}
