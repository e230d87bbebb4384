//! The sharded runtime: shards, job queues, the work-stealing drain loop
//! and the submission front-end.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use gramc_core::tiling::TileMapping;
use gramc_core::FaultConfig;
use gramc_core::{CoreError, MacroConfig, MacroGroup, ProbeReport};
use gramc_linalg::{lu, qr, vector, Matrix};
use gramc_telemetry::{FlowPhase, HwSnapshot, JournalEvent};

use crate::error::RuntimeError;
use crate::health::{HealthConfig, HealthEvent, ShardHealth};
use crate::job::{Job, JobHandle, JobKind, JobOutput, Op, RequestMeta, Slot};
use crate::registry::{ExecTarget, FreeTarget, OperatorHandle, Placement, Registry};
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
    pub hw: HwSnapshot,
}

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
        let mk_shard = |s: usize| Shard {
            group: Mutex::new(MacroGroup::new(
                macros_per_shard,
                config.clone(),
                Self::shard_seed_of(seed, s),
            )),
            next_ticket: AtomicU64::new(0),
            exec_ticket: AtomicU64::new(0),
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

    /// Resizes the event-journal ring (builder style; default 4096
    /// events). Serving runs dense enough to wrap the default ring surface
    /// a non-zero drop rate in the metrics stream — size the ring to the
    /// run instead of losing the early spans.
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
            self.telemetry.rejected.fetch_add(1, Ordering::Relaxed);
            self.telemetry.journal.instant("rejected_tenant", "runtime", limit as u64, 0);
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
            self.telemetry.rejected.fetch_add(1, Ordering::Relaxed);
            self.telemetry.journal.instant("rejected", "runtime", limit as u64, 0);
            return Err(RuntimeError::QueueFull { limit });
        }
        Ok(())
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
    /// queue order equals ticket order for every shard. `retries` is 0 for
    /// a submission; the recovery path re-dispatches failed or migrated
    /// jobs with their count.
    fn enqueue(
        &self,
        shard: usize,
        kind: JobKind,
        slots: Vec<Arc<Slot>>,
        mut meta: Vec<RequestMeta>,
        retries: u32,
    ) {
        let q = match self.queue_policy {
            QueuePolicy::HomeShard => shard,
            QueuePolicy::Fixed(q) => q,
        };
        let mut queue = self.queues[q].lock().expect("queue lock");
        let ticket = self.shards[shard].next_ticket.fetch_add(1, Ordering::SeqCst);
        let prev_depth = self.remaining.fetch_add(1, Ordering::SeqCst);
        let submit_ns = self.telemetry.journal.now_ns();
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
        queue.push_back(Job {
            shard,
            ticket,
            kind,
            slots,
            meta,
            retries,
            submitted: std::time::Instant::now(),
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

    /// The shard `handle`'s jobs enqueue on, once every input has passed
    /// the submission checks: MVM inputs must match the operator's
    /// columns and solve right-hand sides its rows, and no entry may be
    /// `NaN`/`±inf` (no DAC can encode them). Catching these here keeps
    /// one malformed request from poisoning a coalesced batch or panicking
    /// a digitally served job.
    fn checked_shard(
        &self,
        handle: OperatorHandle,
        op: Op,
        xs: &[Vec<f64>],
    ) -> Result<usize, RuntimeError> {
        let (shard, rows, cols) =
            self.registry.lock().expect("registry lock").submission_target(handle)?;
        let expected = if op == Op::Mvm { cols } else { rows };
        for x in xs {
            if x.len() != expected {
                return Err(CoreError::ShapeMismatch { expected, found: x.len() }.into());
            }
            if !x.iter().all(|v| v.is_finite()) {
                return Err(RuntimeError::NonFiniteInput);
            }
        }
        Ok(shard)
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
            0,
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
        let shard = self.checked_shard(op, Op::Mvm, std::slice::from_ref(&x))?;
        let entry = self.tenants.entry(tenant);
        // The pending lock is held across the enqueue so opening the batch
        // and taking its ticket are atomic.
        let mut pending = self.pending_mvm.lock().expect("pending lock");
        let opens_batch = !pending.contains_key(&op);
        if opens_batch {
            self.admit()?;
        }
        // Tenant admission is the last fallible step: a rejected request
        // has joined nothing, and no batch was opened for it.
        self.admit_tenant(&entry)?;
        let request = self.mint_request();
        let jh = JobHandle::new(request, entry);
        let mut m = RequestMeta::new(request, tenant, 1);
        // Riders stamp their own submission time — their queue wait
        // starts here, not at the batch's ticket.
        m.submit_ns = self.telemetry.journal.now_ns();
        let batch = pending.entry(op).or_default();
        batch.xs.push(x);
        batch.slots.push(jh.slot.clone());
        batch.meta.push(m);
        if opens_batch {
            // The dispatch job starts empty (`xs: None`): it drains the
            // pending batch (slots and meta included) when it executes.
            let kind = JobKind::Compute { handle: op, op: Op::Mvm, xs: None, per_request: true };
            self.enqueue(shard, kind, Vec::new(), Vec::new(), 0);
        } else {
            // Joined an already-open batch: no new job, just one more rider.
            self.telemetry.journal.instant(
                "coalesce",
                "runtime",
                shard as u64,
                batch.xs.len() as u64,
            );
        }
        Ok(jh)
    }

    /// The one submission path of uncoalesced compute jobs: admission,
    /// the [input checks](Self::checked_shard), tenant admission, then one
    /// job of weight `xs.len()` holding one slot.
    fn submit_compute(
        &self,
        tenant: TenantId,
        handle: OperatorHandle,
        op: Op,
        xs: Vec<Vec<f64>>,
        per_request: bool,
    ) -> Result<JobHandle, RuntimeError> {
        self.admit()?;
        let shard = self.checked_shard(handle, op, &xs)?;
        let entry = self.tenants.entry(tenant);
        self.admit_tenant(&entry)?;
        let request = self.mint_request();
        let weight = xs.len().max(1) as u64;
        let jh = JobHandle::new(request, entry);
        self.enqueue(
            shard,
            JobKind::Compute { handle, op, xs: Some(xs), per_request },
            vec![jh.slot.clone()],
            vec![RequestMeta::new(request, tenant, weight)],
            0,
        );
        Ok(jh)
    }

    /// Submits an explicit batch MVM (one job, one handle for the whole
    /// batch) — bypasses coalescing.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidHandle`] for dead handles;
    /// [`CoreError::ShapeMismatch`](gramc_core::CoreError) when an input's
    /// length is not the operator's column count;
    /// [`RuntimeError::NonFiniteInput`] for `NaN`/`±inf` entries;
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
        self.submit_compute(tenant, op, Op::Mvm, xs, false)
    }

    /// Submits a single-RHS INV solve.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidHandle`] for dead handles;
    /// [`CoreError::ShapeMismatch`](gramc_core::CoreError) when `b`'s
    /// length is not the operator's row count;
    /// [`RuntimeError::NonFiniteInput`] for `NaN`/`±inf` entries;
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
        self.submit_compute(tenant, op, Op::Inv, vec![b], true)
    }

    /// Submits a multi-RHS INV solve (`MacroGroup::solve_inv_batch`): all
    /// right-hand sides share one conductance read and one factorization.
    ///
    /// # Errors
    ///
    /// As [`submit_solve_inv`](Self::submit_solve_inv), for every
    /// right-hand side.
    pub fn submit_solve_inv_batch(
        &self,
        op: OperatorHandle,
        bs: Vec<Vec<f64>>,
    ) -> Result<JobHandle, RuntimeError> {
        self.submit_compute(TenantId::DEFAULT, op, Op::Inv, bs, false)
    }

    /// Submits a multi-RHS PINV (least-squares) solve
    /// (`MacroGroup::solve_pinv_batch`): all right-hand sides share one
    /// conductance read and one MNA factorization.
    ///
    /// # Errors
    ///
    /// As [`submit_solve_inv`](Self::submit_solve_inv), for every
    /// right-hand side.
    pub fn submit_solve_pinv_batch(
        &self,
        op: OperatorHandle,
        bs: Vec<Vec<f64>>,
    ) -> Result<JobHandle, RuntimeError> {
        self.submit_compute(TenantId::DEFAULT, op, Op::Pinv, bs, false)
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
            0,
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
            hw: self.telemetry.kind_hw_total().since(&hw_before),
        }
    }

    // ── telemetry ─────────────────────────────────────────────────────

    /// A consistent cut of the serving metrics: lifecycle latency
    /// histograms, the queue-depth high-water mark, per-shard scheduler
    /// counters and per-job-kind hardware attribution. Cheap (atomic
    /// loads); callable at any time, including between drains.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::capture(
            &self.telemetry,
            self.remaining.load(Ordering::SeqCst),
            &self.tenants.entries(),
        )
    }

    /// The telemetry sink, for in-crate observers (the SLO monitor).
    pub(crate) fn rt_telemetry(&self) -> &RtTelemetry {
        &self.telemetry
    }

    /// Total hardware counters summed across every shard's macro group.
    /// Unlike the per-kind attribution in
    /// [`metrics_snapshot`](Self::metrics_snapshot), this includes work
    /// driven through [`shard_group`](Self::shard_group) directly. Briefly
    /// locks each
    /// group in turn — do not call while holding a shard group guard.
    pub fn hw_snapshot(&self) -> HwSnapshot {
        let mut total = HwSnapshot::default();
        for s in &self.shards {
            total += &s.group.lock().expect("shard lock").hw_snapshot();
        }
        total
    }

    /// The event journal (job spans, coalesce/submit instants, health
    /// events) exported in chrome://tracing trace-event JSON.
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

    /// Runs jobs on worker `w` until every queued job has retired — the one
    /// loop body of both [`run_all`](Self::run_all)'s drain workers and the
    /// persistent [`serve_loop`](Self::serve_loop) workers.
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
    /// between parks, until shutdown is signalled **and** every queued job
    /// has retired.
    pub(crate) fn serve_loop(&self, w: usize) {
        while self.park() {
            self.worker_loop(w);
        }
    }

    /// Sleeps until there is work; `false` once the worker should exit.
    fn park(&self) -> bool {
        // The flag is read before `remaining`. A submitter raises
        // `remaining` before anyone calls `shutdown()`, so a worker that
        // sees the flag also sees every job submitted ahead of it. Read the
        // other way round, a job submitted between the two loads and then
        // followed by `shutdown()` would stay queued after every worker
        // exited, and its waiter would block forever.
        let shutdown = self.serve.shutdown.load(Ordering::SeqCst);
        if self.remaining.load(Ordering::SeqCst) > 0 {
            return true;
        }
        if shutdown {
            return false;
        }
        let guard = self.serve.park.lock().expect("serve lock");
        // Re-check under the park mutex, then sleep until notified. No
        // wakeup can be lost: only `enqueue` raises `remaining`, and after
        // raising it takes this mutex before notifying. Either it took the
        // mutex before this re-check, which then sees the job, or only once
        // `wait` released it, so the notification finds this worker asleep.
        // `signal_shutdown` raises its flag the same way.
        if self.remaining.load(Ordering::SeqCst) == 0 && !self.serve.shutdown.load(Ordering::SeqCst)
        {
            #[cfg(test)]
            self.serve.parks.fetch_add(1, Ordering::SeqCst);
            drop(self.serve.wake.wait(guard).expect("serve lock"));
        }
        true
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
        // dispatch drains its riders' slots into the job before executing,
        // so the panic fill covers them too.)
        //
        // `kind_ix` is taken *before* a coalesced dispatch drains its
        // pending batch, so it attributes as `mvm_many`; a re-dispatch of
        // the drained batch attributes as `mvm_set`.
        let (dispatched, span_start, kind_ix) =
            (std::time::Instant::now(), self.telemetry.journal.now_ns(), kind_index(&job.kind));
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut group = shard.group.lock().expect("shard lock");
            // Snapshot-diff under the shard lock: no other job of this
            // shard can interleave, so the delta is exactly this job's.
            let hw_before = group.hw_snapshot();
            let verdict = self.run_kind(&mut group, &mut job);
            (verdict, group.hw_snapshot().since(&hw_before))
        }));
        shard.exec_ticket.store(job.ticket + 1, Ordering::SeqCst);
        self.executed[w].fetch_add(1, Ordering::SeqCst);
        // Aggregation happens outside the shard lock (only the snapshot
        // diff needs it): global per-kind counters first, then the
        // tenant split — each rider's share proportional to its row
        // weight, remainder-exact, so the tenant totals always sum to the
        // per-kind totals bit-for-bit.
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
        let completed = std::time::Instant::now();
        let exec_ns = completed.duration_since(dispatched).as_nanos() as u64;
        let t = &self.telemetry;
        t.submit_to_dispatch.record_ns(dispatched.duration_since(job.submitted).as_nanos() as u64);
        t.dispatch_to_complete.record_ns(exec_ns);
        t.submit_to_complete.record_ns(completed.duration_since(job.submitted).as_nanos() as u64);
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
        // request's flow *start*; riders of a drained coalesced batch
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
        // Recovery runs here, after the group lock is released — healing
        // locks other shards' groups and must never do so while holding
        // one. `remaining` is decremented for the original job LAST, after
        // any re-dispatch has incremented it, so a lone re-enqueued job
        // can never make `remaining` touch zero and end the drain early.
        match run {
            Ok(Verdict::Done) => {}
            Ok(Verdict::Requeue(to)) => {
                self.telemetry.per_shard[job.shard].requeues.fetch_add(1, Ordering::Relaxed);
                self.enqueue(to, job.kind, job.slots, job.meta, job.retries);
            }
            Ok(Verdict::Failed) => self.handle_failure(job),
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
    /// A coalesced dispatch (`xs: None`) first drains the operator's
    /// pending batch (inputs, result slots, request metadata) into the job
    /// — so by the time anything can fail or panic, the riders' slots are
    /// the job's slots and every completion path in
    /// [`try_execute`](Self::try_execute) covers them.
    fn run_kind(&self, group: &mut MacroGroup, job: &mut Job) -> Verdict {
        if let JobKind::Compute { handle, xs: xs @ None, .. } = &mut job.kind {
            // Drain whatever the batch accumulated between its opening
            // submission and now.
            let Some(batch) = self.pending_mvm.lock().expect("pending lock").remove(handle) else {
                return Verdict::Done;
            };
            *xs = Some(batch.xs);
            job.slots = batch.slots;
            job.meta = batch.meta;
        }
        let (handle, op, xs, per_request) = match &job.kind {
            JobKind::Compute { handle, op, xs: Some(xs), per_request } => {
                (*handle, *op, xs, *per_request)
            }
            JobKind::Compute { xs: None, .. } => unreachable!("drained above"),
            JobKind::Load { handle, matrix, mapping } => {
                return self.run_load(group, job, *handle, matrix, *mapping);
            }
            JobKind::Free { handle } => return self.run_free(group, job, *handle),
        };
        // One registry lookup decides where a compute job actually runs.
        // A job whose operator is still homed on a *quarantined* shard hit
        // the migration window: bounce it (a requeue that burns no retry)
        // until the healer has relocated or demoted the operator, instead
        // of wasting analog dispatches — and the job's retries — on arrays
        // already known to be bad.
        let (target, quarantined) = {
            let reg = self.registry.lock().expect("registry lock");
            (reg.exec_target(handle), reg.is_quarantined(job.shard))
        };
        let answer = match target {
            Err(e) => Err(e),
            Ok(ExecTarget::Digital(m)) => {
                self.degraded.fetch_add(1, Ordering::SeqCst);
                Self::digital(&m, op, xs)
            }
            Ok(ExecTarget::Analog { shard, id }) if shard == job.shard && !quarantined => {
                let ys = match op {
                    Op::Mvm => group.mvm_batch(id, xs),
                    Op::Inv => group.solve_inv_batch(id, xs),
                    Op::Pinv => group.solve_pinv_batch(id, xs),
                };
                match ys {
                    Ok(ys) if !self.residuals_ok(group, id, op, xs, &ys) => return Verdict::Failed,
                    ys => ys.map_err(RuntimeError::from),
                }
            }
            // Homed elsewhere now, or its shard is mid-migration: requeue
            // toward the operator's current home.
            Ok(ExecTarget::Analog { shard, .. }) => return Verdict::Requeue(shard),
        };
        Self::deliver(&job.slots, per_request, answer);
        Verdict::Done
    }

    /// Fills a compute job's slots: one [`JobOutput::Vector`] per request
    /// of a `per_request` job, or the whole batch as one
    /// [`JobOutput::Vectors`]. An error fails every waiter.
    fn deliver(
        slots: &[Arc<Slot>],
        per_request: bool,
        answer: Result<Vec<Vec<f64>>, RuntimeError>,
    ) {
        match answer {
            Ok(ys) if per_request => {
                for (slot, y) in slots.iter().zip(ys) {
                    slot.fill(Ok(JobOutput::Vector(y)));
                }
            }
            Ok(ys) => slots[0].fill(Ok(JobOutput::Vectors(ys))),
            Err(e) => {
                for slot in slots {
                    slot.fill(Err(e.clone()));
                }
            }
        }
    }

    /// The `Free` arm: releases the operator's planes on the job's shard,
    /// or follows an operator that migrated after the free was queued.
    fn run_free(&self, group: &mut MacroGroup, job: &Job, handle: OperatorHandle) -> Verdict {
        let target = self.registry.lock().expect("registry lock").retire_on(handle, job.shard);
        let result = match target {
            Ok(FreeTarget::Local(Some(id))) => group.free_operator(id).map_err(RuntimeError::from),
            Ok(FreeTarget::Local(None)) => Ok(()),
            Ok(FreeTarget::Moved(to)) => return Verdict::Requeue(to),
            Err(e) => Err(e),
        };
        job.slots[0].fill(result.map(|()| JobOutput::Freed));
        Verdict::Done
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

    /// Whether every analog answer `ys[i]` to input `xs[i]` sits within the
    /// residual tolerance (always true with checks disabled), judged
    /// against the operator's quantized matrix `A`: an MVM against `A·x`, an
    /// INV solve by `‖A·y − b‖/‖b‖`, and a PINV solve against the digital
    /// least-squares answer (`‖A·y − b‖` is not small for an overdetermined
    /// system, so that check compares solutions, not residual norms).
    fn residuals_ok(
        &self,
        group: &MacroGroup,
        id: gramc_core::OperatorId,
        op: Op,
        xs: &[Vec<f64>],
        ys: &[Vec<f64>],
    ) -> bool {
        let Some(tol) = self.health_cfg.residual_tolerance else {
            return true;
        };
        let Ok(info) = group.operator_info(id) else {
            return true;
        };
        let a = &info.quantized;
        xs.iter().zip(ys).all(|(x, y)| match op {
            Op::Mvm => vector::rel_error(y, &a.matvec(x)) <= tol,
            Op::Inv => vector::rel_error(&a.matvec(y), x) <= tol,
            // A rank-deficient reference cannot arbitrate — pass the check.
            Op::Pinv => {
                qr::least_squares(a, x).map_or(true, |y_ref| vector::rel_error(y, &y_ref) <= tol)
            }
        })
    }

    /// The digital answer on the registry's kept matrix — how a degraded
    /// operator, or a job out of retries, is served: `Matrix::matvec`,
    /// `lu::solve` or `qr::least_squares` per input.
    fn digital(matrix: &Matrix, op: Op, xs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, RuntimeError> {
        xs.iter()
            .map(|x| match op {
                Op::Mvm => Ok(matrix.matvec(x)),
                Op::Inv => lu::solve(matrix, x).map_err(|e| CoreError::from(e).into()),
                Op::Pinv => qr::least_squares(matrix, x).map_err(|e| CoreError::from(e).into()),
            })
            .collect()
    }

    fn push_event(&self, event: HealthEvent) {
        let (name, a, b) = match &event {
            HealthEvent::ShardQuarantined { shard, failures } => {
                ("shard_quarantined", *shard as u64, u64::from(*failures))
            }
            HealthEvent::OperatorMigrated { from, to, .. } => {
                ("operator_migrated", *from as u64, *to as u64)
            }
            HealthEvent::OperatorDegraded { shard, .. } => ("operator_degraded", *shard as u64, 0),
            HealthEvent::LoadFailedVerify { shard, failed_cells, .. } => {
                ("load_failed_verify", *shard as u64, *failed_cells as u64)
            }
        };
        self.telemetry.journal.instant(name, "health", a, b);
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
    fn handle_failure(&self, job: Job) {
        self.note_failure(job.shard);
        let JobKind::Compute { handle, op, xs: Some(ref xs), per_request } = job.kind else {
            unreachable!("only drained compute jobs fail residual checks");
        };
        if job.retries < self.health_cfg.max_retries {
            match self.registry.lock().expect("registry lock").exec_target(handle) {
                Ok(ExecTarget::Analog { shard: home, .. }) => {
                    self.telemetry.per_shard[job.shard].retries.fetch_add(1, Ordering::Relaxed);
                    self.enqueue(home, job.kind, job.slots, job.meta, job.retries + 1);
                    return;
                }
                Ok(ExecTarget::Digital(_)) => {} // fall through to digital
                Err(e) => return Self::deliver(&job.slots, per_request, Err(e)),
            }
        }
        // Out of retries (or the operator was degraded meanwhile): answer
        // digitally from the registry's matrix so the caller still gets a
        // result, and record the degradation.
        let kept = self.registry.lock().expect("registry lock").matrix_and_mapping(handle);
        let answer = kept.and_then(|(matrix, _)| {
            self.degraded.fetch_add(1, Ordering::SeqCst);
            self.push_event(HealthEvent::OperatorDegraded { op: handle, shard: job.shard });
            Self::digital(&matrix, op, xs)
        });
        Self::deliver(&job.slots, per_request, answer);
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
        let probe_start = self.telemetry.journal.now_ns();
        {
            let group = self.shards[shard].group.lock().expect("shard lock");
            for (op, id) in ops {
                reports.push((op, group.health_probe(id, 0.5)?));
            }
        }
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

/// Fault-injection controls: deterministic device-fault campaigns against
/// individual shards, driving the recovery machinery in tests, benches and
/// the serving example.
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

/// What the recovery path must do after a job body ran (decided inside the
/// group lock, acted on outside it).
#[derive(Debug)]
enum Verdict {
    /// Slots filled; nothing to do.
    Done,
    /// The operator lives on this shard now — re-enqueue the job there
    /// with the same retry count.
    Requeue(usize),
    /// The result failed its residual check — slots are unfilled; retry or
    /// degrade per policy.
    Failed,
    /// Slots filled (with a typed error), but the shard should be flagged
    /// to the health monitor (a load that could not verify).
    ShardSuspect,
}

#[cfg(test)]
mod tests {
    use gramc_core::tiling::TileMapping;

    use super::*;
    use crate::Placement;

    /// An MVM that would open a coalesced batch but is rejected — by the
    /// queue bound or by its tenant's quota — leaves no pending batch
    /// behind: nothing would dispatch it, and once its operator is freed
    /// nothing would ever remove it.
    #[test]
    fn rejected_batch_opener_leaves_no_pending_batch() {
        let tenant = TenantId(7);
        let by_queue = Runtime::new(1, 2, MacroConfig::small_ideal(4), 3).with_queue_limit(1);
        let by_quota = Runtime::new(1, 2, MacroConfig::small_ideal(4), 3)
            .with_tenant_quota(TenantQuota { max_in_flight: 1 });
        for rt in [by_queue, by_quota] {
            let a = Matrix::from_rows(&[&[1.0, -0.25], &[0.25, 0.75]]);
            let op = rt.load(&a, TileMapping::FourBit, Placement::Pinned(0)).expect("load");
            // The queued solve takes the only queue slot and the tenant's
            // only in-flight unit.
            let solve = rt.submit_solve_inv_for(tenant, op, vec![0.5, -0.5]).expect("solve");
            let rejected = rt.submit_mvm_for(tenant, op, vec![1.0, 2.0]);
            assert!(matches!(rejected, Err(RuntimeError::QueueFull { limit: 1 })), "{rejected:?}");
            assert!(rt.pending_mvm.lock().expect("pending lock").is_empty());
            rt.run_all();
            solve.wait().expect("the solve is served");
            rt.free(op).expect("free");
            assert!(rt.pending_mvm.lock().expect("pending lock").is_empty());
        }
    }
}
