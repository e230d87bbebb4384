//! Jobs, result slots and the handles callers wait on.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use gramc_core::tiling::TileMapping;
use gramc_linalg::Matrix;

use crate::error::RuntimeError;
use crate::registry::OperatorHandle;
use crate::tenant::{RequestId, TenantEntry, TenantId};

/// Result of a completed job.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JobOutput {
    /// One result vector (an MVM request or a single-RHS solve).
    Vector(Vec<f64>),
    /// One result per input vector (explicit batch jobs).
    Vectors(Vec<Vec<f64>>),
    /// The operator placed by a `Load` job.
    Loaded(OperatorHandle),
    /// Acknowledgement of a `Free` job.
    Freed,
}

/// One-shot result cell a job fills and any number of waiters read.
#[derive(Debug, Default)]
pub(crate) struct Slot {
    state: Mutex<Option<Result<JobOutput, RuntimeError>>>,
    ready: Condvar,
    /// The submitting tenant's accounting entry; its in-flight unit is
    /// returned when the slot is first filled. `None` only for slots that
    /// never went through admission (none today).
    gate: Option<Arc<TenantEntry>>,
}

impl Slot {
    /// First write wins: a panic-path error fill never clobbers a result
    /// the job already delivered. The winning fill releases the tenant's
    /// in-flight unit — exactly once per request, on every completion
    /// path (result, typed error, digital fallback, panic fill).
    pub(crate) fn fill(&self, result: Result<JobOutput, RuntimeError>) {
        let mut state = self.state.lock().expect("slot lock");
        if state.is_none() {
            *state = Some(result);
            self.ready.notify_all();
            if let Some(gate) = &self.gate {
                gate.release();
            }
        }
    }

    fn wait(&self) -> Result<JobOutput, RuntimeError> {
        let mut state = self.state.lock().expect("slot lock");
        while state.is_none() {
            state = self.ready.wait(state).expect("slot lock");
        }
        state.clone().expect("checked above")
    }

    fn wait_timeout(&self, timeout: Duration) -> Result<JobOutput, RuntimeError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("slot lock");
        while state.is_none() {
            let now = Instant::now();
            let Some(left) = deadline.checked_duration_since(now).filter(|d| !d.is_zero()) else {
                return Err(RuntimeError::WaitTimeout);
            };
            state = self.ready.wait_timeout(state, left).expect("slot lock").0;
        }
        state.clone().expect("checked above")
    }

    fn try_peek(&self) -> Option<Result<JobOutput, RuntimeError>> {
        self.state.lock().expect("slot lock").clone()
    }
}

/// Handle to a submitted job.
///
/// The result is retrieved with [`wait`](Self::wait) (blocking) or
/// [`try_result`](Self::try_result) (non-blocking). Jobs execute inside
/// [`Runtime::run_all`](crate::Runtime::run_all) or on the workers of a
/// [`RuntimeServer`](crate::RuntimeServer). Without a server, a single
/// thread calls `run_all` first and `wait` after; `wait` blocks safely when
/// another thread or a server is driving the runtime.
#[derive(Debug, Clone)]
pub struct JobHandle {
    pub(crate) slot: Arc<Slot>,
    request: RequestId,
}

impl JobHandle {
    pub(crate) fn new(request: RequestId, gate: Arc<TenantEntry>) -> Self {
        Self { slot: Arc::new(Slot { gate: Some(gate), ..Slot::default() }), request }
    }

    /// The request id minted for this submission — the key of its spans
    /// and flow events in the chrome trace.
    pub fn request_id(&self) -> RequestId {
        self.request
    }

    /// Blocks until the job has retired and returns its output.
    ///
    /// # Errors
    ///
    /// The job's own error, if it failed.
    pub fn wait(&self) -> Result<JobOutput, RuntimeError> {
        self.slot.wait()
    }

    /// Blocks until the job has retired and returns its single result
    /// vector.
    ///
    /// # Errors
    ///
    /// The job's own error, or [`RuntimeError::WrongOutput`] if the job
    /// does not produce a single vector.
    pub fn wait_vector(&self) -> Result<Vec<f64>, RuntimeError> {
        match self.wait()? {
            JobOutput::Vector(v) => Ok(v),
            _ => Err(RuntimeError::WrongOutput),
        }
    }

    /// Blocks until the job has retired and returns its batch of result
    /// vectors.
    ///
    /// # Errors
    ///
    /// The job's own error, or [`RuntimeError::WrongOutput`] if the job
    /// does not produce a batch.
    pub fn wait_vectors(&self) -> Result<Vec<Vec<f64>>, RuntimeError> {
        match self.wait()? {
            JobOutput::Vectors(v) => Ok(v),
            _ => Err(RuntimeError::WrongOutput),
        }
    }

    /// Blocks until the job has retired **or** `timeout` elapses. A caller
    /// waiting on a job nobody drains — e.g. `run_all` was never called, or
    /// the driving thread died — gets [`RuntimeError::WaitTimeout`] instead
    /// of blocking forever.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::WaitTimeout`] on expiry; otherwise the job's own
    /// error, if it failed.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<JobOutput, RuntimeError> {
        self.slot.wait_timeout(timeout)
    }

    /// The job's result if it has already retired, `None` otherwise.
    pub fn try_result(&self) -> Option<Result<JobOutput, RuntimeError>> {
        self.slot.try_peek()
    }
}

/// The analog operation a compute job runs: one macro array, three
/// feedback configurations (GRAMC's reconfigurable MVM / INV / PINV modes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// Matrix–vector products through `MacroGroup::mvm_batch`; inputs are
    /// checked against the operator's columns.
    Mvm,
    /// One-step linear solves through `MacroGroup::solve_inv_batch`;
    /// right-hand sides are checked against the operator's rows.
    Inv,
    /// One-step least-squares solves through `MacroGroup::solve_pinv_batch`;
    /// right-hand sides are checked against the operator's rows.
    Pinv,
}

/// What a job does once a worker runs it on its shard. `Clone` because the
/// recovery machinery re-dispatches failed or migrated jobs.
#[derive(Debug, Clone)]
pub(crate) enum JobKind {
    /// One analog dispatch of `op` over a batch of input vectors.
    Compute {
        handle: OperatorHandle,
        op: Op,
        /// The input vectors. `None` marks a coalesced MVM dispatch: its
        /// requests wait in the operator's pending batch, which the job
        /// drains into itself (inputs, slots and metadata) when it runs —
        /// so a retried or migrated batch carries them as `Some`.
        xs: Option<Vec<Vec<f64>>>,
        /// Each input is its own request with its own result slot,
        /// answered as a [`JobOutput::Vector`] (coalesced MVMs, single-RHS
        /// solves). Otherwise the whole batch is one request with one slot,
        /// answered as [`JobOutput::Vectors`].
        per_request: bool,
    },
    /// Place a matrix on the job's shard and fulfil the registry entry.
    Load { handle: OperatorHandle, matrix: Arc<Matrix>, mapping: TileMapping },
    /// Release the operator and retire the registry entry.
    Free { handle: OperatorHandle },
}

/// Attribution record of one request riding in a job: who submitted it,
/// its weight in the batch's hardware-counter split, and when it was
/// submitted (journal clock) for its queue-wait span.
///
/// Solo jobs carry exactly one; a drained coalesced dispatch carries one
/// per rider, in submission order (the split's remainder assignment is
/// keyed to that order, so attribution is deterministic).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RequestMeta {
    pub request: RequestId,
    pub tenant: TenantId,
    /// Row weight of this request in the batch (1 for a coalesced rider,
    /// the batch size for explicit batch jobs).
    pub rows: u64,
    /// Submission timestamp on the journal clock (riders stamp their own;
    /// enqueued jobs are stamped at ticket assignment — a re-dispatch
    /// restamps, matching the per-dispatch latency contract).
    pub submit_ns: u64,
}

impl RequestMeta {
    pub fn new(request: RequestId, tenant: TenantId, rows: u64) -> Self {
        Self { request, tenant, rows, submit_ns: 0 }
    }
}

/// A scheduled job: target shard, per-shard ticket, payload, the result
/// slots to fill (one per request of a `per_request` compute job, one for
/// any other job; a coalesced dispatch finds its slots in the pending
/// batch when it runs), per-request attribution metadata, and how many
/// times the recovery policy has already re-dispatched it.
#[derive(Debug)]
pub(crate) struct Job {
    pub shard: usize,
    pub ticket: u64,
    pub kind: JobKind,
    pub slots: Vec<Arc<Slot>>,
    /// One record per request riding in this job (parallel to `slots` for
    /// `per_request` jobs). Empty only for a coalesced dispatch that has
    /// not yet drained its pending batch.
    pub meta: Vec<RequestMeta>,
    pub retries: u32,
    /// Enqueue timestamp feeding the serving histograms (a re-dispatched
    /// job restarts the clock; its measured latency is per dispatch).
    pub submitted: Instant,
    /// Enqueue timestamp on the journal clock, so the queued span of the
    /// submit→complete breakdown starts exactly at submission.
    pub submit_ns: u64,
}
