//! Health monitoring and recovery policy for the sharded runtime.
//!
//! Real crosspoint arrays fail — cells get stuck, conductances drift —
//! and a serving runtime has to keep answering. This module holds the
//! policy knobs ([`HealthConfig`]), the per-shard counters the runtime
//! feeds from job-level residual checks and [health
//! probes](crate::Runtime::probe_shard), and the [`HealthEvent`] record of
//! every recovery action, reported through
//! [`RunSummary::events`](crate::RunSummary::events).
//!
//! The recovery ladder (implemented in `runtime.rs`):
//!
//! 1. **Retry.** A job whose result misses the residual tolerance is
//!    re-dispatched to its operator's current shard, up to
//!    [`HealthConfig::max_retries`] times.
//! 2. **Quarantine + migrate.** A shard accumulating
//!    [`HealthConfig::quarantine_after`] failed checks is quarantined: its
//!    live operators are re-programmed onto the healthiest remaining shard
//!    (the registry's least-loaded placement metric) and queued jobs
//!    follow them.
//! 3. **Degrade.** With no healthy shard left — or a job out of retries —
//!    results come from the digital reference path (`Matrix::matvec`,
//!    `lu::solve` or `qr::least_squares`) on the registry's kept copy of
//!    the operator matrix.

use std::sync::atomic::{AtomicBool, AtomicU32};

use crate::registry::OperatorHandle;

/// Tunables of the health monitor and recovery policy.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// Relative residual above which a job's result counts as a failed
    /// check (MVMs against the operator's quantized target, solves via
    /// `‖A·x − b‖/‖b‖`). `None` (the default) disables per-job checks —
    /// and with them the retry/quarantine machinery on the job path —
    /// leaving results bit-identical to a runtime without health checks.
    pub residual_tolerance: Option<f64>,
    /// Failed checks on one shard before it is quarantined and its
    /// operators migrate.
    pub quarantine_after: u32,
    /// Re-dispatches of one failing job before it falls back to the
    /// digital reference path.
    pub max_retries: u32,
    /// Highest tolerated fraction of write-verify failures in a load's
    /// programming pass; above it the load is reprogrammed (up to
    /// [`max_retries`](Self::max_retries) times) and then fails with
    /// [`RuntimeError::ProgramVerifyFailed`](crate::RuntimeError).
    pub max_load_failure_frac: f64,
    /// Readback residual above which a [`probe_shard`](crate::Runtime::probe_shard)
    /// probe counts as a failed check.
    pub probe_residual_tolerance: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            residual_tolerance: None,
            quarantine_after: 3,
            max_retries: 2,
            max_load_failure_frac: 0.02,
            probe_residual_tolerance: 0.05,
        }
    }
}

/// One recovery action taken by the runtime, reported through
/// [`RunSummary::events`](crate::RunSummary::events).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HealthEvent {
    /// A shard crossed the failure threshold: no new placements land on
    /// it and its operators migrate.
    ShardQuarantined {
        /// The quarantined shard.
        shard: usize,
        /// Failed checks recorded when the quarantine triggered.
        failures: u32,
    },
    /// An operator was re-programmed onto a healthy shard.
    OperatorMigrated {
        /// The migrated operator.
        op: OperatorHandle,
        /// The quarantined shard it left.
        from: usize,
        /// The healthy shard now holding it.
        to: usize,
    },
    /// An operator fell back to the digital reference path — no healthy
    /// shard could hold it, or one of its jobs ran out of retries.
    OperatorDegraded {
        /// The degraded operator.
        op: OperatorHandle,
        /// The shard involved (its home, or the shard the failing job ran
        /// on).
        shard: usize,
    },
    /// A load's write-verify pass stayed above the failure threshold
    /// through every reprogram attempt.
    LoadFailedVerify {
        /// The shard that failed to program the operator.
        shard: usize,
        /// Unconverged cells on the final attempt.
        failed_cells: usize,
        /// Cells programmed per attempt.
        total_cells: usize,
    },
}

/// Per-shard health counters (all lock-free; the failure count is what
/// the quarantine threshold watches).
#[derive(Debug, Default)]
pub(crate) struct ShardHealth {
    /// Failed checks: residual misses, failed probes, failed loads.
    pub failures: AtomicU32,
    /// Passed checks (probes and checked jobs).
    pub successes: AtomicU32,
    /// One-shot guard so exactly one thread runs the quarantine/migration
    /// sequence for this shard.
    pub healing: AtomicBool,
}
