//! # gramc-runtime
//!
//! Sharded multi-group analog runtime: the scaling layer above one
//! [`MacroGroup`](gramc_core::MacroGroup). GRAMC's architecture is
//! explicitly reconfigurable *and scalable* — many AMC macros grouped into
//! macro groups behind one instruction pipeline — and this crate completes
//! that story in software: a [`Runtime`] owns `N` independent macro-group
//! **shards** (each with its own seed and its own analog state), a
//! cross-shard **operator registry**, and a **work-stealing job scheduler**
//! that keeps every shard's analog planes busy.
//!
//! ```text
//!                submit(…) → JobHandle            JobHandle::wait()
//!                     │                                  ▲
//!  ┌──────────────────▼──────────────────────────────────┴─────────────┐
//!  │ Runtime                                                           │
//!  │  ┌───────────────────────────┐  ┌───────────────────────────────┐ │
//!  │  │ operator registry         │  │ MVM coalescing front-end      │ │
//!  │  │ OperatorHandle →          │  │ (per-operator pending batch,  │ │
//!  │  │   (shard, OperatorId)     │  │  executed as one mvm_batch)   │ │
//!  │  │ placement: least-loaded / │  └───────────────┬───────────────┘ │
//!  │  │   round-robin / pinned    │                  │                 │
//!  │  └───────────────────────────┘                  ▼                 │
//!  │   per-shard job deques (tickets keep per-shard program order)     │
//!  │  ┌─────────────┐   ┌─────────────┐         ┌─────────────┐        │
//!  │  │ deque 0     │   │ deque 1     │   ...   │ deque N−1   │        │
//!  │  │ pop front ▼ │   │             │         │             │        │
//!  │  │  steal back ◀───┼─────────────┼─────────┼── idle peer │        │
//!  │  └──────┬──────┘   └──────┬──────┘         └──────┬──────┘        │
//!  │         ▼                 ▼                       ▼               │
//!  │  ┌─────────────┐   ┌─────────────┐         ┌─────────────┐        │
//!  │  │ shard 0     │   │ shard 1     │   ...   │ shard N−1   │        │
//!  │  │ MacroGroup  │   │ MacroGroup  │         │ MacroGroup  │        │
//!  │  └─────────────┘   └─────────────┘         └─────────────┘        │
//!  └───────────────────────────────────────────────────────────────────┘
//! ```
//!
//! ## Job lifecycle
//!
//! 1. **Submit.** [`Runtime::submit_mvm`] appends the request to its
//!    operator's pending batch: the first request opens the batch and
//!    enqueues its dispatch job, later requests join it until it runs, so
//!    many requests against one operator collapse into a single
//!    `mvm_batch` analog dispatch at the first request's place in program
//!    order. The other `submit_*` calls ([`Runtime::submit_mvm_batch`],
//!    [`Runtime::submit_solve_inv`], [`Runtime::submit_solve_inv_batch`],
//!    [`Runtime::submit_solve_pinv_batch`], [`Runtime::submit_load`],
//!    [`Runtime::submit_free`]) enqueue one job each. Every submission
//!    returns a [`JobHandle`]; a compute submission is checked first —
//!    input lengths against the operator's shape, entries for finiteness.
//! 2. **Ticket.** At enqueue time a job takes the next *ticket* of its
//!    target shard. Tickets are the per-shard program order: a job may only
//!    execute when every earlier ticket of its shard has retired, no matter
//!    which worker holds it. This is what makes the sharded runtime
//!    bit-identical to a single [`MacroGroup`](gramc_core::MacroGroup)
//!    replaying the same operations (fixed seeds + fixed placement).
//! 3. **Dispatch.** [`Runtime::run_all`] drains every queue: one worker per
//!    shard pops its own deque from the front and, when idle, steals from
//!    the **back** of a peer's deque (at a thread budget of 1 — see
//!    [`gramc_linalg::parallel::current_max_threads`] — the calling thread
//!    plays all workers itself: same tickets, same results). A stolen job
//!    whose ticket is not yet due is pushed back and the worker moves on,
//!    so workers never block holding work.
//! 4. **Wait.** [`JobHandle::wait`] returns the job's
//!    [`JobOutput`] (or the job's error) once it has retired.
//!
//! ## Placement policies
//!
//! * [`Placement::LeastLoaded`] — shard currently holding the fewest live
//!   operators (the default),
//! * [`Placement::RoundRobin`] — cycle shards in submission order (how
//!   [`ShardedTiledOperator`] spreads tiles),
//! * [`Placement::Pinned`] — explicit shard, for reproducing a single-group
//!   run or co-locating operators.
//!
//! ## Failure semantics
//!
//! The runtime separates four failure channels; which one fires is part of
//! the API contract:
//!
//! * **Panics** are reserved for caller bugs and poisoned internals:
//!   locking a poisoned shard, indexing a shard out of range through the
//!   panicking accessors. A job body that panics on its shard fills every
//!   waiter with [`RuntimeError::JobPanicked`] and the panic is re-raised
//!   from [`Runtime::run_all`] on the driving thread — waiters never hang.
//! * **Typed errors** cover everything recoverable by the caller:
//!   shape/finiteness rejection at submit time
//!   ([`RuntimeError::NonFiniteInput`]), stale handles
//!   ([`RuntimeError::InvalidHandle`]), bounded waits
//!   ([`RuntimeError::WaitTimeout`] from [`JobHandle::wait_timeout`]), and
//!   loads whose write-verify pass stays above the health policy's
//!   threshold through every reprogram attempt
//!   ([`RuntimeError::ProgramVerifyFailed`]).
//! * **Quarantine** is the runtime healing itself: once a shard
//!   accumulates [`HealthConfig::quarantine_after`] failed checks (job
//!   residuals over tolerance, failed [probes](Runtime::probe_shard),
//!   unverifiable loads), it stops receiving placements, its operators are
//!   re-programmed onto healthy shards, and queued jobs follow them. The
//!   caller sees correct results, plus [`HealthEvent`]s in
//!   [`RunSummary::events`].
//! * **Degraded mode** is the last rung: with no healthy shard to migrate
//!   to — or a single job out of retries — results come from the digital
//!   reference path (`Matrix::matvec`, `lu::solve` or `qr::least_squares`
//!   on the registry's kept matrix). Still correct answers, still
//!   reported: the summary counts degraded dispatches and records an
//!   [`HealthEvent::OperatorDegraded`] per affected operator.
//!
//! Fault injection drives all four channels deterministically in tests and
//! benches: [`Runtime::inject_shard_faults`] installs a seeded
//! [`FaultPlan`] on one shard's macros; an all-zero [`FaultConfig`] is
//! bit-identical to installing no plan at all.
//!
//! ## Observability
//!
//! The runtime always meters itself, without perturbing results: counters
//! never touch the RNG or the math. Four surfaces:
//!
//! * **Hardware counters** — every analog event (DAC drives, ADC
//!   conversions, settles, write pulses, cell read/write cycles,
//!   snapshot-cache hits/misses) is counted by relaxed atomics inside
//!   `CrossbarArray` and `MacroGroup` and attributed per job kind by
//!   snapshot-diffing under the shard lock. [`Runtime::hw_snapshot`] sums
//!   all shards; [`RunSummary::hw`] carries one drain's delta.
//! * **Energy/latency attribution** — [`RunSummary::analog_cost`] and
//!   [`MetricsSnapshot::analog_cost`] fold the measured counters through
//!   `gramc_core::metrics::AnalogCostModel`, reporting modeled joules and
//!   analog seconds alongside wall-clock time.
//! * **Serving metrics** — [`Runtime::metrics_snapshot`] returns
//!   submit→dispatch→complete latency histograms (log-bucketed, lock-free;
//!   p50/p90/p99/p999/max), current queue depth and its high-water mark,
//!   the admission-rejection count and per-shard
//!   steal/retry/requeue/quarantine/busy-time counters;
//!   [`MetricsSnapshot::to_json`] serializes the lot under a pinned
//!   `schema_version` ([`METRICS_SCHEMA_VERSION`]).
//! * **Event journal** — submit/coalesce/rejection instants, per-job
//!   duration spans, probe spans and health events land in a bounded
//!   preallocated ring; [`Runtime::journal_chrome_trace`] exports it for
//!   chrome://tracing or Perfetto.
//!
//! ### Span model and request flows
//!
//! Every retired job contributes **two abutting duration spans** that
//! together cover submit→complete:
//!
//! * `queued:<kind>` — from the submission timestamp (taken under the
//!   queue lock, at ticket assignment) to dispatch, drawn on the job's
//!   **shard lane** (`tid` = shard index). Queue pressure per shard is the
//!   width of these spans.
//! * `job:<kind>` — from dispatch to completion, drawn on the executing
//!   **worker lane** (`tid` = 1000 + worker index, so worker occupancy
//!   renders separately from shard queueing; a stolen job shows up on the
//!   thief's lane).
//!
//! `submit` instants mark enqueue points on the shard lanes and `rejected`
//! instants mark admission-control rejections; health events keep their
//! own `health` category.
//!
//! On top of the spans, every submission is **request-scoped**: each
//! `submit_*` mints a [`RequestId`] (returned via
//! [`JobHandle::request_id`]) and the trace links that request's causal
//! chain with chrome *flow events* (`cat:"flow"`, keyed by the id). The
//! lead request of a dispatch owns the `queued:<kind>` span; every
//! coalesced **rider** gets its own `queued:rider` span from its own
//! submission instant to dispatch — so "coalesce wait" is separable from
//! "queue wait" — and each request's flow arrow lands inside the shared
//! execution span, surviving coalescing and work-stealing. Flow-carrying
//! queue spans also expose the id as `args.req`, which is what the
//! offline `trace_analyze` tool (see below) keys on.
//!
//! ### Tenants
//!
//! Submissions belong to a [`TenantId`]: the plain `submit_*` APIs run as
//! [`TenantId::DEFAULT`], the `submit_*_for(tenant, ...)` variants name
//! one. Per tenant the runtime keeps a submit→complete latency histogram,
//! an in-flight gauge and its **exact share of the hardware counters**: a
//! coalesced batch's counter delta is split among its riders
//! proportionally to row counts with largest-remainder integer
//! assignment, so tenant shares always sum bit-exactly to `hw_total`
//! (conservation is pinned by test). Shares price through
//! [`AnalogCostModel`](gramc_core::metrics::AnalogCostModel) into
//! per-tenant joules. [`Runtime::with_tenant_quota`] adds fair admission:
//! a tenant at its [`TenantQuota`] in-flight bound gets typed
//! [`RuntimeError::QueueFull`] rejections (riders count — each holds a
//! result slot) before it can starve other tenants.
//!
//! ### SLO monitoring
//!
//! [`SloMonitor`] is a background thread evaluating an [`SloConfig`]
//! against the live telemetry the SRE way: latency and rejection error
//! budgets consumed at a measured burn rate over a short and a long
//! window simultaneously (the short window trips fast, the long one keeps
//! transients from paging; hysteresis re-arms only after the short-window
//! burn recovers). Alerts are typed ([`SloAlert`]), journaled in the
//! `slo` category and surfaced in the `slo` section of
//! [`MetricsSnapshot`].
//!
//! ### Metrics JSONL stream
//!
//! [`MetricsReporter`] snapshots a served runtime on a fixed interval and
//! appends one compact JSON object per line
//! ([`MetricsSnapshot::to_jsonl_line`]). Each record carries
//! `schema_version`, the three stage histograms (`count`, `mean_ns`, the
//! `p50/p90/p99/p999/max` ladder), `queue_depth` / `queue_depth_max` /
//! `rejected`, per-shard scheduler counters with `busy_ns` utilization
//! numerators, and per-kind job counts with hardware attribution and
//! modeled cost. Schema **v3** added the `tenants` section (per-tenant
//! in-flight/requests/rejected, latency histogram, exact hardware share
//! and modeled joules), the `slo` section (alert counts, current
//! short-window burn rates, alerting flags) and widened `journal` to
//! `{len, capacity, overwritten, dropped_since_last, drop_rate}` — the
//! ring is sized at construction with [`Runtime::with_journal_capacity`],
//! and a nonzero `drop_rate` means the ring wrapped within the reporting
//! interval. Consumers tail the file; the schema version is pinned by
//! test.
//!
//! ### Load observatory
//!
//! `cargo run --release -p gramc-bench --bin load_observatory` drives a
//! served runtime from many client threads and records the latency SLO
//! evidence into `BENCH_kernels.json`:
//!
//! * **closed-loop** — each client submits, waits, submits again:
//!   saturation throughput and in-service latency.
//! * **open-loop** — a pacer submits at fixed arrival rates regardless of
//!   completions: queueing-delay percentiles and the saturation knee (the
//!   rate where p99 departs and rejections begin, under a bounded queue).
//!
//! Both record p50/p99/p999 latency, sustained throughput and the
//! rejection rate at each swept arrival rate (`serving_closed_*` /
//! `serving_open_*` entries; single-core hosts annotate `overhead_only`
//! like the other runtime benches). The bench smoke mode exports
//! `TRACE_serving.json` (chrome trace of a served sample run) and
//! `METRICS_serving.jsonl` (live reporter output), both validated in CI.
//!
//! The exported pair feeds the offline analyzer:
//!
//! ```sh
//! cargo run -p gramc-bench --bin trace_analyze -- \
//!     TRACE_serving.json METRICS_serving.jsonl [--top N] [--check]
//! ```
//!
//! It follows each request's flow events to print a critical-path
//! breakdown (queue wait vs coalesce wait vs execute), the per-tenant
//! cost table from the final metrics record and the top-N slowest
//! requests; `--check` (CI mode) fails on parse errors, unlinked rider
//! flows or tenant attribution that does not sum exactly to `hw_total`.
//!
//! ## Persistent serving
//!
//! [`RuntimeServer::start`] turns a runtime into an always-on service: one
//! persistent worker per shard, parked on a condvar between submissions
//! and woken by any `submit_*`. `submit → JobHandle::wait` completes
//! without any [`Runtime::run_all`] drain. Pair with
//! [`Runtime::with_queue_limit`] for bounded-queue admission control
//! ([`RuntimeError::QueueFull`] backpressure) and
//! [`RuntimeServer::shutdown`] for graceful drain-then-join shutdown.
//! Ticket order is unchanged, so fixed seeds + pinned placement stay
//! bit-identical to a lone `MacroGroup` whether jobs are drained or
//! served.
//!
//! ## Relation to `GramcSystem`
//!
//! [`GramcSystem`](gramc_core::system::GramcSystem) remains the paper's
//! Fig. 3 single-controller machine: its `n_macros` argument sizes one
//! group and does not shard. [`Runtime::new`] *is* the sharded
//! constructor — it builds one `MacroGroup` per shard (seeded per shard)
//! and scales the same four analog primitives across them.

#![warn(missing_docs)]

mod error;
mod health;
mod job;
mod registry;
mod runtime;
mod server;
mod slo;
mod telemetry;
mod tenant;
mod tiling;

pub use error::RuntimeError;
pub use health::{HealthConfig, HealthEvent};
pub use job::{JobHandle, JobOutput};
pub use registry::{OperatorHandle, Placement};
pub use runtime::{QueuePolicy, RunSummary, Runtime};
pub use server::{RuntimeServer, ServeReport};
pub use tenant::{RequestId, TenantId, TenantQuota};
pub use tiling::ShardedTiledOperator;

pub use server::MetricsReporter;
pub use slo::{SloAlert, SloAlertKind, SloConfig, SloMonitor};
pub use telemetry::{
    KindMetrics, MetricsSnapshot, ShardMetrics, SloMetrics, TenantMetrics, METRICS_SCHEMA_VERSION,
};

pub use gramc_core::{FaultConfig, FaultKind, FaultPlan, ProbeReport, ProgramOutcome};
pub use gramc_telemetry::{
    EventJournal, FlowPhase, HistogramSnapshot, HwCounters, HwSnapshot, JournalEvent,
    LatencyHistogram,
};
