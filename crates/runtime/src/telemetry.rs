//! Serving telemetry for the sharded runtime: latency histograms over the
//! job lifecycle, a queue-depth gauge, per-shard scheduler counters,
//! per-job-kind hardware attribution and the structured event journal.
//!
//! Everything here observes; nothing feeds back. Counters are relaxed
//! atomics, histograms are lock-free, and the journal ring is preallocated,
//! so the instrumented scheduler paths stay allocation-free and never
//! change a result.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use gramc_core::metrics::{AnalogCostModel, Cost};
use gramc_telemetry::{EventJournal, HistogramSnapshot, HwCounters, HwSnapshot, LatencyHistogram};

use crate::job::{JobKind, Op};
use crate::tenant::{TenantEntry, TenantId};

/// Stable display/index order of the job kinds.
pub(crate) const KIND_NAMES: [&str; 8] = [
    "mvm_many",
    "mvm_set",
    "mvm_batch",
    "solve_inv",
    "solve_inv_batch",
    "solve_pinv_batch",
    "load",
    "free",
];

/// Index of a job kind in [`KIND_NAMES`] / the per-kind aggregates. A
/// compute job's label follows from its operation and payload: a coalesced
/// MVM dispatch is `mvm_many` until it drains its pending batch and
/// `mvm_set` when that drained batch is re-dispatched.
pub(crate) fn kind_index(kind: &JobKind) -> usize {
    match kind {
        JobKind::Compute { op: Op::Mvm, per_request: true, xs: None, .. } => 0,
        JobKind::Compute { op: Op::Mvm, per_request: true, xs: Some(_), .. } => 1,
        JobKind::Compute { op: Op::Mvm, per_request: false, .. } => 2,
        JobKind::Compute { op: Op::Inv, per_request: true, .. } => 3,
        JobKind::Compute { op: Op::Inv, per_request: false, .. } => 4,
        JobKind::Compute { op: Op::Pinv, .. } => 5,
        JobKind::Load { .. } => 6,
        JobKind::Free { .. } => 7,
    }
}

/// Journal lane (`tid`) offset of worker-execution spans. Lanes below the
/// base are shard lanes (queue-wait spans, instants, health events); lane
/// `WORKER_LANE_BASE + w` is worker `w`'s execution track — so a chrome
/// trace shows queueing per shard and occupancy per worker side by side.
pub(crate) const WORKER_LANE_BASE: u64 = 1000;

/// Journal span name of a job kind (static, so recording never allocates).
pub(crate) fn kind_span_name(ix: usize) -> &'static str {
    match ix {
        0 => "job:mvm_many",
        1 => "job:mvm_set",
        2 => "job:mvm_batch",
        3 => "job:solve_inv",
        4 => "job:solve_inv_batch",
        5 => "job:solve_pinv_batch",
        6 => "job:load",
        _ => "job:free",
    }
}

/// Journal span name of a job kind's queue-wait stage (submit → dispatch),
/// static for the same no-allocation reason.
pub(crate) fn kind_queued_name(ix: usize) -> &'static str {
    match ix {
        0 => "queued:mvm_many",
        1 => "queued:mvm_set",
        2 => "queued:mvm_batch",
        3 => "queued:solve_inv",
        4 => "queued:solve_inv_batch",
        5 => "queued:solve_pinv_batch",
        6 => "queued:load",
        _ => "queued:free",
    }
}

/// Splits `total` into integer shares proportional to `weights`, summing
/// back to `total` **exactly** (this is what keeps per-tenant attribution
/// conservative). Largest-remainder assignment: each share gets its floor
/// `total·wᵢ/W`, then the remainder units go one each to the largest
/// fractional parts, ties broken by position — so the split is
/// deterministic in submission order. Zero total weight degenerates to
/// handing everything to the first share.
pub(crate) fn split_exact(total: u64, weights: &[u64]) -> Vec<u64> {
    let w_sum: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    if w_sum == 0 {
        let mut out = vec![0; weights.len()];
        if let Some(first) = out.first_mut() {
            *first = total;
        }
        return out;
    }
    let mut shares: Vec<u64> = Vec::with_capacity(weights.len());
    let mut fracs: Vec<(u128, usize)> = Vec::with_capacity(weights.len());
    let mut assigned: u64 = 0;
    for (i, &w) in weights.iter().enumerate() {
        let num = u128::from(total) * u128::from(w);
        let base = (num / w_sum) as u64;
        shares.push(base);
        assigned += base;
        fracs.push((num % w_sum, i));
    }
    fracs.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut rem = total - assigned;
    for &(_, i) in &fracs {
        if rem == 0 {
            break;
        }
        shares[i] += 1;
        rem -= 1;
    }
    shares
}

/// [`split_exact`] applied field-by-field over a hardware-counter delta:
/// one snapshot per weight, each field's shares summing to the delta's
/// field exactly.
pub(crate) fn split_hw(delta: &HwSnapshot, weights: &[u64]) -> Vec<HwSnapshot> {
    let mut out = vec![HwSnapshot::default(); weights.len()];
    let mut apply = |get: fn(&HwSnapshot) -> u64, set: fn(&mut HwSnapshot, u64)| {
        for (o, share) in out.iter_mut().zip(split_exact(get(delta), weights)) {
            set(o, share);
        }
    };
    apply(|s| s.dac_drives, |s, v| s.dac_drives = v);
    apply(|s| s.adc_conversions, |s, v| s.adc_conversions = v);
    apply(|s| s.settle_events, |s, v| s.settle_events = v);
    apply(|s| s.solve_settles, |s, v| s.solve_settles = v);
    apply(|s| s.write_pulses, |s, v| s.write_pulses = v);
    apply(|s| s.write_cycles, |s, v| s.write_cycles = v);
    apply(|s| s.read_cycles_mvm, |s, v| s.read_cycles_mvm = v);
    apply(|s| s.read_cycles_solve, |s, v| s.read_cycles_solve = v);
    apply(|s| s.snapshot_hits, |s, v| s.snapshot_hits = v);
    apply(|s| s.snapshot_misses, |s, v| s.snapshot_misses = v);
    out
}

/// Scheduler counters of one shard.
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    /// Jobs of this shard executed by a thief worker.
    pub steals: AtomicU64,
    /// Failed-check re-dispatches of this shard's jobs.
    pub retries: AtomicU64,
    /// Migration bounces (job re-enqueued toward its operator's new home).
    pub requeues: AtomicU64,
    /// Times this shard was quarantined.
    pub quarantines: AtomicU64,
    /// Wall-clock nanoseconds this shard's jobs spent executing (dispatch →
    /// complete, summed) — the numerator of per-shard utilization.
    pub busy_ns: AtomicU64,
}

/// Per-job-kind aggregate: dispatch count plus the hardware events the
/// kind's job bodies caused (snapshot-diffed under the shard lock).
#[derive(Debug, Default)]
pub(crate) struct KindAgg {
    pub jobs: AtomicU64,
    pub hw: HwCounters,
}

/// Live burn-rate state published by the [`SloMonitor`](crate::SloMonitor)
/// and read into the `slo` section of [`MetricsSnapshot`]. Burn rates are
/// stored ×1000 so the whole struct stays atomic.
#[derive(Debug, Default)]
pub(crate) struct SloState {
    /// Latency SLO alerts fired since the monitor started.
    pub latency_alerts: AtomicU64,
    /// Rejection SLO alerts fired since the monitor started.
    pub rejection_alerts: AtomicU64,
    /// Short-window latency burn rate ×1000.
    pub latency_burn_milli: AtomicU64,
    /// Short-window rejection burn rate ×1000.
    pub rejection_burn_milli: AtomicU64,
    /// 1 while the latency alert is raised and not yet re-armed.
    pub latency_alerting: AtomicU64,
    /// 1 while the rejection alert is raised and not yet re-armed.
    pub rejection_alerting: AtomicU64,
}

/// The runtime's telemetry sink (one per [`Runtime`](crate::Runtime)).
#[derive(Debug)]
pub(crate) struct RtTelemetry {
    pub submit_to_dispatch: LatencyHistogram,
    pub dispatch_to_complete: LatencyHistogram,
    pub submit_to_complete: LatencyHistogram,
    /// High-water mark of jobs enqueued at once.
    pub queue_depth_max: AtomicUsize,
    /// Submissions rejected by the admission bound
    /// ([`RuntimeError::QueueFull`](crate::RuntimeError::QueueFull)).
    pub rejected: AtomicU64,
    pub per_shard: Vec<ShardCounters>,
    pub per_kind: [KindAgg; KIND_NAMES.len()],
    pub journal: EventJournal,
    /// Journal `overwritten` at the previous [`MetricsSnapshot::capture`] —
    /// the baseline of the per-interval drop rate in the metrics stream.
    pub last_overwritten: AtomicU64,
    /// SLO monitor outputs (zeros until a monitor runs).
    pub slo: SloState,
}

/// Journal capacity: enough for the serving benches' full drains while
/// keeping the preallocated ring small (~160 KiB).
const JOURNAL_CAPACITY: usize = 4096;

impl RtTelemetry {
    pub fn new(shards: usize) -> Self {
        Self {
            submit_to_dispatch: LatencyHistogram::new(),
            dispatch_to_complete: LatencyHistogram::new(),
            submit_to_complete: LatencyHistogram::new(),
            queue_depth_max: AtomicUsize::new(0),
            rejected: AtomicU64::new(0),
            per_shard: (0..shards).map(|_| ShardCounters::default()).collect(),
            per_kind: std::array::from_fn(|_| KindAgg::default()),
            journal: EventJournal::new(JOURNAL_CAPACITY),
            last_overwritten: AtomicU64::new(0),
            slo: SloState::default(),
        }
    }

    /// Folds one executed job into its kind's aggregate.
    pub fn record_job(&self, kind_ix: usize, hw: &HwSnapshot) {
        let agg = &self.per_kind[kind_ix];
        agg.jobs.fetch_add(1, Ordering::Relaxed);
        agg.hw.add_snapshot(hw);
    }

    /// Sum of every kind's attributed hardware events — i.e. everything the
    /// job bodies did (direct `shard_group()` use is not included).
    pub fn kind_hw_total(&self) -> HwSnapshot {
        let mut total = HwSnapshot::default();
        for agg in &self.per_kind {
            total += &agg.hw.snapshot();
        }
        total
    }
}

/// Point-in-time copy of one shard's scheduler counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardMetrics {
    /// Jobs of this shard executed by a thief worker.
    pub steals: u64,
    /// Failed-check re-dispatches of this shard's jobs.
    pub retries: u64,
    /// Migration bounces of this shard's jobs.
    pub requeues: u64,
    /// Times this shard was quarantined.
    pub quarantines: u64,
    /// Nanoseconds this shard's jobs spent executing (dispatch→complete,
    /// summed). Divide by the serving window for utilization.
    pub busy_ns: u64,
}

/// Point-in-time copy of one job kind's aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindMetrics {
    /// Job kind name (stable, snake_case).
    pub kind: &'static str,
    /// Jobs of this kind executed.
    pub jobs: u64,
    /// Hardware events attributed to this kind's job bodies.
    pub hw: HwSnapshot,
}

impl KindMetrics {
    /// Modeled analog latency/energy of this kind's hardware events.
    pub fn analog_cost(&self, model: &AnalogCostModel) -> Cost {
        model.attribute(&self.hw)
    }
}

/// Point-in-time copy of one tenant's accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMetrics {
    /// The tenant.
    pub tenant: TenantId,
    /// Requests submitted and not yet answered.
    pub in_flight: u64,
    /// Requests ever admitted.
    pub requests: u64,
    /// Submissions rejected by the tenant quota.
    pub rejected: u64,
    /// Submit→complete latency of this tenant's requests.
    pub latency: HistogramSnapshot,
    /// This tenant's exact share of the hardware counters.
    pub hw: HwSnapshot,
}

impl TenantMetrics {
    /// Modeled analog latency/energy of this tenant's hardware share.
    pub fn analog_cost(&self, model: &AnalogCostModel) -> Cost {
        model.attribute(&self.hw)
    }
}

/// Point-in-time copy of the SLO monitor's outputs (all zeros until an
/// [`SloMonitor`](crate::SloMonitor) runs against the runtime).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloMetrics {
    /// Latency SLO alerts fired since the monitor started.
    pub latency_alerts: u64,
    /// Rejection SLO alerts fired since the monitor started.
    pub rejection_alerts: u64,
    /// Short-window latency burn rate (violation fraction / error budget).
    pub latency_burn: f64,
    /// Short-window rejection burn rate.
    pub rejection_burn: f64,
    /// Whether the latency alert is currently raised.
    pub latency_alerting: bool,
    /// Whether the rejection alert is currently raised.
    pub rejection_alerting: bool,
}

/// Version of the JSON layout emitted by [`MetricsSnapshot::to_json`].
/// Bump on any key rename/removal; additions alone do not require a bump
/// but get one anyway so downstream dashboards can pin exactly.
///
/// v3 added the `tenants` and `slo` sections and widened `journal` with
/// `capacity`, `dropped_since_last` and `drop_rate`.
pub const METRICS_SCHEMA_VERSION: u32 = 3;

/// A consistent cut of the runtime's serving metrics
/// ([`Runtime::metrics_snapshot`](crate::Runtime::metrics_snapshot)).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Submission → job execution start.
    pub submit_to_dispatch: HistogramSnapshot,
    /// Execution start → result slots filled.
    pub dispatch_to_complete: HistogramSnapshot,
    /// Submission → result slots filled (the serving latency).
    pub submit_to_complete: HistogramSnapshot,
    /// High-water mark of jobs enqueued at once.
    pub queue_depth_max: usize,
    /// Current queue depth (jobs submitted but not yet retired).
    pub queue_depth: usize,
    /// Submissions rejected by the admission bound.
    pub rejected: u64,
    /// Scheduler counters per shard.
    pub shards: Vec<ShardMetrics>,
    /// Per-job-kind dispatch counts and hardware attribution.
    pub kinds: Vec<KindMetrics>,
    /// Sum of every kind's hardware events.
    pub hw_total: HwSnapshot,
    /// Per-tenant accounting, in tenant-id order. Tenant hardware shares
    /// sum exactly to the per-kind totals (`hw_total`) of the jobs that
    /// carried attribution metadata.
    pub tenants: Vec<TenantMetrics>,
    /// SLO monitor outputs.
    pub slo: SloMetrics,
    /// Events currently held in the journal.
    pub journal_len: usize,
    /// The journal ring's capacity.
    pub journal_capacity: usize,
    /// Journal events evicted to make room since creation.
    pub journal_overwritten: u64,
    /// Journal events evicted since the previous snapshot — per-interval
    /// in the metrics stream, because each capture resets the baseline.
    pub journal_dropped_since_last: u64,
}

impl MetricsSnapshot {
    pub(crate) fn capture(
        t: &RtTelemetry,
        queue_depth: usize,
        tenants: &[(TenantId, Arc<TenantEntry>)],
    ) -> Self {
        let shards = t
            .per_shard
            .iter()
            .map(|s| ShardMetrics {
                steals: s.steals.load(Ordering::Relaxed),
                retries: s.retries.load(Ordering::Relaxed),
                requeues: s.requeues.load(Ordering::Relaxed),
                quarantines: s.quarantines.load(Ordering::Relaxed),
                busy_ns: s.busy_ns.load(Ordering::Relaxed),
            })
            .collect();
        let kinds = KIND_NAMES
            .iter()
            .zip(&t.per_kind)
            .map(|(&kind, agg)| KindMetrics {
                kind,
                jobs: agg.jobs.load(Ordering::Relaxed),
                hw: agg.hw.snapshot(),
            })
            .collect();
        let tenants = tenants
            .iter()
            .map(|(id, e)| TenantMetrics {
                tenant: *id,
                in_flight: e.in_flight.load(Ordering::SeqCst),
                requests: e.requests.load(Ordering::Relaxed),
                rejected: e.rejected.load(Ordering::Relaxed),
                latency: e.latency.snapshot(),
                hw: e.hw.snapshot(),
            })
            .collect();
        let s = &t.slo;
        let slo = SloMetrics {
            latency_alerts: s.latency_alerts.load(Ordering::Relaxed),
            rejection_alerts: s.rejection_alerts.load(Ordering::Relaxed),
            latency_burn: s.latency_burn_milli.load(Ordering::Relaxed) as f64 / 1e3,
            rejection_burn: s.rejection_burn_milli.load(Ordering::Relaxed) as f64 / 1e3,
            latency_alerting: s.latency_alerting.load(Ordering::Relaxed) != 0,
            rejection_alerting: s.rejection_alerting.load(Ordering::Relaxed) != 0,
        };
        let overwritten = t.journal.overwritten();
        let dropped =
            overwritten.saturating_sub(t.last_overwritten.swap(overwritten, Ordering::Relaxed));
        Self {
            submit_to_dispatch: t.submit_to_dispatch.snapshot(),
            dispatch_to_complete: t.dispatch_to_complete.snapshot(),
            submit_to_complete: t.submit_to_complete.snapshot(),
            queue_depth_max: t.queue_depth_max.load(Ordering::Relaxed),
            queue_depth,
            rejected: t.rejected.load(Ordering::Relaxed),
            shards,
            kinds,
            hw_total: t.kind_hw_total(),
            tenants,
            slo,
            journal_len: t.journal.len(),
            journal_capacity: t.journal.capacity(),
            journal_overwritten: overwritten,
            journal_dropped_since_last: dropped,
        }
    }

    /// Modeled analog latency/energy of everything the job bodies did.
    pub fn analog_cost(&self, model: &AnalogCostModel) -> Cost {
        model.attribute(&self.hw_total)
    }

    /// Serializes the snapshot as a self-contained JSON object (hand-rolled
    /// — the workspace has no serde). Hardware counters are priced through
    /// the default [`AnalogCostModel`]; histograms report count, mean and
    /// the p50/p90/p99/p999/max ladder in nanoseconds. The layout is
    /// versioned by the `"schema_version"` key
    /// ([`METRICS_SCHEMA_VERSION`]).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let model = AnalogCostModel::default();
        let hist = |h: &HistogramSnapshot| {
            format!(
                "{{\"count\": {}, \"mean_ns\": {:.1}, \"p50_ns\": {}, \"p90_ns\": {}, \
                 \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}}}",
                h.count,
                h.mean_ns(),
                h.p50_ns(),
                h.p90_ns(),
                h.p99_ns(),
                h.p999_ns(),
                h.max_ns
            )
        };
        let hw_json = |hw: &HwSnapshot| {
            let mut s = String::from("{");
            for (i, (name, v)) in hw.fields().iter().enumerate() {
                let comma = if i + 1 < gramc_telemetry::HW_FIELDS { ", " } else { "" };
                let _ = write!(s, "\"{name}\": {v}{comma}");
            }
            s.push('}');
            s
        };
        let cost_json = |hw: &HwSnapshot| {
            let c = model.attribute(hw);
            format!("{{\"latency_s\": {:e}, \"energy_j\": {:e}}}", c.latency, c.energy)
        };
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema_version\": {},", METRICS_SCHEMA_VERSION);
        let _ = writeln!(out, "  \"submit_to_dispatch\": {},", hist(&self.submit_to_dispatch));
        let _ = writeln!(out, "  \"dispatch_to_complete\": {},", hist(&self.dispatch_to_complete));
        let _ = writeln!(out, "  \"submit_to_complete\": {},", hist(&self.submit_to_complete));
        let _ = writeln!(out, "  \"queue_depth\": {},", self.queue_depth);
        let _ = writeln!(out, "  \"queue_depth_max\": {},", self.queue_depth_max);
        let _ = writeln!(out, "  \"rejected\": {},", self.rejected);
        out.push_str("  \"shards\": [\n");
        for (i, s) in self.shards.iter().enumerate() {
            let comma = if i + 1 < self.shards.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"steals\": {}, \"retries\": {}, \"requeues\": {}, \
                 \"quarantines\": {}, \"busy_ns\": {}}}{}",
                s.steals, s.retries, s.requeues, s.quarantines, s.busy_ns, comma
            );
        }
        out.push_str("  ],\n  \"kinds\": {\n");
        for (i, k) in self.kinds.iter().enumerate() {
            let comma = if i + 1 < self.kinds.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    \"{}\": {{\"jobs\": {}, \"hw\": {}, \"modeled\": {}}}{}",
                k.kind,
                k.jobs,
                hw_json(&k.hw),
                cost_json(&k.hw),
                comma
            );
        }
        out.push_str("  },\n");
        let _ = writeln!(out, "  \"hw_total\": {},", hw_json(&self.hw_total));
        let _ = writeln!(out, "  \"modeled_total\": {},", cost_json(&self.hw_total));
        out.push_str("  \"tenants\": {\n");
        for (i, t) in self.tenants.iter().enumerate() {
            let comma = if i + 1 < self.tenants.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    \"{}\": {{\"in_flight\": {}, \"requests\": {}, \"rejected\": {}, \
                 \"latency\": {}, \"hw\": {}, \"modeled\": {}}}{}",
                t.tenant,
                t.in_flight,
                t.requests,
                t.rejected,
                hist(&t.latency),
                hw_json(&t.hw),
                cost_json(&t.hw),
                comma
            );
        }
        out.push_str("  },\n");
        let _ = writeln!(
            out,
            "  \"slo\": {{\"latency_alerts\": {}, \"rejection_alerts\": {}, \
             \"latency_burn\": {:.3}, \"rejection_burn\": {:.3}, \
             \"latency_alerting\": {}, \"rejection_alerting\": {}}},",
            self.slo.latency_alerts,
            self.slo.rejection_alerts,
            self.slo.latency_burn,
            self.slo.rejection_burn,
            self.slo.latency_alerting,
            self.slo.rejection_alerting
        );
        let drop_rate = self.journal_dropped_since_last as f64 / self.journal_len.max(1) as f64;
        let _ = writeln!(
            out,
            "  \"journal\": {{\"len\": {}, \"capacity\": {}, \"overwritten\": {}, \
             \"dropped_since_last\": {}, \"drop_rate\": {:.3}}}",
            self.journal_len,
            self.journal_capacity,
            self.journal_overwritten,
            self.journal_dropped_since_last,
            drop_rate
        );
        out.push_str("}\n");
        out
    }

    /// [`to_json`](Self::to_json) flattened onto one line — the record
    /// format of the live metrics JSONL stream
    /// ([`MetricsReporter`](crate::MetricsReporter)). No key or string in
    /// the document contains whitespace, so collapsing the pretty layout
    /// yields valid compact JSON.
    pub fn to_jsonl_line(&self) -> String {
        let mut line: String = self.to_json().split_whitespace().collect::<Vec<_>>().join(" ");
        line.push('\n');
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indices_match_names() {
        use crate::registry::OperatorHandle;
        let h = OperatorHandle(0);
        let coalesced = JobKind::Compute { handle: h, op: Op::Mvm, xs: None, per_request: true };
        assert_eq!(kind_index(&coalesced), 0);
        let pinv =
            JobKind::Compute { handle: h, op: Op::Pinv, xs: Some(Vec::new()), per_request: false };
        assert_eq!(kind_index(&pinv), 5);
        assert_eq!(kind_index(&JobKind::Free { handle: h }), 7);
        assert_eq!(KIND_NAMES[0], "mvm_many");
        assert_eq!(KIND_NAMES[5], "solve_pinv_batch");
        assert_eq!(KIND_NAMES[7], "free");
        for i in 0..KIND_NAMES.len() {
            assert!(kind_span_name(i).ends_with(KIND_NAMES[i]));
            assert!(kind_queued_name(i).ends_with(KIND_NAMES[i]));
        }
    }

    #[test]
    fn snapshot_json_is_balanced_and_priced() {
        let t = RtTelemetry::new(2);
        t.submit_to_dispatch.record_ns(1_000);
        t.dispatch_to_complete.record_ns(2_000);
        t.submit_to_complete.record_ns(3_000);
        let hw = HwSnapshot { dac_drives: 8, adc_conversions: 8, ..Default::default() };
        t.record_job(2, &hw);
        let tenants = [(TenantId(7), Arc::new(TenantEntry::default()))];
        tenants[0].1.hw.add_dac_drives(5);
        let snap = MetricsSnapshot::capture(&t, 3, &tenants);
        assert_eq!(snap.kinds[2].jobs, 1);
        assert_eq!(snap.queue_depth, 3);
        assert_eq!(snap.hw_total.dac_drives, 8);
        assert_eq!(snap.tenants.len(), 1);
        assert_eq!(snap.tenants[0].hw.dac_drives, 5);
        assert!(snap.analog_cost(&AnalogCostModel::default()).energy > 0.0);
        let json = snap.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"submit_to_complete\""));
        assert!(json.contains("\"mvm_batch\""));
        assert!(json.contains("\"solve_pinv_batch\""));
        assert!(json.contains("\"energy_j\""));
        assert!(json.contains("\"tenant-7\""));
        assert!(json.contains("\"slo\""));
        assert!(json.contains("\"drop_rate\""));
    }

    #[test]
    fn jsonl_line_is_one_compact_line() {
        let t = RtTelemetry::new(1);
        t.submit_to_complete.record_ns(5_000);
        let line = MetricsSnapshot::capture(&t, 0, &[]).to_jsonl_line();
        assert!(line.ends_with('\n'));
        assert_eq!(line.trim_end().matches('\n').count(), 0);
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        assert!(line.contains("\"schema_version\": 3"));
    }

    #[test]
    fn split_exact_is_conservative_and_deterministic() {
        // 10 over equal thirds: remainder units go to the earliest shares.
        assert_eq!(split_exact(10, &[1, 1, 1]), [4, 3, 3]);
        // Proportional to weight, still summing exactly.
        assert_eq!(split_exact(10, &[3, 1]), [8, 2]);
        assert_eq!(split_exact(7, &[2, 3, 2]), [2, 3, 2]);
        // Degenerate weights: everything lands on the first share.
        assert_eq!(split_exact(5, &[0, 0]), [5, 0]);
        // Fuzz the conservation invariant across shapes.
        for total in [0u64, 1, 2, 17, 1_000_003] {
            for weights in [&[1u64][..], &[1, 1], &[5, 3, 9], &[1, 0, 2, 2]] {
                let shares = split_exact(total, weights);
                assert_eq!(shares.iter().sum::<u64>(), total, "{total} over {weights:?}");
            }
        }
    }

    #[test]
    fn split_hw_splits_every_field_exactly() {
        let delta = HwSnapshot {
            dac_drives: 11,
            adc_conversions: 7,
            settle_events: 3,
            read_cycles_mvm: 1_000_001,
            ..Default::default()
        };
        let shares = split_hw(&delta, &[1, 1, 2]);
        assert_eq!(shares.len(), 3);
        let mut sum = HwSnapshot::default();
        for s in &shares {
            sum += s;
        }
        assert_eq!(sum, delta, "field-wise split must be conservative");
        // The weight-2 share gets about half of each field.
        assert_eq!(shares[2].read_cycles_mvm, 500_001);
    }
}
