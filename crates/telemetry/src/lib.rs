//! # gramc-telemetry
//!
//! Observability primitives shared by the whole workspace: relaxed-atomic
//! hardware counters ([`HwCounters`] / [`HwSnapshot`]), lock-free
//! log-bucketed latency histograms ([`LatencyHistogram`]), and a bounded
//! structured event journal ([`EventJournal`]) exportable in the
//! chrome://tracing trace-event format.
//!
//! Everything here is **observation only**: no RNG, no floating-point state
//! that feeds back into the simulation, no allocation on record paths (the
//! journal ring is preallocated, histogram buckets are fixed arrays, and
//! counters are plain atomics). The instrumented crates always meter; this
//! crate itself has no features and no dependencies.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of hardware counter fields (also the length of
/// [`HwSnapshot::fields`]).
pub const HW_FIELDS: usize = 10;

/// Monotonic per-component hardware event counters.
///
/// Incremented with `Relaxed` atomics from inside `CrossbarArray` and
/// `MacroGroup`; shared between a macro group and its arrays via `Arc` so
/// one accumulator sees every analog event of a shard. Reads
/// ([`snapshot`](Self::snapshot)) are also relaxed: callers that need a
/// consistent cut take it while holding whatever lock serializes the
/// instrumented work (the runtime snapshots under the shard lock).
#[derive(Debug, Default)]
pub struct HwCounters {
    dac_drives: AtomicU64,
    adc_conversions: AtomicU64,
    settle_events: AtomicU64,
    solve_settles: AtomicU64,
    write_pulses: AtomicU64,
    write_cycles: AtomicU64,
    read_cycles_mvm: AtomicU64,
    read_cycles_solve: AtomicU64,
    snapshot_hits: AtomicU64,
    snapshot_misses: AtomicU64,
}

macro_rules! counter_adders {
    ($($(#[$doc:meta])* $add:ident => $field:ident),* $(,)?) => {
        $(
            $(#[$doc])*
            #[inline]
            pub fn $add(&self, n: u64) {
                self.$field.fetch_add(n, Ordering::Relaxed);
            }
        )*
    };
}

impl HwCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    counter_adders! {
        /// Records `n` DAC input drives (one per driven vector element).
        add_dac_drives => dac_drives,
        /// Records `n` ADC output conversions (one per captured element).
        add_adc_conversions => adc_conversions,
        /// Records `n` open-loop MVM settle events (one per plane per
        /// applied vector).
        add_settle_events => settle_events,
        /// Records `n` closed-loop feedback settle events (INV/PINV/EGV
        /// solve iterations).
        add_solve_settles => solve_settles,
        /// Records `n` write-verify programming pulses (direct programming
        /// counts one blind pulse per cell).
        add_write_pulses => write_pulses,
        /// Records `n` cell write cycles (cells touched by programming).
        add_write_cycles => write_cycles,
        /// Records `n` cell read cycles biased during MVM settles.
        add_read_cycles_mvm => read_cycles_mvm,
        /// Records `n` cell read cycles biased during solve settles.
        add_read_cycles_solve => read_cycles_solve,
        /// Records `n` conductance snapshot-cache hits.
        add_snapshot_hits => snapshot_hits,
        /// Records `n` conductance snapshot-cache misses (rebuilds).
        add_snapshot_misses => snapshot_misses,
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> HwSnapshot {
        HwSnapshot {
            dac_drives: self.dac_drives.load(Ordering::Relaxed),
            adc_conversions: self.adc_conversions.load(Ordering::Relaxed),
            settle_events: self.settle_events.load(Ordering::Relaxed),
            solve_settles: self.solve_settles.load(Ordering::Relaxed),
            write_pulses: self.write_pulses.load(Ordering::Relaxed),
            write_cycles: self.write_cycles.load(Ordering::Relaxed),
            read_cycles_mvm: self.read_cycles_mvm.load(Ordering::Relaxed),
            read_cycles_solve: self.read_cycles_solve.load(Ordering::Relaxed),
            snapshot_hits: self.snapshot_hits.load(Ordering::Relaxed),
            snapshot_misses: self.snapshot_misses.load(Ordering::Relaxed),
        }
    }

    /// Folds a snapshot into this accumulator (aggregation across shards
    /// or job kinds).
    pub fn add_snapshot(&self, s: &HwSnapshot) {
        self.add_dac_drives(s.dac_drives);
        self.add_adc_conversions(s.adc_conversions);
        self.add_settle_events(s.settle_events);
        self.add_solve_settles(s.solve_settles);
        self.add_write_pulses(s.write_pulses);
        self.add_write_cycles(s.write_cycles);
        self.add_read_cycles_mvm(s.read_cycles_mvm);
        self.add_read_cycles_solve(s.read_cycles_solve);
        self.add_snapshot_hits(s.snapshot_hits);
        self.add_snapshot_misses(s.snapshot_misses);
    }
}

/// A plain-integer copy of [`HwCounters`] at one instant.
///
/// All fields are event counts, so the type is `Eq` and safe to embed in
/// summaries that derive `Eq` themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HwSnapshot {
    /// DAC input drives.
    pub dac_drives: u64,
    /// ADC output conversions.
    pub adc_conversions: u64,
    /// Open-loop MVM settle events (per plane per applied vector).
    pub settle_events: u64,
    /// Closed-loop solve settle events (INV/PINV/EGV iterations).
    pub solve_settles: u64,
    /// Write-verify programming pulses.
    pub write_pulses: u64,
    /// Cells touched by programming.
    pub write_cycles: u64,
    /// Cell read cycles biased during MVM settles.
    pub read_cycles_mvm: u64,
    /// Cell read cycles biased during solve settles.
    pub read_cycles_solve: u64,
    /// Conductance snapshot-cache hits.
    pub snapshot_hits: u64,
    /// Conductance snapshot-cache misses.
    pub snapshot_misses: u64,
}

impl HwSnapshot {
    /// Counter deltas since `earlier` (saturating, so a stale `earlier`
    /// cannot underflow).
    pub fn since(&self, earlier: &HwSnapshot) -> HwSnapshot {
        HwSnapshot {
            dac_drives: self.dac_drives.saturating_sub(earlier.dac_drives),
            adc_conversions: self.adc_conversions.saturating_sub(earlier.adc_conversions),
            settle_events: self.settle_events.saturating_sub(earlier.settle_events),
            solve_settles: self.solve_settles.saturating_sub(earlier.solve_settles),
            write_pulses: self.write_pulses.saturating_sub(earlier.write_pulses),
            write_cycles: self.write_cycles.saturating_sub(earlier.write_cycles),
            read_cycles_mvm: self.read_cycles_mvm.saturating_sub(earlier.read_cycles_mvm),
            read_cycles_solve: self.read_cycles_solve.saturating_sub(earlier.read_cycles_solve),
            snapshot_hits: self.snapshot_hits.saturating_sub(earlier.snapshot_hits),
            snapshot_misses: self.snapshot_misses.saturating_sub(earlier.snapshot_misses),
        }
    }

    /// Field names and values, in a stable order (for generic JSON/report
    /// emission).
    pub fn fields(&self) -> [(&'static str, u64); HW_FIELDS] {
        [
            ("dac_drives", self.dac_drives),
            ("adc_conversions", self.adc_conversions),
            ("settle_events", self.settle_events),
            ("solve_settles", self.solve_settles),
            ("write_pulses", self.write_pulses),
            ("write_cycles", self.write_cycles),
            ("read_cycles_mvm", self.read_cycles_mvm),
            ("read_cycles_solve", self.read_cycles_solve),
            ("snapshot_hits", self.snapshot_hits),
            ("snapshot_misses", self.snapshot_misses),
        ]
    }

    /// Sum of all counters (a quick "did anything happen" probe).
    pub fn total(&self) -> u64 {
        self.fields().iter().map(|&(_, v)| v).sum()
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.total() == 0
    }
}

impl std::ops::AddAssign<&HwSnapshot> for HwSnapshot {
    fn add_assign(&mut self, rhs: &HwSnapshot) {
        self.dac_drives += rhs.dac_drives;
        self.adc_conversions += rhs.adc_conversions;
        self.settle_events += rhs.settle_events;
        self.solve_settles += rhs.solve_settles;
        self.write_pulses += rhs.write_pulses;
        self.write_cycles += rhs.write_cycles;
        self.read_cycles_mvm += rhs.read_cycles_mvm;
        self.read_cycles_solve += rhs.read_cycles_solve;
        self.snapshot_hits += rhs.snapshot_hits;
        self.snapshot_misses += rhs.snapshot_misses;
    }
}

/// Number of histogram buckets: bucket `k` holds durations in
/// `[2^(k-1), 2^k)` nanoseconds (bucket 0 holds 0 ns).
pub const HIST_BUCKETS: usize = 64;

/// A lock-free latency histogram with logarithmic (power-of-two
/// nanosecond) buckets.
///
/// `record_ns` is wait-free: one `fetch_add` into a bucket, one into the
/// count/sum accumulators and a `fetch_max` for the exact maximum. Good to
/// ~2× relative quantile error by construction, which is plenty for p50/p99
/// serving dashboards; the maximum is exact.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Fresh empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    fn bucket_of(ns: u64) -> usize {
        // 0 → bucket 0; ns in [2^(k-1), 2^k) → bucket k (capped).
        (64 - ns.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }

    /// Records one duration in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (bucket `k` covers `[2^(k-1), 2^k)` ns).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total recorded samples.
    pub count: u64,
    /// Sum of all recorded durations in nanoseconds.
    pub sum_ns: u64,
    /// Exact maximum recorded duration in nanoseconds.
    pub max_ns: u64,
}

impl HistogramSnapshot {
    /// Estimated `q`-quantile (0 < q ≤ 1) in nanoseconds, or 0 when empty.
    ///
    /// Walks the cumulative bucket counts and returns the geometric
    /// midpoint of the bucket holding the quantile rank, clamped to the
    /// exact recorded maximum.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                if k == 0 {
                    return 0;
                }
                // Bucket k covers [2^(k-1), 2^k): geometric midpoint
                // ≈ 2^(k-1) · √2 ≈ 3·2^(k-1)/2, computed in integers.
                let lo = 1u64 << (k - 1);
                let mid = lo + lo / 2;
                return mid.min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median estimate in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 90th-percentile estimate in nanoseconds.
    pub fn p90_ns(&self) -> u64 {
        self.quantile_ns(0.90)
    }

    /// 99th-percentile estimate in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// 99.9th-percentile estimate in nanoseconds (tail SLO metric).
    pub fn p999_ns(&self) -> u64 {
        self.quantile_ns(0.999)
    }

    /// Mean recorded duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Samples recorded in the buckets whose lower bound is at or above
    /// `threshold_ns` — a bucket-resolution count of samples at or over the
    /// threshold, monotone non-increasing in the threshold. Exact when the
    /// threshold is 0 or a power of two (a bucket boundary); any other
    /// threshold undercounts up to the next power of two (the default
    /// 50-ms SLO target only counts samples from 2^26 ns ≈ 67.1 ms up).
    /// SLO burn-rate evaluation uses this as its violation counter.
    pub fn count_over(&self, threshold_ns: u64) -> u64 {
        let first = match threshold_ns {
            0 => 0,
            t => LatencyHistogram::bucket_of(t - 1) + 1,
        };
        self.buckets.iter().skip(first).sum()
    }
}

/// Flow-event role of a journal record: whether a chrome://tracing flow
/// arrow departs from it or lands on it. Flows stitch spans on different
/// lanes (a request's queue-wait span on its shard lane, the coalesced
/// batch's execution span on a worker lane) into one causal chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowPhase {
    /// Not part of a flow.
    #[default]
    None,
    /// A flow arrow with id [`JournalEvent::flow_id`] departs from this
    /// record (chrome `ph:"s"`).
    Start,
    /// The flow arrow with id [`JournalEvent::flow_id`] terminates at this
    /// record (chrome `ph:"f"` binding to the enclosing slice).
    End,
}

/// One record in an [`EventJournal`].
///
/// Names and categories are `&'static str` so recording never allocates;
/// the two argument words carry fixed numeric payloads (shard index, batch
/// size, …) whose meaning is per-event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEvent {
    /// Event name (e.g. `"dispatch:MvmBatch"`).
    pub name: &'static str,
    /// Category lane (e.g. `"runtime"`, `"health"`).
    pub category: &'static str,
    /// Start time in nanoseconds since the journal's epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds (0 marks an instant event).
    pub dur_ns: u64,
    /// First numeric argument (by convention: shard / lane index).
    pub arg_a: u64,
    /// Second numeric argument (by convention: a size or count).
    pub arg_b: u64,
    /// Whether this record starts or ends a flow ([`FlowPhase::None`] for
    /// plain spans and instants).
    pub flow: FlowPhase,
    /// Flow identifier shared by the linked records (by convention a
    /// request id; 0 when `flow` is [`FlowPhase::None`]).
    pub flow_id: u64,
}

impl Default for JournalEvent {
    fn default() -> Self {
        Self {
            name: "",
            category: "",
            ts_ns: 0,
            dur_ns: 0,
            arg_a: 0,
            arg_b: 0,
            flow: FlowPhase::None,
            flow_id: 0,
        }
    }
}

struct Ring {
    buf: Vec<JournalEvent>,
    head: usize,
}

/// A bounded, preallocated ring buffer of [`JournalEvent`]s.
///
/// Once the ring is full, new events overwrite the oldest (the overwrite
/// count is tracked). Recording takes a mutex but never allocates, so the
/// journal is safe to use from the runtime's hot paths; export is meant
/// for post-run inspection.
pub struct EventJournal {
    epoch: Instant,
    ring: Mutex<Ring>,
    capacity: usize,
    overwritten: AtomicU64,
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventJournal")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl EventJournal {
    /// A journal holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            epoch: Instant::now(),
            ring: Mutex::new(Ring { buf: Vec::with_capacity(capacity), head: 0 }),
            capacity,
            overwritten: AtomicU64::new(0),
        }
    }

    /// Nanoseconds elapsed since the journal was created (the trace epoch).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records an instant event stamped `now`.
    pub fn instant(&self, name: &'static str, category: &'static str, arg_a: u64, arg_b: u64) {
        let ts = self.now_ns();
        self.record(JournalEvent {
            name,
            category,
            ts_ns: ts,
            dur_ns: 0,
            arg_a,
            arg_b,
            ..JournalEvent::default()
        });
    }

    /// Records a span that started at `start_ns` (from [`now_ns`](Self::now_ns))
    /// and ends now.
    pub fn span(
        &self,
        name: &'static str,
        category: &'static str,
        start_ns: u64,
        arg_a: u64,
        arg_b: u64,
    ) {
        let end = self.now_ns();
        self.record(JournalEvent {
            name,
            category,
            ts_ns: start_ns,
            dur_ns: end.saturating_sub(start_ns).max(1),
            arg_a,
            arg_b,
            ..JournalEvent::default()
        })
    }

    /// Appends one event, overwriting the oldest when full.
    pub fn record(&self, ev: JournalEvent) {
        let mut ring = self.ring.lock().expect("journal poisoned");
        if ring.buf.len() < self.capacity {
            ring.buf.push(ev);
        } else {
            let head = ring.head;
            ring.buf[head] = ev;
            ring.head = (head + 1) % self.capacity;
            self.overwritten.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("journal poisoned").buf.len()
    }

    /// Whether no event has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of events held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted to make room since creation.
    pub fn overwritten(&self) -> u64 {
        self.overwritten.load(Ordering::Relaxed)
    }

    /// All held events, oldest first.
    pub fn events(&self) -> Vec<JournalEvent> {
        let ring = self.ring.lock().expect("journal poisoned");
        let mut out = Vec::with_capacity(ring.buf.len());
        out.extend_from_slice(&ring.buf[ring.head..]);
        out.extend_from_slice(&ring.buf[..ring.head]);
        out
    }

    /// Exports the journal in chrome://tracing "trace event" JSON (an array
    /// of `X` duration and `i` instant events; open via `chrome://tracing`
    /// or Perfetto). `arg_a` becomes the track (`tid`), so per-shard lanes
    /// render separately.
    pub fn to_chrome_trace(&self) -> String {
        to_chrome_trace(&self.events())
    }
}

/// Formats journal events as a chrome://tracing trace-event JSON array.
///
/// Duration records become `X` slices, zero-duration records become `i`
/// instants. A record with a [`FlowPhase`] additionally emits the chrome
/// flow record (`s` to start the arrow, `f` with `bp:"e"` to land it):
/// the flow record shares the slice's `pid`/`tid` and is timestamped at
/// the slice midpoint, so chrome binds it to that slice. Flow-carrying
/// `X` slices also expose the flow id as `args.req`, which is what the
/// offline `trace_analyze` tooling keys on.
pub fn to_chrome_trace(events: &[JournalEvent]) -> String {
    let mut out = String::from("[\n");
    // Flow records are appended after their carrier, so commas between
    // records are decided by position in the output, not the input.
    let mut records: Vec<String> = Vec::with_capacity(events.len());
    for ev in events {
        let ts_us = ev.ts_ns as f64 / 1e3;
        if ev.dur_ns > 0 {
            let req = match ev.flow {
                FlowPhase::None => String::new(),
                _ => format!(",\"req\":{}", ev.flow_id),
            };
            records.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":0,\"tid\":{},\"args\":{{\"a\":{},\"b\":{}{}}}}}",
                ev.name,
                ev.category,
                ts_us,
                ev.dur_ns as f64 / 1e3,
                ev.arg_a,
                ev.arg_a,
                ev.arg_b,
                req,
            ));
        } else if ev.flow == FlowPhase::None {
            records.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},\
                 \"pid\":0,\"tid\":{},\"args\":{{\"a\":{},\"b\":{}}}}}",
                ev.name, ev.category, ts_us, ev.arg_a, ev.arg_a, ev.arg_b,
            ));
        }
        match ev.flow {
            FlowPhase::None => {}
            FlowPhase::Start | FlowPhase::End => {
                // Timestamp inside the carrier slice (its midpoint; the
                // record's own ts for zero-duration carriers) so the
                // arrow binds to that slice.
                let bind_us = (ev.ts_ns + ev.dur_ns / 2) as f64 / 1e3;
                let (ph, bp) = match ev.flow {
                    FlowPhase::Start => ("s", ""),
                    _ => ("f", ",\"bp\":\"e\""),
                };
                records.push(format!(
                    "{{\"name\":\"req\",\"cat\":\"flow\",\"ph\":\"{}\"{},\"id\":{},\
                     \"ts\":{:.3},\"pid\":0,\"tid\":{}}}",
                    ph, bp, ev.flow_id, bind_us, ev.arg_a,
                ));
            }
        }
    }
    for (i, rec) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        out.push_str(rec);
        out.push_str(comma);
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_roll_up_and_diff() {
        let c = HwCounters::new();
        c.add_dac_drives(3);
        c.add_adc_conversions(2);
        c.add_settle_events(1);
        let s1 = c.snapshot();
        assert_eq!(s1.dac_drives, 3);
        assert_eq!(s1.total(), 6);
        c.add_dac_drives(4);
        c.add_write_pulses(10);
        let d = c.snapshot().since(&s1);
        assert_eq!(d.dac_drives, 4);
        assert_eq!(d.write_pulses, 10);
        assert_eq!(d.adc_conversions, 0);

        let acc = HwCounters::new();
        acc.add_snapshot(&s1);
        acc.add_snapshot(&d);
        assert_eq!(acc.snapshot(), c.snapshot());

        let mut sum = HwSnapshot::default();
        sum += &s1;
        sum += &d;
        assert_eq!(sum, c.snapshot());
    }

    #[test]
    fn snapshot_fields_cover_every_counter() {
        let c = HwCounters::new();
        c.add_dac_drives(1);
        c.add_adc_conversions(1);
        c.add_settle_events(1);
        c.add_solve_settles(1);
        c.add_write_pulses(1);
        c.add_write_cycles(1);
        c.add_read_cycles_mvm(1);
        c.add_read_cycles_solve(1);
        c.add_snapshot_hits(1);
        c.add_snapshot_misses(1);
        let s = c.snapshot();
        // Every field reachable through the adders shows up in fields();
        // a new counter that forgets to extend fields() fails here.
        assert!(s.fields().iter().all(|&(_, v)| v == 1));
        assert_eq!(s.total(), HW_FIELDS as u64);
        assert!(!s.is_zero());
        assert!(HwSnapshot::default().is_zero());
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 3);
        assert_eq!(LatencyHistogram::bucket_of(1023), 10);
        assert_eq!(LatencyHistogram::bucket_of(1024), 11);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_bounded() {
        let h = LatencyHistogram::new();
        for ns in [100u64, 200, 300, 1_000, 2_000, 50_000, 1_000_000] {
            h.record_ns(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.max_ns, 1_000_000);
        let (p50, p90, p99) = (s.p50_ns(), s.p90_ns(), s.p99_ns());
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!(p99 <= s.max_ns);
        // p50 of the sample set is 1000 ns; the log bucket estimate must be
        // within 2x.
        assert!((500..=2000).contains(&p50), "p50 = {p50}");
        assert!(s.mean_ns() > 0.0);
        // Empty histogram: all quantiles zero.
        let e = LatencyHistogram::new().snapshot();
        assert_eq!((e.p50_ns(), e.p99_ns(), e.mean_ns()), (0, 0, 0.0));
    }

    #[test]
    fn journal_ring_wraps_oldest_first() {
        let j = EventJournal::new(3);
        for (i, name) in ["a", "b", "c", "d", "e"].iter().enumerate() {
            j.record(JournalEvent {
                name,
                category: "t",
                ts_ns: i as u64,
                ..JournalEvent::default()
            });
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.capacity(), 3);
        assert_eq!(j.overwritten(), 2);
        let names: Vec<_> = j.events().iter().map(|e| e.name).collect();
        assert_eq!(names, ["c", "d", "e"]);
    }

    #[test]
    fn journal_spans_and_instants_export_as_chrome_trace() {
        let j = EventJournal::new(16);
        let t0 = j.now_ns();
        j.instant("coalesce", "runtime", 2, 8);
        j.span("dispatch:MvmBatch", "runtime", t0, 1, 64);
        let trace = j.to_chrome_trace();
        assert!(trace.starts_with("[\n"));
        assert!(trace.ends_with("]\n"));
        assert!(trace.contains("\"ph\":\"i\""));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"name\":\"dispatch:MvmBatch\""));
        assert!(trace.contains("\"tid\":1"));
        // Balanced brackets/braces make it parseable.
        assert_eq!(trace.matches('{').count(), trace.matches('}').count());
        assert_eq!(trace.matches('[').count(), trace.matches(']').count());
    }

    #[test]
    fn flow_events_link_spans_across_lanes() {
        let j = EventJournal::new(16);
        // A queue-wait span starting flow 42 on the shard lane, the flow
        // landing inside an execution span on a worker lane.
        j.record(JournalEvent {
            name: "queued:mvm_batch",
            category: "runtime",
            ts_ns: 1_000,
            dur_ns: 2_000,
            arg_a: 0,
            arg_b: 7,
            flow: FlowPhase::Start,
            flow_id: 42,
        });
        j.record(JournalEvent {
            name: "job:mvm_batch",
            category: "runtime",
            ts_ns: 3_000,
            dur_ns: 4_000,
            arg_a: 1000,
            arg_b: 7,
            ..JournalEvent::default()
        });
        j.record(JournalEvent {
            name: "req",
            category: "flow",
            ts_ns: 5_000,
            arg_a: 1000,
            flow: FlowPhase::End,
            flow_id: 42,
            ..JournalEvent::default()
        });
        let trace = j.to_chrome_trace();
        assert!(trace.contains("\"ph\":\"s\""), "flow start record: {trace}");
        assert!(trace.contains("\"ph\":\"f\",\"bp\":\"e\""), "flow end record: {trace}");
        assert_eq!(trace.matches("\"id\":42").count(), 2, "both ends share the id: {trace}");
        // The carrier slice exposes the flow id for offline analysis.
        assert!(trace.contains("\"req\":42"), "args.req on the carrier: {trace}");
        // The flow start binds inside its carrier slice (midpoint 2 µs).
        assert!(trace.contains("\"ph\":\"s\",\"id\":42,\"ts\":2.000"), "{trace}");
        assert_eq!(trace.matches('{').count(), trace.matches('}').count());
        assert_eq!(trace.matches('[').count(), trace.matches(']').count());
    }

    #[test]
    fn count_over_is_a_monotone_tail_count() {
        let h = LatencyHistogram::new();
        for ns in [100u64, 200, 300, 3_000, 50_000, 1_000_000] {
            h.record_ns(ns);
        }
        let s = h.snapshot();
        // Power-of-two thresholds are bucket boundaries: exact counts.
        assert_eq!(s.count_over(1 << 8), 4, "256 ns: 300/3000/50000/1e6 above");
        assert_eq!(s.count_over(1 << 12), 2, "4096 ns: 50000/1e6 above");
        assert_eq!(s.count_over(u64::MAX), 0);
        assert_eq!(s.count_over(0), s.count, "everything is above 0 ns");
        let mut prev = u64::MAX;
        for t in [0u64, 128, 256, 4_096, 1 << 20, u64::MAX] {
            let c = s.count_over(t);
            assert!(c <= prev, "count_over must not increase with threshold");
            prev = c;
        }
    }
}
