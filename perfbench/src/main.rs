//! GRAMC end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_mvm|lenet_stream|solve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One process runs one workload. With
//! `--trace 0` it measures the end-to-end metrics with no spans recorded;
//! with `--trace 1` it interleaves untraced and traced windows, then
//! replays each layer below the runtime, and reports the per-layer
//! metrics. Every served answer is checked against a digital reference; a
//! wrong answer makes the run exit non-zero. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/README.md` for the metric definitions.

mod harness;
mod host;
mod layers;
mod lenet_stream;
mod serve_mvm;
mod solve_mix;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use harness::Phase;
use stats::Summary;
use trace::SpanLog;

/// Sub-runs per run. Each sub-run sets the system up afresh (one setup
/// sample) and measures one window of `seconds / sub_runs`; end-to-end
/// figures are medians or pooled samples over the windows, so one slow
/// window or one unlucky thread placement cannot move a run's result.
/// Workloads whose set-up takes milliseconds use more, shorter windows;
/// `solve_mix` write-verifies its operators in about a second per set-up.
pub fn sub_runs(trace: bool, slow_setup: bool) -> usize {
    match (trace, slow_setup) {
        (true, _) => 4,
        (false, true) => 8,
        (false, false) => 16,
    }
}

/// Whether sub-run `k` records spans: in a traced run, every second one,
/// so traced and untraced windows interleave.
pub fn traced_window(trace: bool, k: usize) -> bool {
    trace && k % 2 == 1
}

const WORKLOADS: [&str; 3] = ["serve_mvm", "lenet_stream", "solve_mix"];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Builds the system, appending the build's wall time to `samples`.
///
/// The previous sub-run's system must already be dropped. Its freed memory
/// goes back to the kernel first, so every set-up faults in its memory as
/// the first one in a process does: when the allocator sometimes reused
/// the old pages and sometimes did not, `lenet_stream` set-ups split into
/// two modes, 25 and 45 ms.
pub fn timed_setup<T>(
    samples: &mut Vec<f64>,
    build: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    host::release_free_memory();
    let t = std::time::Instant::now();
    let built = build()?;
    samples.push(t.elapsed().as_secs_f64());
    Ok(built)
}

/// What a workload run hands back: every setup time, one measured phase
/// per sub-run and any spans recorded outside the phases.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub phases: Vec<Phase>,
    pub extra_logs: Vec<SpanLog>,
    /// Peak resident set once the first window has been served.
    pub peak_rss_mb: f64,
}

impl Outcome {
    /// Adds a sub-run's measured phase; call it while that sub-run's system
    /// is still alive. The process's peak resident set is read after the
    /// first one: the system is built and warm, and the benchmark holds one
    /// window's latency samples, not a whole run's, so the figure does not
    /// grow with throughput or run length.
    pub fn push(&mut self, phase: Phase) {
        self.phases.push(phase);
        if self.phases.len() == 1 {
            self.peak_rss_mb = host::peak_rss_mb();
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    (s[(n - 1) / 2] + s[n / 2]) / 2.0
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// Ops the system executed (answered, whether right or wrong).
fn executed(p: &Phase) -> f64 {
    (p.attempted - p.failed).max(1) as f64
}

/// A window is clean when the hypervisor stole at most this share of the
/// measured CPU's time during it.
const CLEAN_STEAL: f64 = 0.02;

/// The traced (or untraced) windows. With `clean`, only the clean ones,
/// or, when fewer than half are clean, the least-stolen half (at least
/// two): on a shared virtual machine steal comes and goes in bursts of
/// seconds and stretches every wall-clock figure. Windows are never chosen
/// by their own speed, so a run's slow stretches count as much as its fast
/// ones.
fn windows(out: &Outcome, traced: bool, clean: bool) -> Vec<&Phase> {
    let mut w: Vec<&Phase> = out.phases.iter().filter(|p| p.traced == traced).collect();
    if clean {
        let n = w.len();
        if 2 * w.iter().filter(|p| p.steal_frac <= CLEAN_STEAL).count() >= n {
            w.retain(|p| p.steal_frac <= CLEAN_STEAL);
        } else {
            w.sort_by(|a, b| a.steal_frac.total_cmp(&b.steal_frac));
            w.truncate((n / 2).max(2));
        }
    }
    w
}

/// `windows` pooled into one phase: counts and latency samples together,
/// so its throughput is their ops over their summed wall time. Host
/// contention the steal counter does not see (a neighbour on the sibling
/// hyperthread) comes and goes within a run; the pooled figure moves with
/// the share of time it lasted, where a median of windows would jump
/// between the contended and the quiet speed.
fn pooled(windows: &[&Phase]) -> Phase {
    let samples = windows.iter().map(|p| p.lat_ns.len()).sum();
    let mut all = Phase { lat_ns: Vec::with_capacity(samples), ..Phase::default() };
    for p in windows {
        all.merge(p);
    }
    all
}

/// Timing metrics come from the clean windows; counts, accuracy and
/// modeled costs from all of them.
fn end_to_end(out: &Outcome) -> Result<(Vec<Metric>, Summary), String> {
    let p = pooled(&windows(out, false, false));
    let mut clean = pooled(&windows(out, false, true));
    let lat = Summary::of(&mut clean.lat_ns).ok_or("no op was answered")?;
    let ops = executed(&p);
    let metrics = vec![
        metric("throughput", clean.throughput(), "ops/s"),
        metric("latency_p50_us", lat.p50_ns as f64 / 1e3, "us"),
        metric("latency_p99_us", lat.p99_ns as f64 / 1e3, "us"),
        metric(
            "success_rate",
            1.0 - (p.failed + p.wrong) as f64 / p.attempted.max(1) as f64,
            "fraction",
        ),
        metric("rel_error", p.rel_sum / p.rel_n.max(1) as f64, "ratio"),
        metric("setup_s", median(&out.setup_s), "s"),
        metric("peak_rss_mb", out.peak_rss_mb, "MiB"),
        metric("sim_time_us_per_op", p.rt.sim_makespan_s / ops * 1e6, "us"),
        metric("sim_energy_nj_per_op", p.rt.sim_energy_j / ops * 1e9, "nJ"),
    ];
    Ok((metrics, lat))
}

fn probe_spec(workload: &str, seed: u64) -> layers::ProbeSpec {
    match workload {
        "serve_mvm" => layers::ProbeSpec {
            cfg: serve_mvm::config(),
            load_cfg: serve_mvm::config(),
            op_shape: (64, 64),
            seed,
        },
        "lenet_stream" => layers::ProbeSpec {
            cfg: lenet_stream::config(),
            load_cfg: lenet_stream::config(),
            op_shape: (84, 120),
            seed,
        },
        _ => layers::ProbeSpec {
            cfg: solve_mix::read_config(),
            load_cfg: solve_mix::config(),
            op_shape: (32, 32),
            seed,
        },
    }
}

fn per_layer(
    workload: &str,
    seed: u64,
    out: &mut Outcome,
) -> Result<(Vec<Metric>, Summary), String> {
    let mut replay_log = SpanLog::with_capacity(4096);
    let replays =
        layers::replay(&probe_spec(workload, seed), &lenet_stream::model(), &mut replay_log)?;
    out.extra_logs.push(replay_log);
    let r = |name: &str| replays.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);

    let plain_throughput = pooled(&windows(out, false, false)).throughput();
    let mut traced = pooled(&windows(out, true, false));
    let traced_throughput = traced.throughput();
    let lat = Summary::of(&mut traced.lat_ns).ok_or("no traced op was answered")?;
    let rt = &traced.rt;
    let ops = executed(&traced);
    let mut logs: Vec<&SpanLog> = out.phases.iter().flat_map(|p| p.logs.iter()).collect();
    logs.extend(out.extra_logs.iter());
    let spans = trace::by_name(&logs);
    let span_us = |name: &str| spans.get(name).map_or(0.0, |s| s.mean_us());
    let per_dispatch = |ns: u64| ns as f64 / rt.dispatches.max(1) as f64 / 1e3;
    // Served time of one op: on serve_mvm, whose latency includes queueing
    // behind the client's burst, the wall time per request (its one CPU is
    // never idle); elsewhere the mean latency.
    let served_us = match workload {
        "serve_mvm" => 1e6 / traced_throughput,
        _ => lat.mean_ns / 1e3,
    };
    // Non-runtime time of the same op: the replayed core (or standalone
    // pipeline) time, weighted by the request mix.
    let basis_us = match workload {
        "serve_mvm" => r("core.mvm_us"),
        "lenet_stream" => r("nn.batch_us"),
        _ => {
            let k = traced.kinds.map(|v| v as f64);
            let total = k.iter().sum::<f64>().max(1.0);
            (k[0] * r("core.solve_inv_us")
                + k[1] * r("core.solve_pinv_us")
                + k[2] * r("core.mvm_us"))
                / total
        }
    };
    let hw = &rt.hw;
    let mut m = vec![
        metric("runtime.submit_us", span_us("runtime.submit"), "us"),
        metric("runtime.wait_us", span_us("runtime.wait"), "us"),
        metric("runtime.queue_wait_us", per_dispatch(rt.queue_wait_ns), "us"),
        metric("runtime.exec_us", per_dispatch(rt.exec_ns), "us"),
        metric("runtime.overhead_us", served_us - basis_us, "us"),
        metric(
            "runtime.requests_per_dispatch",
            rt.requests as f64 / rt.dispatches.max(1) as f64,
            "ratio",
        ),
        metric("runtime.steals_per_kop", rt.steals as f64 / ops * 1e3, "count"),
        metric("runtime.requeues_per_kop", rt.requeues as f64 / ops * 1e3, "count"),
        metric(
            "runtime.shard_busy_frac",
            rt.busy_ns as f64 / (rt.shards.max(1) as f64 * traced.wall_s * 1e9),
            "fraction",
        ),
        metric("core.dac_drives_per_op", hw.dac_drives as f64 / ops, "count"),
        metric("core.adc_conversions_per_op", hw.adc_conversions as f64 / ops, "count"),
        metric("core.settles_per_op", hw.settle_events as f64 / ops, "count"),
        metric("core.solve_settles_per_op", hw.solve_settles as f64 / ops, "count"),
        metric(
            "array.snapshot_hit_ratio",
            hw.snapshot_hits as f64 / (hw.snapshot_hits + hw.snapshot_misses).max(1) as f64,
            "fraction",
        ),
        metric(
            "telemetry.journal_drop_rate",
            rt.journal_dropped as f64 / (rt.journal_dropped + rt.journal_len).max(1) as f64,
            "fraction",
        ),
        metric("telemetry.trace_overhead_frac", traced_throughput / plain_throughput, "ratio"),
    ];
    m.extend(replays);
    Ok((m, lat))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = stats::self_test() {
        eprintln!("perfbench: quantile self-test failed: {e}");
        std::process::exit(3);
    }
    // Before any thread starts: the CPU mask is inherited, and the linalg
    // thread budget is read once per process (from the CPUs available, or
    // from GRAMC_THREADS).
    if args.workload == "solve_mix" {
        std::env::set_var("GRAMC_THREADS", solve_mix::KERNEL_THREADS);
    } else {
        host::pin_to_one_cpu();
    }
    trace::now_ns();
    let seconds = args.seconds as f64;
    let run = match args.workload.as_str() {
        "serve_mvm" => serve_mvm::run(args.seed, seconds, args.trace),
        "lenet_stream" => lenet_stream::run(args.seed, seconds, args.trace),
        _ => solve_mix::run(args.seed, seconds, args.trace),
    };
    let mut out = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let measured =
        if args.trace { per_layer(&args.workload, args.seed, &mut out) } else { end_to_end(&out) };
    let (metrics, lat) = match measured {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };

    let attempted: u64 = out.phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = out.phases.iter().map(|p| p.failed + p.wrong).sum();
    let wrong: u64 = out.phases.iter().map(|p| p.wrong).sum();
    let rel_max = out.phases.iter().map(|p| p.rel_max).fold(0.0, f64::max);
    let correct = wrong == 0 && attempted > 0;

    // Traced runs: write every span, and summarize them per name (count,
    // mean duration, mean self time).
    let mut trace_file = String::new();
    let mut span_table = Vec::new();
    if args.trace {
        let path = PathBuf::from(format!("perfbench/out/trace-{}.tsv", args.workload));
        let mut logs: Vec<&SpanLog> = out.phases.iter().flat_map(|p| p.logs.iter()).collect();
        logs.extend(out.extra_logs.iter());
        match trace::write_tsv(&path, &logs) {
            Ok(n) => trace_file = format!("{} ({n} spans)", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        for (name, st) in trace::by_name(&logs) {
            let self_us = st.self_ns as f64 / st.count as f64 / 1e3;
            span_table.push(format!("\"{name}\": [{}, {}, {}]", st.count, st.mean_us(), self_us));
        }
    }

    // Human-readable report, then the provenance and sample block.
    for m in &metrics {
        println!("{:<36} {:>16} {}", m.name, json_num(m.value), m.unit);
    }
    let kinds = pooled(&windows(&out, args.trace, false)).kinds;
    let mut report = String::new();
    let _ = write!(
        report,
        "{{\"provenance\": {}, \"latency_samples\": {}, \"latency_mean_us\": {}, \
         \"latency_tail_percentile\": {}, \"latency_tail_us\": {}, \"latency_max_us\": {}, \
         \"latency_unit\": \"{}\", \"error_rate\": {}, \"wrong\": {wrong}, \"rel_error_max\": {}, \
         \"tolerance\": {}, \"setup_s_samples\": {:?}, \"windows_thr_p50_p99_steal\": {:?}, \"kinds\": {:?}, \"trace_file\": \"{}\", \
         \"spans_count_mean_self_us\": {{{}}}}}",
        host::provenance_json(&args.workload, args.seed, args.seconds, args.trace),
        lat.count,
        json_num(lat.mean_ns / 1e3),
        json_num(lat.tail_q),
        json_num(lat.tail_ns as f64 / 1e3),
        json_num(lat.max_ns as f64 / 1e3),
        if args.workload == "lenet_stream" { "batch" } else { "request" },
        json_num(failed as f64 / attempted.max(1) as f64),
        json_num(rel_max),
        json_num(match args.workload.as_str() {
            "serve_mvm" => serve_mvm::TOLERANCE,
            "lenet_stream" => lenet_stream::TOLERANCE,
            _ => solve_mix::TOLERANCE,
        }),
        out.setup_s,
        out.phases
            .iter()
            .filter_map(|p| {
                let w = Summary::of(&mut p.lat_ns.clone())?;
                Some([p.throughput(), w.p50_ns as f64 / 1e3, w.p99_ns as f64 / 1e3, p.steal_frac])
            })
            .collect::<Vec<_>>(),
        if args.workload == "solve_mix" {
            solve_mix::KIND_NAMES.iter().zip(kinds).map(|(k, n)| format!("{k}={n}")).collect()
        } else {
            Vec::new()
        },
        trace_file,
        span_table.join(", "),
    );
    println!("{report}");

    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
