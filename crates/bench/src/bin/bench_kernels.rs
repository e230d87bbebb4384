//! Kernel perf baseline: times the hot paths the batched execution engine
//! optimized — matmul (naive / blocked / blocked+threads), multi-RHS LU
//! substitution, cached vs uncached crossbar MVM, batched vs scalar analog
//! MVM, and DC-operator reuse — and writes the results to the repo-root
//! `BENCH_kernels.json` so future PRs can track speedups. The report also
//! carries a **fault sweep**: serving accuracy and recovery latency of the
//! self-healing runtime as a function of the stuck-cell rate.
//!
//! Both modes also write a `TELEMETRY_report.json` next to the benchmark
//! report: the sharded runtime's serving metrics (submit→dispatch→complete
//! latency histograms, scheduler counters, per-job-kind hardware counters
//! priced through the analog cost model) plus — in full mode — the
//! hardware events of one streamed LeNet pass.
//!
//! ```sh
//! cargo run -p gramc-bench --release --bin bench_kernels [-- output.json]
//! # CI smoke mode: fault sweep + perf regression gate against a baseline
//! # (exits non-zero if a gated kernel regresses >20%, machine-normalized):
//! cargo run -p gramc-bench --release --bin bench_kernels -- \
//!     --smoke --baseline BENCH_kernels.json smoke.json
//! ```

use gramc_array::{ActiveRegion, ArrayConfig, CrossbarArray};
use gramc_bench::loadgen;
use gramc_bench::timing::{to_json, Reporter, Sample};
use gramc_circuit::{dc_solve, topology, DcOperator, OpampModel};
use gramc_core::metrics::{AnalogAreaModel, AnalogCostModel, CellLayout};
use gramc_core::tiling::TileMapping;
use gramc_core::{MacroConfig, MacroGroup, NonidealityConfig};
use gramc_device::LevelQuantizer;
use gramc_linalg::{random, LuDecomposition, Matrix};
use gramc_nn::{GramcLenet, LeNet5, Precision, Tensor3};
use gramc_runtime::{HwSnapshot, MetricsSnapshot, Placement, Runtime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// JSON object for one hardware-counter snapshot (stable
/// [`HwSnapshot::fields`] order).
fn hw_json(hw: &HwSnapshot) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("{");
    for (i, (name, v)) in hw.fields().iter().enumerate() {
        let comma = if i + 1 < gramc_telemetry::HW_FIELDS { ", " } else { "" };
        let _ = write!(s, "\"{name}\": {v}{comma}");
    }
    s.push('}');
    s
}

/// JSON object pricing the benched deployment's silicon area through
/// [`AnalogAreaModel`]: per-component mm² (crossbar / DAC / ADC) for both
/// cell layouts — 1T1R (≈12F², transistor-limited) and the passive
/// Stanford-PKU crosspoint (4F² density limit) — summed over `macros`
/// identical `rows × cols` macros.
fn area_json(macros: usize, rows: usize, cols: usize) -> String {
    use std::fmt::Write as _;
    let base = AnalogAreaModel::default();
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"macros\": {macros}, \"rows\": {rows}, \"cols\": {cols}, \
         \"feature_size_nm\": {:.0}",
        base.feature_size * 1e9
    );
    for (key, layout) in
        [("cell_1t1r", CellLayout::OneTOneR), ("cell_crosspoint", CellLayout::Crosspoint)]
    {
        let model = AnalogAreaModel { cell_layout: layout, ..base.clone() };
        let a = model.deployment_area(macros, rows, cols);
        let _ = write!(
            s,
            ", \"{key}\": {{\"crossbar_mm2\": {:e}, \"dac_mm2\": {:e}, \
             \"adc_mm2\": {:e}, \"total_mm2\": {:e}}}",
            a.crossbar_mm2,
            a.dac_mm2,
            a.adc_mm2,
            a.total_mm2()
        );
    }
    s.push('}');
    s
}

/// JSON object projecting the measured serving numbers to a
/// million-user deployment (closing ROADMAP item 4): at 100 requests per
/// user per day with a 5× diurnal peak, how many of the benched
/// deployments (and crossbar arrays) sustain the peak rate, what the
/// fleet burns per day in joules (measured energy per served request ×
/// daily volume), and its silicon footprint under both cell layouts.
fn deployment_projection_json(
    runtime: &MetricsSnapshot,
    deployment: (usize, usize, usize),
    sustained_rps: f64,
) -> String {
    use std::fmt::Write as _;
    const USERS: f64 = 1e6;
    const REQUESTS_PER_USER_DAY: f64 = 100.0;
    const PEAK_FACTOR: f64 = 5.0;
    let (macros, rows, cols) = deployment;
    let requests_per_day = USERS * REQUESTS_PER_USER_DAY;
    let mean_rps = requests_per_day / 86_400.0;
    let peak_rps = mean_rps * PEAK_FACTOR;
    let sustained = sustained_rps.max(1.0);
    let deployments = (peak_rps / sustained).ceil().max(1.0);
    let served = runtime.submit_to_complete.count.max(1) as f64;
    let energy_per_request =
        AnalogCostModel::default().attribute(&runtime.hw_total).energy / served;
    let base = AnalogAreaModel::default();
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"users\": {USERS:.0}, \"requests_per_user_day\": {REQUESTS_PER_USER_DAY:.0}, \
         \"requests_per_day\": {requests_per_day:.0}, \"peak_factor\": {PEAK_FACTOR}, \
         \"mean_rps\": {mean_rps:.1}, \"peak_rps\": {peak_rps:.1}, \
         \"measured_sustained_rps\": {sustained:.1}, \
         \"deployments_needed\": {deployments:.0}, \
         \"arrays_needed\": {:.0}, \
         \"energy_per_request_j\": {energy_per_request:e}, \
         \"joules_per_day\": {:e}",
        deployments * macros as f64,
        energy_per_request * requests_per_day,
    );
    for (key, layout) in
        [("fleet_mm2_1t1r", CellLayout::OneTOneR), ("fleet_mm2_crosspoint", CellLayout::Crosspoint)]
    {
        let model = AnalogAreaModel { cell_layout: layout, ..base.clone() };
        let per_deployment = model.deployment_area(macros, rows, cols).total_mm2();
        let _ = write!(s, ", \"{key}\": {:e}", deployments * per_deployment);
    }
    s.push('}');
    s
}

/// Composes and writes `TELEMETRY_report.json` next to `out_path`:
/// free-form metadata, one runtime's serving-metrics snapshot under
/// `runtime_label`, the deployment's per-component area model
/// (`deployment` = macros/rows/cols), the million-user deployment
/// projection anchored at `sustained_rps` (the serving observatory's
/// measured capacity) and — in full mode — the hardware events of one
/// streamed LeNet pass priced through the default cost model.
fn write_telemetry_report(
    out_path: &str,
    meta: &[(&str, String)],
    runtime_label: &str,
    runtime: &MetricsSnapshot,
    deployment: (usize, usize, usize),
    sustained_rps: f64,
    lenet: Option<(usize, HwSnapshot)>,
) {
    use std::fmt::Write as _;
    let mut out = String::from("{\n  \"meta\": {\n");
    for (i, (k, v)) in meta.iter().enumerate() {
        let comma = if i + 1 < meta.len() { "," } else { "" };
        // Numbers and booleans pass through unquoted, like `to_json`.
        if v.parse::<f64>().is_ok() || v == "true" || v == "false" {
            let _ = writeln!(out, "    \"{k}\": {v}{comma}");
        } else {
            let _ = writeln!(out, "    \"{k}\": \"{v}\"{comma}");
        }
    }
    out.push_str("  },\n");
    let _ = writeln!(out, "  \"{runtime_label}\": {},", runtime.to_json().trim_end());
    let _ = writeln!(out, "  \"area\": {},", area_json(deployment.0, deployment.1, deployment.2));
    let _ = writeln!(
        out,
        "  \"deployment_projection\": {},",
        deployment_projection_json(runtime, deployment, sustained_rps)
    );
    match lenet {
        Some((images, hw)) => {
            let cost = AnalogCostModel::default().attribute(&hw);
            let _ = writeln!(
                out,
                "  \"lenet_stream\": {{\"images\": {images}, \"hw\": {}, \
                 \"modeled\": {{\"latency_s\": {:e}, \"energy_j\": {:e}}}}}",
                hw_json(&hw),
                cost.latency,
                cost.energy
            );
        }
        None => {
            let _ = writeln!(out, "  \"lenet_stream\": null");
        }
    }
    out.push_str("}\n");
    let path = std::path::Path::new(out_path)
        .parent()
        .map_or_else(|| "TELEMETRY_report.json".into(), |d| d.join("TELEMETRY_report.json"));
    std::fs::write(&path, out).expect("write telemetry json");
    println!("wrote {}", path.display());
}

/// Smoke-mode telemetry workload: a two-shard runtime serving 32 coalesced
/// MVM requests, so CI can assert the report is well-formed — nonzero
/// DAC/ADC/settle/write-pulse counts and populated latency histograms —
/// without paying for the full bench.
fn smoke_metrics_snapshot() -> MetricsSnapshot {
    let rt = Runtime::new(2, 2, MacroConfig::small_ideal(64), 6);
    let mut rng = random::seeded_rng(21);
    let a = random::gaussian_matrix(&mut rng, 64, 64);
    let ops: Vec<_> =
        (0..2).map(|s| rt.load(&a, TileMapping::FourBit, Placement::Pinned(s)).unwrap()).collect();
    let handles: Vec<_> = (0..32)
        .map(|k| rt.submit_mvm(ops[k % 2], random::normal_vector(&mut rng, 64)).unwrap())
        .collect();
    rt.run_all();
    for h in &handles {
        h.wait_vector().unwrap();
    }
    rt.metrics_snapshot()
}

/// Serving observatory: a live [`RuntimeServer`](gramc_runtime::RuntimeServer)
/// with admission control, hammered by the [`loadgen`] generators.
///
/// Runs one closed-loop point (two in full mode) to measure sustained
/// capacity, then two open-loop points bracketing the saturation knee —
/// one at half the measured capacity (queue stays shallow, latency is the
/// service floor) and one at twice it (queue fills, admission control
/// rejects the overflow). Each point lands in `BENCH_kernels.json` as a
/// sample (p50 as `min_ns`, mean latency as `mean_ns`, completions as
/// `iters`) plus p50/p99/p999/throughput/rejection meta rows.
///
/// Side artifacts, written next to `out_path` for CI to validate:
/// `METRICS_serving.jsonl` (the live metrics stream a
/// [`MetricsReporter`](gramc_runtime::MetricsReporter) recorded during the
/// run) and `TRACE_serving.json` (the chrome://tracing journal with the
/// queued→executing span pair of every served job, plus the flow events
/// `trace_analyze` links rider requests with).
///
/// An [`SloMonitor`](gramc_runtime::SloMonitor) rides along — the
/// over-knee point floods admission control hard enough to burn the
/// rejection budget, so the artifacts carry real alerts. Returns the
/// measured sustained capacity (rps) for the deployment projection.
fn serving_observatory(
    out_path: &str,
    smoke: bool,
    samples: &mut Vec<Sample>,
    meta: &mut Vec<(String, String)>,
) -> f64 {
    use gramc_runtime::{MetricsReporter, RuntimeServer, SloConfig, SloMonitor, TenantId};
    use std::sync::Arc;
    use std::time::Duration;

    let window = Duration::from_millis(if smoke { 150 } else { 400 });
    // The serving run is dense enough to wrap the default 4096-event ring
    // many times over; size the journal to keep the whole trace.
    let rt = Arc::new(
        Runtime::new(2, 2, MacroConfig::small_ideal(64), 6)
            .with_queue_limit(64)
            .with_journal_capacity(1 << 16),
    );
    let dir = std::path::Path::new(out_path)
        .parent()
        .map_or_else(|| std::path::PathBuf::from("."), std::path::Path::to_path_buf);
    let server = RuntimeServer::start(rt.clone());
    let metrics_path = dir.join("METRICS_serving.jsonl");
    let reporter = MetricsReporter::start(rt.clone(), &metrics_path, Duration::from_millis(25))
        .expect("start metrics reporter");
    let slo = SloMonitor::start(
        rt.clone(),
        SloConfig { interval: Duration::from_millis(25), ..SloConfig::default() },
    );

    let mut rng = random::seeded_rng(23);
    let a = random::gaussian_matrix(&mut rng, 64, 64);
    let (op, loaded) =
        rt.submit_load(&a, TileMapping::FourBit, Placement::LeastLoaded).expect("load operator");
    loaded.wait().expect("load completes under the server");
    let x = random::normal_vector(&mut rng, 64);

    println!();
    let mut reports = vec![loadgen::closed_loop(&rt, op, &x, 2, window)];
    if !smoke {
        reports.push(loadgen::closed_loop(&rt, op, &x, 4, window));
    }
    // Open-loop rates are derived from the closed-loop capacity measured on
    // *this* host, so the under/over pair brackets the knee everywhere from
    // laptops to 1-core CI runners. Stable row names (not rate-suffixed)
    // keep the report keys machine-independent; the offered rate goes to
    // meta instead.
    let capacity = reports[0].throughput_rps().max(50.0);
    for (tag, frac) in [("under", 0.5), ("over", 2.0)] {
        let rate = capacity * frac;
        let mut rep = loadgen::open_loop(&rt, op, &x, rate, window, 2);
        rep.name = format!("serving_open_{tag}_knee");
        meta.push((format!("{}_offered_rps", rep.name), format!("{rate:.0}")));
        reports.push(rep);
    }
    for rep in &reports {
        println!(
            "{}: {:.0} rps sustained, p50 {:.1} µs, p99 {:.1} µs, p999 {:.1} µs, \
             rejected {:.1}%",
            rep.name,
            rep.throughput_rps(),
            rep.latency.p50_ns() as f64 / 1e3,
            rep.latency.p99_ns() as f64 / 1e3,
            rep.latency.p999_ns() as f64 / 1e3,
            100.0 * rep.rejection_rate(),
        );
        samples.push(rep.sample());
        meta.extend(rep.meta());
    }

    let serve_report = server.shutdown();

    // A two-tenant coalesced burst, drained after the server stopped so
    // it coalesces deterministically (no worker racing the submits) and
    // its rider spans sit at the journal tail, where the ring keeps them:
    // the trace gets linked rider flows for `trace_analyze`, the metrics
    // stream a non-trivial tenant table.
    let burst: Vec<_> = (0..64)
        .map(|k| {
            rt.submit_mvm_for(TenantId(1 + (k % 2) as u32), op, x.clone())
                .expect("burst submission")
        })
        .collect();
    rt.run_all();
    for h in &burst {
        h.wait().expect("burst completes");
    }

    let alerts = slo.stop();
    let lines = reporter.stop().expect("stop metrics reporter");
    let trace_path = dir.join("TRACE_serving.json");
    std::fs::write(&trace_path, rt.journal_chrome_trace()).expect("write serving trace");
    println!(
        "serving observatory: {} jobs served, {} SLO alerts, wrote {} ({} lines) and {}",
        serve_report.jobs_executed,
        alerts.len(),
        metrics_path.display(),
        lines,
        trace_path.display(),
    );
    meta.push(("serving_slo_alerts".to_string(), alerts.len().to_string()));
    meta.push(("serving_sustained_rps".to_string(), format!("{capacity:.0}")));
    capacity
}

/// Fault sweep: for each stuck-cell rate, serve a fixed MVM workload on a
/// two-shard runtime with one shard fault-injected mid-workload, and
/// record (a) the end-to-end relative error of the answers the caller
/// actually received — recovery on, so quarantine/migration/digital
/// fallback are all in play — and (b) the wall-clock latency of the drain
/// that absorbs the faults. Recovery is not repeatable in place, so each
/// iteration rebuilds the runtime from scratch and only the drain itself
/// is timed; the per-rate sample averages `DRAIN_ITERS` such drains.
fn fault_sweep(samples: &mut Vec<Sample>, meta: &mut Vec<(String, String)>) {
    use gramc_linalg::vector;
    use gramc_runtime::{FaultConfig, HealthConfig};
    use std::time::Instant;

    const DRAIN_ITERS: usize = 3;

    let health = HealthConfig {
        residual_tolerance: Some(0.2),
        quarantine_after: 2,
        max_retries: 2,
        ..HealthConfig::default()
    };
    let mut rng = random::seeded_rng(8);
    let a = random::gaussian_matrix(&mut rng, 64, 64);
    let reqs: Vec<Vec<f64>> = (0..32).map(|_| random::normal_vector(&mut rng, 64)).collect();

    println!();
    for rate in [0.0, 0.02, 0.05, 0.10] {
        let mut total = 0.0;
        let mut min = f64::INFINITY;
        let mut served_err = 0.0;
        let mut failed_checks = 0;
        let mut recovered = false;
        for _ in 0..DRAIN_ITERS {
            // Fresh runtime per iteration: same seeds, same fault plan,
            // same recovery work each time.
            let rt = Runtime::new(2, 4, MacroConfig::small_ideal(64), 9)
                .with_health_config(health.clone());
            let op = rt.load(&a, TileMapping::FourBit, Placement::Pinned(0)).unwrap();
            rt.inject_shard_faults(0, &FaultConfig::stuck_at(rate), 31).unwrap();

            let t = Instant::now();
            let handles: Vec<_> =
                reqs.iter().map(|x| rt.submit_mvm_batch(op, vec![x.clone()]).unwrap()).collect();
            let summary = rt.run_all();
            let ys: Vec<Vec<f64>> =
                handles.iter().map(|h| h.wait_vectors().unwrap().remove(0)).collect();
            let elapsed = t.elapsed().as_secs_f64();
            total += elapsed;
            min = min.min(elapsed);

            served_err =
                reqs.iter().zip(&ys).map(|(x, y)| vector::rel_error(y, &a.matvec(x))).sum::<f64>()
                    / reqs.len() as f64;
            failed_checks = summary.failed_checks;
            recovered = !summary.events.is_empty();
        }
        let mean = total / DRAIN_ITERS as f64;
        println!(
            "fault sweep rate {rate:.2}: served rel error {served_err:.4}, \
             {:.3} ms mean drain over {DRAIN_ITERS} runs, {failed_checks} failed checks, \
             recovered: {recovered}",
            mean * 1e3,
        );
        let tag = format!("{:02}", (rate * 100.0).round() as u32);
        samples.push(Sample {
            name: format!("fault_recovery_drain_64x2shards_rate_{tag}"),
            iters: DRAIN_ITERS as u64,
            mean_ns: mean * 1e9,
            min_ns: min * 1e9,
        });
        meta.push((format!("fault_sweep_rel_error_rate_{tag}"), format!("{served_err:.6}")));
        meta.push((format!("fault_sweep_failed_checks_rate_{tag}"), failed_checks.to_string()));
    }
}

/// Smoke-mode perf regression gate: re-times the ladder's two headline
/// kernels and compares **machine-normalized** means against the checked-in
/// baseline. Normalizing each kernel by this machine's naive-matmul time
/// cancels out how fast the host is, so the 20% budget measures algorithmic
/// regressions rather than runner lottery. Returns the names that
/// regressed.
fn perf_regression_check(
    baseline_json: &str,
    samples: &mut Vec<Sample>,
    meta: &mut Vec<(String, String)>,
) -> Vec<String> {
    const BUDGET: f64 = 1.20;
    let mut r = Reporter::new();
    let mut rng = random::seeded_rng(1);
    let a = random::gaussian_matrix(&mut rng, 512, 512);
    let b = random::gaussian_matrix(&mut rng, 512, 512);
    r.bench("matmul_naive_512", || a.matmul_reference(&b));
    r.bench("matmul_512", || a.matmul(&b));
    let spd = random::spd_with_condition(&mut rng, 128, 10.0);
    let lu = LuDecomposition::new(&spd).unwrap();
    let rhs = random::gaussian_matrix(&mut rng, 128, 64);
    r.bench("lu_solve_matrix_128x64", || lu.solve_matrix(&rhs).unwrap());

    let base_yardstick = gramc_bench::timing::read_mean_ms(baseline_json, "matmul_naive_512");
    let cur_yardstick = r.mean_ms("matmul_naive_512");
    let mut regressed = Vec::new();
    for kernel in ["matmul_512", "lu_solve_matrix_128x64"] {
        let base = base_yardstick
            .zip(gramc_bench::timing::read_mean_ms(baseline_json, kernel))
            .map(|(y, k)| k / y);
        let Some(base_norm) = base else {
            println!("perf gate: no baseline entry for {kernel}, skipping");
            continue;
        };
        let cur_norm = r.mean_ms(kernel) / cur_yardstick;
        let ratio = cur_norm / base_norm;
        println!(
            "perf gate: {kernel} normalized {cur_norm:.5} vs baseline {base_norm:.5} \
             ({ratio:.2}x, budget {BUDGET:.2}x)"
        );
        meta.push((format!("perf_gate_{kernel}_vs_baseline"), format!("{ratio:.3}")));
        if ratio > BUDGET {
            regressed.push(kernel.to_string());
        }
    }
    samples.extend(r.samples().iter().cloned());
    regressed
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut baseline_path: Option<String> = None;
    let mut out_path = "BENCH_kernels.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--baseline" => baseline_path = it.next().cloned(),
            other => out_path = other.to_string(),
        }
    }

    // Smoke mode, for CI: the fault sweep plus — when a baseline is
    // supplied — the machine-normalized perf regression gate.
    if smoke {
        let mut samples: Vec<Sample> = Vec::new();
        let mut extra_meta: Vec<(String, String)> = Vec::new();
        fault_sweep(&mut samples, &mut extra_meta);
        let sustained_rps = serving_observatory(&out_path, true, &mut samples, &mut extra_meta);
        let regressed = match &baseline_path {
            Some(p) => {
                let baseline = std::fs::read_to_string(p).expect("read baseline json");
                perf_regression_check(&baseline, &mut samples, &mut extra_meta)
            }
            None => Vec::new(),
        };
        extra_meta.insert(0, ("bench".to_string(), "bench_kernels_smoke".to_string()));
        extra_meta.insert(1, ("kernel_isa".to_string(), gramc_linalg::kernel_isa().to_string()));
        let meta: Vec<(&str, String)> =
            extra_meta.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        std::fs::write(&out_path, to_json(&meta, &samples)).expect("write benchmark json");
        println!("wrote {out_path}");
        let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let tmeta = vec![
            ("bench", "bench_kernels_smoke".to_string()),
            ("host_cpus", host_cpus.to_string()),
            ("kernel_isa", gramc_linalg::kernel_isa().to_string()),
        ];
        write_telemetry_report(
            &out_path,
            &tmeta,
            "runtime_sharded_mvm_2",
            &smoke_metrics_snapshot(),
            (4, 64, 64), // 2 shards × 2 macros of 64×64
            sustained_rps,
            None,
        );
        if !regressed.is_empty() {
            eprintln!("perf gate FAILED: {} regressed >20% vs baseline", regressed.join(", "));
            std::process::exit(1);
        }
        return;
    }

    let mut r = Reporter::new();

    // ── matmul: naive reference vs blocked kernel at the paper dimension
    //    and at 512 (the acceptance size for the ≥2× criterion).
    let mut rng = random::seeded_rng(1);
    for n in [128usize, 512] {
        let a = random::gaussian_matrix(&mut rng, n, n);
        let b = random::gaussian_matrix(&mut rng, n, n);
        r.bench(&format!("matmul_naive_{n}"), || a.matmul_reference(&b));
        r.bench(&format!("matmul_{n}"), || a.matmul(&b));
        if n == 512 {
            // The blocked-but-unpacked kernel the packed micro-kernel
            // replaced: the "previous rung" for the speedup meta below.
            r.bench("matmul_unpacked_512", || a.matmul_unpacked(&b));
        }
    }

    // ── multi-RHS LU: per-column solve loop vs in-place solve_matrix.
    let a = random::spd_with_condition(&mut rng, 128, 10.0);
    let lu = LuDecomposition::new(&a).unwrap();
    let rhs = random::gaussian_matrix(&mut rng, 128, 64);
    r.bench("lu_solve_loop_128x64", || {
        let mut x = Matrix::zeros(128, 64);
        for j in 0..64 {
            let col = lu.solve(&rhs.col(j)).unwrap();
            for i in 0..128 {
                x[(i, j)] = col[i];
            }
        }
        x
    });
    r.bench("lu_solve_matrix_128x64", || lu.solve_matrix(&rhs).unwrap());

    // ── LU factorization at 512: the serial right-looking baseline vs the
    //    blocked factorization whose trailing updates fan out over threads.
    let spd512 = random::spd_with_condition(&mut rng, 512, 10.0);
    r.bench("lu_factor_serial_512", || LuDecomposition::new_unblocked(&spd512).unwrap());
    r.bench("lu_factor_512", || LuDecomposition::new(&spd512).unwrap());

    // ── crossbar MVM at 128×128: per-call reconstruction (the pre-cache
    //    path every read used to pay) vs the cached snapshot, and the
    //    batched API amortizing one snapshot over a whole batch.
    let mut arr_rng = StdRng::seed_from_u64(2);
    let mut xbar = CrossbarArray::new(ArrayConfig::ideal(128, 128), &mut arr_rng);
    let q = LevelQuantizer::paper_default();
    let region = ActiveRegion::full(128, 128);
    let targets = Matrix::from_fn(128, 128, |i, j| q.conductance_of((i * 7 + j) % 16));
    xbar.program_direct(region, &targets, &q, 0.0, &mut arr_rng).unwrap();
    let v: Vec<f64> = (0..128).map(|j| ((j as f64) * 0.21).sin() * 0.2).collect();
    let drive = Matrix::from_rows(&[v.as_slice()]);
    let batch = Matrix::from_fn(64, 128, |b, j| ((b * 128 + j) as f64 * 0.13).sin() * 0.2);

    r.bench("mvm_uncached_128", || {
        // What a read cost before the cache: rebuild G, then multiply.
        let g = xbar.effective_conductances_uncached(region).unwrap();
        g.matvec(&v)
    });
    r.bench("mvm_cached_128", || xbar.row_currents_batch(region, &drive, &mut arr_rng).unwrap());
    let uncached_per_mvm = r.mean_ms("mvm_uncached_128");
    let s = r.bench("mvm_batched_64x128", || {
        xbar.row_currents_batch(region, &batch, &mut arr_rng).unwrap()
    });
    let batched_per_mvm = s.mean_ms() / 64.0;

    // ── analog macro: 32 one-row mvm calls vs one 32-row mvm_batch.
    let mut group = MacroGroup::new(2, MacroConfig::small_ideal(64), 3);
    let mut rng2 = random::seeded_rng(4);
    let a64 = random::gaussian_matrix(&mut rng2, 64, 64);
    let op = group.load_matrix(&a64).unwrap();
    let xs: Vec<Vec<f64>> = (0..32).map(|_| random::normal_vector(&mut rng2, 64)).collect();
    r.bench("macro_mvm_loop_32x64", || {
        xs.iter().map(|x| group.mvm(op, x).unwrap()).collect::<Vec<_>>()
    });
    r.bench("macro_mvm_batch_32x64", || group.mvm_batch(op, &xs).unwrap());
    // The served shape: `serve_mvm` coalesces about 3 requests per dispatch.
    r.bench("macro_mvm_batch_3x64", || group.mvm_batch(op, &xs[..3]).unwrap());

    // ── a bit-sliced INT8 operator (4 planes) driven through the
    //    row-batched MVM on one thread.
    let cfg_bits =
        MacroConfig { nonideal: NonidealityConfig::quantization_only(4), ..MacroConfig::small(64) };
    let mut group_bits = MacroGroup::new(4, cfg_bits, 17);
    let op_bits = group_bits.load_matrix_bitsliced(&a64).unwrap();
    let xmat = Matrix::from_fn(32, 64, |b, j| ((b * 64 + j) as f64 * 0.11).sin() * 0.2);
    r.bench("macro_planes_serial_32x64", || {
        gramc_linalg::parallel::with_thread_cap(1, || {
            group_bits.mvm_batch_rows(op_bits, &xmat).unwrap()
        })
    });

    // ── LeNet-5 inference: per-image drive assembly vs the fused
    //    streaming path that im2cols the whole batch into reused scratch.
    let model = LeNet5::new(&mut random::seeded_rng(7));
    let lenet_cfg =
        MacroConfig { nonideal: NonidealityConfig::quantization_only(4), ..MacroConfig::default() };
    let mut lenet = GramcLenet::new(model, Precision::Int4, lenet_cfg, 16, 11).unwrap();
    let mut img_rng = random::seeded_rng(13);
    let images: Vec<Tensor3> = (0..16)
        .map(|_| {
            let data = (0..28 * 28)
                .map(|_| random::standard_normal(&mut img_rng).abs().min(1.0))
                .collect();
            Tensor3::from_vec(1, 28, 28, data)
        })
        .collect();
    r.bench("lenet_per_image_16", || lenet.logits_batch(&images).unwrap());
    r.bench("lenet_stream_16", || lenet.logits_matrix(&images).unwrap());
    // One more streamed pass, snapshot-diffed: exactly the hardware events
    // of a 16-image inference for the telemetry report (the benched
    // iterations above accumulate an iteration-count-dependent total).
    let lenet_before = lenet.hw_snapshot();
    lenet.logits_matrix(&images).unwrap();
    let lenet_hw = lenet.hw_snapshot().since(&lenet_before);

    // ── sharded runtime: 64 MVM requests spread over one operator per
    //    shard, coalesced into one analog dispatch per operator and
    //    scheduled with work stealing. The 1-shard entry is the scheduler
    //    overhead baseline; multi-shard entries measure scaling (bounded
    //    by the host's core count — single-core CI shows ≈1×).
    let mut serving_metrics = None;
    for shards in [1usize, 2, 4] {
        let rt = Runtime::new(shards, 2, MacroConfig::small_ideal(64), 6);
        let ops: Vec<_> = (0..shards)
            .map(|s| rt.load(&a64, TileMapping::FourBit, Placement::Pinned(s)).unwrap())
            .collect();
        let reqs: Vec<Vec<f64>> = (0..64).map(|_| random::normal_vector(&mut rng2, 64)).collect();
        r.bench(&format!("runtime_sharded_mvm_{shards}"), || {
            let handles: Vec<_> = reqs
                .iter()
                .enumerate()
                .map(|(k, x)| rt.submit_mvm(ops[k % shards], x.clone()).unwrap())
                .collect();
            rt.run_all();
            handles.iter().map(|h| h.wait_vector().unwrap()).collect::<Vec<_>>()
        });
        if shards == 4 {
            serving_metrics = Some(rt.metrics_snapshot());
        }
    }

    // ── DC operator: fresh factorization per excitation vs factor-once.
    let mut rng3 = random::seeded_rng(5);
    let a32 = random::spd_with_condition(&mut rng3, 32, 5.0);
    let floor = 1e-6;
    let unit = 50e-6;
    let g_pos = a32.map(|x| if x > 0.0 { x * unit + floor } else { floor });
    let g_neg = a32.map(|x| if x < 0.0 { -x * unit + floor } else { floor });
    let b32 = random::normal_vector(&mut rng3, 32);
    let i_in: Vec<f64> = b32.iter().map(|bi| -unit * bi * 0.1).collect();
    r.bench("dc_solve_fresh_inv32", || {
        let t = topology::build_inv(&g_pos, &g_neg, &i_in, OpampModel::with_gain(1e4)).unwrap();
        dc_solve(&t.circuit).unwrap()
    });
    let mut topo = topology::build_inv(&g_pos, &g_neg, &i_in, OpampModel::with_gain(1e4)).unwrap();
    let dc_op = DcOperator::new(&topo.circuit).unwrap();
    let mut scale = 1.0;
    r.bench("dc_solve_operator_inv32", || {
        // Vary the excitation so the solve is not degenerate between iters.
        scale = if scale > 4.0 { 1.0 } else { scale * 1.01 };
        for (&src, &i) in topo.input_sources.iter().zip(&i_in) {
            topo.circuit.set_current(src, i * scale);
        }
        dc_op.solve_circuit(&topo.circuit).unwrap()
    });

    // ── resident operators, as every served INV/PINV solve after the first
    //    uses them: refactor for a new noisy read (gathered straight into
    //    the recorded factorization), and one right-hand side.
    let mut noise = random::seeded_rng(6);
    let mut reads = |g_pos: &Matrix, g_neg: &Matrix| -> Vec<(Matrix, Matrix)> {
        let mut noisy = |g: &Matrix| {
            let mut g = g.clone();
            for v in g.as_mut_slice() {
                *v *= 1.0 + 0.02 * random::standard_normal(&mut noise);
            }
            g
        };
        (0..8).map(|_| (noisy(g_pos), noisy(g_neg))).collect()
    };
    let inv_reads = reads(&g_pos, &g_neg);
    let mut dc_inv = DcOperator::new(&topo.circuit).unwrap();
    let mut k = 0;
    r.bench("dc_refactor_inv32", || {
        k = (k + 1) % inv_reads.len();
        let (gp, gn) = &inv_reads[k];
        assert!(dc_inv.refactor_conductances(&topology::inv_conductances(gp, gn)));
    });
    let a64x32 = random::gaussian_matrix(&mut rng3, 64, 32);
    let pinv_pos = a64x32.map(|x| if x > 0.0 { x * unit + floor } else { floor });
    let pinv_neg = a64x32.map(|x| if x < 0.0 { -x * unit + floor } else { floor });
    let b64: Vec<f64> =
        random::normal_vector(&mut rng3, 64).iter().map(|b| -unit * b * 0.1).collect();
    let mut pinv =
        topology::build_pinv(&pinv_pos, &pinv_neg, &b64, unit, OpampModel::with_gain(1e4)).unwrap();
    let mut dc_pinv = DcOperator::new(&pinv.circuit).unwrap();
    let pinv_reads = reads(&pinv_pos, &pinv_neg);
    r.bench("dc_refactor_pinv64x32", || {
        k = (k + 1) % pinv_reads.len();
        let (gp, gn) = &pinv_reads[k];
        assert!(dc_pinv.refactor_conductances(&topology::pinv_conductances(gp, gn, unit)));
    });
    r.bench("dc_solve_pinv64x32", || {
        scale = if scale > 4.0 { 1.0 } else { scale * 1.01 };
        for (&src, &i) in pinv.input_sources.iter().zip(&b64) {
            pinv.circuit.set_current(src, i * scale);
        }
        dc_pinv.solve_circuit(&pinv.circuit).unwrap()
    });

    // ── summary + JSON report.
    let matmul_speedup = r.mean_ms("matmul_naive_512") / r.mean_ms("matmul_512");
    let packed_speedup = r.mean_ms("matmul_unpacked_512") / r.mean_ms("matmul_512");
    let lu_factor_speedup = r.mean_ms("lu_factor_serial_512") / r.mean_ms("lu_factor_512");
    let lenet_speedup = r.mean_ms("lenet_per_image_16") / r.mean_ms("lenet_stream_16");
    let batch_speedup = uncached_per_mvm / batched_per_mvm;
    let sharded_speedup_4v1 =
        r.mean_ms("runtime_sharded_mvm_1") / r.mean_ms("runtime_sharded_mvm_4");
    println!();
    println!(
        "matmul 512: packed kernel is {matmul_speedup:.1}x naive, \
         {packed_speedup:.2}x the unpacked blocked kernel"
    );
    println!("lu factor 512: blocked is {lu_factor_speedup:.2}x the serial right-looking rung");
    println!("lenet 16 images: streaming is {lenet_speedup:.2}x the per-image rung");
    println!(
        "batched MVM 128: {batch_speedup:.1}x the per-call reconstruction path \
         ({uncached_per_mvm:.3} ms -> {batched_per_mvm:.4} ms per MVM)"
    );
    println!(
        "sharded runtime: 64 requests over 4 shards run {sharded_speedup_4v1:.2}x \
         the 1-shard drain"
    );
    let serving = serving_metrics.expect("4-shard runtime benched above");
    println!(
        "serving latency (4 shards, submit→complete): p50 {:.1} µs, p99 {:.1} µs, \
         queue depth ≤ {}",
        serving.submit_to_complete.p50_ns() as f64 / 1e3,
        serving.submit_to_complete.p99_ns() as f64 / 1e3,
        serving.queue_depth_max,
    );
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if host_cpus == 1 {
        println!(
            "single-core host: the sharded speedup measures scheduler overhead only \
             (flagged overhead_only in the report meta)"
        );
    }

    // ── fault sweep: accuracy + recovery latency vs rate.
    let mut extra_samples: Vec<Sample> = Vec::new();
    let mut extra_meta: Vec<(String, String)> = Vec::new();
    fault_sweep(&mut extra_samples, &mut extra_meta);

    // ── serving observatory: persistent server under closed- and open-loop
    //    load, bracketing the saturation knee; also writes the serving
    //    trace and live metrics stream next to the report.
    let sustained_rps = serving_observatory(&out_path, false, &mut extra_samples, &mut extra_meta);

    let mut meta = vec![
        ("bench", "bench_kernels".to_string()),
        ("dim_matmul", "512".to_string()),
        ("dim_array", "128".to_string()),
        ("threads", gramc_linalg::parallel::max_threads().to_string()),
        ("host_cpus", host_cpus.to_string()),
        ("kernel_isa", gramc_linalg::kernel_isa().to_string()),
        ("matmul_512_speedup_vs_naive", format!("{matmul_speedup:.3}")),
        ("matmul_512_speedup_vs_unpacked", format!("{packed_speedup:.3}")),
        ("lu_factor_512_speedup_vs_serial", format!("{lu_factor_speedup:.3}")),
        ("lenet_stream_speedup_vs_per_image", format!("{lenet_speedup:.3}")),
        ("batched_mvm_128_speedup_vs_uncached", format!("{batch_speedup:.3}")),
        ("runtime_sharded_mvm_speedup_4_shards_vs_1", format!("{sharded_speedup_4v1:.3}")),
    ];
    // On a single-core host the multi-shard entries cannot overlap, so the
    // speedup measures scheduler overhead, not scaling — flag it so
    // regression tooling skips it rather than reading ≈1× as a loss.
    if host_cpus == 1 {
        meta.push(("runtime_sharded_mvm_speedup_4_shards_vs_1_overhead_only", "true".to_string()));
    }
    meta.extend(extra_meta.iter().map(|(k, v)| (k.as_str(), v.clone())));
    let mut samples = r.samples().to_vec();
    samples.extend(extra_samples);
    let json = to_json(&meta, &samples);
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("wrote {out_path}");

    let mut tmeta =
        vec![("bench", "bench_kernels".to_string()), ("host_cpus", host_cpus.to_string())];
    if host_cpus == 1 {
        tmeta.push(("runtime_sharded_mvm_speedup_4_shards_vs_1_overhead_only", "true".to_string()));
    }
    write_telemetry_report(
        &out_path,
        &tmeta,
        "runtime_sharded_mvm_4",
        &serving,
        (8, 64, 64), // 4 shards × 2 macros of 64×64
        sustained_rps,
        Some((16, lenet_hw)),
    );
}
