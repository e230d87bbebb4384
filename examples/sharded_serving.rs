//! Sharded serving: many concurrent MVM requests against one loaded
//! operator, plus one big operator tiled across every shard.
//!
//! The runtime owns several independent macro groups ("shards"). Requests
//! against the same operator coalesce into a single analog dispatch, and
//! the work-stealing scheduler keeps all shards busy no matter where the
//! jobs were enqueued.
//!
//! ```sh
//! cargo run --release --example sharded_serving
//! ```

use gramc::core::tiling::TileMapping;
use gramc::core::MacroConfig;
use gramc::linalg::{random, vector};
use gramc::runtime::{Placement, Runtime, RuntimeServer, ShardedTiledOperator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Four shards of four macros each, paper non-idealities at 32×32.
    let rt = Runtime::new(4, 4, MacroConfig::small(32), 2025);
    let mut rng = random::seeded_rng(7);

    // ── One model, many users ─────────────────────────────────────────
    let a = random::gaussian_matrix(&mut rng, 32, 32);
    let op = rt.load(&a, TileMapping::FourBit, Placement::LeastLoaded)?;

    let requests: Vec<Vec<f64>> = (0..256).map(|_| random::normal_vector(&mut rng, 32)).collect();
    let handles: Vec<_> =
        requests.iter().map(|x| rt.submit_mvm(op, x.clone())).collect::<Result<_, _>>()?;
    let summary = rt.run_all();
    println!(
        "{} MVM requests collapsed into {} analog dispatch(es) \
         ({} job(s) stolen across workers)",
        requests.len(),
        summary.executed,
        summary.stolen,
    );
    let mut worst = 0.0_f64;
    for (x, h) in requests.iter().zip(&handles) {
        let y = h.wait_vector()?;
        worst = worst.max(vector::rel_error(&y, &a.matvec(x)));
    }
    println!("worst request error vs digital: {:.2} %", 100.0 * worst);
    rt.free(op)?;

    // ── What did that cost? ───────────────────────────────────────────
    // The runtime meters every analog event the drain caused and prices
    // it through the analog cost model.
    let m = rt.metrics_snapshot();
    let cost = m.analog_cost(&gramc::core::metrics::AnalogCostModel::default());
    println!(
        "served p50/p99 submit→complete: {:.1} µs / {:.1} µs \
         ({} DAC drives, {} ADC conversions → modeled {:.2e} J analog)",
        m.submit_to_complete.p50_ns() as f64 / 1e3,
        m.submit_to_complete.p99_ns() as f64 / 1e3,
        m.hw_total.dac_drives,
        m.hw_total.adc_conversions,
        cost.energy,
    );

    // ── One operator, every shard ─────────────────────────────────────
    // A 64×64 matrix on 32×32 arrays: four tiles, placed round-robin so
    // each partial product runs on a different shard and the scheduler
    // reduces them digitally.
    let big = random::gaussian_matrix(&mut rng, 64, 64);
    let mut tiled = ShardedTiledOperator::load(&rt, &big, TileMapping::FourBit)?;
    println!(
        "\n64x64 operator: {} tiles over shards (live per shard: {:?})",
        tiled.tile_count(),
        rt.live_operators_per_shard(),
    );
    let x = random::normal_vector(&mut rng, 64);
    let y = tiled.mvm(&rt, &x)?;
    let y_ref = big.matvec(&x);
    println!("tiled MVM rel.err: {:.2} %", 100.0 * vector::rel_error(&y, &y_ref));
    tiled.free(&rt)?;

    // ── Persistent serving ────────────────────────────────────────────
    // run_all above is a batch drain: nothing completes until somebody
    // drains. A RuntimeServer keeps one worker per shard alive instead, so
    // submit → wait behaves like a real service call — jobs complete the
    // moment they are due, and the queue bound turns overload into typed
    // QueueFull rejections rather than unbounded backlog.
    let rt =
        std::sync::Arc::new(Runtime::new(2, 4, MacroConfig::small(32), 2026).with_queue_limit(512));
    let server = RuntimeServer::start(rt.clone());
    let (op, loaded) = rt.submit_load(&a, TileMapping::FourBit, Placement::LeastLoaded)?;
    loaded.wait()?; // completed by the server — no run_all anywhere
    let t0 = std::time::Instant::now();
    let live: Vec<_> = (0..64)
        .map(|_| rt.submit_mvm_batch(op, vec![random::normal_vector(&mut rng, 32)]))
        .collect::<Result<_, _>>()?;
    for h in &live {
        h.wait()?;
    }
    let wall = t0.elapsed();
    let report = server.shutdown();
    println!(
        "\nserved {} jobs live in {:.1} ms ({} workers, {} panicked)",
        report.jobs_executed,
        wall.as_secs_f64() * 1e3,
        report.workers,
        report.panicked_workers,
    );

    // ── Two tenants, one deployment ───────────────────────────────────
    // A LeNet inference tenant (LeNet-5's 84→10 classifier layer served
    // as an analog operator) shares the runtime with an INV-solve tenant.
    // Every submission carries its tenant, so the coalesced hardware
    // costs split back per tenant — and an SloMonitor with a deliberately
    // unreachable latency target (1 ns) shows the burn-rate alert firing.
    {
        use gramc::nn::LeNet5;
        use gramc::runtime::{SloConfig, SloMonitor, TenantId, TenantQuota};
        use std::time::Duration;

        const LENET: TenantId = TenantId(1);
        const SOLVER: TenantId = TenantId(2);
        let rt = std::sync::Arc::new(
            Runtime::new(2, 4, MacroConfig::small(84), 2027)
                .with_queue_limit(512)
                .with_tenant_quota(TenantQuota { max_in_flight: 256 })
                .with_journal_capacity(1 << 14),
        );
        let server = RuntimeServer::start(rt.clone());
        let slo = SloMonitor::start(
            rt.clone(),
            SloConfig {
                latency_target_ns: 1, // unreachable: every completion violates
                short_window: 2,
                long_window: 4,
                interval: Duration::from_millis(5),
                ..SloConfig::default()
            },
        );

        let model = LeNet5::new(&mut random::seeded_rng(4));
        let (cls_op, cls_loaded) = rt.submit_load_for(
            LENET,
            &model.fc3.weights,
            TileMapping::FourBit,
            Placement::Pinned(0),
        )?;
        let spd = random::spd_with_condition(&mut rng, 32, 5.0);
        let (spd_op, spd_loaded) =
            rt.submit_load_for(SOLVER, &spd, TileMapping::FourBit, Placement::Pinned(1))?;
        cls_loaded.wait()?;
        spd_loaded.wait()?;

        // Interleave the workloads across several SLO ticks so the burn
        // windows see live traffic: the LeNet tenant classifies batches
        // of fc2-style activations, the solver tenant answers INV solves.
        std::thread::sleep(Duration::from_millis(10)); // pre-traffic baseline
        for _ in 0..8 {
            let acts: Vec<Vec<f64>> = (0..6)
                .map(|_| (0..84).map(|_| random::standard_normal(&mut rng).abs()).collect())
                .collect();
            let inference = rt.submit_mvm_batch_for(LENET, cls_op, acts)?;
            let solve =
                rt.submit_solve_inv_for(SOLVER, spd_op, random::normal_vector(&mut rng, 32))?;
            inference.wait()?;
            solve.wait()?;
            std::thread::sleep(Duration::from_millis(5));
        }

        let alerts = slo.stop();
        server.shutdown();
        let snap = rt.metrics_snapshot();
        let cost_model = gramc::core::metrics::AnalogCostModel::default();
        println!("\nper-tenant cost table:");
        println!(
            "{:>10} {:>9} {:>9} {:>10} {:>10} {:>12}",
            "tenant", "requests", "rejected", "p50 µs", "p99 µs", "energy J"
        );
        for t in &snap.tenants {
            println!(
                "{:>10} {:>9} {:>9} {:>10.1} {:>10.1} {:>12.3e}",
                t.tenant.to_string(),
                t.requests,
                t.rejected,
                t.latency.p50_ns() as f64 / 1e3,
                t.latency.p99_ns() as f64 / 1e3,
                t.analog_cost(&cost_model).energy,
            );
        }
        match alerts.first() {
            Some(a) => println!(
                "deliberate SLO alert: {:?} burning {:.0}× the error budget \
                 (short window) at tick {}",
                a.kind, a.short_burn, a.tick
            ),
            None => println!("no SLO alert fired (unexpectedly healthy run)"),
        }
    }
    Ok(())
}
