//! Fault-tolerant serving: a shard's arrays break mid-workload and the
//! runtime heals itself — residual checks catch the garbage, the sick
//! shard is quarantined, its operator is re-programmed onto a healthy
//! shard, and serving continues at the fault-free error level. When every
//! shard is gone, results come from the digital reference path instead of
//! not at all.
//!
//! ```sh
//! cargo run --release --example fault_tolerant_serving
//! ```

use gramc::core::tiling::TileMapping;
use gramc::core::MacroConfig;
use gramc::linalg::{random, vector};
use gramc::runtime::{FaultConfig, HealthConfig, Placement, Runtime};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two shards, residual checks on: a result missing the 20 % tolerance
    // counts against its shard; two strikes and the shard is out.
    let health = HealthConfig {
        residual_tolerance: Some(0.2),
        quarantine_after: 2,
        max_retries: 2,
        ..HealthConfig::default()
    };
    let rt = Runtime::new(2, 6, MacroConfig::small_ideal(32), 2026).with_health_config(health);
    let mut rng = random::seeded_rng(7);

    let a = random::gaussian_matrix(&mut rng, 32, 32);
    let op = rt.load(&a, TileMapping::FourBit, Placement::Pinned(0))?;
    let requests: Vec<Vec<f64>> = (0..64).map(|_| random::normal_vector(&mut rng, 32)).collect();

    let worst = |handles: &[gramc::runtime::JobHandle]| -> Result<f64, Box<dyn std::error::Error>> {
        let mut w = 0.0_f64;
        for (x, h) in requests.iter().zip(handles) {
            w = w.max(vector::rel_error(&h.wait_vector()?, &a.matvec(x)));
        }
        Ok(w)
    };

    // ── Healthy serving ───────────────────────────────────────────────
    let handles: Vec<_> =
        requests.iter().map(|x| rt.submit_mvm(op, x.clone())).collect::<Result<_, _>>()?;
    rt.run_all();
    println!("healthy:    worst request error {:.2} %", 100.0 * worst(&handles)?);

    // ── Mid-workload device failure ───────────────────────────────────
    // A tenth of shard 0's cells get stuck at the conductance rails.
    rt.inject_shard_faults(0, &FaultConfig::stuck_at(0.1), 99)?;
    let handles: Vec<_> =
        requests.iter().map(|x| rt.submit_mvm(op, x.clone())).collect::<Result<_, _>>()?;
    let summary = rt.run_all();
    println!(
        "faulted:    worst request error {:.2} % ({} failed checks, {} degraded dispatches)",
        100.0 * worst(&handles)?,
        summary.failed_checks,
        summary.degraded,
    );
    for event in &summary.events {
        println!("  recovery: {event:?}");
    }
    println!("  quarantined shards: {:?}", rt.quarantined_shards());

    // ── Post-recovery serving ─────────────────────────────────────────
    // The operator now lives on shard 1; results are back at the
    // fault-free error level without the caller doing anything.
    let handles: Vec<_> =
        requests.iter().map(|x| rt.submit_mvm(op, x.clone())).collect::<Result<_, _>>()?;
    rt.run_all();
    println!("recovered:  worst request error {:.2} %", 100.0 * worst(&handles)?);

    // ── Health probes ─────────────────────────────────────────────────
    // Probes read each operator's planes back and compare against the
    // mapped target — damage shows up without a single user job.
    for (oph, report) in rt.probe_all()? {
        println!(
            "probe {oph:?}: {}/{} bad cells, residual {:.4}",
            report.bad_cells, report.cells, report.residual
        );
    }

    // ── Last resort: every shard gone ─────────────────────────────────
    rt.inject_shard_faults(1, &FaultConfig::stuck_at(0.1), 100)?;
    rt.probe_shard(1)?;
    rt.probe_shard(1)?;
    let handles: Vec<_> =
        requests.iter().map(|x| rt.submit_mvm(op, x.clone())).collect::<Result<_, _>>()?;
    let summary = rt.run_all();
    println!(
        "degraded:   worst request error {:.2} % ({} digital dispatches — no healthy shard left)",
        100.0 * worst(&handles)?,
        summary.degraded,
    );
    Ok(())
}
