//! End-to-end fault-injection tests of the self-healing runtime: a shard
//! hit by stuck-at faults mid-workload must be quarantined, its operators
//! re-programmed onto a healthy shard, and subsequent results must match
//! the fault-free baseline within the paper's analog noise tolerance —
//! while a zero-rate fault plan must change nothing at all, bit for bit.

use gramc_core::tiling::TileMapping;
use gramc_core::{MacroConfig, MacroGroup};
use gramc_linalg::{random, vector};
use gramc_runtime::{FaultConfig, HealthConfig, HealthEvent, Placement, Runtime, RuntimeError};

/// Analog MVM error budget on the small ideal config (weight quantization
/// only) — same bound the fault-free sharded tests use.
const NOISE_TOL: f64 = 0.05;

fn serving_health() -> HealthConfig {
    HealthConfig {
        residual_tolerance: Some(0.2),
        quarantine_after: 2,
        max_retries: 2,
        ..HealthConfig::default()
    }
}

/// The tentpole scenario: a multi-shard runtime serving MVMs, one shard
/// struck by stuck-at faults mid-workload. The runtime must detect the bad
/// results through its residual checks, quarantine the sick shard, migrate
/// its operator to the healthy shard, answer the in-flight jobs correctly
/// anyway, and keep serving within the fault-free noise budget — reporting
/// every step through `RunSummary`.
#[test]
fn stuck_shard_is_quarantined_and_operators_migrate() {
    // 6 macros per shard: room on the healthy shard for its own operator,
    // the migrated one, and one post-recovery placement (2 planes each).
    let rt =
        Runtime::new(2, 6, MacroConfig::small_ideal(4), 42).with_health_config(serving_health());
    let mut rng = random::seeded_rng(7);
    let a = random::gaussian_matrix(&mut rng, 4, 4);
    let b = random::gaussian_matrix(&mut rng, 4, 4);
    let op_a = rt.load(&a, TileMapping::FourBit, Placement::Pinned(0)).unwrap();
    let op_b = rt.load(&b, TileMapping::FourBit, Placement::Pinned(1)).unwrap();

    // Fault-free baseline on both shards.
    let xs: Vec<Vec<f64>> = (0..4).map(|_| random::normal_vector(&mut rng, 4)).collect();
    for x in &xs {
        let y = rt.mvm(op_a, x).unwrap();
        assert!(vector::rel_error(&y, &a.matvec(x)) < NOISE_TOL);
    }

    // Mid-workload, shard 0's arrays break: a third of the cells stick.
    rt.inject_shard_faults(0, &FaultConfig::stuck_at(0.3), 99).unwrap();

    let handles: Vec<_> =
        xs.iter().map(|x| rt.submit_mvm_batch(op_a, vec![x.clone()]).unwrap()).collect();
    let summary = rt.run_all();

    // The residual checks caught the garbage, the shard crossed the
    // quarantine threshold, and the operator moved to shard 1.
    assert!(summary.failed_checks > 0, "stuck cells must fail residual checks");
    assert!(
        summary.events.iter().any(|e| matches!(e, HealthEvent::ShardQuarantined { shard: 0, .. })),
        "events: {:?}",
        summary.events
    );
    assert!(
        summary.events.contains(&HealthEvent::OperatorMigrated { op: op_a, from: 0, to: 1 }),
        "events: {:?}",
        summary.events
    );
    assert_eq!(rt.quarantined_shards(), vec![0]);
    assert!(rt.shard_failures(0) >= 2);

    // The in-flight jobs were still answered correctly (re-dispatched to
    // the healthy shard or, out of retries, via the digital fallback).
    for (x, h) in xs.iter().zip(&handles) {
        let y = h.wait_vectors().unwrap().remove(0);
        assert!(
            vector::rel_error(&y, &a.matvec(x)) < NOISE_TOL,
            "recovered result must match the fault-free baseline"
        );
    }

    // Post-recovery serving: both operators keep answering within the
    // fault-free noise budget; nothing lands on the quarantined shard.
    for x in &xs {
        let y = rt.mvm(op_a, x).unwrap();
        assert!(vector::rel_error(&y, &a.matvec(x)) < NOISE_TOL, "migrated operator serves");
        let y = rt.mvm(op_b, x).unwrap();
        assert!(vector::rel_error(&y, &b.matvec(x)) < NOISE_TOL, "healthy shard unaffected");
    }

    // New placements avoid the quarantined shard even when "least loaded".
    let op_c = rt.load(&a, TileMapping::FourBit, Placement::LeastLoaded).unwrap();
    let y = rt.mvm(op_c, &xs[0]).unwrap();
    assert!(vector::rel_error(&y, &a.matvec(&xs[0])) < NOISE_TOL);
    assert_eq!(rt.live_operators_per_shard()[0], 0, "no placements on the sick shard");
}

/// Health probes feed the same quarantine machinery as job-level checks:
/// probing a faulted shard between drains detects the damage from readback
/// alone — no user job has to produce garbage first.
#[test]
fn probes_detect_faults_and_trigger_migration() {
    let rt =
        Runtime::new(2, 4, MacroConfig::small_ideal(4), 43).with_health_config(serving_health());
    let mut rng = random::seeded_rng(8);
    let a = random::gaussian_matrix(&mut rng, 4, 4);
    let a2 = random::gaussian_matrix(&mut rng, 4, 4);
    let op0 = rt.load(&a, TileMapping::FourBit, Placement::Pinned(0)).unwrap();
    let op1 = rt.load(&a2, TileMapping::FourBit, Placement::Pinned(0)).unwrap();

    // Healthy probe: tiny readback residuals, no failures recorded.
    let reports = rt.probe_shard(0).unwrap();
    assert_eq!(reports.len(), 2);
    assert!(reports.iter().all(|(_, r)| r.residual < 0.05), "{reports:?}");
    assert_eq!(rt.shard_failures(0), 0);

    rt.inject_shard_faults(0, &FaultConfig::stuck_at(0.3), 17).unwrap();

    // Both operators' probes miss the tolerance → two failed checks →
    // quarantine + migration, straight from the probe path.
    let reports = rt.probe_shard(0).unwrap();
    assert!(reports.iter().all(|(_, r)| r.residual > 0.05), "{reports:?}");
    assert!(reports.iter().all(|(_, r)| r.bad_cells > 0));
    assert_eq!(rt.quarantined_shards(), vec![0]);

    // The migrated operators serve healthily; the events surface in the
    // next drain's summary.
    let x = random::normal_vector(&mut rng, 4);
    let h0 = rt.submit_mvm(op0, x.clone()).unwrap();
    let h1 = rt.submit_mvm(op1, x.clone()).unwrap();
    let summary = rt.run_all();
    assert!(summary
        .events
        .iter()
        .any(|e| matches!(e, HealthEvent::ShardQuarantined { shard: 0, .. })));
    assert_eq!(
        summary
            .events
            .iter()
            .filter(|e| matches!(e, HealthEvent::OperatorMigrated { from: 0, to: 1, .. }))
            .count(),
        2,
        "both operators migrate: {:?}",
        summary.events
    );
    assert!(vector::rel_error(&h0.wait_vector().unwrap(), &a.matvec(&x)) < NOISE_TOL);
    assert!(vector::rel_error(&h1.wait_vector().unwrap(), &a2.matvec(&x)) < NOISE_TOL);
}

/// With every shard quarantined there is nowhere left to migrate: the
/// runtime drops to the explicit `Degraded` mode and answers from the
/// digital reference path — correct results, counted and reported.
#[test]
fn degraded_mode_serves_digitally_when_no_shard_is_healthy() {
    let rt =
        Runtime::new(1, 4, MacroConfig::small_ideal(4), 44).with_health_config(serving_health());
    let mut rng = random::seeded_rng(9);
    let a = random::spd_with_condition(&mut rng, 4, 3.0);
    let op = rt.load(&a, TileMapping::FourBit, Placement::Pinned(0)).unwrap();

    rt.inject_shard_faults(0, &FaultConfig::stuck_at(0.4), 5).unwrap();
    rt.probe_shard(0).unwrap();
    rt.probe_shard(0).unwrap();
    assert_eq!(rt.quarantined_shards(), vec![0]);

    // MVM and solve both come back exact: the digital path computes with
    // the registry's kept matrix.
    let x = random::normal_vector(&mut rng, 4);
    let h_mvm = rt.submit_mvm(op, x.clone()).unwrap();
    let h_inv = rt.submit_solve_inv(op, x.clone()).unwrap();
    let summary = rt.run_all();
    assert!(summary.degraded > 0, "degraded dispatches must be counted");
    assert!(summary
        .events
        .iter()
        .any(|e| matches!(e, HealthEvent::OperatorDegraded { shard: 0, .. })));
    let y = h_mvm.wait_vector().unwrap();
    assert!(vector::rel_error(&y, &a.matvec(&x)) < 1e-12, "digital MVM is exact");
    let sol = h_inv.wait_vector().unwrap();
    assert!(vector::rel_error(&a.matvec(&sol), &x) < 1e-9, "digital solve is exact");

    // A wrong-length batch is rejected at submission: served digitally it
    // would panic the worker, and the next request would never be served.
    let short = rt.submit_mvm_batch(op, vec![vec![1.0; 3]]);
    assert!(matches!(short, Err(RuntimeError::Core(_))), "{short:?}");
    let h_next = rt.submit_mvm(op, x.clone()).unwrap();
    rt.run_all();
    assert!(vector::rel_error(&h_next.wait_vector().unwrap(), &a.matvec(&x)) < 1e-12);

    // Loads on a fully quarantined runtime still succeed — digitally.
    let op2 = rt.load(&a, TileMapping::FourBit, Placement::LeastLoaded).unwrap();
    let y2 = rt.mvm(op2, &x).unwrap();
    assert!(vector::rel_error(&y2, &a.matvec(&x)) < 1e-12);
}

/// Satellite 1: a load whose write-verify pass cannot converge (stuck
/// cells can never reach their targets) is reprogrammed the configured
/// number of times and then fails with the typed
/// [`RuntimeError::ProgramVerifyFailed`] — and the failure feeds the
/// shard's health record.
#[test]
fn unverifiable_load_fails_typed_after_bounded_retries() {
    let health = HealthConfig {
        max_load_failure_frac: 0.01,
        quarantine_after: 100, // keep the shard un-quarantined for this test
        ..serving_health()
    };
    let rt = Runtime::new(1, 4, MacroConfig::small_ideal(4), 45).with_health_config(health);
    rt.inject_shard_faults(0, &FaultConfig::stuck_at(0.3), 23).unwrap();

    let mut rng = random::seeded_rng(10);
    let a = random::gaussian_matrix(&mut rng, 4, 4);
    let err = rt.load(&a, TileMapping::FourBit, Placement::Pinned(0)).unwrap_err();
    let RuntimeError::ProgramVerifyFailed { failed_cells, total_cells } = err else {
        panic!("expected ProgramVerifyFailed, got {err:?}");
    };
    assert!(failed_cells > 0 && failed_cells <= total_cells);
    assert!(rt.shard_failures(0) > 0, "the failed load counts against the shard");
    assert_eq!(rt.live_operators_per_shard(), vec![0], "failed load leaves nothing behind");
}

/// The metered flavor of the bounded-retry contract above: each of the
/// three programming attempts (initial + `max_retries`) blind-writes both
/// conductance planes of the 4×4 region, so the "load" job-kind must
/// attribute exactly 3 · 2 · 16 write cycles and pulses — one failing job,
/// fully accounted, with no converter or read activity.
#[test]
fn failed_load_retries_are_metered_exactly() {
    let health =
        HealthConfig { max_load_failure_frac: 0.01, quarantine_after: 100, ..serving_health() };
    let rt = Runtime::new(1, 4, MacroConfig::small_ideal(4), 45).with_health_config(health);
    rt.inject_shard_faults(0, &FaultConfig::stuck_at(0.3), 23).unwrap();

    let mut rng = random::seeded_rng(10);
    let a = random::gaussian_matrix(&mut rng, 4, 4);
    let err = rt.load(&a, TileMapping::FourBit, Placement::Pinned(0)).unwrap_err();
    assert!(matches!(err, RuntimeError::ProgramVerifyFailed { .. }));

    let m = rt.metrics_snapshot();
    let load = m.kinds.iter().find(|k| k.kind == "load").expect("load kind");
    assert_eq!(load.jobs, 1, "the retries all happen inside one load job");
    assert_eq!(load.hw.write_cycles, 3 * 2 * 16);
    assert_eq!(load.hw.write_pulses, 3 * 2 * 16);
    assert_eq!(
        load.hw.dac_drives + load.hw.adc_conversions + load.hw.settle_events,
        0,
        "programming drives no converters"
    );
    assert_eq!(m.hw_total, load.hw, "nothing but the doomed load ran");
}

/// Determinism contract: a **zero-rate** fault plan installed must be
/// bit-identical to the baseline — same seeds, pinned placement, identical
/// RNG stream — so the fault hooks themselves provably change nothing.
#[test]
fn zero_rate_injection_is_bit_identical_to_baseline() {
    // Default health config: residual checks off, exactly as the baseline
    // bit-identity test runs — nothing may touch the RNG stream.
    let config = MacroConfig::small(6);
    let rt = Runtime::new(2, 2, config.clone(), 42);
    let mut reference = MacroGroup::new(2, config, Runtime::shard_seed_of(42, 1));

    // Zero-rate plans on every shard: installed, but empty.
    let zero = FaultConfig::default();
    assert!(zero.is_fault_free());
    rt.inject_shard_faults(0, &zero, 1).unwrap();
    rt.inject_shard_faults(1, &zero, 2).unwrap();

    let mut rng = random::seeded_rng(90);
    let a = random::spd_with_condition(&mut rng, 6, 5.0);
    let op = rt.load(&a, TileMapping::FourBit, Placement::Pinned(1)).unwrap();
    let ref_op = reference.load_matrix(&a).unwrap();

    let xs: Vec<Vec<f64>> = (0..5).map(|_| random::normal_vector(&mut rng, 6)).collect();
    let handles: Vec<_> = xs.iter().map(|x| rt.submit_mvm(op, x.clone()).unwrap()).collect();
    let summary = rt.run_all();
    let ys_ref = reference.mvm_batch(ref_op, &xs).unwrap();
    for (h, y_ref) in handles.iter().zip(&ys_ref) {
        assert_eq!(&h.wait_vector().unwrap(), y_ref, "zero-rate plan must be bit-identical");
    }
    assert_eq!(summary.failed_checks, 0);
    assert_eq!(summary.degraded, 0);
    assert!(summary.events.is_empty());

    let bs: Vec<Vec<f64>> = (0..3).map(|_| random::normal_vector(&mut rng, 6)).collect();
    assert_eq!(
        rt.solve_inv_batch(op, &bs).unwrap(),
        reference.solve_inv_batch(ref_op, &bs).unwrap(),
        "solve path bit-identical under zero-rate injection"
    );
}

/// Clearing faults restores a shard's arrays; drift advances only under an
/// installed drift plan. Sanity for the runtime-level fault controls.
#[test]
fn fault_controls_round_trip() {
    let rt =
        Runtime::new(2, 4, MacroConfig::small_ideal(4), 46).with_health_config(serving_health());
    let mut rng = random::seeded_rng(11);
    let a = random::gaussian_matrix(&mut rng, 4, 4);
    let op = rt.load(&a, TileMapping::FourBit, Placement::Pinned(0)).unwrap();
    let x = random::normal_vector(&mut rng, 4);

    rt.inject_shard_faults(0, &FaultConfig::stuck_at(0.3), 3).unwrap();
    let bad = rt.probe_shard(0).unwrap()[0].1;
    assert!(bad.residual > 0.05);

    rt.clear_shard_faults(0).unwrap();
    let good = rt.probe_shard(0).unwrap()[0].1;
    assert!(good.residual < 0.05, "cleared faults restore the readback");

    // Out-of-range shard indices are typed errors on every control.
    assert!(matches!(
        rt.inject_shard_faults(9, &FaultConfig::default(), 0),
        Err(RuntimeError::BadShard { shard: 9, shards: 2 })
    ));
    assert!(matches!(rt.advance_shard_fault_time(9, 1.0), Err(RuntimeError::BadShard { .. })));
    assert!(matches!(rt.clear_shard_faults(9), Err(RuntimeError::BadShard { .. })));

    let y = rt.mvm(op, &x).unwrap();
    assert!(vector::rel_error(&y, &a.matvec(&x)) < NOISE_TOL, "shard serves again");
}
