//! Integration tests of the sharded runtime: the determinism contract,
//! work stealing under skew, the operator-registry lifecycle and
//! cross-shard tiling.

use gramc_core::tiling::TileMapping;
use gramc_core::{MacroConfig, MacroGroup};
use gramc_linalg::{random, vector, Matrix};
use gramc_runtime::{Placement, QueuePolicy, Runtime, RuntimeError, ShardedTiledOperator};

/// The core correctness contract: with fixed seeds and pinned placement,
/// the sharded runtime replays exactly what a lone `MacroGroup` would do —
/// bit-identical outputs, including every stochastic analog effect,
/// because shard tickets preserve program order under stealing.
#[test]
fn sharded_runtime_is_bit_identical_to_single_group() {
    // Paper-default non-idealities: write-verify programming noise, read
    // noise, offsets — everything the RNG touches.
    let config = MacroConfig::small(6);
    let rt = Runtime::new(3, 2, config.clone(), 42);
    let mut reference = MacroGroup::new(2, config, Runtime::shard_seed_of(42, 1));

    let mut rng = random::seeded_rng(90);
    let a = random::spd_with_condition(&mut rng, 6, 5.0);
    let op = rt.load(&a, TileMapping::FourBit, Placement::Pinned(1)).unwrap();
    let ref_op = reference.load_matrix(&a).unwrap();

    // Many users, one model: individual requests coalesce into the same
    // single mvm_batch dispatch the reference issues.
    let xs: Vec<Vec<f64>> = (0..5).map(|_| random::normal_vector(&mut rng, 6)).collect();
    let handles: Vec<_> = xs.iter().map(|x| rt.submit_mvm(op, x.clone()).unwrap()).collect();
    let summary = rt.run_all();
    assert_eq!(summary.executed, 1, "5 coalesced requests = 1 analog dispatch");
    let ys_ref = reference.mvm_batch(ref_op, &xs).unwrap();
    for (h, y_ref) in handles.iter().zip(&ys_ref) {
        assert_eq!(&h.wait_vector().unwrap(), y_ref, "sharded MVM must be bit-identical");
    }

    // The solve paths continue the same RNG stream on both sides.
    let bs: Vec<Vec<f64>> = (0..3).map(|_| random::normal_vector(&mut rng, 6)).collect();
    let batch = rt.solve_inv_batch(op, &bs).unwrap();
    let batch_ref = reference.solve_inv_batch(ref_op, &bs).unwrap();
    assert_eq!(batch, batch_ref, "sharded INV batch must be bit-identical");

    let x = rt.solve_inv(op, &bs[0]).unwrap();
    let x_ref = reference.solve_inv(ref_op, &bs[0]).unwrap();
    assert_eq!(x, x_ref, "sharded INV must be bit-identical");
}

/// Submission order survives coalescing: the coalesced batch takes its
/// ticket at its first request's submission point, so jobs submitted later
/// — against the same operator or a different one on the same shard —
/// execute after it. In particular a free must not retire the operator
/// before earlier-submitted coalesced requests run, and the shard's RNG
/// stream must match a reference group replaying submission order.
#[test]
fn coalesced_mvms_execute_at_first_submission_point() {
    // Paper-default non-idealities so the RNG stream detects reordering.
    // 4 macros per shard: two differential operators of 2 planes each.
    let config = MacroConfig::small(6);
    let rt = Runtime::new(2, 4, config.clone(), 42);
    let mut reference = MacroGroup::new(4, config, Runtime::shard_seed_of(42, 1));

    let mut rng = random::seeded_rng(92);
    let a = random::spd_with_condition(&mut rng, 6, 5.0);
    let a2 = random::spd_with_condition(&mut rng, 6, 4.0);
    let op = rt.load(&a, TileMapping::FourBit, Placement::Pinned(1)).unwrap();
    let other = rt.load(&a2, TileMapping::FourBit, Placement::Pinned(1)).unwrap();
    let ref_op = reference.load_matrix(&a).unwrap();
    let ref_other = reference.load_matrix(&a2).unwrap();

    // Coalesced MVM on `op`, then a solve on a *different* operator of the
    // same shard, then a free of `op`: the drain must replay exactly this
    // submission order.
    let x = random::normal_vector(&mut rng, 6);
    let b = random::normal_vector(&mut rng, 6);
    let h_mvm = rt.submit_mvm(op, x.clone()).unwrap();
    let h_inv = rt.submit_solve_inv(other, b.clone()).unwrap();
    let h_free = rt.submit_free(op).unwrap();
    // The handle is dead to further submissions the moment the free is
    // accepted, even though the free job has not executed yet.
    assert!(matches!(rt.submit_mvm(op, x.clone()), Err(RuntimeError::InvalidHandle)));
    rt.run_all();

    let y_ref = reference.mvm_batch(ref_op, &[x]).unwrap().remove(0);
    assert_eq!(h_mvm.wait_vector().unwrap(), y_ref, "MVM must run before the free");
    let x_ref = reference.solve_inv(ref_other, &b).unwrap();
    assert_eq!(h_inv.wait_vector().unwrap(), x_ref, "solve must run in submission order");
    h_free.wait().unwrap();
    assert_eq!(rt.live_operators_per_shard(), vec![0, 1]);
}

/// Worst-case skew: every job lands on deque 0, targeting operators
/// spread over all four shards. Only stealing lets the other workers
/// contribute; all jobs must retire with correct results either way.
#[test]
fn skewed_queue_drains_through_stealing() {
    let shards = 4;
    let rt = Runtime::with_queue_policy(
        shards,
        2,
        MacroConfig::small_ideal(4),
        7,
        QueuePolicy::Fixed(0),
    );
    let mut rng = random::seeded_rng(91);
    let mut ops = Vec::new();
    let mut mats = Vec::new();
    for s in 0..shards {
        let a = random::gaussian_matrix(&mut rng, 4, 4);
        let op = rt.load(&a, TileMapping::FourBit, Placement::Pinned(s)).unwrap();
        ops.push(op);
        mats.push(a);
    }
    // Explicit batch jobs (bypassing coalescing) so the scheduler sees 40
    // distinct jobs, all on deque 0.
    let inputs: Vec<Vec<f64>> = (0..40).map(|_| random::normal_vector(&mut rng, 4)).collect();
    let handles: Vec<_> = inputs
        .iter()
        .enumerate()
        .map(|(k, x)| rt.submit_mvm_batch(ops[k % shards], vec![x.clone()]).unwrap())
        .collect();
    assert_eq!(rt.queued_jobs(), 40);
    let summary = rt.run_all();
    assert_eq!(summary.executed, 40, "every skewed job must retire");
    assert_eq!(summary.per_worker.len(), shards);
    assert_eq!(rt.queued_jobs(), 0);
    for (k, (x, h)) in inputs.iter().zip(&handles).enumerate() {
        let y = h.wait_vectors().unwrap().remove(0);
        // Ideal config: only 8-bit weight quantization separates the
        // analog result from the true product.
        let y_ref = mats[k % shards].matvec(x);
        assert!(vector::rel_error(&y, &y_ref) < 0.05, "job {k}: {y:?} vs {y_ref:?}");
    }
}

/// Shape errors are caught at `submit_mvm`, before the request joins a
/// coalesced batch — one malformed request must not fail the whole crowd.
#[test]
fn malformed_mvm_request_is_rejected_at_submission() {
    let rt = Runtime::new(2, 2, MacroConfig::small_ideal(4), 11);
    let a = Matrix::from_fn(4, 4, |i, j| if i == j { 1.0 } else { 0.1 });
    let op = rt.load(&a, TileMapping::FourBit, Placement::LeastLoaded).unwrap();

    let good = rt.submit_mvm(op, vec![1.0, 0.0, 0.0, 0.0]).unwrap();
    assert!(
        matches!(rt.submit_mvm(op, vec![1.0; 3]), Err(RuntimeError::Core(_))),
        "short request must be rejected at submit time"
    );
    let short = || vec![vec![1.0; 4], vec![1.0; 3]];
    for rejected in [
        rt.submit_mvm_batch(op, short()),
        rt.submit_solve_inv(op, vec![1.0; 5]),
        rt.submit_solve_inv_batch(op, short()),
        rt.submit_solve_pinv_batch(op, short()),
    ] {
        assert!(matches!(rejected, Err(RuntimeError::Core(_))), "{rejected:?}");
    }
    rt.run_all();
    assert_eq!(good.wait_vector().unwrap().len(), 4, "valid requests still serve");
}

/// A fully pipelined lifecycle — load, MVM, free submitted back-to-back
/// with no drain in between — retires in one `run_all`.
#[test]
fn pipelined_load_mvm_free_completes_in_one_drain() {
    let rt = Runtime::new(2, 2, MacroConfig::small_ideal(4), 12);
    let a = Matrix::from_fn(4, 4, |i, j| if i == j { 2.0 } else { 0.2 });
    let (op, h_load) = rt.submit_load(&a, TileMapping::FourBit, Placement::Pinned(0)).unwrap();
    let h_mvm = rt.submit_mvm(op, vec![1.0, 0.0, 0.0, 0.0]).unwrap();
    let h_free = rt.submit_free(op).unwrap();
    assert!(matches!(rt.submit_free(op), Err(RuntimeError::DoubleFree)));
    rt.run_all();
    h_load.wait().unwrap();
    assert_eq!(h_mvm.wait_vector().unwrap().len(), 4);
    h_free.wait().unwrap();
    assert_eq!(rt.live_operators_per_shard(), vec![0, 0]);
}

/// Load / free across shards: least-loaded spreading, double-free
/// rejection, dead-handle rejection and capacity reuse after free.
#[test]
fn operator_registry_lifecycle() {
    let rt = Runtime::new(2, 2, MacroConfig::small_ideal(4), 3);
    let a = Matrix::from_rows(&[
        &[1.0, 0.2, 0.0, -0.3],
        &[0.0, 0.8, 0.1, 0.0],
        &[0.5, 0.0, 1.0, 0.2],
        &[-0.2, 0.4, 0.0, 0.9],
    ]);
    let op0 = rt.load(&a, TileMapping::FourBit, Placement::LeastLoaded).unwrap();
    let op1 = rt.load(&a, TileMapping::FourBit, Placement::LeastLoaded).unwrap();
    assert_eq!(rt.live_operators_per_shard(), vec![1, 1], "least-loaded must spread");

    rt.free(op0).unwrap();
    assert_eq!(rt.live_operators_per_shard(), vec![0, 1]);
    assert!(matches!(rt.free(op0), Err(RuntimeError::DoubleFree)));
    assert!(matches!(rt.submit_free(op0), Err(RuntimeError::DoubleFree)));
    assert!(matches!(rt.submit_mvm(op0, vec![0.0; 4]), Err(RuntimeError::InvalidHandle)));
    assert!(matches!(rt.mvm_batch(op0, &[vec![0.0; 4]]), Err(RuntimeError::InvalidHandle)));

    // op1 is untouched by op0's lifecycle.
    let y = rt.mvm(op1, &[1.0, 0.0, 0.0, 0.0]).unwrap();
    assert_eq!(y.len(), 4);

    // Freed capacity is reusable, pinned placement is honored and
    // validated.
    let op2 = rt.load(&a, TileMapping::FourBit, Placement::Pinned(0)).unwrap();
    assert_eq!(rt.live_operators_per_shard(), vec![1, 1]);
    rt.free(op2).unwrap();
    assert!(matches!(
        rt.load(&a, TileMapping::FourBit, Placement::Pinned(9)),
        Err(RuntimeError::BadShard { shard: 9, shards: 2 })
    ));
}

/// Cross-shard tiling: a 10×10 matrix on 4×4 arrays spreads 9 tiles
/// round-robin over the shards and reduces to the right product.
#[test]
fn sharded_tiled_operator_accumulates_across_shards() {
    let rt = Runtime::new(2, 10, MacroConfig::small_ideal(4), 21);
    let mut rng = random::seeded_rng(81);
    let a = random::gaussian_matrix(&mut rng, 10, 10);
    let mut tiled = ShardedTiledOperator::load(&rt, &a, TileMapping::FourBit).unwrap();
    assert_eq!(tiled.tile_count(), 9);
    assert_eq!(tiled.shape(), (10, 10));
    let spread = rt.live_operators_per_shard();
    assert_eq!(spread.iter().sum::<usize>(), 9);
    assert!(spread.iter().all(|&n| n > 0), "tiles must spread over shards: {spread:?}");

    let xs: Vec<Vec<f64>> = (0..3).map(|_| random::normal_vector(&mut rng, 10)).collect();
    let ys = tiled.mvm_batch(&rt, &xs).unwrap();
    for (x, y) in xs.iter().zip(&ys) {
        let y_ref = a.matvec(x);
        assert!(vector::rel_error(y, &y_ref) < 0.08, "{y:?} vs {y_ref:?}");
    }

    tiled.free(&rt).unwrap();
    assert_eq!(rt.live_operators_per_shard(), vec![0, 0]);
    assert!(tiled.mvm(&rt, &[0.0; 10]).is_err());
    assert!(tiled.free(&rt).is_err());
}

/// `wait_timeout` bounds the wait on a job nobody drains: it must return
/// [`RuntimeError::WaitTimeout`] instead of blocking forever, and still
/// deliver the result once the job actually retires.
#[test]
fn wait_timeout_bounds_undrained_jobs() {
    use std::time::Duration;

    let rt = Runtime::new(2, 2, MacroConfig::small_ideal(4), 13);
    let a = Matrix::from_fn(4, 4, |i, j| if i == j { 1.0 } else { 0.1 });
    let op = rt.load(&a, TileMapping::FourBit, Placement::Pinned(0)).unwrap();

    // Submitted but never drained: the bounded wait gives up.
    let h = rt.submit_mvm(op, vec![1.0, 0.0, 0.0, 0.0]).unwrap();
    assert!(matches!(h.wait_timeout(Duration::from_millis(20)), Err(RuntimeError::WaitTimeout)));
    // A zero timeout on a pending job expires immediately.
    assert!(matches!(h.wait_timeout(Duration::ZERO), Err(RuntimeError::WaitTimeout)));

    // Once drained, the same handle serves the result through the bounded
    // wait as well.
    rt.run_all();
    let y = match h.wait_timeout(Duration::from_secs(5)).unwrap() {
        gramc_runtime::JobOutput::Vector(y) => y,
        other => panic!("expected a vector, got {other:?}"),
    };
    assert_eq!(y.len(), 4);
}

/// Non-finite inputs are rejected at submit time on every compute path,
/// mirroring the shape check: one poisoned request must not reach an
/// analog dispatch or take down a coalesced batch.
#[test]
fn non_finite_inputs_are_rejected_at_submission() {
    let rt = Runtime::new(2, 2, MacroConfig::small_ideal(4), 14);
    let a = Matrix::from_fn(4, 4, |i, j| if i == j { 1.0 } else { 0.1 });
    let op = rt.load(&a, TileMapping::FourBit, Placement::Pinned(0)).unwrap();

    let nan = vec![1.0, f64::NAN, 0.0, 0.0];
    let inf = vec![f64::INFINITY, 0.0, 0.0, 0.0];
    assert!(matches!(rt.submit_mvm(op, nan.clone()), Err(RuntimeError::NonFiniteInput)));
    assert!(matches!(
        rt.submit_mvm_batch(op, vec![vec![1.0; 4], inf.clone()]),
        Err(RuntimeError::NonFiniteInput)
    ));
    assert!(matches!(rt.submit_solve_inv(op, nan.clone()), Err(RuntimeError::NonFiniteInput)));
    assert!(matches!(
        rt.submit_solve_inv_batch(op, vec![inf.clone()]),
        Err(RuntimeError::NonFiniteInput)
    ));
    assert!(matches!(rt.submit_solve_pinv_batch(op, vec![inf]), Err(RuntimeError::NonFiniteInput)));

    // A good request submitted alongside the rejected ones still serves.
    let good = rt.submit_mvm(op, vec![1.0, 0.0, 0.0, 0.0]).unwrap();
    let summary = rt.run_all();
    assert_eq!(good.wait_vector().unwrap().len(), 4);
    assert_eq!(summary.failed_checks, 0);
    assert_eq!(summary.degraded, 0);
    assert!(summary.events.is_empty());
}

/// A load that exceeds shard capacity fails cleanly and rolls back the
/// tiles already placed.
#[test]
fn sharded_tiling_rolls_back_on_capacity_error() {
    let rt = Runtime::new(2, 2, MacroConfig::small_ideal(4), 22);
    let mut rng = random::seeded_rng(82);
    let a = random::gaussian_matrix(&mut rng, 12, 12); // 9 tiles, won't fit
    assert!(ShardedTiledOperator::load(&rt, &a, TileMapping::FourBit).is_err());
    assert_eq!(rt.live_operators_per_shard(), vec![0, 0], "rollback must free all tiles");
}

// ── telemetry ─────────────────────────────────────────────────────────

/// Hardware counters are a pure function of the submitted workload, never
/// of the schedule: the same jobs pinned to shard 0 must produce bitwise
/// equal counters, per-kind attribution and analog outputs whether the
/// drain runs inline on the calling thread with linalg fan-out capped to
/// one lane, or across three stealing worker threads uncapped. (Shard 0
/// is seeded identically regardless of how many shards exist, so the two
/// runtimes replay the same RNG stream.)
#[test]
fn hardware_counters_are_invariant_to_worker_thread_count() {
    let config = MacroConfig::small(6);
    let run = |shards: usize, cap: Option<usize>| {
        let rt = Runtime::new(shards, 2, config.clone(), 31);
        let mut rng = random::seeded_rng(77);
        let a = random::spd_with_condition(&mut rng, 6, 4.0);
        let op = rt.load(&a, TileMapping::FourBit, Placement::Pinned(0)).unwrap();
        let xs: Vec<Vec<f64>> = (0..6).map(|_| random::normal_vector(&mut rng, 6)).collect();
        let handles: Vec<_> = xs.iter().map(|x| rt.submit_mvm(op, x.clone()).unwrap()).collect();
        let solve = rt.submit_solve_inv(op, random::normal_vector(&mut rng, 6)).unwrap();
        match cap {
            Some(c) => gramc_linalg::parallel::with_thread_cap(c, || rt.run_all()),
            None => rt.run_all(),
        };
        let mut ys: Vec<f64> = handles.iter().flat_map(|h| h.wait_vector().unwrap()).collect();
        ys.extend(solve.wait_vector().unwrap());
        (rt.hw_snapshot(), rt.metrics_snapshot(), ys)
    };
    let (hw1, m1, ys1) = run(1, Some(1));
    let (hw3, m3, ys3) = run(3, None);

    assert_eq!(hw1, hw3, "hardware counters must not depend on worker threads");
    assert_eq!(ys1, ys3, "analog outputs must not depend on worker threads");
    for (k1, k3) in m1.kinds.iter().zip(&m3.kinds) {
        assert_eq!(k1.jobs, k3.jobs, "{} job count differs", k1.kind);
        assert_eq!(k1.hw, k3.hw, "{} attribution differs", k1.kind);
    }

    // Snapshot self-consistency: every executed job records exactly one
    // sample in each lifecycle histogram, the per-kind attribution sums to
    // the group totals, and the journal saw the work.
    let jobs: u64 = m3.kinds.iter().map(|k| k.jobs).sum();
    assert_eq!(m3.submit_to_dispatch.count, jobs);
    assert_eq!(m3.dispatch_to_complete.count, jobs);
    assert_eq!(m3.submit_to_complete.count, jobs);
    let mut sum = gramc_runtime::HwSnapshot::default();
    for k in &m3.kinds {
        sum += &k.hw;
    }
    assert_eq!(sum, m3.hw_total);
    assert_eq!(hw3, m3.hw_total, "all analog work flowed through the runtime");
    assert!(m3.journal_len > 0, "journal must have recorded the job spans");
    assert!(m3.queue_depth_max >= 1);
}

/// Cross-build determinism anchor: one deterministic serving trace, its
/// outputs folded into a single checksum pinned here. CI runs this exact
/// test with the `parallel` feature on and off (the single-threaded
/// scheduler fallback); the constant must hold in both builds, proving
/// scheduling never perturbs a bit of the analog math. Regenerate (only
/// after an *intentional* numerics change) by running the test and copying
/// the reported actual value.
#[test]
fn analog_outputs_match_pinned_golden_checksum() {
    let rt = Runtime::new(2, 2, MacroConfig::small(8), 64);
    let mut rng = random::seeded_rng(55);
    let a = random::spd_with_condition(&mut rng, 8, 6.0);
    let op = rt.load(&a, TileMapping::FourBit, Placement::Pinned(1)).unwrap();
    let xs: Vec<Vec<f64>> = (0..4).map(|_| random::normal_vector(&mut rng, 8)).collect();
    let mvms: Vec<_> = xs.iter().map(|x| rt.submit_mvm(op, x.clone()).unwrap()).collect();
    let solve = rt.submit_solve_inv(op, random::normal_vector(&mut rng, 8)).unwrap();
    rt.run_all();

    let mut acc: u64 = 0;
    for y in mvms.iter().chain(std::iter::once(&solve)) {
        for v in y.wait_vector().unwrap() {
            acc = acc.rotate_left(7) ^ v.to_bits();
        }
    }
    assert_eq!(acc, 0x34B7_034A_BDE4_33DF, "analog output checksum drifted across builds");
}
