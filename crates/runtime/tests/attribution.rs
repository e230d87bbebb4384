//! Integration tests of request-scoped tracing and per-tenant
//! attribution: conservation of the hardware-counter split (tenant shares
//! sum bit-exactly to the global totals, on one shard and on many),
//! tenant-quota admission, bit-identity of the tenant-attributed APIs to
//! the plain ones, the configurable journal ring with its drop metrics,
//! and the chrome-trace flow events that link every coalesced rider to
//! the shared batch execution span.

use gramc_core::tiling::TileMapping;
use gramc_core::MacroConfig;
use gramc_linalg::random;
use gramc_runtime::{Placement, Runtime, RuntimeError, TenantId, TenantQuota};

/// A runtime with one loaded seeded operator, drained (no server: batches
/// coalesce deterministically until `run_all`).
fn fixture(shards: usize, dim: usize, seed: u64) -> (Runtime, gramc_runtime::OperatorHandle) {
    let rt = Runtime::new(shards, 2, MacroConfig::small_ideal(dim), seed);
    let mut rng = random::seeded_rng(seed ^ 0xa77);
    let a = random::gaussian_matrix(&mut rng, dim, dim);
    let (op, loaded) = rt.submit_load(&a, TileMapping::FourBit, Placement::Pinned(0)).unwrap();
    rt.run_all();
    loaded.wait().expect("load completes");
    (rt, op)
}

/// Request ids are unique and strictly increasing per submission, starting
/// at 1 on a fresh runtime (0 is reserved for "no request").
#[test]
fn request_ids_are_unique_and_ordered() {
    let (rt, op) = fixture(1, 8, 11);
    let mut rng = random::seeded_rng(12);
    let mut ids = Vec::new();
    for _ in 0..5 {
        let h = rt.submit_mvm(op, random::normal_vector(&mut rng, 8)).unwrap();
        ids.push(h.request_id().0);
    }
    rt.run_all();
    assert_eq!(ids[0], 2, "load took id 1; ids start at 1 on a fresh runtime");
    for w in ids.windows(2) {
        assert!(w[0] < w[1], "ids must be strictly increasing: {ids:?}");
    }
}

/// The tenant quota rejects typed once a tenant sits at its in-flight
/// bound — riders of a coalesced batch count too — while other tenants
/// keep being admitted, and capacity frees once the backlog retires.
#[test]
fn tenant_quota_rejects_typed_and_frees_on_completion() {
    let (rt, op) = fixture(1, 8, 21);
    let rt = rt.with_tenant_quota(TenantQuota { max_in_flight: 2 });
    let mut rng = random::seeded_rng(22);
    let mut x = || random::normal_vector(&mut rng, 8);
    let flood = TenantId(1);
    let polite = TenantId(2);

    // First submission opens the batch, second rides; both hold a slot.
    let a = rt.submit_mvm_for(flood, op, x()).unwrap();
    let b = rt.submit_mvm_for(flood, op, x()).unwrap();
    let err = rt.submit_mvm_for(flood, op, x()).unwrap_err();
    assert!(
        matches!(err, RuntimeError::QueueFull { limit: 2 }),
        "expected the quota as QueueFull {{ limit: 2 }}, got {err:?}"
    );

    // The flooding tenant backs up on itself; others are unaffected.
    let c = rt.submit_mvm_for(polite, op, x()).expect("other tenants keep their own quota");

    rt.run_all();
    a.wait().unwrap();
    b.wait().unwrap();
    c.wait().unwrap();
    rt.submit_mvm_for(flood, op, x()).expect("capacity frees when requests retire");
    rt.run_all();

    let snap = rt.metrics_snapshot();
    let of = |t: TenantId| snap.tenants.iter().find(|m| m.tenant == t).unwrap();
    assert_eq!(of(flood).rejected, 1, "the quota rejection is metered per tenant");
    assert_eq!(of(flood).requests, 3, "rejected submissions are not requests");
    assert_eq!(of(polite).rejected, 0);
    assert_eq!(snap.rejected, 1, "tenant rejections feed the global gauge");
}

/// The tenant-attributed APIs return results bit-identical to the plain
/// APIs: attribution is measurement, never a compute path.
#[test]
fn tenant_apis_are_bit_identical_to_plain_apis() {
    let dim = 6;
    let config = MacroConfig::small(dim);
    let plain = Runtime::new(2, 2, config.clone(), 77);
    let tenanted =
        Runtime::new(2, 2, config, 77).with_tenant_quota(TenantQuota { max_in_flight: 64 });

    let mut rng = random::seeded_rng(78);
    let a = random::spd_with_condition(&mut rng, dim, 4.0);
    let xs: Vec<Vec<f64>> = (0..4).map(|_| random::normal_vector(&mut rng, dim)).collect();
    let b = random::normal_vector(&mut rng, dim);

    let run = |rt: &Runtime, tenant: Option<TenantId>| {
        let (op, loaded) = match tenant {
            Some(t) => rt.submit_load_for(t, &a, TileMapping::FourBit, Placement::Pinned(1)),
            None => rt.submit_load(&a, TileMapping::FourBit, Placement::Pinned(1)),
        }
        .unwrap();
        rt.run_all();
        loaded.wait().unwrap();
        let mvm = match tenant {
            Some(t) => rt.submit_mvm_batch_for(t, op, xs.clone()),
            None => rt.submit_mvm_batch(op, xs.clone()),
        }
        .unwrap();
        let inv = match tenant {
            Some(t) => rt.submit_solve_inv_for(t, op, b.clone()),
            None => rt.submit_solve_inv(op, b.clone()),
        }
        .unwrap();
        rt.run_all();
        (mvm.wait_vectors().unwrap(), inv.wait_vector().unwrap())
    };

    assert_eq!(
        run(&plain, None),
        run(&tenanted, Some(TenantId(9))),
        "tenant attribution must not perturb results"
    );
}

/// Conservation on one shard: the per-tenant hardware-counter shares of a
/// two-tenant coalesced batch (and everything else that ran) sum
/// bit-exactly to the global `hw_total` — integer remainder assignment,
/// no lost or invented counts.
#[test]
fn tenant_hw_attribution_is_conservative_one_shard() {
    let (rt, op) = fixture(1, 8, 31);
    let mut rng = random::seeded_rng(32);
    // A two-tenant coalesced batch: 3 riders for tenant 1, 2 for tenant 2,
    // all hydrated into one MvmSet execution whose delta is split 3:2
    // per rider row.
    let handles: Vec<_> = [1, 1, 1, 2, 2]
        .iter()
        .map(|&t| rt.submit_mvm_for(TenantId(t), op, random::normal_vector(&mut rng, 8)).unwrap())
        .collect();
    rt.run_all();
    for h in handles {
        h.wait().unwrap();
    }
    assert_conservation(&rt);
}

/// Conservation across shards: mixed kinds (coalesced MVMs, explicit
/// batches, INV solves) from three tenants over three shards still sum
/// bit-exactly to the global totals.
#[test]
fn tenant_hw_attribution_is_conservative_across_shards() {
    let dim = 6;
    let rt = Runtime::new(3, 2, MacroConfig::small(dim), 41);
    let mut rng = random::seeded_rng(42);
    let mut handles = Vec::new();
    let mut ops = Vec::new();
    for shard in 0..3 {
        let a = random::spd_with_condition(&mut rng, dim, 4.0);
        let (op, loaded) = rt
            .submit_load_for(
                TenantId(shard as u32),
                &a,
                TileMapping::FourBit,
                Placement::Pinned(shard),
            )
            .unwrap();
        rt.run_all();
        loaded.wait().unwrap();
        ops.push(op);
    }
    for (i, &op) in ops.iter().enumerate() {
        let t = TenantId(i as u32);
        handles.push(rt.submit_mvm_for(t, op, random::normal_vector(&mut rng, dim)).unwrap());
        handles.push(
            rt.submit_mvm_for(TenantId(2 - i as u32), op, random::normal_vector(&mut rng, dim))
                .unwrap(),
        );
        let xs: Vec<Vec<f64>> = (0..3).map(|_| random::normal_vector(&mut rng, dim)).collect();
        handles.push(rt.submit_mvm_batch_for(t, op, xs).unwrap());
        handles.push(rt.submit_solve_inv_for(t, op, random::normal_vector(&mut rng, dim)).unwrap());
    }
    rt.run_all();
    for h in handles {
        h.wait().unwrap();
    }
    assert_conservation(&rt);
}

/// Asserts the conservation law: tenant hardware shares sum bit-exactly
/// to `hw_total`, and per-tenant latency counts cover every request.
fn assert_conservation(rt: &Runtime) {
    let snap = rt.metrics_snapshot();
    let mut sum = gramc_runtime::HwSnapshot::default();
    let mut latency_count = 0;
    let mut requests = 0;
    for t in &snap.tenants {
        sum += &t.hw;
        latency_count += t.latency.count;
        requests += t.requests;
    }
    assert!(!snap.hw_total.is_zero(), "the fixture must exercise hardware");
    assert_eq!(sum, snap.hw_total, "tenant hw shares must sum bit-exactly to the global total");
    assert_eq!(
        latency_count, requests,
        "every admitted request records exactly one per-tenant latency sample"
    );
}

/// The journal ring is sizable at construction; an undersized ring
/// surfaces its overwrites as a drop count and drop rate in the metrics
/// stream, and the per-interval drop counter resets between captures.
#[test]
fn journal_capacity_and_drop_rate_are_observable() {
    let rt = Runtime::new(1, 2, MacroConfig::small_ideal(8), 51).with_journal_capacity(32);
    let mut rng = random::seeded_rng(52);
    let a = random::gaussian_matrix(&mut rng, 8, 8);
    let (op, loaded) = rt.submit_load(&a, TileMapping::FourBit, Placement::Pinned(0)).unwrap();
    rt.run_all();
    loaded.wait().unwrap();
    // Each served job emits several journal events; 64 jobs overflow a
    // 32-slot ring many times over.
    for _ in 0..64 {
        let h = rt.submit_mvm_batch(op, vec![random::normal_vector(&mut rng, 8)]).unwrap();
        rt.run_all();
        h.wait().unwrap();
    }
    let snap = rt.metrics_snapshot();
    assert_eq!(snap.journal_capacity, 32);
    assert_eq!(snap.journal_len, 32, "the ring is full");
    assert!(snap.journal_overwritten > 0, "the ring must have wrapped");
    assert_eq!(
        snap.journal_dropped_since_last, snap.journal_overwritten,
        "first capture baselines at zero"
    );
    assert!(snap.to_json().contains("\"drop_rate\""));

    let idle = rt.metrics_snapshot();
    assert_eq!(idle.journal_dropped_since_last, 0, "no new drops between captures");
    assert_eq!(idle.journal_overwritten, snap.journal_overwritten);
}

/// Every coalesced rider keeps its own request id and leaves a linked
/// flow in the chrome trace: a `queued:rider` span, one flow-start and
/// one flow-end record per request id, binding its queue wait to the
/// shared batch execution span.
#[test]
fn coalesced_riders_leave_linked_flow_events() {
    let (rt, op) = fixture(1, 8, 61);
    let mut rng = random::seeded_rng(62);
    let handles: Vec<_> = (0..4)
        .map(|i| {
            rt.submit_mvm_for(TenantId(i % 2), op, random::normal_vector(&mut rng, 8)).unwrap()
        })
        .collect();
    rt.run_all();
    for h in &handles {
        h.wait().unwrap();
    }

    let trace = rt.journal_chrome_trace();
    let count = |needle: &str| trace.matches(needle).count();
    assert_eq!(count("\"queued:mvm_many\""), 1, "one lead queue-wait span per batch");
    assert_eq!(count("\"queued:rider\""), 3, "one rider span per non-lead request");
    assert_eq!(count("\"job:mvm_many\""), 1, "the batch executes once");
    for h in &handles {
        let rid = h.request_id().0;
        assert_eq!(
            count(&format!("\"req\":{rid}}}")),
            1,
            "request {rid} annotates exactly one queue-wait span"
        );
        assert_eq!(
            count(&format!("\"id\":{rid},")),
            2,
            "request {rid} needs a flow start and a flow end"
        );
    }
    // Chrome flow-event grammar: starts and ends pair up.
    assert_eq!(count("\"ph\":\"s\""), count("\"ph\":\"f\""), "unbalanced flow records");
    assert!(trace.contains("\"bp\":\"e\""), "flow ends bind to their enclosing slice");
}

/// Every job kind keeps its label in the metrics and the trace. With a
/// zero residual tolerance every analog answer fails its check, so each
/// compute job runs once, is retried once (a coalesced batch comes back
/// as `mvm_set`) and is then answered digitally; the quarantine threshold
/// is out of reach, so the operator stays analog throughout.
#[test]
fn every_job_kind_keeps_its_label() {
    let dim = 6;
    let health = gramc_runtime::HealthConfig {
        residual_tolerance: Some(0.0),
        quarantine_after: 100,
        max_retries: 1,
        ..gramc_runtime::HealthConfig::default()
    };
    let rt = Runtime::new(1, 4, MacroConfig::small_ideal(dim), 71).with_health_config(health);
    let mut rng = random::seeded_rng(72);
    let a = random::spd_with_condition(&mut rng, dim, 4.0);
    let op = rt.load(&a, TileMapping::FourBit, Placement::Pinned(0)).unwrap();
    let mut x = || random::normal_vector(&mut rng, dim);

    let handles = [
        rt.submit_mvm(op, x()).unwrap(),
        rt.submit_mvm(op, x()).unwrap(),
        rt.submit_mvm_batch(op, vec![x(), x()]).unwrap(),
        rt.submit_solve_inv(op, x()).unwrap(),
        rt.submit_solve_inv_batch(op, vec![x(), x()]).unwrap(),
        rt.submit_solve_pinv_batch(op, vec![x(), x()]).unwrap(),
    ];
    let summary = rt.run_all();
    for h in &handles {
        h.wait().expect("answered digitally once out of retries");
    }
    assert_eq!(summary.failed_checks, 10, "every analog dispatch misses a zero tolerance");
    assert_eq!(summary.degraded, 5, "each compute job ends on the digital path");
    rt.free(op).unwrap();

    let expected = [
        ("mvm_many", 1),
        ("mvm_set", 1),
        ("mvm_batch", 2),
        ("solve_inv", 2),
        ("solve_inv_batch", 2),
        ("solve_pinv_batch", 2),
        ("load", 1),
        ("free", 1),
    ];
    let snap = rt.metrics_snapshot();
    let jobs: Vec<(&str, u64)> = snap.kinds.iter().map(|k| (k.kind, k.jobs)).collect();
    assert_eq!(jobs, expected);
    let trace = rt.journal_chrome_trace();
    for (kind, n) in expected {
        for prefix in ["job", "queued"] {
            let name = format!("\"{prefix}:{kind}\"");
            assert_eq!(trace.matches(&name).count(), n as usize, "{name}");
        }
    }
}
