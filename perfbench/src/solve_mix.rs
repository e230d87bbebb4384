//! `solve_mix`: a closed loop of 2 clients, each pinned to its own shard,
//! over macros with the paper's non-idealities and pulse-level
//! write-verify programming. Setup write-verifies one 32×32 SPD operator
//! and one 64×32 tall operator per shard. Requests mix INV
//! (`submit_solve_inv`), PINV (`submit_solve_pinv_batch`, one column) and
//! MVM on the INV operator, reconfiguring the same macros between modes.
//! Answers are checked against `LuDecomposition::solve`,
//! `qr::least_squares` and `Matrix::matvec` on the original matrices.

use gramc_core::tiling::TileMapping;
use gramc_core::{MacroConfig, NonidealityConfig};
use gramc_linalg::{qr, random, LuDecomposition, Matrix};
use gramc_runtime::{OperatorHandle, Placement, Runtime};
use rand::Rng;

use crate::harness::{closed_loop, rel_error, span, ClientCtx, Served};
use crate::trace::{now_ns, ROOT};
use crate::Outcome;

const SHARDS: usize = 2;
const N: usize = 32;
const TALL: usize = 64;
/// Condition number of the SPD operators.
const COND: f64 = 4.0;
/// Right-hand sides per request kind, each with its digital answer.
const POOL: usize = 32;
/// The request mix, 40 % INV, 30 % PINV, 30 % MVM (kind indices into
/// [`KIND_NAMES`]). Each client walks it from its own offset, so every run
/// serves the same proportions.
const MIX: [usize; 10] = [0, 1, 2, 0, 2, 1, 0, 0, 2, 1];
/// The served operators are fixed; the seed picks the right-hand sides.
const OPERATOR_SEED: u64 = 11;
/// 4-bit weights, read noise, write-verify residual and finite op-amp
/// gain put served answers near 5–20 % relative error.
pub const TOLERANCE: f64 = 0.6;

/// Linalg kernel threads per caller (`GRAMC_THREADS`). One per serving
/// worker: the two workers already fill both CPUs, and per-call kernel
/// fan-out on top of them made throughput swing by a third between runs.
///
/// This workload runs on every CPU the process may use, unlike the other
/// two, which are pinned to one: its two workers are busy with
/// millisecond-long solves and rarely park, so cross-CPU wake-ups are a
/// small share of a request. On one CPU the idle worker's yield-and-sleep
/// polling took half the CPU from the busy one and a tenth of the requests
/// waited over 50 ms.
pub const KERNEL_THREADS: &str = "1";

pub const KIND_NAMES: [&str; 3] = ["inv", "pinv", "mvm"];
const REQUEST_SPANS: [&str; 3] = ["request.inv", "request.pinv", "request.mvm"];

/// The macros' configuration: paper non-idealities, pulse write-verify.
pub fn config() -> MacroConfig {
    MacroConfig {
        nonideal: NonidealityConfig::paper_default().with_pulse_programming(),
        ..MacroConfig::small(TALL)
    }
}

/// The same macros programmed directly (for read-path replays, whose
/// cost does not depend on how the cells were written).
pub fn read_config() -> MacroConfig {
    MacroConfig { nonideal: NonidealityConfig::paper_default(), ..MacroConfig::small(TALL) }
}

struct ShardOps {
    inv: OperatorHandle,
    pinv: OperatorHandle,
}

/// Inputs of one request kind, each with its digital answer.
type Pool = Vec<(Vec<f64>, Vec<f64>)>;

struct Inputs {
    inv: Vec<Matrix>,
    tall: Vec<Matrix>,
    /// Per shard: (b, x_ref) for INV, (b, x_ref) for PINV, (x, y_ref) for MVM.
    pools: Vec<[Pool; 3]>,
}

fn inputs(seed: u64) -> Inputs {
    let mut op_rng = random::seeded_rng(OPERATOR_SEED);
    let mut rng = random::seeded_rng(seed);
    let mut inv = Vec::new();
    let mut tall = Vec::new();
    let mut pools = Vec::new();
    for _ in 0..SHARDS {
        let a = random::spd_with_condition(&mut op_rng, N, COND);
        let t = random::gaussian_matrix(&mut op_rng, TALL, N);
        let lu = LuDecomposition::new(&a).expect("SPD operator is non-singular");
        let inv_pool = (0..POOL)
            .map(|_| {
                let b = random::normal_vector(&mut rng, N);
                let x = lu.solve(&b).expect("SPD solve");
                (b, x)
            })
            .collect();
        let pinv_pool = (0..POOL)
            .map(|_| {
                // A consistent system plus a small residual component.
                let x0 = random::normal_vector(&mut rng, N);
                let b: Vec<f64> = t
                    .matvec(&x0)
                    .iter()
                    .map(|v| v + 0.1 * random::standard_normal(&mut rng))
                    .collect();
                let x = qr::least_squares(&t, &b).expect("full-rank tall operator");
                (b, x)
            })
            .collect();
        let mvm_pool = (0..POOL)
            .map(|_| {
                let x = random::normal_vector(&mut rng, N);
                let y = a.matvec(&x);
                (x, y)
            })
            .collect();
        pools.push([inv_pool, pinv_pool, mvm_pool]);
        inv.push(a);
        tall.push(t);
    }
    Inputs { inv, tall, pools }
}

/// Runtime construction, server start and write-verify programming of
/// every operator, up to the first servable request.
fn build(seed: u64, inp: &Inputs) -> Result<Served<Vec<ShardOps>>, String> {
    Served::start(Runtime::new(SHARDS, 2, config(), seed), |rt| {
        let mut ops = Vec::new();
        let mut loads = Vec::new();
        for s in 0..SHARDS {
            let load = |a: &Matrix| {
                rt.submit_load(a, TileMapping::FourBit, Placement::Pinned(s))
                    .map_err(|e| e.to_string())
            };
            let (inv, h1) = load(&inp.inv[s])?;
            let (pinv, h2) = load(&inp.tall[s])?;
            ops.push(ShardOps { inv, pinv });
            loads.push(h1);
            loads.push(h2);
        }
        for h in loads {
            h.wait().map_err(|e| format!("write-verify load failed: {e}"))?;
        }
        Ok(ops)
    })
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let inp = inputs(seed);
    let mut out = Outcome::default();
    let runs = crate::sub_runs(trace, true);
    for k in 0..runs {
        let served = crate::timed_setup(&mut out.setup_s, || build(seed, &inp))?;
        let (rt, ops) = (&served.rt, &served.ops);
        let request = |ctx: &mut ClientCtx| {
            // Clients are pinned to their own shard, so each shard's
            // program order (and every noisy answer) is fixed by the seed.
            let s = ctx.client % SHARDS;
            let req = ctx.req_id();
            let kind = MIX[(ctx.client * 3 + (req & 0xFFFF_FFFF) as usize) % MIX.len()];
            let (input, want) = &inp.pools[s][kind][ctx.rng.gen_range(0..POOL)];
            let input = input.clone();
            let t0 = now_ns();
            let root =
                ctx.log.as_mut().map_or(ROOT, |l| l.open(REQUEST_SPANS[kind], req, ROOT, t0));
            let submitted = span(ctx, "runtime.submit", req, root, || match kind {
                0 => rt.submit_solve_inv(ops[s].inv, input),
                1 => rt.submit_solve_pinv_batch(ops[s].pinv, vec![input]),
                _ => rt.submit_mvm(ops[s].inv, input),
            });
            let answer = match submitted {
                Ok(h) => span(ctx, "runtime.wait", req, root, || match kind {
                    1 => h.wait_vectors().map(|mut v| v.pop().unwrap_or_default()),
                    _ => h.wait_vector(),
                })
                .map_err(|_| ()),
                Err(_) => Err(()),
            };
            let t2 = now_ns();
            let checked =
                span(ctx, "check.reference", req, root, || answer.map(|x| rel_error(&x, want)));
            if let Some(log) = ctx.log.as_mut() {
                log.close(root, now_ns());
            }
            ctx.kinds[kind] += 1;
            ctx.finish(t2 - t0, checked, TOLERANCE, 1);
        };
        let traced = crate::traced_window(trace, k);
        let window = seconds / runs as f64;
        out.push(closed_loop(rt, SHARDS, window, seed ^ k as u64, traced, request));
        served.shutdown()?;
    }
    Ok(out)
}
