//! `serve_mvm`: a closed loop of 2 clients against a persistent
//! `RuntimeServer` on 2 shards of 64×64 ideal macros, four resident 64×64
//! operators (two per shard). Each request is one `submit_mvm` to a
//! seeded-random operator; a client submits a burst of [`DEPTH`] requests,
//! then waits for each in order, so requests queue and coalesce. Every
//! answer is checked against `Matrix::matvec` on the original matrix.

use gramc_core::tiling::TileMapping;
use gramc_core::MacroConfig;
use gramc_linalg::{random, Matrix};
use gramc_runtime::{OperatorHandle, Placement, Runtime};
use rand::Rng;

use crate::harness::{closed_loop, rel_error, span, ClientCtx, Served};
use crate::trace::{now_ns, ROOT};
use crate::Outcome;

const N: usize = 64;
const SHARDS: usize = 2;
const OPERATORS: usize = 4;
const CLIENTS: usize = 2;
/// Requests a client has in flight: it submits this many, then waits for
/// each. With one request in flight every request cost two thread
/// hand-offs, whose cost on a shared virtual machine swung by half from
/// one second to the next; a burst shares them among its requests.
pub const DEPTH: usize = 8;
/// Input vectors per operator, each with its precomputed digital answer.
const POOL: usize = 64;
/// The served operators are fixed; the seed picks the requests.
const OPERATOR_SEED: u64 = 5;
/// Condition number of the served operators.
const COND: f64 = 4.0;
/// 8-bit ideal macros: served answers sit below 1 % relative error.
pub const TOLERANCE: f64 = 0.05;

pub fn config() -> MacroConfig {
    MacroConfig::small_ideal(N)
}

/// Runtime construction, server start and operator programming, up to
/// the first servable request.
fn build(seed: u64, mats: &[Matrix]) -> Result<Served<Vec<OperatorHandle>>, String> {
    let rt = Runtime::new(SHARDS, 2 * OPERATORS / SHARDS, config(), seed);
    Served::start(rt, |rt| {
        let mut ops = Vec::with_capacity(mats.len());
        let mut loads = Vec::with_capacity(mats.len());
        for (k, a) in mats.iter().enumerate() {
            let (op, h) = rt
                .submit_load(a, TileMapping::FourBit, Placement::Pinned(k % SHARDS))
                .map_err(|e| format!("load failed: {e}"))?;
            ops.push(op);
            loads.push(h);
        }
        for h in loads {
            h.wait().map_err(|e| format!("load failed: {e}"))?;
        }
        Ok(ops)
    })
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    // Well-conditioned operators (singular values log-spaced over
    // [1/COND, 1]): no input direction shrinks the answer toward zero, so
    // the relative error of one request cannot blow up.
    let mut op_rng = random::seeded_rng(OPERATOR_SEED);
    let spectrum: Vec<f64> =
        (0..N).map(|i| (-(i as f64) / (N as f64 - 1.0) * COND.ln()).exp()).collect();
    let mats: Vec<Matrix> = (0..OPERATORS)
        .map(|_| {
            let u = random::random_orthogonal(&mut op_rng, N);
            let v = random::random_orthogonal(&mut op_rng, N);
            u.matmul(&Matrix::from_diag(&spectrum)).matmul(&v.transpose())
        })
        .collect();
    let mut rng = random::seeded_rng(seed);
    let pool: Vec<Vec<(Vec<f64>, Vec<f64>)>> = mats
        .iter()
        .map(|a| {
            (0..POOL)
                .map(|_| {
                    let x = random::normal_vector(&mut rng, N);
                    let y = a.matvec(&x);
                    (x, y)
                })
                .collect()
        })
        .collect();

    let mut out = Outcome::default();
    let runs = crate::sub_runs(trace, false);
    for k in 0..runs {
        let served = crate::timed_setup(&mut out.setup_s, || build(seed, &mats))?;
        let (rt, ops) = (&served.rt, &served.ops);
        let burst = |ctx: &mut ClientCtx| {
            let mut inflight = Vec::with_capacity(DEPTH);
            for _ in 0..DEPTH {
                let i = ctx.rng.gen_range(0..OPERATORS);
                let (x, want) = &pool[i][ctx.rng.gen_range(0..POOL)];
                let x = x.clone();
                let req = ctx.req_id();
                let t0 = now_ns();
                let root = ctx.log.as_mut().map_or(ROOT, |l| l.open("request.mvm", req, ROOT, t0));
                let h = span(ctx, "runtime.submit", req, root, || rt.submit_mvm(ops[i], x));
                inflight.push((req, root, t0, want, h));
            }
            for (req, root, t0, want, h) in inflight {
                let answer = match h {
                    Ok(h) => span(ctx, "runtime.wait", req, root, || h.wait_vector()),
                    Err(e) => Err(e),
                };
                let t2 = now_ns();
                let checked = span(ctx, "check.matvec", req, root, || {
                    answer.map(|y| rel_error(&y, want)).map_err(|_| ())
                });
                if let Some(log) = ctx.log.as_mut() {
                    log.close(root, now_ns());
                }
                ctx.finish(t2 - t0, checked, TOLERANCE, 1);
            }
        };
        let traced = crate::traced_window(trace, k);
        let window = seconds / runs as f64;
        out.push(closed_loop(rt, CLIENTS, window, seed ^ k as u64, traced, burst));
        served.shutdown()?;
    }
    Ok(out)
}
