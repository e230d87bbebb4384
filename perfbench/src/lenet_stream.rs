//! `lenet_stream`: one caller streams 64-image batches of seeded
//! `DigitsDataset` digits through `RuntimeLenet::logits_matrix` (INT4,
//! quantization-only macros, one shard). Every batch's logits are checked
//! against the software `LeNet5` forward of the same model.

use std::time::Instant;

use gramc_core::tiling::TileMapping;
use gramc_core::{MacroConfig, NonidealityConfig};
use gramc_data::DigitsDataset;
use gramc_linalg::{random, Matrix};
use gramc_nn::{LeNet5, Precision, RuntimeLenet, Tensor3};
use gramc_runtime::Placement;
use rand::Rng;

use crate::harness::{cpu_ticks, rel_error, steal_frac, ClientCtx, Phase, RtCut};
use crate::trace::{now_ns, SpanLog, ROOT};
use crate::Outcome;

pub const BATCH: usize = 64;
/// Distinct batches in the input pool, each with its software logits.
const POOL_BATCHES: usize = 8;
/// One shard: the process runs on one CPU, where a second shard gains
/// nothing and each drain would spawn a worker that polls (yields and
/// sleeps) while the other works. Every job runs on the calling thread.
const SHARDS: usize = 1;
const MACROS_PER_SHARD: usize = 16;
/// The served network is fixed; the seed only picks the images.
const MODEL_SEED: u64 = 7;
/// INT4 weights against float software logits.
pub const TOLERANCE: f64 = 0.5;

pub fn config() -> MacroConfig {
    MacroConfig { nonideal: NonidealityConfig::quantization_only(4), ..MacroConfig::default() }
}

pub fn model() -> LeNet5 {
    LeNet5::new(&mut random::seeded_rng(MODEL_SEED))
}

/// The input pool: `POOL_BATCHES` batches of rendered digits.
fn batches(seed: u64) -> Vec<Vec<Tensor3>> {
    let mut rng = random::seeded_rng(seed);
    let data = DigitsDataset::generate(&mut rng, 0, POOL_BATCHES * BATCH);
    data.test
        .chunks(BATCH)
        .map(|c| c.iter().map(|d| Tensor3::from_vec(1, 28, 28, d.pixels.clone())).collect())
        .collect()
}

fn frobenius_rel_error(got: &Matrix, want: &[Vec<f64>]) -> f64 {
    if got.rows() != want.len() {
        return f64::INFINITY;
    }
    let flat: Vec<f64> = want.iter().flatten().copied().collect();
    rel_error(got.as_slice(), &flat)
}

fn phase(
    net: &mut RuntimeLenet,
    pool: &[(Vec<Tensor3>, Vec<Vec<f64>>)],
    seconds: f64,
    seed: u64,
    traced: bool,
) -> Phase {
    let mut ctx = ClientCtx::new(0, seed, traced);
    let before = RtCut::take(net.runtime());
    let ticks = cpu_ticks();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let (images, want) = &pool[ctx.rng.gen_range(0..pool.len())];
        let req = ctx.req_id();
        let t0 = now_ns();
        let root = ctx.log.as_mut().map_or(ROOT, |l| l.open("request.batch", req, ROOT, t0));
        let logits = net.logits_matrix(images);
        let t1 = now_ns();
        let checked = logits.map(|l| frobenius_rel_error(&l, want)).map_err(|_| ());
        let t2 = now_ns();
        if let Some(log) = ctx.log.as_mut() {
            log.record("nn.logits_matrix", req, root, t0, t1);
            log.record("check.software_forward", req, root, t1, t2);
            log.close(root, t2);
        }
        ctx.finish(t1 - t0, checked, TOLERANCE, BATCH as u64);
    }
    let mut p = Phase {
        traced,
        wall_s: start.elapsed().as_secs_f64(),
        steal_frac: steal_frac(ticks, cpu_ticks()),
        ..Phase::default()
    };
    p.rt = RtCut::take(net.runtime()).since(&before);
    p.absorb(ctx);
    p
}

/// Times the runtime's public submit and wait calls at the fc2 job shape
/// (64-row batch MVM) on the network's own runtime: the LeNet path makes
/// these calls inside `gramc-nn`, where the benchmark cannot put spans.
fn runtime_probe(net: &RuntimeLenet, w: &Matrix, seed: u64) -> Result<SpanLog, String> {
    const REPS: usize = 40;
    let rt = net.runtime();
    let mut rng = random::seeded_rng(seed);
    let xs: Vec<Vec<f64>> =
        (0..BATCH).map(|_| random::uniform_vector(&mut rng, w.cols(), 0.0, 1.0)).collect();
    let op = rt.load(w, TileMapping::FourBit, Placement::LeastLoaded).map_err(|e| e.to_string())?;
    let mut log = SpanLog::with_capacity(4 * REPS);
    for i in 0..REPS {
        let req = i as u64 + 1;
        let t0 = now_ns();
        let root = log.open("replay.runtime_mvm_batch", req, ROOT, t0);
        let h = log.time("runtime.submit", req, root, || rt.submit_mvm_batch(op, xs.clone()));
        let h = h.map_err(|e| e.to_string())?;
        let out = log.time("runtime.wait", req, root, || {
            rt.run_all();
            h.wait_vectors()
        });
        out.map_err(|e| e.to_string())?;
        log.close(root, now_ns());
    }
    rt.free(op).map_err(|e| e.to_string())?;
    Ok(log)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut reference = model();
    let pool: Vec<(Vec<Tensor3>, Vec<Vec<f64>>)> = batches(seed)
        .into_iter()
        .map(|b| {
            let want = b.iter().map(|img| reference.forward(img)).collect();
            (b, want)
        })
        .collect();

    let mut out = Outcome::default();
    let runs = crate::sub_runs(trace, false);
    for k in 0..runs {
        let mut net = crate::timed_setup(&mut out.setup_s, || {
            RuntimeLenet::new(model(), Precision::Int4, config(), SHARDS, MACROS_PER_SHARD, seed)
                .map_err(|e| e.to_string())
        })?;
        let traced = crate::traced_window(trace, k);
        out.push(phase(&mut net, &pool, seconds / runs as f64, seed ^ k as u64, traced));
        if trace && k + 1 == runs {
            out.extra_logs.push(runtime_probe(&net, &reference.fc2.weights, seed)?);
        }
    }
    Ok(out)
}
