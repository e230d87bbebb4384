//! Per-layer replays for the traced run: each public call into one layer
//! below the runtime, timed on standalone objects built with the
//! workload's macro configuration and seed. Every replay is a span under
//! a `replay.<layer>` root, and each metric is the median over its
//! repetitions.

use std::hint::black_box;

use gramc_array::{
    ActiveRegion, ArrayConfig, ConductanceMapper, CrossbarArray, WriteVerifyController,
};
use gramc_circuit::topology::{build_inv, build_pinv};
use gramc_circuit::{DcOperator, OpampModel};
use gramc_core::tiling::{TileMapping, TiledOperator};
use gramc_core::{MacroConfig, MacroGroup};
use gramc_linalg::{parallel, random, LuDecomposition, Matrix};
use gramc_nn::layers::im2col_rows_into;
use gramc_nn::{GramcLenet, LeNet5, Precision, Tensor3};
use gramc_runtime::LatencyHistogram;
use rand::Rng;

use crate::lenet_stream::BATCH;
use crate::trace::{now_ns, SpanLog, ROOT};
use crate::Metric;

/// What a workload's replays run on.
pub struct ProbeSpec {
    /// Macro configuration of the read paths (direct programming).
    pub cfg: MacroConfig,
    /// The workload's own configuration, for programming cost.
    pub load_cfg: MacroConfig,
    /// Shape of the workload's primary operator.
    pub op_shape: (usize, usize),
    pub seed: u64,
}

/// The LeNet-5 layers as (name, weights, drive rows per 64-image batch).
fn lenet_layers(model: &LeNet5) -> [(&'static str, &Matrix, usize); 5] {
    [
        ("conv1", &model.conv1.weights, BATCH * 576),
        ("conv2", &model.conv2.weights, BATCH * 64),
        ("fc1", &model.fc1.weights, BATCH),
        ("fc2", &model.fc2.weights, BATCH),
        ("fc3", &model.fc3.weights, BATCH),
    ]
}

struct Replay<'a> {
    log: &'a mut SpanLog,
    out: Vec<Metric>,
}

impl Replay<'_> {
    /// Median wall time of `reps` calls of `f` in nanoseconds, after one
    /// untimed warm-up call when `warm`.
    fn median_ns(
        &mut self,
        name: &'static str,
        reps: usize,
        warm: bool,
        mut f: impl FnMut(),
    ) -> f64 {
        if warm {
            f();
        }
        let root = self.log.open(name, 0, ROOT, now_ns());
        let mut t: Vec<u64> = (0..reps)
            .map(|i| {
                let t0 = now_ns();
                f();
                let t1 = now_ns();
                self.log.record(name, i as u64 + 1, root, t0, t1);
                t1 - t0
            })
            .collect();
        self.log.close(root, now_ns());
        t.sort_unstable();
        t[t.len() / 2] as f64
    }

    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.out.push(Metric { name: name.into(), value, unit });
    }
}

fn uniform_matrix(rng: &mut impl Rng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen::<f64>())
}

/// Differential conductances (siemens, 1–100 µS) of a signed matrix.
fn conductance_pair(a: &Matrix) -> (Matrix, Matrix) {
    let scale = a.as_slice().iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    let g = |v: f64| 1e-6 + 99e-6 * v / scale;
    let (r, c) = a.shape();
    (
        Matrix::from_fn(r, c, |i, j| g(a[(i, j)].max(0.0))),
        Matrix::from_fn(r, c, |i, j| g((-a[(i, j)]).max(0.0))),
    )
}

/// Runs every replay and returns the per-layer metrics it measures.
pub fn replay(spec: &ProbeSpec, model: &LeNet5, log: &mut SpanLog) -> Result<Vec<Metric>, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut r = Replay { log, out: Vec::new() };
    let mut rng = random::seeded_rng(spec.seed ^ 0x5EED);
    let (rows, cols) = spec.op_shape;
    let a = random::gaussian_matrix(&mut rng, rows, cols);
    let spd = random::spd_with_condition(&mut rng, 32, 4.0);
    let tall = random::gaussian_matrix(&mut rng, 64, 32);

    // ── core: single MVM, INV and PINV solves, operator programming.
    let mut group = MacroGroup::new(4, spec.cfg.clone(), spec.seed);
    let op = group.load_matrix(&a).map_err(|e| err(&e))?;
    let x = random::normal_vector(&mut rng, cols);
    let t = r.median_ns("replay.core.mvm", 300, true, || {
        black_box(group.mvm(op, &x).expect("replayed mvm"));
    });
    r.push("core.mvm_us", t / 1e3, "us");
    let inv = group.load_matrix(&spd).map_err(|e| err(&e))?;
    let b = random::normal_vector(&mut rng, 32);
    let t = r.median_ns("replay.core.solve_inv", 30, true, || {
        black_box(group.solve_inv(inv, &b).expect("replayed INV solve"));
    });
    r.push("core.solve_inv_us", t / 1e3, "us");
    let pinv = group.load_matrix(&tall).map_err(|e| err(&e))?;
    // A consistent least-squares system plus a small residual, as served.
    let x0 = random::normal_vector(&mut rng, 32);
    let bt: Vec<Vec<f64>> = vec![tall
        .matvec(&x0)
        .iter()
        .map(|v| v + 0.1 * random::standard_normal(&mut rng))
        .collect()];
    let t = r.median_ns("replay.core.solve_pinv", 30, true, || {
        black_box(group.solve_pinv_batch(pinv, &bt).expect("replayed PINV solve"));
    });
    r.push("core.solve_pinv_us", t / 1e3, "us");
    // Fresh macros per load: re-programming cells that already hold the
    // targets would verify without a single pulse.
    let pulsed = matches!(spec.load_cfg.nonideal.programming, gramc_core::ProgrammingMode::Pulse);
    let reps = if pulsed { 3 } else { 20 };
    let mut loaders: Vec<MacroGroup> = (0..reps)
        .map(|i| MacroGroup::new(2, spec.load_cfg.clone(), spec.seed + i as u64))
        .collect();
    let mut next = loaders.iter_mut();
    let t = r.median_ns("replay.core.load_matrix", reps, false, || {
        let g = next.next().expect("one fresh group per repetition");
        black_box(g.load_matrix(&a).expect("replayed load"));
    });
    drop(loaders);
    r.push("core.load_matrix_ms", t / 1e6, "ms");

    // ── core + linalg at every LeNet layer shape (one 64-image batch).
    let mut lenet_group = MacroGroup::new(32, spec.cfg.clone(), spec.seed);
    let mut core_batch_ns = 0.0;
    for (name, w, drive_rows) in lenet_layers(model) {
        let drive = uniform_matrix(&mut rng, drive_rows, w.cols());
        let mut tiled = None;
        let load_ns = r.median_ns("replay.core.tile_load", 3, false, || {
            if let Some(mut t) = tiled.take() {
                TiledOperator::free(&mut t, &mut lenet_group).expect("free tiles");
            }
            tiled = Some(
                TiledOperator::load(&mut lenet_group, w, TileMapping::FourBit).expect("tile load"),
            );
        });
        let mut tiled = tiled.expect("tiles loaded");
        let t = r.median_ns("replay.core.mvm_batch_rows", 5, true, || {
            black_box(tiled.mvm_batch_rows(&mut lenet_group, &drive).expect("replayed batch"));
        });
        tiled.free(&mut lenet_group).map_err(|e| err(&e))?;
        core_batch_ns += load_ns + t;
        r.push(format!("core.mvm_batch_rows_us.{name}"), t / 1e3, "us");
        let wt = w.transpose();
        let t = r.median_ns("replay.linalg.matmul", 5, true, || {
            black_box(drive.matmul(&wt));
        });
        r.push(format!("linalg.matmul_us.{name}"), t / 1e3, "us");
    }

    // ── nn: im2col of one batch, and the whole standalone pipeline.
    let images: Vec<Tensor3> = (0..BATCH)
        .map(|_| Tensor3::from_vec(1, 28, 28, (0..784).map(|_| rng.gen::<f64>()).collect()))
        .collect();
    let fmap: Vec<f64> = (0..6 * 12 * 12).map(|_| rng.gen::<f64>()).collect();
    let mut d1 = Matrix::zeros(BATCH * 576, 25);
    let mut d2 = Matrix::zeros(BATCH * 64, 150);
    let t = r.median_ns("replay.nn.im2col", 9, true, || {
        for (i, img) in images.iter().enumerate() {
            im2col_rows_into(img.as_slice(), 1, 28, 28, 5, &mut d1, i * 576);
        }
        for i in 0..BATCH {
            im2col_rows_into(&fmap, 6, 12, 12, 5, &mut d2, i * 64);
        }
        black_box((&d1, &d2));
    });
    r.push("nn.im2col_us", t / 1e3, "us");
    let mut standalone =
        GramcLenet::new(model.clone(), Precision::Int4, spec.cfg.clone(), 32, spec.seed)
            .map_err(|e| err(&e))?;
    let t = r.median_ns("replay.nn.gramc_lenet_batch", 3, true, || {
        black_box(standalone.logits_matrix(&images).expect("standalone LeNet batch"));
    });
    r.push("nn.batch_us", t / 1e3, "us");
    r.push("nn.digital_us", (t - core_batch_ns) / 1e3, "us");

    // ── array: batched crossbar read, write-verify of one 32×32 plane.
    let noisy = spec.cfg.nonideal.read_noise_rel > 0.0;
    let acfg = if noisy { ArrayConfig::small(rows, cols) } else { ArrayConfig::ideal(rows, cols) };
    let array = CrossbarArray::new(acfg, &mut rng);
    let region = ActiveRegion::full(rows, cols);
    let v = uniform_matrix(&mut rng, BATCH, cols);
    let mut read_rng = random::seeded_rng(spec.seed);
    let t = r.median_ns("replay.array.row_currents_batch", 100, true, || {
        black_box(array.row_currents_batch(region, &v, &mut read_rng).expect("replayed read"));
    });
    r.push("array.row_currents_batch_us", t / 1e3, "us");
    // The positive level plane of the 32×32 SPD operator, written into
    // fresh arrays.
    let wv = WriteVerifyController::paper_default();
    let targets =
        ConductanceMapper::paper_default().map(&spd).map_err(|e| err(&e))?.positive.to_targets();
    let mut planes: Vec<CrossbarArray> =
        (0..3).map(|_| CrossbarArray::new(ArrayConfig::small(32, 32), &mut rng)).collect();
    let mut next = planes.iter_mut();
    let (mut pulses, mut cells, mut failures) = (0usize, 0usize, 0usize);
    let mut wv_rng = random::seeded_rng(spec.seed);
    let t = r.median_ns("replay.array.program_region", 3, false, || {
        let plane = next.next().expect("one fresh plane per repetition");
        let rep = wv
            .program_region_lossy(plane, ActiveRegion::full(32, 32), &targets, &mut wv_rng)
            .expect("replayed write-verify");
        pulses += rep.total_pulses;
        cells += rep.cells.len();
        failures += rep.failures;
    });
    r.push("array.program_region_ms", t / 1e6, "ms");
    r.push("array.pulses_per_cell", pulses as f64 / cells as f64, "count");
    r.push("array.verify_failure_frac", failures as f64 / cells as f64, "fraction");

    // ── circuit: MNA factor and solve of the INV and PINV topologies.
    let model_amp = OpampModel::with_gain(1e4);
    let (gp, gn) = conductance_pair(&spd);
    let mut inv_topo = build_inv(&gp, &gn, &[0.0; 32], model_amp).map_err(|e| err(&e))?;
    let t = r.median_ns("replay.circuit.dc_factor.inv", 20, true, || {
        black_box(DcOperator::new(&inv_topo.circuit).expect("INV factor"));
    });
    r.push("circuit.dc_factor_us.inv", t / 1e3, "us");
    let dc = DcOperator::new(&inv_topo.circuit).map_err(|e| err(&e))?;
    for (k, &src) in inv_topo.input_sources.iter().enumerate() {
        inv_topo.circuit.set_current(src, 1e-6 * b[k]);
    }
    let t = r.median_ns("replay.circuit.dc_solve.inv", 50, true, || {
        black_box(dc.solve_circuit(&inv_topo.circuit).expect("INV solve"));
    });
    r.push("circuit.dc_solve_us.inv", t / 1e3, "us");
    let (gp, gn) = conductance_pair(&tall);
    let i_b: Vec<f64> = bt[0].iter().map(|v| 1e-6 * v).collect();
    let pinv_topo = build_pinv(&gp, &gn, &i_b, 50e-6, model_amp).map_err(|e| err(&e))?;
    let t = r.median_ns("replay.circuit.dc_factor.pinv", 10, true, || {
        black_box(DcOperator::new(&pinv_topo.circuit).expect("PINV factor"));
    });
    r.push("circuit.dc_factor_us.pinv", t / 1e3, "us");
    let dc = DcOperator::new(&pinv_topo.circuit).map_err(|e| err(&e))?;
    let t = r.median_ns("replay.circuit.dc_solve.pinv", 30, true, || {
        black_box(dc.solve_circuit(&pinv_topo.circuit).expect("PINV solve"));
    });
    r.push("circuit.dc_solve_us.pinv", t / 1e3, "us");

    // ── linalg: LU at n = 32 and the per-call thread fan-out.
    let t = r.median_ns("replay.linalg.lu_factor", 200, true, || {
        black_box(LuDecomposition::new(&spd).expect("LU of SPD"));
    });
    r.push("linalg.lu_factor_us", t / 1e3, "us");
    let items = [1u64, 2, 3, 4];
    let t = r.median_ns("replay.linalg.fanout", 200, true, || {
        black_box(parallel::map_collect(&items, |x| x + 1));
    });
    r.push("linalg.fanout_us", t / 1e3, "us");

    // ── telemetry: one histogram record.
    const RECORDS: u64 = 200_000;
    let hist = LatencyHistogram::new();
    let t = r.median_ns("replay.telemetry.record", 5, true, || {
        for i in 0..RECORDS {
            hist.record_ns(black_box(i));
        }
    });
    r.push("telemetry.record_ns", t / RECORDS as f64, "ns");
    Ok(r.out)
}
