//! Cross-crate property-based tests: invariants that must hold for arbitrary
//! well-formed inputs.
//!
//! The build environment has no crates.io access, so instead of proptest the
//! cases are drawn from a seeded [`StdRng`] — same invariants, deterministic
//! replay (the failing case is identified by its loop index).

use gramc::array::{ActiveRegion, ArrayConfig, ConductanceMapper, CrossbarArray};
use gramc::circuit::{dc_solve, topology, OpampModel};
use gramc::device::LevelQuantizer;
use gramc::linalg::{lu, qr, svd, vector, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 32;

fn uniform_vec(rng: &mut StdRng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

fn small_matrix(rng: &mut StdRng, n: usize) -> Matrix {
    Matrix::from_vec(n, n, uniform_vec(rng, n * n, -3.0, 3.0))
}

fn diag_dominant(rng: &mut StdRng, n: usize) -> Matrix {
    let mut m = small_matrix(rng, n);
    for i in 0..n {
        let row_sum: f64 = m.row(i).iter().map(|v| v.abs()).sum();
        m[(i, i)] = row_sum + 1.0;
    }
    m
}

#[test]
fn lu_solve_residual_is_small() {
    let mut rng = StdRng::seed_from_u64(0x1001);
    for case in 0..CASES {
        let a = diag_dominant(&mut rng, 6);
        let b = uniform_vec(&mut rng, 6, -5.0, 5.0);
        let x = lu::solve(&a, &b).unwrap();
        let res = vector::rel_error(&a.matvec(&x), &b);
        assert!(res < 1e-9, "case {case}: residual {res}");
    }
}

#[test]
fn lu_inverse_roundtrips() {
    let mut rng = StdRng::seed_from_u64(0x1002);
    for case in 0..CASES {
        let a = diag_dominant(&mut rng, 5);
        let inv = lu::inverse(&a).unwrap();
        assert!(a.matmul(&inv).approx_eq(&Matrix::identity(5), 1e-8), "case {case}: A·A⁻¹ ≠ I");
    }
}

#[test]
fn qr_reconstructs() {
    let mut rng = StdRng::seed_from_u64(0x1003);
    for case in 0..CASES {
        let a = small_matrix(&mut rng, 5);
        if let Ok(qr_dec) = qr::QrDecomposition::new(&a) {
            let rec = qr_dec.q().matmul(&qr_dec.r());
            assert!(rec.approx_eq(&a, 1e-9), "case {case}: QR does not reconstruct");
        }
    }
}

#[test]
fn svd_singular_values_nonneg_and_sorted() {
    let mut rng = StdRng::seed_from_u64(0x1004);
    for case in 0..CASES {
        let a = small_matrix(&mut rng, 5);
        let s = svd::Svd::new(&a).unwrap();
        for w in s.singular_values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "case {case}: unsorted {:?}", s.singular_values);
        }
        assert!(s.singular_values.iter().all(|&v| v >= 0.0), "case {case}");
    }
}

#[test]
fn mapping_roundtrip_bounded_by_half_level() {
    let mut rng = StdRng::seed_from_u64(0x1005);
    let mut tested = 0;
    for case in 0..CASES {
        let a = small_matrix(&mut rng, 6);
        if a.max_abs() <= 1e-6 {
            continue; // the analogue of prop_assume!
        }
        tested += 1;
        let mapper = ConductanceMapper::paper_default();
        let mapped = mapper.map(&a).unwrap();
        let err = (&mapped.dequantize() - &a).max_abs();
        assert!(err <= 0.5 * mapped.scale + 1e-12, "case {case}: error {err}");
    }
    assert!(tested > 0, "all cases were degenerate");
}

#[test]
fn crossbar_fast_path_equals_conductance_matvec() {
    let mut rng = StdRng::seed_from_u64(0x1006);
    for case in 0..CASES {
        let levels: Vec<usize> = (0..9).map(|_| rng.gen_range(0..16usize)).collect();
        let v = uniform_vec(&mut rng, 3, -0.2, 0.2);
        let mut xbar_rng = StdRng::seed_from_u64(42);
        let mut xbar = CrossbarArray::new(ArrayConfig::ideal(3, 3), &mut xbar_rng);
        let q = LevelQuantizer::paper_default();
        let region = ActiveRegion::full(3, 3);
        let targets = Matrix::from_fn(3, 3, |i, j| q.conductance_of(levels[i * 3 + j]));
        xbar.program_direct(region, &targets, &q, 0.0, &mut xbar_rng).unwrap();
        let drive = Matrix::from_rows(&[v.as_slice()]);
        let i_fast =
            xbar.row_currents_batch(region, &drive, &mut xbar_rng).unwrap().row(0).to_vec();
        let i_ref = targets.matvec(&v);
        for (a, b) in i_fast.iter().zip(&i_ref) {
            assert!((a - b).abs() < 1e-12, "case {case}: {i_fast:?} vs {i_ref:?}");
        }
    }
}

#[test]
fn inv_circuit_solves_diag_dominant() {
    let mut rng = StdRng::seed_from_u64(0x1007);
    for case in 0..CASES {
        let a = diag_dominant(&mut rng, 4);
        let b = uniform_vec(&mut rng, 4, -1.0, 1.0);
        // Map to conductances and solve through the MNA; compare digital.
        let unit = 40e-6;
        let floor = 1e-6;
        let g_pos = a.map(|x| if x > 0.0 { x * unit + floor } else { floor });
        let g_neg = a.map(|x| if x < 0.0 { -x * unit + floor } else { floor });
        let v_unit = 0.05;
        let i_in: Vec<f64> = b.iter().map(|bi| -unit * bi * v_unit).collect();
        let t = topology::build_inv(&g_pos, &g_neg, &i_in, OpampModel::ideal()).unwrap();
        let sol = dc_solve(&t.circuit).unwrap();
        let x: Vec<f64> = sol.voltages(&t.x_nodes).iter().map(|v| v / v_unit).collect();
        let x_ref = lu::solve(&a, &b).unwrap();
        for (u, w) in x.iter().zip(&x_ref) {
            assert!((u - w).abs() < 1e-6, "case {case}: {x:?} vs {x_ref:?}");
        }
    }
}

#[test]
fn softmax_is_a_distribution() {
    let mut rng = StdRng::seed_from_u64(0x1008);
    for case in 0..CASES {
        let n = rng.gen_range(1..12usize);
        let xs = uniform_vec(&mut rng, n, -20.0, 20.0);
        let p = gramc::core::softmax(&xs);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "case {case}: sum {sum}");
        assert!(p.iter().all(|&v| v >= 0.0), "case {case}");
    }
}

#[test]
fn dac_adc_roundtrip_error_bounded() {
    let mut rng = StdRng::seed_from_u64(0x1009);
    for case in 0..CASES {
        let x = rng.gen_range(-1.0..1.0f64);
        let dac = gramc::core::Dac::new(8, 0.2);
        let adc = gramc::core::Adc::new(10, 0.2);
        let v = dac.convert(x);
        let back = adc.convert(v);
        assert!((back - x).abs() <= 1.0 / 127.0 + 1.0 / 511.0, "case {case}: {back} vs {x}");
    }
}
