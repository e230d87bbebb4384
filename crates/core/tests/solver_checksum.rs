//! Bit-level pin of the one-step solvers at the shapes the served solver
//! workload uses: a 32×32 INV operator and a 64×32 PINV operator, with the
//! paper's non-idealities (read noise, finite op-amp gain, offsets, 8-bit
//! DAC, 10-bit ADC).
//!
//! Every answer is ADC-quantized, so rounding-level changes inside the MNA
//! solve wash out, while anything that moves an answer by a conversion
//! level changes the checksum. The run mixes the single-RHS wrappers with
//! one- and multi-column batches, so it also pins that `solve_inv` /
//! `solve_pinv` and their batch forms draw the same noise and settle the
//! same way. Regenerate the constants only after an intentional numerics
//! change, by running the test and copying the reported values.

use gramc_core::{MacroConfig, MacroGroup, NonidealityConfig};
use gramc_linalg::{random, Matrix};

const N: usize = 32;
const TALL: usize = 64;

/// A consistent least-squares system plus a small residual component.
fn pinv_rhs(t: &Matrix, rng: &mut impl rand::Rng) -> Vec<f64> {
    let x0 = random::normal_vector(rng, N);
    t.matvec(&x0).iter().map(|v| v + 0.1 * random::standard_normal(rng)).collect()
}

#[test]
fn inv_and_pinv_outputs_match_pinned_checksum() {
    let config =
        MacroConfig { nonideal: NonidealityConfig::paper_default(), ..MacroConfig::small(TALL) };
    let mut g = MacroGroup::new(2, config, 21);
    let mut rng = random::seeded_rng(77);
    let a = random::spd_with_condition(&mut rng, N, 4.0);
    let t = random::gaussian_matrix(&mut rng, TALL, N);
    let inv = g.load_matrix(&a).unwrap();
    let pinv = g.load_matrix(&t).unwrap();

    let mut outputs: Vec<Vec<f64>> = Vec::new();
    for _ in 0..48 {
        outputs.push(g.solve_inv(inv, &random::normal_vector(&mut rng, N)).unwrap());
    }
    for _ in 0..2 {
        let bs: Vec<Vec<f64>> = (0..8).map(|_| random::normal_vector(&mut rng, N)).collect();
        outputs.extend(g.solve_inv_batch(inv, &bs).unwrap());
    }
    for k in 0..48 {
        let b = pinv_rhs(&t, &mut rng);
        let x = if k % 2 == 0 {
            g.solve_pinv(pinv, &b).unwrap()
        } else {
            g.solve_pinv_batch(pinv, &[b]).unwrap().pop().unwrap()
        };
        outputs.push(x);
    }
    for _ in 0..2 {
        let bs: Vec<Vec<f64>> = (0..6).map(|_| pinv_rhs(&t, &mut rng)).collect();
        outputs.extend(g.solve_pinv_batch(pinv, &bs).unwrap());
    }
    assert_eq!(outputs.len(), 124);

    let mut acc: u64 = 0;
    for v in outputs.iter().flatten() {
        acc = acc.rotate_left(7) ^ v.to_bits();
    }
    assert_eq!(acc, 0x62AC_965C_A0A7_6229, "INV/PINV output checksum drifted: {acc:#018X}");

    let hw = g.hw_snapshot();
    let fields: Vec<u64> = hw.fields().iter().map(|&(_, v)| v).collect();
    assert_eq!(
        fields,
        [5888, 3968, 0, 124, 6144, 6144, 0, 376832, 0, 0],
        "solver hardware counters drifted: {hw:?}"
    );
}
