//! Supplemental scaling study: the analog one-step
//! solver's O(1) settling versus digital O(n³) factorization — the paper's
//! "high speed and low power" claim made quantitative with the cost models
//! of `gramc_core::metrics`.
//!
//! ```sh
//! cargo run -p gramc-bench --release --bin scaling_model
//! ```

use gramc_core::metrics::{AnalogCostModel, DigitalCostModel};
use gramc_core::{MacroConfig, MacroGroup};
use std::time::Instant;

use gramc_linalg::{lu, random};

fn main() {
    let analog = AnalogCostModel::default();
    let digital = DigitalCostModel::default();

    println!("# Analog vs digital INV solve (model)");
    println!(
        "{:>6} {:>14} {:>14} {:>10} {:>14} {:>14}",
        "n", "analog lat(s)", "digital lat(s)", "speedup", "analog E(J)", "digital E(J)"
    );
    for n in [8usize, 16, 32, 64, 128] {
        let a = analog.solve(n);
        let d = digital.lu_solve(n);
        println!(
            "{:>6} {:>14.3e} {:>14.3e} {:>10.1} {:>14.3e} {:>14.3e}",
            n,
            a.latency,
            d.latency,
            d.latency / a.latency,
            a.energy,
            d.energy
        );
    }

    println!("\n# Measured digital LU wall time on this machine (sanity anchor)");
    println!("{:>6} {:>14}", "n", "measured (s)");
    let mut rng = random::seeded_rng(70);
    for n in [32usize, 64, 128, 256] {
        let a = random::spd_with_condition(&mut rng, n, 10.0);
        let b = random::normal_vector(&mut rng, n);
        let start = Instant::now();
        let reps = 5;
        for _ in 0..reps {
            let _ = lu::solve(&a, &b).expect("solve");
        }
        println!("{:>6} {:>14.3e}", n, start.elapsed().as_secs_f64() / reps as f64);
    }

    println!("\n# Measured counters vs closed form: the a-priori mvm(n) model against");
    println!("# telemetry counters from a real drive, priced through `attribute`");
    let n = 64;
    let mut group = MacroGroup::new(2, MacroConfig::small_ideal(n), 3);
    let mut mrng = random::seeded_rng(71);
    let a = random::gaussian_matrix(&mut mrng, n, n);
    let op = group.load_matrix(&a).expect("load");
    let x = random::normal_vector(&mut mrng, n);
    let mvms = 8;
    let before = group.hw_snapshot();
    for _ in 0..mvms {
        group.mvm(op, &x).expect("mvm");
    }
    let hw = group.hw_snapshot().since(&before);
    let measured = analog.attribute(&hw);
    let closed = analog.mvm(n);
    println!(
        "{mvms} MVMs at n={n}: {} DAC drives, {} ADC conversions, {} settles",
        hw.dac_drives, hw.adc_conversions, hw.settle_events
    );
    println!(
        "  measured per MVM: {:.3e} s, {:.3e} J   closed-form mvm({n}): {:.3e} s, {:.3e} J",
        measured.latency / mvms as f64,
        measured.energy / mvms as f64,
        closed.latency,
        closed.energy
    );

    println!("\n# Programming amortization: write-verify cost vs solves per matrix");
    let n = 128;
    let program = analog.program(n, 20.0);
    println!(
        "programming a {n}×{n} operator: {:.3e} s, {:.3e} J (20 pulses/cell avg)",
        program.latency, program.energy
    );
    for solves in [1usize, 10, 100, 1000] {
        let total_analog = program.latency + solves as f64 * analog.solve(n).latency;
        let total_digital = solves as f64 * digital.lu_solve(n).latency;
        println!(
            "{:>6} solves: analog total {:.3e} s vs digital {:.3e} s ({}x)",
            solves,
            total_analog,
            total_digital,
            (total_digital / total_analog) as i64
        );
    }
}
