//! Counter-correctness of the hardware telemetry layer: a known
//! instruction sequence must produce exactly the hand-computed number of
//! DAC drives, ADC conversions, settle events, cell read cycles and write
//! pulses, attributed to the right instruction mnemonics.
//!
//! The counts below follow from the architecture, not from the
//! implementation: a differential 4-bit operator holds two conductance
//! planes, a scalar MVM drives every column DAC once and settles each
//! plane once, the batched path repeats that per driven input row, the
//! INV solve settles the feedback loop once per ranging attempt, and
//! direct programming issues one blind write pulse per cell.

use gramc_core::isa::{BufferRef, Instruction};
use gramc_core::system::GramcSystem;
use gramc_core::{HwSnapshot, MacroConfig};

const N: usize = 8; // operator dimension
const B: usize = 3; // MvmBatch batch size

/// Builds the system, loads the fixture program and runs it to the halt.
fn run_fixture() -> GramcSystem {
    let mut sys = GramcSystem::new(2, MacroConfig::small_ideal(N), 5, 256);

    // Global buffer: A (identity, 64 words) | 3 MVM inputs | one RHS.
    let mut a = vec![0.0; N * N];
    for i in 0..N {
        a[i * N + i] = 1.0;
    }
    sys.write_global(0, &a).unwrap();
    let xs: Vec<f64> = (0..B * N).map(|k| 0.2 + 0.01 * k as f64).collect();
    sys.write_global(64, &xs).unwrap();
    let b: Vec<f64> = (0..N).map(|k| 0.1 + 0.02 * k as f64).collect();
    sys.write_global(88, &b).unwrap();

    sys.load_program(vec![
        Instruction::LoadMatrix { slot: 0, rows: 8, cols: 8, src: BufferRef::global(0, 64) },
        Instruction::MvmBatch {
            slot: 0,
            batch: 3,
            src: BufferRef::global(64, 24),
            dst: BufferRef::output(0, 24),
        },
        Instruction::Mvm { slot: 0, src: BufferRef::global(88, 8), dst: BufferRef::output(24, 8) },
        Instruction::SolveInv {
            slot: 0,
            src: BufferRef::global(88, 8),
            dst: BufferRef::output(32, 8),
        },
        Instruction::Halt,
    ]);
    sys.run(64).unwrap();
    sys
}

#[test]
fn instruction_sequence_produces_exact_counter_values() {
    let sys = run_fixture();
    let t = sys.instruction_telemetry();
    let planes = 2; // differential 4-bit mapping

    // LoadMatrix, direct programming: one blind write pulse per cell of
    // each plane, and nothing else — no converter or read activity.
    let load = &t["load_matrix"];
    assert_eq!(load.write_cycles, (planes * N * N) as u64);
    assert_eq!(load.write_pulses, (planes * N * N) as u64);
    assert_eq!(load.dac_drives, 0);
    assert_eq!(load.adc_conversions, 0);
    assert_eq!(load.settle_events, 0);
    assert_eq!(load.read_cycles_mvm + load.read_cycles_solve, 0);

    // MvmBatch of B nonzero inputs: per input, one DAC drive per column,
    // one settle per plane, one read cycle per cell of each plane, and
    // one ADC conversion per row per differential pair.
    let mvm_b = &t["mvm_batch"];
    assert_eq!(mvm_b.dac_drives, (B * N) as u64);
    assert_eq!(mvm_b.settle_events, (B * planes) as u64);
    assert_eq!(mvm_b.read_cycles_mvm, (B * planes * N * N) as u64);
    assert_eq!(mvm_b.adc_conversions, (B * N * (planes / 2)) as u64);
    assert_eq!(mvm_b.write_pulses, 0);
    assert_eq!(mvm_b.solve_settles, 0);

    // Scalar Mvm: exactly the B = 1 case of the batch accounting.
    let mvm = &t["mvm"];
    assert_eq!(mvm.dac_drives, N as u64);
    assert_eq!(mvm.settle_events, planes as u64);
    assert_eq!(mvm.read_cycles_mvm, (planes * N * N) as u64);
    assert_eq!(mvm.adc_conversions, (N * (planes / 2)) as u64);

    // SolveInv, one RHS, well-conditioned system: one DAC drive per
    // element of b, one feedback settle (the single ranging attempt reads
    // both planes of the whole array), one ADC capture per solution
    // element.
    let solve = &t["solve_inv"];
    assert_eq!(solve.dac_drives, N as u64);
    assert_eq!(solve.solve_settles, 1);
    assert_eq!(solve.read_cycles_solve, (planes * N * N) as u64);
    assert_eq!(solve.adc_conversions, N as u64);
    assert_eq!(solve.settle_events, 0);
    assert_eq!(solve.write_pulses, 0);
}

/// The per-instruction attribution must partition the group totals: every
/// hardware event the program caused lands under exactly one mnemonic.
#[test]
fn per_instruction_attribution_sums_to_group_totals() {
    let sys = run_fixture();
    let mut sum = HwSnapshot::default();
    for delta in sys.instruction_telemetry().values() {
        sum += delta;
    }
    assert_eq!(sum, sys.macro_group().hw_snapshot());
    assert!(sum.total() > 0, "the fixture program does real analog work");
}

/// Loading a new program clears the previous program's attribution.
#[test]
fn load_program_resets_instruction_telemetry() {
    let mut sys = run_fixture();
    assert!(!sys.instruction_telemetry().is_empty());
    sys.load_program(vec![Instruction::Halt]);
    assert!(sys.instruction_telemetry().is_empty());
}
