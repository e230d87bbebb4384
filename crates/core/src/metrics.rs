//! Analytical latency/energy models for analog-vs-digital comparisons.
//!
//! The paper's pitch — "in-memory AMC … for its high speed and low power
//! consumption" — rests on the analog solver's O(1) settling time versus the
//! O(n³) digital factorization. These models make that comparison concrete
//! for the scaling bench (EXPERIMENTS.md E8). Constants are order-of-
//! magnitude values from the in-memory-computing literature (Sun et al.
//! PNAS 2019; Walden-style converter figures of merit) — absolute numbers
//! are indicative, scaling shapes are the point.

/// Latency + energy estimate for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    /// Seconds.
    pub latency: f64,
    /// Joules.
    pub energy: f64,
}

impl Cost {
    /// Adds two costs (sequential composition).
    pub fn then(self, other: Cost) -> Cost {
        Cost { latency: self.latency + other.latency, energy: self.energy + other.energy }
    }
}

/// Cost model for the analog macro.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalogCostModel {
    /// Base op-amp settling time for an MVM read-out, seconds.
    pub mvm_settle: f64,
    /// Settling time of a feedback solve (INV/PINV); grows with the
    /// condition number in practice, a constant captures the typical case.
    pub solve_settle: f64,
    /// Energy per DAC conversion, joules.
    pub dac_energy: f64,
    /// Walden figure of merit: joules per conversion step (energy per ADC
    /// conversion is `fom · 2^bits`).
    pub adc_fom: f64,
    /// ADC resolution used for the energy estimate.
    pub adc_bits: u32,
    /// Static array power during evaluation at read bias, watts per active
    /// cell (I·V at mid conductance ≈ 50 µS · (0.2 V)²).
    pub cell_read_power: f64,
    /// Energy per write-verify pulse, joules (≈ 50 µA · 2 V · 30 ns).
    pub write_pulse_energy: f64,
}

impl Default for AnalogCostModel {
    fn default() -> Self {
        Self {
            mvm_settle: 100e-9,
            solve_settle: 500e-9,
            dac_energy: 1e-12,
            adc_fom: 50e-15,
            adc_bits: 10,
            cell_read_power: 50e-6 * 0.2 * 0.2,
            write_pulse_energy: 50e-6 * 2.0 * 30e-9,
        }
    }
}

impl AnalogCostModel {
    fn adc_energy(&self) -> f64 {
        self.adc_fom * f64::from(1u32 << self.adc_bits)
    }

    /// Cost of one `n × n` analog MVM (differential pair: 2n² active cells,
    /// n DAC + n ADC conversions, one settling interval).
    pub fn mvm(&self, n: usize) -> Cost {
        let nf = n as f64;
        Cost {
            latency: self.mvm_settle,
            energy: 2.0 * nf * nf * self.cell_read_power * self.mvm_settle
                + nf * (self.dac_energy + self.adc_energy()),
        }
    }

    /// Cost of one `n × n` analog INV/PINV solve — one settling interval
    /// regardless of `n` (the "one-step" claim), with the array biased for
    /// the duration.
    pub fn solve(&self, n: usize) -> Cost {
        let nf = n as f64;
        Cost {
            latency: self.solve_settle,
            energy: 2.0 * nf * nf * self.cell_read_power * self.solve_settle
                + nf * (self.dac_energy + self.adc_energy()),
        }
    }

    /// Cost of programming an `n × n` operator (two differential planes)
    /// with `pulses_per_cell` average write-verify pulses.
    pub fn program(&self, n: usize, pulses_per_cell: f64) -> Cost {
        let cells = 2.0 * (n * n) as f64;
        Cost {
            latency: cells * pulses_per_cell * 30e-9, // serial word-line writes
            energy: cells * pulses_per_cell * self.write_pulse_energy,
        }
    }

    /// Folds *measured* hardware counters through the model: the analytic
    /// per-event constants priced against what the simulated hardware
    /// actually did, instead of the idealized per-op shapes above.
    ///
    /// Latency sums settling and write intervals (MVM settles, solve
    /// settles, 30 ns write pulses); energy sums converter events plus the
    /// array bias energy of every cell-read cycle over its settling window.
    pub fn attribute(&self, hw: &gramc_telemetry::HwSnapshot) -> Cost {
        let pulse_width = 30e-9;
        Cost {
            latency: hw.settle_events as f64 * self.mvm_settle
                + hw.solve_settles as f64 * self.solve_settle
                + hw.write_pulses as f64 * pulse_width,
            energy: hw.dac_drives as f64 * self.dac_energy
                + hw.adc_conversions as f64 * self.adc_energy()
                + hw.write_pulses as f64 * self.write_pulse_energy
                + hw.read_cycles_mvm as f64 * self.cell_read_power * self.mvm_settle
                + hw.read_cycles_solve as f64 * self.cell_read_power * self.solve_settle,
        }
    }
}

/// Cell layout style for the area model.
///
/// The device crate models both halves: the Stanford-PKU RRAM compact model
/// is the resistive element itself (a 4F² crosspoint when laid out
/// passively), and [`gramc_device::OneTOneR`] adds the NMOS access
/// transistor that dominates the footprint (≈ 12F², transistor-limited).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellLayout {
    /// 1T1R: RRAM in series with its access transistor, ≈ 12F² per cell.
    OneTOneR,
    /// Passive Stanford-PKU crosspoint, the 4F² density limit.
    Crosspoint,
}

impl CellLayout {
    /// Cell area in units of F² (square feature sizes).
    pub fn cell_f2(self) -> f64 {
        match self {
            CellLayout::OneTOneR => 12.0,
            CellLayout::Crosspoint => 4.0,
        }
    }
}

/// Per-component silicon area of one analog macro, mm².
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaBreakdown {
    /// Crossbar cell matrix (both differential planes counted by the
    /// caller via the macro count).
    pub crossbar_mm2: f64,
    /// Row DAC drivers.
    pub dac_mm2: f64,
    /// Column ADC read-out.
    pub adc_mm2: f64,
}

impl AreaBreakdown {
    /// Total macro area, mm².
    pub fn total_mm2(&self) -> f64 {
        self.crossbar_mm2 + self.dac_mm2 + self.adc_mm2
    }

    /// Component-wise sum (e.g. across macros or shards).
    pub fn then(self, other: AreaBreakdown) -> AreaBreakdown {
        AreaBreakdown {
            crossbar_mm2: self.crossbar_mm2 + other.crossbar_mm2,
            dac_mm2: self.dac_mm2 + other.dac_mm2,
            adc_mm2: self.adc_mm2 + other.adc_mm2,
        }
    }

    /// Scales every component (e.g. by a macro or shard count).
    pub fn scaled(self, k: f64) -> AreaBreakdown {
        AreaBreakdown {
            crossbar_mm2: self.crossbar_mm2 * k,
            dac_mm2: self.dac_mm2 * k,
            adc_mm2: self.adc_mm2 * k,
        }
    }
}

/// Per-component area coefficients for the analog macro — the mm² half of
/// the RAMwich-style accounting (the energy half is
/// [`AnalogCostModel::attribute`]). Converter footprints are indicative
/// ISAAC/PUMA-class figures (8-bit SAR ADC ≈ 1.2e-3 mm², one DAC driver
/// channel ≈ 1.7e-6 mm²); the crossbar follows from the cell layout and
/// feature size.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalogAreaModel {
    /// Lithography feature size F, meters (Stanford-PKU demos sit at 130 nm).
    pub feature_size: f64,
    /// Cell layout (1T1R vs passive crosspoint).
    pub cell_layout: CellLayout,
    /// Area per DAC driver channel, mm² (one per array row).
    pub dac_channel_mm2: f64,
    /// Area per ADC read-out channel, mm² (one per array column).
    pub adc_channel_mm2: f64,
}

impl Default for AnalogAreaModel {
    fn default() -> Self {
        Self {
            feature_size: 130e-9,
            cell_layout: CellLayout::OneTOneR,
            dac_channel_mm2: 1.7e-6,
            adc_channel_mm2: 1.2e-3,
        }
    }
}

impl AnalogAreaModel {
    /// Area of one `rows × cols` crossbar plane, mm².
    pub fn crossbar_mm2(&self, rows: usize, cols: usize) -> f64 {
        let f_mm = self.feature_size * 1e3; // m → mm
        (rows * cols) as f64 * self.cell_layout.cell_f2() * f_mm * f_mm
    }

    /// Per-component area of one macro: a `rows × cols` crossbar plane with
    /// `rows` DAC drivers and `cols` ADC channels.
    pub fn macro_area(&self, rows: usize, cols: usize) -> AreaBreakdown {
        AreaBreakdown {
            crossbar_mm2: self.crossbar_mm2(rows, cols),
            dac_mm2: rows as f64 * self.dac_channel_mm2,
            adc_mm2: cols as f64 * self.adc_channel_mm2,
        }
    }

    /// Total area of a deployment of `macros` identical macros (e.g.
    /// `shards × macros_per_shard` in the runtime).
    pub fn deployment_area(&self, macros: usize, rows: usize, cols: usize) -> AreaBreakdown {
        self.macro_area(rows, cols).scaled(macros as f64)
    }
}

/// Cost model for the digital baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct DigitalCostModel {
    /// Sustained floating-point throughput, FLOP/s.
    pub flops_per_second: f64,
    /// Energy per floating-point operation, joules.
    pub energy_per_flop: f64,
}

impl Default for DigitalCostModel {
    fn default() -> Self {
        // A competent embedded-class FP unit: 10 GFLOP/s at 10 pJ/FLOP.
        Self { flops_per_second: 1e10, energy_per_flop: 10e-12 }
    }
}

impl DigitalCostModel {
    fn cost_for_flops(&self, flops: f64) -> Cost {
        Cost { latency: flops / self.flops_per_second, energy: flops * self.energy_per_flop }
    }

    /// Cost of a digital `n × n` MVM (2n² FLOPs).
    pub fn mvm(&self, n: usize) -> Cost {
        let nf = n as f64;
        self.cost_for_flops(2.0 * nf * nf)
    }

    /// Cost of a digital LU solve (2n³/3 + 2n² FLOPs).
    pub fn lu_solve(&self, n: usize) -> Cost {
        let nf = n as f64;
        self.cost_for_flops(2.0 * nf * nf * nf / 3.0 + 2.0 * nf * nf)
    }

    /// Cost of a digital SVD-based pseudoinverse (≈ 12·m·n² FLOPs).
    pub fn pinv(&self, m: usize, n: usize) -> Cost {
        self.cost_for_flops(12.0 * m as f64 * (n * n) as f64)
    }

    /// Cost of `iters` power-iteration steps (2n² FLOPs each).
    pub fn power_iteration(&self, n: usize, iters: usize) -> Cost {
        let nf = n as f64;
        self.cost_for_flops(2.0 * nf * nf * iters as f64)
    }
}

/// Speedup of the analog solve over the digital LU at size `n` under the
/// default models.
pub fn inv_speedup(n: usize) -> f64 {
    let analog = AnalogCostModel::default().solve(n);
    let digital = DigitalCostModel::default().lu_solve(n);
    digital.latency / analog.latency
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analog_solve_latency_is_size_independent() {
        let m = AnalogCostModel::default();
        assert_eq!(m.solve(8).latency, m.solve(128).latency);
    }

    #[test]
    fn digital_lu_latency_is_cubic() {
        let m = DigitalCostModel::default();
        let r = m.lu_solve(128).latency / m.lu_solve(64).latency;
        assert!(r > 6.0 && r < 8.5, "ratio {r}");
    }

    #[test]
    fn speedup_grows_with_n_and_crosses_over() {
        let s16 = inv_speedup(16);
        let s128 = inv_speedup(128);
        assert!(s128 > s16, "speedup must grow with n");
        assert!(s128 > 100.0, "128-dim analog solve should win big: {s128}");
    }

    #[test]
    fn energy_scales_quadratically_for_analog_solve() {
        let m = AnalogCostModel::default();
        let ratio = m.solve(128).energy / m.solve(64).energy;
        assert!(ratio > 2.0 && ratio < 4.5, "ratio {ratio}");
    }

    #[test]
    fn programming_cost_counts_both_planes() {
        let m = AnalogCostModel::default();
        let c = m.program(128, 20.0);
        let cells = 2.0 * 128.0 * 128.0;
        assert!((c.energy - cells * 20.0 * m.write_pulse_energy).abs() < 1e-18);
    }

    #[test]
    fn attribution_matches_hand_computation() {
        let m = AnalogCostModel::default();
        let hw = gramc_telemetry::HwSnapshot {
            dac_drives: 10,
            adc_conversions: 20,
            settle_events: 3,
            solve_settles: 2,
            write_pulses: 5,
            read_cycles_mvm: 100,
            read_cycles_solve: 200,
            ..Default::default()
        };
        let c = m.attribute(&hw);
        let want_latency = 3.0 * m.mvm_settle + 2.0 * m.solve_settle + 5.0 * 30e-9;
        let want_energy = 10.0 * m.dac_energy
            + 20.0 * m.adc_fom * 1024.0
            + 5.0 * m.write_pulse_energy
            + 100.0 * m.cell_read_power * m.mvm_settle
            + 200.0 * m.cell_read_power * m.solve_settle;
        assert!((c.latency - want_latency).abs() < 1e-18, "latency {}", c.latency);
        assert!((c.energy - want_energy).abs() < 1e-18, "energy {}", c.energy);
    }

    #[test]
    fn area_model_scales_with_cells_and_converters() {
        let m = AnalogAreaModel::default();
        let one = m.macro_area(128, 128);
        // ADC channels dominate a 128×128 macro at these coefficients.
        assert!(one.adc_mm2 > one.crossbar_mm2, "{one:?}");
        assert!(one.total_mm2() > 0.0);
        let sixteen = m.deployment_area(16, 128, 128);
        assert!((sixteen.total_mm2() - 16.0 * one.total_mm2()).abs() < 1e-12);
        // Passive crosspoint is 3× denser than 1T1R on the cell matrix.
        let dense = AnalogAreaModel { cell_layout: CellLayout::Crosspoint, ..m.clone() };
        let r = m.crossbar_mm2(128, 128) / dense.crossbar_mm2(128, 128);
        assert!((r - 3.0).abs() < 1e-12, "{r}");
    }

    #[test]
    fn costs_compose() {
        let a = Cost { latency: 1.0, energy: 2.0 };
        let b = Cost { latency: 0.5, energy: 0.25 };
        let c = a.then(b);
        assert_eq!(c.latency, 1.5);
        assert_eq!(c.energy, 2.25);
    }
}
