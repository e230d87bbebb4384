//! On-chip write-verify scheme (paper Section II-A, Fig. 1, and the blue
//! data path of Fig. 3).
//!
//! "During SET process, only V_g is increased step by step, V_SL is grounded
//! and V_BL is applied as V_set. By contrast, the RESET process is controlled
//! by increasing V_SL. […] Until all the conductance states satisfy the error
//! range or write pulse number is larger than the maximum pulse number, the
//! write-verify process stops."

use gramc_device::{LevelQuantizer, OneTOneR};
use rand::Rng;

use crate::crossbar::{ActiveRegion, CrossbarArray};
use crate::error::ArrayError;

/// Tunable parameters of the write-verify state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteVerifyConfig {
    /// Bit-line voltage applied during SET (the paper's `V_set`).
    pub v_set: f64,
    /// Initial gate voltage of a SET ramp.
    pub vg_start: f64,
    /// Gate-voltage increment per SET pulse (Fig. 1b sweeps this).
    pub vg_step: f64,
    /// Gate-voltage ceiling for SET ramps.
    pub vg_max: f64,
    /// Gate voltage during RESET (transistor fully on).
    pub vg_reset: f64,
    /// Initial source-line voltage of a RESET ramp.
    pub vsl_start: f64,
    /// Source-line increment per RESET pulse (Fig. 1c sweeps this).
    pub vsl_step: f64,
    /// Source-line ceiling for RESET ramps.
    pub vsl_max: f64,
    /// Pulse width in seconds (paper: 30 ns).
    pub pulse_width: f64,
    /// Acceptance band around the target, in level units (the paper's
    /// "error range").
    pub tolerance_levels: f64,
    /// Abort threshold on the pulse counter (the paper's "maximum pulse
    /// number").
    pub max_pulses: usize,
}

impl Default for WriteVerifyConfig {
    fn default() -> Self {
        Self {
            v_set: 2.0,
            vg_start: 0.72,
            vg_step: 0.02,
            vg_max: 1.6,
            vg_reset: 3.2,
            vsl_start: 0.8,
            vsl_step: 0.03,
            vsl_max: 3.0,
            pulse_width: 30e-9,
            tolerance_levels: 0.4,
            max_pulses: 200,
        }
    }
}

/// Outcome of programming one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellReport {
    /// Total pulses spent (SET + RESET).
    pub pulses: usize,
    /// Fractional level actually reached.
    pub achieved_level: f64,
    /// Whether the final state is inside the tolerance band.
    pub converged: bool,
}

/// Aggregate statistics for programming a region.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramReport {
    /// Per-cell reports in row-major region order.
    pub cells: Vec<CellReport>,
    /// Total pulses across the region.
    pub total_pulses: usize,
    /// Number of cells that failed to converge.
    pub failures: usize,
}

/// Typed verify outcome of one programming pass — the summary every load
/// path propagates upward instead of dropping the report. Produced by both
/// the pulse path ([`ProgramReport::outcome`]) and the direct path
/// ([`CrossbarArray::program_direct`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgramOutcome {
    /// Cells programmed.
    pub cells: usize,
    /// Cells whose verify readback missed the tolerance band.
    pub failures: usize,
}

impl ProgramOutcome {
    /// Fraction of cells that failed verify (0 for an empty outcome).
    pub fn failure_frac(&self) -> f64 {
        if self.cells == 0 {
            0.0
        } else {
            self.failures as f64 / self.cells as f64
        }
    }

    /// Whether every cell converged.
    pub fn converged(&self) -> bool {
        self.failures == 0
    }

    /// Accumulates another outcome (multi-plane loads).
    pub fn merge(&mut self, other: ProgramOutcome) {
        self.cells += other.cells;
        self.failures += other.failures;
    }
}

impl ProgramReport {
    /// Mean pulses per cell.
    pub fn mean_pulses(&self) -> f64 {
        if self.cells.is_empty() {
            0.0
        } else {
            self.total_pulses as f64 / self.cells.len() as f64
        }
    }

    /// Maximum pulses spent on any single cell.
    pub fn max_pulses(&self) -> usize {
        self.cells.iter().map(|c| c.pulses).max().unwrap_or(0)
    }

    /// The typed verify summary of this report.
    pub fn outcome(&self) -> ProgramOutcome {
        ProgramOutcome { cells: self.cells.len(), failures: self.failures }
    }

    /// RMS programming error across converged cells, in level units.
    pub fn rms_level_error(&self, targets: &[usize]) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .cells
            .iter()
            .zip(targets)
            .map(|(c, &t)| {
                let e = c.achieved_level - t as f64;
                e * e
            })
            .sum();
        (sum / self.cells.len() as f64).sqrt()
    }
}

/// The write-verify state machine.
///
/// # Examples
///
/// ```
/// use gramc_array::{WriteVerifyController, WriteVerifyConfig};
/// use gramc_device::{OneTOneR, DeviceParams, Nmos, CellNoise, LevelQuantizer};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let mut cell = OneTOneR::new(DeviceParams::default(), Nmos::default(), CellNoise::none());
/// let wv = WriteVerifyController::new(WriteVerifyConfig::default(), LevelQuantizer::paper_default());
/// let report = wv.program_cell(&mut cell, 9, &mut rng).unwrap();
/// assert!(report.converged);
/// assert!((report.achieved_level - 9.0).abs() <= 0.4);
/// ```
#[derive(Debug, Clone)]
pub struct WriteVerifyController {
    config: WriteVerifyConfig,
    quantizer: LevelQuantizer,
}

impl WriteVerifyController {
    /// Creates a controller with the given configuration and level grid.
    pub fn new(config: WriteVerifyConfig, quantizer: LevelQuantizer) -> Self {
        Self { config, quantizer }
    }

    /// Controller with the paper's defaults (4-bit levels over 1–100 µS,
    /// 30 ns pulses).
    pub fn paper_default() -> Self {
        Self::new(WriteVerifyConfig::default(), LevelQuantizer::paper_default())
    }

    /// The configuration in use.
    pub fn config(&self) -> &WriteVerifyConfig {
        &self.config
    }

    /// The level grid in use.
    pub fn quantizer(&self) -> &LevelQuantizer {
        &self.quantizer
    }

    /// Programs a single cell to `target_level` with verify-after-every-pulse.
    ///
    /// The loop alternates ramped SET and RESET phases: a SET ramp runs while
    /// the cell reads below the band, a RESET ramp while above. Every
    /// direction reversal restarts the ramp from its base voltage, which
    /// converges because the first pulses of a fresh ramp move the state only
    /// slightly.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::LevelOutOfRange`] if `target_level` exceeds the
    /// quantizer's maximum.
    pub fn program_cell<R: Rng + ?Sized>(
        &self,
        cell: &mut OneTOneR,
        target_level: usize,
        rng: &mut R,
    ) -> Result<CellReport, ArrayError> {
        if target_level > self.quantizer.max_level() {
            return Err(ArrayError::LevelOutOfRange {
                level: target_level,
                max: self.quantizer.max_level(),
            });
        }
        let cfg = &self.config;
        let target = target_level as f64;
        let mut vg = cfg.vg_start;
        let mut vsl = cfg.vsl_start;
        let mut pulses = 0;

        loop {
            let level = self.quantizer.fractional_level(cell.read(rng));
            let err = level - target;
            if err.abs() <= cfg.tolerance_levels {
                return Ok(CellReport { pulses, achieved_level: level, converged: true });
            }
            if pulses >= cfg.max_pulses {
                return Ok(CellReport { pulses, achieved_level: level, converged: false });
            }
            if err < 0.0 {
                // Under target: one SET pulse, then advance the V_g ramp.
                cell.set_pulse(vg, cfg.v_set, cfg.pulse_width, rng);
                vg = (vg + cfg.vg_step).min(cfg.vg_max);
                // Any SET restarts the RESET ramp.
                vsl = cfg.vsl_start;
            } else {
                // Over target: one RESET pulse, then advance the V_SL ramp.
                cell.reset_pulse(cfg.vg_reset, vsl, cfg.pulse_width, rng);
                vsl = (vsl + cfg.vsl_step).min(cfg.vsl_max);
                vg = cfg.vg_start;
            }
            pulses += 1;
        }
    }

    /// Programs a whole region of a crossbar to the given level targets.
    ///
    /// # Errors
    ///
    /// * Bounds/shape errors from the region or target matrix.
    /// * [`ArrayError::ProgrammingFailed`] if any cell fails to converge
    ///   (the report is still embedded in the error via a second call with
    ///   a higher budget if needed — callers who tolerate failures should
    ///   call [`program_region_lossy`](Self::program_region_lossy)).
    pub fn program_region<R: Rng + ?Sized>(
        &self,
        array: &mut CrossbarArray,
        region: ActiveRegion,
        target_levels: &[usize],
        rng: &mut R,
    ) -> Result<ProgramReport, ArrayError> {
        let report = self.program_region_lossy(array, region, target_levels, rng)?;
        if report.failures > 0 {
            return Err(ArrayError::ProgrammingFailed {
                failed_cells: report.failures,
                total_cells: report.cells.len(),
            });
        }
        Ok(report)
    }

    /// Like [`program_region`](Self::program_region) but returns the report
    /// even when cells failed to converge.
    ///
    /// # Errors
    ///
    /// Bounds/shape errors only.
    pub fn program_region_lossy<R: Rng + ?Sized>(
        &self,
        array: &mut CrossbarArray,
        region: ActiveRegion,
        target_levels: &[usize],
        rng: &mut R,
    ) -> Result<ProgramReport, ArrayError> {
        array.check_region(region)?;
        if target_levels.len() != region.rows * region.cols {
            return Err(ArrayError::ShapeMismatch {
                expected: (region.rows, region.cols),
                found: (target_levels.len(), 1),
            });
        }
        let mut cells = Vec::with_capacity(target_levels.len());
        let mut total_pulses = 0;
        let mut failures = 0;
        for i in 0..region.rows {
            for j in 0..region.cols {
                let target = target_levels[i * region.cols + j];
                let (row, col) = (region.row0 + i, region.col0 + j);
                // A stuck cell (fault injection) reads its rail no matter
                // how it is pulsed: verify can never close the loop, so
                // report the non-convergence directly instead of burning
                // the full pulse budget. Consumes no RNG, keeping healthy
                // cells' pulse streams identical to the fault-free run.
                if let Some(g_stuck) = array.stuck_conductance_at(row, col) {
                    if target > self.quantizer.max_level() {
                        return Err(ArrayError::LevelOutOfRange {
                            level: target,
                            max: self.quantizer.max_level(),
                        });
                    }
                    let achieved_level = self.quantizer.fractional_level(g_stuck);
                    let converged =
                        (achieved_level - target as f64).abs() <= self.config.tolerance_levels;
                    if !converged {
                        failures += 1;
                    }
                    cells.push(CellReport { pulses: 0, achieved_level, converged });
                    continue;
                }
                let cell = array.cell_mut(row, col);
                let rep = self.program_cell(cell, target, rng)?;
                total_pulses += rep.pulses;
                if !rep.converged {
                    failures += 1;
                }
                cells.push(rep);
            }
        }
        array.telemetry().add_write_cycles(cells.len() as u64);
        array.telemetry().add_write_pulses(total_pulses as u64);
        Ok(ProgramReport { cells, total_pulses, failures })
    }
}

/// One point of a Fig. 1 staircase: `(pulse_number, fractional_level)`.
pub type StaircasePoint = (usize, f64);

/// Runs the Fig. 1(b) experiment: a blind SET ramp (no verify) with the given
/// `vg_step`, recording the level after each pulse.
///
/// `initial_level` reproduces the paper's "different initial states".
pub fn set_staircase<R: Rng + ?Sized>(
    cell: &mut OneTOneR,
    config: &WriteVerifyConfig,
    quantizer: &LevelQuantizer,
    vg_step: f64,
    initial_level: usize,
    pulses: usize,
    rng: &mut R,
) -> Vec<StaircasePoint> {
    cell.program_conductance(quantizer.conductance_of(initial_level));
    let mut vg = config.vg_start;
    let mut out = Vec::with_capacity(pulses);
    for p in 0..pulses {
        cell.set_pulse(vg, config.v_set, config.pulse_width, rng);
        vg = (vg + vg_step).min(config.vg_max);
        out.push((p + 1, quantizer.fractional_level(cell.read(rng))));
    }
    out
}

/// Runs the Fig. 1(c) experiment: a blind RESET ramp with the given
/// `vsl_step` starting from `initial_level` (the paper starts at level 15).
pub fn reset_staircase<R: Rng + ?Sized>(
    cell: &mut OneTOneR,
    config: &WriteVerifyConfig,
    quantizer: &LevelQuantizer,
    vsl_step: f64,
    initial_level: usize,
    pulses: usize,
    rng: &mut R,
) -> Vec<StaircasePoint> {
    cell.program_conductance(quantizer.conductance_of(initial_level));
    let mut vsl = config.vsl_start;
    let mut out = Vec::with_capacity(pulses);
    for p in 0..pulses {
        cell.reset_pulse(config.vg_reset, vsl, config.pulse_width, rng);
        vsl = (vsl + vsl_step).min(config.vsl_max);
        out.push((p + 1, quantizer.fractional_level(cell.read(rng))));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::ArrayConfig;
    use gramc_device::{CellNoise, DeviceParams, Nmos};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quiet_cell() -> OneTOneR {
        OneTOneR::new(DeviceParams::default(), Nmos::default(), CellNoise::none())
    }

    #[test]
    fn programs_every_level() {
        let mut rng = StdRng::seed_from_u64(21);
        let wv = WriteVerifyController::paper_default();
        for target in 0..16 {
            let mut cell = quiet_cell();
            let rep = wv.program_cell(&mut cell, target, &mut rng).unwrap();
            assert!(rep.converged, "level {target} did not converge: {rep:?}");
            assert!(
                (rep.achieved_level - target as f64).abs() <= wv.config().tolerance_levels + 1e-9,
                "level {target}: achieved {:.2}",
                rep.achieved_level
            );
        }
    }

    #[test]
    fn programs_with_noise_enabled() {
        let mut rng = StdRng::seed_from_u64(22);
        let wv = WriteVerifyController::paper_default();
        for target in [0usize, 5, 10, 15] {
            let mut cell =
                OneTOneR::new(DeviceParams::default(), Nmos::default(), CellNoise::default());
            let rep = wv.program_cell(&mut cell, target, &mut rng).unwrap();
            assert!(rep.converged, "noisy level {target}: {rep:?}");
        }
    }

    #[test]
    fn reprogramming_downward_uses_reset() {
        let mut rng = StdRng::seed_from_u64(23);
        let wv = WriteVerifyController::paper_default();
        let mut cell = quiet_cell();
        wv.program_cell(&mut cell, 14, &mut rng).unwrap();
        let rep = wv.program_cell(&mut cell, 3, &mut rng).unwrap();
        assert!(rep.converged, "{rep:?}");
        assert!((rep.achieved_level - 3.0).abs() <= 0.4 + 1e-9);
    }

    #[test]
    fn rejects_out_of_range_level() {
        let mut rng = StdRng::seed_from_u64(24);
        let wv = WriteVerifyController::paper_default();
        let mut cell = quiet_cell();
        assert!(matches!(
            wv.program_cell(&mut cell, 16, &mut rng),
            Err(ArrayError::LevelOutOfRange { .. })
        ));
    }

    #[test]
    fn pulse_budget_is_enforced() {
        let mut rng = StdRng::seed_from_u64(25);
        let mut cfg = WriteVerifyConfig::default();
        cfg.max_pulses = 2; // absurdly small
        let wv = WriteVerifyController::new(cfg, LevelQuantizer::paper_default());
        let mut cell = quiet_cell();
        let rep = wv.program_cell(&mut cell, 15, &mut rng).unwrap();
        assert!(!rep.converged);
        assert_eq!(rep.pulses, 2);
    }

    #[test]
    fn program_region_reports_statistics() {
        let mut rng = StdRng::seed_from_u64(26);
        let mut array = CrossbarArray::new(ArrayConfig::ideal(2, 3), &mut rng);
        let wv = WriteVerifyController::paper_default();
        let region = ActiveRegion::full(2, 3);
        let targets = vec![0, 3, 6, 9, 12, 15];
        let report = wv.program_region(&mut array, region, &targets, &mut rng).unwrap();
        assert_eq!(report.cells.len(), 6);
        assert_eq!(report.failures, 0);
        assert!(report.mean_pulses() > 0.0);
        assert!(report.rms_level_error(&targets) <= 0.4 + 1e-9);
        // And the conductances actually landed on the targets.
        let g = array.conductances_ideal(region).unwrap();
        let q = wv.quantizer();
        for (k, &t) in targets.iter().enumerate() {
            let lvl = q.fractional_level(g[(k / 3, k % 3)]);
            assert!((lvl - t as f64).abs() <= 0.4 + 1e-9, "cell {k}: {lvl}");
        }
    }

    #[test]
    fn target_length_is_validated() {
        let mut rng = StdRng::seed_from_u64(27);
        let mut array = CrossbarArray::new(ArrayConfig::ideal(2, 2), &mut rng);
        let wv = WriteVerifyController::paper_default();
        let region = ActiveRegion::full(2, 2);
        assert!(matches!(
            wv.program_region(&mut array, region, &[1, 2, 3], &mut rng),
            Err(ArrayError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn set_staircase_is_monotone_and_reaches_top() {
        let mut rng = StdRng::seed_from_u64(28);
        let wv = WriteVerifyController::paper_default();
        let mut cell = quiet_cell();
        let pts = set_staircase(&mut cell, wv.config(), wv.quantizer(), 0.02, 0, 30, &mut rng);
        assert_eq!(pts.len(), 30);
        for w in pts.windows(2) {
            assert!(w[1].1 >= w[0].1 - 0.3, "staircase dipped: {:?}", w);
        }
        assert!(pts.last().unwrap().1 >= 14.0, "top level {:?}", pts.last());
    }

    #[test]
    fn smaller_vg_step_climbs_slower() {
        let mut rng = StdRng::seed_from_u64(29);
        let wv = WriteVerifyController::paper_default();
        let mut c1 = quiet_cell();
        let slow = set_staircase(&mut c1, wv.config(), wv.quantizer(), 0.01, 0, 25, &mut rng);
        let mut c2 = quiet_cell();
        let fast = set_staircase(&mut c2, wv.config(), wv.quantizer(), 0.02, 0, 25, &mut rng);
        assert!(
            fast.last().unwrap().1 > slow.last().unwrap().1 + 2.0,
            "fast {:?} vs slow {:?}",
            fast.last(),
            slow.last()
        );
    }

    #[test]
    fn reset_staircase_descends_and_larger_step_is_faster() {
        let mut rng = StdRng::seed_from_u64(30);
        let wv = WriteVerifyController::paper_default();
        let mut c1 = quiet_cell();
        let slow = reset_staircase(&mut c1, wv.config(), wv.quantizer(), 0.02, 15, 30, &mut rng);
        let mut c2 = quiet_cell();
        let fast = reset_staircase(&mut c2, wv.config(), wv.quantizer(), 0.03, 15, 30, &mut rng);
        for w in slow.windows(2) {
            assert!(w[1].1 <= w[0].1 + 0.3, "reset staircase rose: {:?}", w);
        }
        assert!(fast.last().unwrap().1 < slow.last().unwrap().1 + 1.0);
        assert!(fast.last().unwrap().1 <= 1.5, "did not reach bottom: {:?}", fast.last());
    }
}
