//! Stanford-PKU RRAM compact model (Jiang et al., SISPAD 2014 — ref. [6] of
//! the paper), simplified exactly as GRAMC does: "the complex process of ion
//! and vacancy immigration is simplified into the growth of a single domain
//! filament that preserves the underlying physics".
//!
//! The state variable is the tunneling gap `g` between the filament tip and
//! the electrode:
//!
//! * current:       `I(V, g) = I0 · exp(−g/g0) · sinh(V/V0)`
//! * gap dynamics:  `dg/dt  = −ν(V) · sinh(V/V_dyn) · θ(T)`
//!
//! where `ν` is direction-dependent (SET grows the filament / shrinks the
//! gap for `V > 0`; RESET dissolves it for `V < 0`) and `θ(T)` is an
//! Arrhenius acceleration from Joule self-heating.

use rand::Rng;

/// Boltzmann constant over electron charge, in V/K.
const K_B_OVER_Q: f64 = 8.617_333e-5;
/// Ambient temperature in kelvin.
const T_AMBIENT: f64 = 300.0;

/// Physical parameters of the Stanford-PKU compact model.
///
/// The defaults are calibrated (see this file's tests, e.g.
/// `conductance_window_covers_1_to_100_us`) so that the read conductance
/// spans the paper's 1–100 µS window over 16 levels and a 30 ns pulse
/// train reproduces the Fig. 1 SET/RESET staircases.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceParams {
    /// Current prefactor `I0` in amperes.
    pub i0: f64,
    /// Gap attenuation length `g0` in nanometres.
    pub g0: f64,
    /// I–V shape voltage `V0` in volts.
    pub v0: f64,
    /// Hard physical bounds on the gap, in nanometres.
    pub gap_min: f64,
    /// See [`DeviceParams::gap_min`].
    pub gap_max: f64,
    /// SET gap-velocity prefactor in nm/s (already includes the ambient
    /// Arrhenius factor `exp(−Ea/kT_amb)`).
    pub nu_set: f64,
    /// RESET gap-velocity prefactor in nm/s.
    pub nu_reset: f64,
    /// Dynamics shape voltage `V_dyn` in volts (smaller ⇒ sharper freeze-out
    /// of filament motion at low bias).
    pub v_dyn: f64,
    /// Activation energy for filament motion in eV (used only for the Joule
    /// heating correction relative to ambient).
    pub ea: f64,
    /// Thermal resistance in K/W for Joule self-heating; 0 disables heating.
    pub r_th: f64,
    /// Read voltage in volts at which chord conductance is defined.
    pub v_read: f64,
}

impl Default for DeviceParams {
    fn default() -> Self {
        Self {
            i0: 75e-6,
            g0: 0.25,
            v0: 0.25,
            gap_min: 0.1,
            gap_max: 1.7,
            nu_set: 1.5e3,
            nu_reset: 30.0,
            v_dyn: 0.15,
            ea: 0.6,
            r_th: 5.0e5,
            v_read: 0.2,
        }
    }
}

impl DeviceParams {
    /// Chord conductance `I(v_read, gap)/v_read` for a given gap, in siemens.
    pub fn conductance_at_gap(&self, gap: f64) -> f64 {
        self.i0 * (-gap / self.g0).exp() * (self.v_read / self.v0).sinh() / self.v_read
    }

    /// Inverse of [`conductance_at_gap`](Self::conductance_at_gap): gap that
    /// yields the requested read conductance (clamped to physical bounds).
    pub fn gap_for_conductance(&self, g_target: f64) -> f64 {
        let g_ref = self.i0 * (self.v_read / self.v0).sinh() / self.v_read;
        let gap = -self.g0 * (g_target / g_ref).ln();
        gap.clamp(self.gap_min, self.gap_max)
    }
}

/// One RRAM device: the compact-model parameters plus its gap state.
///
/// # Examples
///
/// ```
/// use gramc_device::{RramDevice, DeviceParams};
///
/// let mut dev = RramDevice::new(DeviceParams::default());
/// let g_fresh = dev.read_conductance();
/// // A strong positive (SET) voltage grows the filament => conductance up.
/// dev.apply_voltage(1.5, 30e-9);
/// assert!(dev.read_conductance() > g_fresh);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RramDevice {
    params: DeviceParams,
    gap: f64,
}

impl RramDevice {
    /// Creates a device in its high-resistance (maximum-gap) state.
    pub fn new(params: DeviceParams) -> Self {
        let gap = params.gap_max;
        Self { params, gap }
    }

    /// Creates a device programmed so its read conductance equals
    /// `conductance` (in siemens), clamped to the physical range.
    pub fn with_conductance(params: DeviceParams, conductance: f64) -> Self {
        let gap = params.gap_for_conductance(conductance);
        Self { params, gap }
    }

    /// Applies per-device (device-to-device) variability by perturbing `I0`
    /// and `g0` with the given relative sigmas.
    pub fn with_variation<R: Rng + ?Sized>(
        mut self,
        rng: &mut R,
        i0_rel_sigma: f64,
        g0_rel_sigma: f64,
    ) -> Self {
        let n1 = gramc_box_muller(rng);
        let n2 = gramc_box_muller(rng);
        self.params.i0 *= (1.0 + i0_rel_sigma * n1).max(0.1);
        self.params.g0 *= (1.0 + g0_rel_sigma * n2).max(0.1);
        self
    }

    /// The model parameters.
    pub fn params(&self) -> &DeviceParams {
        &self.params
    }

    /// Current tunneling gap in nanometres.
    pub fn gap(&self) -> f64 {
        self.gap
    }

    /// Forces the gap (clamped to bounds). Used by tests and by the
    /// cycle-to-cycle noise injection in [`crate::OneTOneR`].
    pub fn set_gap(&mut self, gap: f64) {
        self.gap = gap.clamp(self.params.gap_min, self.params.gap_max);
    }

    /// Device current at voltage `v` (signed; `sinh` gives the correct
    /// polarity for negative bias).
    pub fn current(&self, v: f64) -> f64 {
        self.params.i0 * (-self.gap / self.params.g0).exp() * (v / self.params.v0).sinh()
    }

    /// Chord conductance at the model's read voltage, in siemens.
    pub fn read_conductance(&self) -> f64 {
        self.params.conductance_at_gap(self.gap)
    }

    /// Gap velocity `dg/dt` (nm/s) at device voltage `v`.
    ///
    /// Positive `v` (SET polarity) returns a negative velocity (gap shrinks,
    /// filament grows); negative `v` (RESET) returns a positive velocity.
    /// Joule self-heating accelerates both directions.
    pub fn gap_velocity(&self, v: f64) -> f64 {
        if v == 0.0 {
            return 0.0;
        }
        let nu = if v > 0.0 { self.params.nu_set } else { self.params.nu_reset };
        let base = -nu * (v / self.params.v_dyn).sinh();
        if self.params.r_th > 0.0 {
            let power = (v * self.current(v)).abs();
            let t = T_AMBIENT + power * self.params.r_th;
            let accel = (self.params.ea / K_B_OVER_Q * (1.0 / T_AMBIENT - 1.0 / t)).exp();
            base * accel
        } else {
            base
        }
    }

    /// Integrates the gap dynamics for `duration` seconds at constant device
    /// voltage `v`, with adaptive sub-stepping so a single call never moves
    /// the gap by more than ~1 % of its range per sub-step.
    pub fn apply_voltage(&mut self, v: f64, duration: f64) {
        let range = self.params.gap_max - self.params.gap_min;
        let max_step_nm = 0.01 * range;
        let mut remaining = duration;
        let mut guard = 0;
        while remaining > 0.0 && guard < 10_000 {
            guard += 1;
            let vel = self.gap_velocity(v);
            if vel == 0.0 {
                break;
            }
            let dt = (max_step_nm / vel.abs()).min(remaining);
            self.gap = (self.gap + vel * dt).clamp(self.params.gap_min, self.params.gap_max);
            remaining -= dt;
            // Saturated at a bound moving outward: nothing further happens.
            if (self.gap == self.params.gap_min && vel < 0.0)
                || (self.gap == self.params.gap_max && vel > 0.0)
            {
                break;
            }
        }
    }
}

/// Standard normal variate via Box–Muller (local copy so `gramc-device` does
/// not depend on `gramc-linalg`).
pub(crate) fn gramc_box_muller<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::MICRO_SIEMENS;

    #[test]
    fn conductance_window_covers_1_to_100_us() {
        let p = DeviceParams::default();
        let g_lo = p.conductance_at_gap(p.gap_max);
        let g_hi = p.conductance_at_gap(p.gap_min);
        assert!(g_lo <= 1.0 * MICRO_SIEMENS && g_hi >= 100.0 * MICRO_SIEMENS);
    }

    #[test]
    fn gap_for_conductance_roundtrips() {
        let p = DeviceParams::default();
        for g_us in [1.0, 7.6, 50.0, 100.0] {
            let gap = p.gap_for_conductance(g_us * MICRO_SIEMENS);
            let back = p.conductance_at_gap(gap) / MICRO_SIEMENS;
            assert!((back - g_us).abs() / g_us < 1e-9, "{g_us} -> {back}");
        }
    }

    #[test]
    fn current_is_odd_in_voltage() {
        let dev = RramDevice::with_conductance(DeviceParams::default(), 50.0 * MICRO_SIEMENS);
        let ip = dev.current(0.2);
        let im = dev.current(-0.2);
        assert!((ip + im).abs() < 1e-18);
        assert!(ip > 0.0);
    }

    #[test]
    fn set_polarity_increases_conductance() {
        let mut dev = RramDevice::new(DeviceParams::default());
        let g0 = dev.read_conductance();
        dev.apply_voltage(1.2, 30e-9);
        assert!(dev.read_conductance() > g0);
    }

    #[test]
    fn reset_polarity_decreases_conductance() {
        let mut dev = RramDevice::with_conductance(DeviceParams::default(), 80.0 * MICRO_SIEMENS);
        let g0 = dev.read_conductance();
        dev.apply_voltage(-1.2, 30e-9);
        assert!(dev.read_conductance() < g0);
    }

    #[test]
    fn zero_bias_is_nonvolatile() {
        let mut dev = RramDevice::with_conductance(DeviceParams::default(), 40.0 * MICRO_SIEMENS);
        let g0 = dev.read_conductance();
        dev.apply_voltage(0.0, 1.0); // a full second at zero bias
        assert_eq!(dev.read_conductance(), g0);
    }

    #[test]
    fn gap_respects_physical_bounds() {
        let p = DeviceParams::default();
        let mut dev = RramDevice::new(p.clone());
        dev.apply_voltage(2.5, 1e-3); // enormous SET dose
        assert!(dev.gap() >= p.gap_min);
        dev.apply_voltage(-2.5, 1e-3); // enormous RESET dose
        assert!(dev.gap() <= p.gap_max);
    }

    #[test]
    fn stronger_bias_moves_gap_faster() {
        let p = DeviceParams::default();
        let mut weak = RramDevice::with_conductance(p.clone(), 10.0 * MICRO_SIEMENS);
        let mut strong = RramDevice::with_conductance(p, 10.0 * MICRO_SIEMENS);
        weak.apply_voltage(0.8, 30e-9);
        strong.apply_voltage(1.2, 30e-9);
        assert!(strong.read_conductance() > weak.read_conductance());
    }

    #[test]
    fn joule_heating_accelerates_switching() {
        let mut p_hot = DeviceParams::default();
        let mut p_cold = DeviceParams::default();
        p_cold.r_th = 0.0;
        p_hot.r_th = 5.0e5;
        let dev_hot = RramDevice::with_conductance(p_hot, 50.0 * MICRO_SIEMENS);
        let dev_cold = RramDevice::with_conductance(p_cold, 50.0 * MICRO_SIEMENS);
        assert!(dev_hot.gap_velocity(1.0).abs() > dev_cold.gap_velocity(1.0).abs());
    }

    #[test]
    fn variation_changes_parameters_deterministically() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let base = RramDevice::new(DeviceParams::default());
        let varied = base.clone().with_variation(&mut rng, 0.05, 0.02);
        assert_ne!(varied.params().i0, base.params().i0);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(9);
        let varied2 = base.with_variation(&mut rng2, 0.05, 0.02);
        assert_eq!(varied.params(), varied2.params());
    }
}
