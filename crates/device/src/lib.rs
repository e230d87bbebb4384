//! # gramc-device
//!
//! Device-physics substrate for GRAMC: the Stanford-PKU RRAM compact model,
//! the 1T1R cell with its NMOS access transistor, and the 16-level (4-bit)
//! conductance quantizer of the paper's write-verify scheme.
//!
//! The model hierarchy is:
//!
//! * [`RramDevice`] — filament-gap state machine with `sinh` I–V and
//!   field/temperature-accelerated gap dynamics (paper Fig. 1a),
//! * [`Nmos`] — velocity-saturated access transistor whose gate voltage sets
//!   the SET compliance current (linear in overdrive, per ref. \[7\]),
//! * [`OneTOneR`] — the series cell, self-consistently solving the divider
//!   every pulse sub-step; exposes [`set_pulse`](OneTOneR::set_pulse) /
//!   [`reset_pulse`](OneTOneR::reset_pulse) / [`read`](OneTOneR::read),
//! * [`LevelQuantizer`] — the 1–100 µS, 16-level target grid.
//!
//! # Examples
//!
//! ```
//! use gramc_device::{OneTOneR, DeviceParams, Nmos, CellNoise, LevelQuantizer};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut cell = OneTOneR::new(DeviceParams::default(), Nmos::default(), CellNoise::none());
//! let quant = LevelQuantizer::paper_default();
//!
//! // A V_g ramp (the paper's SET write scheme) walks the cell up the levels.
//! let mut vg = 0.75;
//! for _ in 0..40 {
//!     cell.set_pulse(vg, 2.0, 30e-9, &mut rng);
//!     vg += 0.02;
//! }
//! assert!(quant.level_of(cell.read(&mut rng)) > 4);
//! ```

#![warn(missing_docs)]

mod fault;
mod levels;
mod nmos;
mod one_t_one_r;
mod retention;
mod stanford_pku;

pub use fault::{FaultConfig, FaultKind, FaultPlan};
pub use levels::{LevelQuantizer, MICRO_SIEMENS};
pub use nmos::Nmos;
pub use one_t_one_r::{CellNoise, OneTOneR};
pub use retention::{EnduranceModel, RetentionModel};
pub use stanford_pku::{DeviceParams, RramDevice};
