//! # gramc-core
//!
//! The GRAMC architecture: reconfigurable AMC macros, the hybrid
//! digital/analog system of the paper's Fig. 3, and the digital functional
//! modules.
//!
//! * [`MacroGroup`] / [`AmcMacro`] — the paper's Fig. 2 macro group with the
//!   four analog primitives (MVM / INV / PINV / EGV),
//! * [`Dac`] / [`Adc`] — the DA/AD interfaces,
//! * [`RegisterArray`] / [`MacroMode`] — transmission-gate reconfiguration,
//! * [`functional`] — pooling / activation / softmax / requantization,
//! * [`NonidealityConfig`] — every analog error source in one place,
//! * `isa` / `system` / `compiler` — instruction set, controller and the
//!   write-verify / solve data paths,
//! * [`tiling`] — multi-macro placement for matrices beyond 128×128,
//! * [`metrics`] — latency/energy models for analog-vs-digital comparisons.

#![warn(missing_docs)]

mod amc_macro;
pub mod assembler;
pub mod compiler;
mod converter;
mod error;
pub mod functional;
pub mod isa;
pub mod metrics;
mod nonideal;
mod registers;
pub mod system;
pub mod tiling;

pub use amc_macro::{
    AmcMacro, EgvSolution, MacroConfig, MacroGroup, OperatorId, OperatorInfo, ProbeReport,
};
pub use converter::{Adc, Dac};
pub use error::CoreError;
pub use functional::{argmax, pool2d, requantize, softmax, Activation, Pooling};
pub use gramc_array::{FaultConfig, FaultKind, FaultPlan, ProgramOutcome};
pub use gramc_telemetry::{HwCounters, HwSnapshot};
pub use nonideal::{NonidealityConfig, ProgrammingMode};
pub use registers::{GateConfiguration, MacroMode, OpampRole, RegisterArray};
