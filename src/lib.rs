//! # gramc
//!
//! Full-system simulator for **GRAMC: General-Purpose and Reconfigurable
//! Analog Matrix Computing Architecture** (DATE 2025) — an RRAM-based
//! in-memory analog matrix processor that reconfigures one macro into four
//! computing modes: matrix-vector multiplication (MVM), linear-system solve
//! (INV), pseudoinverse/least-squares (PINV) and dominant eigenvector (EGV).
//!
//! This crate is a facade over the workspace:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`linalg`] | dense LA baseline (LU/QR/SVD/eigen), random ensembles |
//! | [`device`] | Stanford-PKU RRAM model, 1T1R cell, level quantizer |
//! | [`array`](mod@array) | 128×128 crossbar, write-verify, conductance mapping |
//! | [`circuit`]| MNA simulator + the four AMC topologies |
//! | [`core`]   | AMC macro group, ISA + controller, functional modules |
//! | [`runtime`]| sharded multi-group runtime, work-stealing scheduler |
//! | [`nn`]     | LeNet-5 training/quantization + analog backends |
//! | [`data`]   | synthetic digits, PM2.5 regression, spiked Gram |
//!
//! # Quickstart
//!
//! ```
//! use gramc::core::{MacroGroup, MacroConfig};
//! use gramc::linalg::Matrix;
//!
//! # fn main() -> Result<(), gramc::core::CoreError> {
//! let mut group = MacroGroup::new(2, MacroConfig::small_ideal(4), 42);
//! let a = Matrix::from_rows(&[&[2.0, -0.5], &[-0.5, 1.5]]);
//! let op = group.load_matrix(&a)?;
//! // One-step analog solve of A·x = b on the INV configuration.
//! let x = group.solve_inv(op, &[0.4, -0.2])?;
//! assert!((2.0 * x[0] - 0.5 * x[1] - 0.4).abs() < 0.02);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use gramc_array as array;
pub use gramc_circuit as circuit;
pub use gramc_core as core;
pub use gramc_data as data;
pub use gramc_device as device;
pub use gramc_linalg as linalg;
pub use gramc_nn as nn;
pub use gramc_runtime as runtime;
