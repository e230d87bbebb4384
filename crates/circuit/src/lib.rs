//! # gramc-circuit
//!
//! Analog circuit simulator for the GRAMC macro: modified nodal analysis
//! (MNA) over conductances, sources and behavioural op-amps, with a DC
//! operating-point solver and a single-pole transient engine with output
//! saturation.
//!
//! MNA systems are stamped into sparse rows and factored by sparse
//! elimination ([`DcOperator`]): op-amp currents, op-amp constraint rows and
//! inverter nodes go first, and `gramc-linalg`'s dense `LuDecomposition`
//! factors only what the crossbar couples — the `n` solution nodes of an
//! `n×n` INV circuit, and for an `m×n` PINV circuit the `n` solution nodes
//! left once the `m` residual-side pivots, which share no row or column,
//! are eliminated in one Schur step. Every factorization records its
//! elimination and the slots each conductance stamps, so a fresh read of
//! the arrays is gathered straight into it and the elimination replayed,
//! with no netlist ([`DcOperator::refactor_conductances`], with the element
//! orders of [`topology::inv_conductances`] and
//! [`topology::pinv_conductances`]).
//!
//! The crate's centerpiece is [`topology`]: builders for the four
//! reconfigurable AMC circuit configurations of the paper — MVM, INV, PINV
//! and EGV — wired from the same component inventory exactly as the
//! register-array-controlled transmission gates reconfigure the hardware
//! macro (paper Fig. 2).
//!
//! # Examples
//!
//! One-step solution of `A·x = b` with the INV configuration:
//!
//! ```
//! use gramc_circuit::{topology, dc_solve, OpampModel};
//! use gramc_linalg::Matrix;
//!
//! # fn main() -> Result<(), gramc_circuit::CircuitError> {
//! // A = [[2, -0.5], [-0.5, 1.5]] mapped at 50 µS per matrix unit.
//! let unit = 50e-6;
//! let a = Matrix::from_rows(&[&[2.0, -0.5], &[-0.5, 1.5]]);
//! let g_pos = a.map(|v| if v > 0.0 { v * unit + 1e-6 } else { 1e-6 });
//! let g_neg = a.map(|v| if v < 0.0 { -v * unit + 1e-6 } else { 1e-6 });
//! let b = [0.4, -0.2];
//! let v_unit = 0.1; // volts per solution unit
//! let i_in: Vec<f64> = b.iter().map(|bi| -unit * bi * v_unit).collect();
//! let t = topology::build_inv(&g_pos, &g_neg, &i_in, OpampModel::ideal())?;
//! let sol = dc_solve(&t.circuit)?;
//! let x: Vec<f64> = sol.voltages(&t.x_nodes).iter().map(|v| v / v_unit).collect();
//! assert!((2.0 * x[0] - 0.5 * x[1] - 0.4).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod dc;
mod error;
mod netlist;
mod sparse;
pub mod topology;
mod transient;

pub use dc::{dc_solve, DcOperator, DcSolution};
pub use error::CircuitError;
pub use netlist::{Circuit, CurrentSourceId, Node, OpampId, OpampModel, VoltageSourceId};
pub use transient::{transient_solve, TransientConfig, TransientResult};
