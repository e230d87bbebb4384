//! # gramc-linalg
//!
//! Dense linear-algebra substrate for the GRAMC analog matrix computing
//! simulator.
//!
//! The paper ("GRAMC: General-Purpose and Reconfigurable Analog Matrix
//! Computing Architecture", DATE 2025) validates its analog circuits against
//! "numerical results from Python". This crate is that numerical baseline,
//! implemented from scratch:
//!
//! * [`Matrix`] — dense row-major `f64` matrix with the usual arithmetic,
//! * [`LuDecomposition`] — LU with partial pivoting (solve / inverse / det),
//!   which in `gramc-circuit`'s MNA solves factors only the dense,
//!   crossbar-coupled core left after sparse elimination,
//! * [`QrDecomposition`] — Householder QR and least squares,
//! * [`SymmetricEigen`] / [`power_iteration`] — eigensolvers (EGV baseline),
//! * [`Svd`] / [`pseudoinverse`] — one-sided Jacobi SVD (PINV baseline),
//! * [`iterative`] — CG / Richardson with warm starts, quantifying the
//!   paper's "analog seed solution" claim,
//! * [`random`] — seeded Wishart / Gram / Gaussian workload generators.
//!
//! # Performance architecture
//!
//! The crate is the compute floor for everything above it (crossbar reads,
//! MNA solves, tiled macro dispatch, LeNet inference), so its hot paths are
//! organized as a **raw-speed ladder** — each rung is bit-identical to the
//! path it replaced and benchmarked against it in `BENCH_kernels.json`:
//!
//! 1. **Packed register-tile matmul** (`kernel`): [`Matrix::matmul`]
//!    dispatches large-enough products to a 4×4 register-tile micro-kernel
//!    over a column-packed copy of the right-hand side. Packing changes
//!    only *where* B is read, and every output element still accumulates
//!    its k-terms in ascending order with separate mul + add, so the
//!    result is bit-identical to the blocked kernel
//!    ([`Matrix::matmul_unpacked`]) it replaced.
//! 2. **Blocked parallel LU** ([`LuDecomposition::new`]): right-looking
//!    panel factorization whose trailing-submatrix updates fan out over
//!    the [`parallel`] helpers; column ownership makes every f64 touched
//!    by exactly one thread, so the factors match the serial oracle
//!    ([`LuDecomposition::new_unblocked`]) bitwise at any thread count.
//! 3. **One product per macro batch** (`gramc-core`): an operator's 2 or 4
//!    conductance planes are packed once, side by side, into a
//!    [`PackedRhs`] `[G₀ᵀ | G₁ᵀ | …]` kept with the operator, and each
//!    batch of drive vectors is one [`PackedRhs::left_mul`] against it
//!    (rows split over threads) instead of one `matmul`, with its own
//!    packing, per plane. A one-row product keeps four panels' accumulators
//!    in flight, so small served batches are not bound by add latency.
//! 4. **Fused streaming inference** (`gramc-nn`): im2col writes straight
//!    into reusable whole-batch drive matrices; bias + ReLU + pooling fuse
//!    into the decode pass. Zero per-image heap allocation at steady
//!    state.
//! 5. **AVX2 builds chosen at run time**: the row-chunk body of
//!    [`PackedRhs::left_mul`] (so [`Matrix::matmul`]'s packed path, every
//!    macro batch, the PINV Schur product and LeNet) and, in `gramc-core`,
//!    the DAC-drive and ADC-decode loops of a macro batch are each one
//!    source built twice: for the compilation target and with AVX2
//!    enabled. An x86-64 CPU with AVX2 runs the second ([`kernel_isa`]
//!    says which). Rust never fuses a multiply and an add, so both builds
//!    give the same bits; no flag or setting chooses between them.
//!
//! The [`parallel`] module is the one switchboard for all of this: the
//! `parallel` cargo feature (default on) gates thread spawning, and
//! [`parallel::with_thread_cap`] scopes a deterministic serial fallback
//! for tests and benchmarks. Because every rung is bit-identical, the
//! feature flag and cap change speed, never answers.
//!
//! # Examples
//!
//! ```
//! use gramc_linalg::{random, lu, Matrix};
//!
//! # fn main() -> Result<(), gramc_linalg::LinalgError> {
//! let mut rng = random::seeded_rng(42);
//! let a = random::wishart(&mut rng, 8, 16);
//! let b = random::normal_vector(&mut rng, 8);
//! let x = lu::solve(&a, &b)?;
//! let residual: f64 = gramc_linalg::vector::rel_error(&a.matvec(&x), &b);
//! assert!(residual < 1e-10);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod error;
mod kernel;
mod matrix;

pub mod eigen;
pub mod iterative;
pub mod lu;
pub mod parallel;
pub mod qr;
pub mod random;
pub mod svd;
pub mod vector;

pub use error::LinalgError;
pub use kernel::{kernel_isa, PackedRhs};
pub use matrix::Matrix;

pub use eigen::{power_iteration, EigenPair, SymmetricEigen};
pub use iterative::{conjugate_gradient, richardson, IterativeSolution};
pub use lu::LuDecomposition;
pub use qr::QrDecomposition;
pub use svd::{pseudoinverse, Svd};
