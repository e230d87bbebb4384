//! # gramc-array
//!
//! Crossbar-array substrate for GRAMC: the 128×128 1T1R array with its
//! region-selecting drivers, the paper's on-chip write-verify scheme
//! (Fig. 1 / blue path of Fig. 3), and the signed/bit-sliced conductance
//! mapping used by all four analog matrix primitives.
//!
//! Layering:
//!
//! * [`CrossbarArray`] — cells + drivers + analog read/MVM fast paths,
//! * [`WriteVerifyController`] — pulse-level program-and-verify, plus the
//!   Fig. 1(b)/(c) staircase experiments ([`set_staircase`] /
//!   [`reset_staircase`]),
//! * [`ConductanceMapper`] / [`BitSlicedMatrix`] — signed 4-bit and sliced
//!   8-bit matrix encodings with current decoders.
//!
//! # Conductance cache and the batched fast path
//!
//! A crosspoint array performs an MVM in a single analog step; what costs
//! the *simulator* is reconstructing the effective-conductance matrix from
//! the per-cell compact models. [`CrossbarArray`] therefore keeps a
//! **generation-tagged snapshot cache** with a strict invalidation
//! contract:
//!
//! * **Reads are cached.** [`CrossbarArray::effective_conductances`] and
//!   the batched [`CrossbarArray::row_currents_batch`] serve from a
//!   per-region snapshot, rebuilding it only on the first read after a
//!   mutation.
//! * **Mutations invalidate.** [`CrossbarArray::program_direct`] and every
//!   [`CrossbarArray::cell_mut`] borrow (the write-verify controller's
//!   entry point) bump [`CrossbarArray::generation`] and drop all
//!   snapshots. External controllers driving cells through other means
//!   must call [`CrossbarArray::invalidate_cache`] themselves.
//! * **Noisy reads stay fresh.** [`CrossbarArray::conductances`] models an
//!   ADC sample with per-cell read noise, drawn anew on every call. Only the
//!   noise-free conductance under the noise is reused, per region and under
//!   the same invalidation, so each cell's compact model is evaluated once
//!   per generation; this reuse is not counted as a snapshot hit or miss.
//! * **Faults invalidate too.** Installing/clearing a
//!   [`gramc_device::FaultPlan`] and advancing the fault clock
//!   (conductance drift) invalidate the cache the same way a programming
//!   pass does, so snapshots never serve a stale fault state.
//!
//! The batched read takes a `Matrix` whose rows are drive vectors,
//! amortizes one snapshot (plus one transpose) over the whole batch, and
//! runs the products through `gramc_linalg`'s blocked matmul. A batch of
//! `B` drive vectors gives the bits of `B` one-row batches with the same
//! RNG — the regression tests in `crossbar.rs` pin both properties
//! (bit-equality and stale-cache invalidation).
//!
//! # Examples
//!
//! ```
//! use gramc_array::{CrossbarArray, ArrayConfig, ActiveRegion, WriteVerifyController};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), gramc_array::ArrayError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(5);
//! let mut xbar = CrossbarArray::new(ArrayConfig::ideal(2, 2), &mut rng);
//! let wv = WriteVerifyController::paper_default();
//! let region = ActiveRegion::full(2, 2);
//! let report = wv.program_region(&mut xbar, region, &[3, 7, 11, 15], &mut rng)?;
//! assert_eq!(report.failures, 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod crossbar;
mod error;
mod mapping;
mod write_verify;

pub use crossbar::{ActiveRegion, ArrayConfig, CrossbarArray, PAPER_ARRAY_SIZE};
pub use error::ArrayError;
pub use gramc_device::{FaultConfig, FaultKind, FaultPlan};
pub use mapping::{BitSlicedMatrix, ConductanceMapper, LevelMatrix, MappedMatrix, SignedEncoding};
pub use write_verify::{
    reset_staircase, set_staircase, CellReport, ProgramOutcome, ProgramReport, StaircasePoint,
    WriteVerifyConfig, WriteVerifyController,
};
