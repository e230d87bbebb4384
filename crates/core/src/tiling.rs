//! Multi-macro tiling for matrices larger than one 128×128 array.
//!
//! The paper's system has 16 macros (Fig. 3) precisely so larger operators
//! can be spread across them; LeNet-5's first fully-connected layer
//! (120×256) and the im2col matrices of its convolutions need this. A
//! [`TiledOperator`] splits a matrix into array-sized tiles, loads each tile
//! as its own operator and accumulates partial MVM results digitally.

use gramc_linalg::Matrix;

use crate::amc_macro::{MacroGroup, OperatorId};
use crate::error::CoreError;

/// Whether tiles use 4-bit differential or 8-bit bit-sliced mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TileMapping {
    /// Differential 4-bit planes (the paper's default).
    #[default]
    FourBit,
    /// Bit-sliced INT8 (two nibble planes per sign).
    BitSlicedInt8,
}

/// Tile origins covering a `rows × cols` matrix with tiles of at most
/// `tile_rows × tile_cols`: the row/column start offsets of the grid.
///
/// Shared by [`TiledOperator`] and the cross-shard tiled operator in
/// `gramc-runtime`, so both split a matrix identically.
pub fn tile_grid(
    rows: usize,
    cols: usize,
    tile_rows: usize,
    tile_cols: usize,
) -> (Vec<usize>, Vec<usize>) {
    let row_starts = (0..rows).step_by(tile_rows.max(1)).collect();
    let col_starts = (0..cols).step_by(tile_cols.max(1)).collect();
    (row_starts, col_starts)
}

/// A matrix operator tiled across several macros.
#[derive(Debug)]
pub struct TiledOperator {
    rows: usize,
    cols: usize,
    /// `tiles[r][c]` covers rows `row_starts[r]..` and cols `col_starts[c]..`.
    tiles: Vec<Vec<OperatorId>>,
    row_starts: Vec<usize>,
    col_starts: Vec<usize>,
    freed: bool,
}

impl TiledOperator {
    /// Splits `a` into tiles no larger than the group's array and loads each
    /// tile.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfCapacity`] if the group cannot hold all tiles, plus
    /// mapping errors for degenerate input.
    pub fn load(
        group: &mut MacroGroup,
        a: &Matrix,
        mapping: TileMapping,
    ) -> Result<Self, CoreError> {
        let (rows, cols) = a.shape();
        if rows == 0 || cols == 0 {
            return Err(CoreError::InvalidArgument("cannot tile an empty matrix"));
        }
        let tile_rows = group.config().array_rows;
        let tile_cols = group.config().array_cols;
        let (row_starts, col_starts) = tile_grid(rows, cols, tile_rows, tile_cols);

        let mut tiles = Vec::with_capacity(row_starts.len());
        let mut loaded: Vec<OperatorId> = Vec::new();
        for &r0 in &row_starts {
            let mut row_tiles = Vec::with_capacity(col_starts.len());
            for &c0 in &col_starts {
                let tr = tile_rows.min(rows - r0);
                let tc = tile_cols.min(cols - c0);
                let block = a.block(r0, c0, tr, tc);
                let result = match mapping {
                    TileMapping::FourBit => group.load_matrix(&block),
                    TileMapping::BitSlicedInt8 => group.load_matrix_bitsliced(&block),
                };
                match result {
                    Ok(id) => {
                        loaded.push(id);
                        row_tiles.push(id);
                    }
                    Err(e) => {
                        // Roll back everything loaded so far.
                        for id in loaded {
                            let _ = group.free_operator(id);
                        }
                        return Err(e);
                    }
                }
            }
            tiles.push(row_tiles);
        }
        Ok(Self { rows, cols, tiles, row_starts, col_starts, freed: false })
    }

    /// Logical shape of the tiled matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of tiles.
    pub fn tile_count(&self) -> usize {
        self.tiles.iter().map(Vec::len).sum()
    }

    /// Tiled analog MVM, a one-row [`mvm_batch_rows`](Self::mvm_batch_rows):
    /// every tile computes its partial product on its own macro and the
    /// partials are accumulated digitally.
    ///
    /// # Errors
    ///
    /// [`CoreError::ShapeMismatch`] for wrong input length; stale-handle
    /// errors after [`free`](Self::free).
    pub fn mvm(&self, group: &mut MacroGroup, x: &[f64]) -> Result<Vec<f64>, CoreError> {
        Ok(self.mvm_batch_rows(group, &Matrix::from_rows(&[x]))?.row(0).to_vec())
    }

    /// Tiled batched MVM: each tile reads its conductances once for the
    /// whole batch (see [`MacroGroup::mvm_batch`]) and partials accumulate
    /// digitally per column.
    ///
    /// # Errors
    ///
    /// Same conditions as [`mvm`](Self::mvm).
    pub fn mvm_batch(
        &self,
        group: &mut MacroGroup,
        xs: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, CoreError> {
        for x in xs {
            if x.len() != self.cols {
                return Err(CoreError::ShapeMismatch { expected: self.cols, found: x.len() });
            }
        }
        let mut v = Matrix::zeros(xs.len(), self.cols);
        for (b, x) in xs.iter().enumerate() {
            v.row_mut(b).copy_from_slice(x);
        }
        let out = self.mvm_batch_rows(group, &v)?;
        Ok((0..out.rows()).map(|b| out.row(b).to_vec()).collect())
    }

    /// [`mvm_batch`](Self::mvm_batch) on matrix batches (row `b` in, row `b`
    /// out — the layout [`MacroGroup::mvm_batch_rows`] consumes directly).
    /// Per tile, one column-slice matrix feeds one analog batch drive; the
    /// streaming `gramc-nn` pipeline calls this with whole-dataset drive
    /// matrices so nothing is allocated per image.
    ///
    /// # Errors
    ///
    /// Same conditions as [`mvm`](Self::mvm).
    pub fn mvm_batch_rows(&self, group: &mut MacroGroup, xs: &Matrix) -> Result<Matrix, CoreError> {
        if self.freed {
            return Err(CoreError::InvalidOperator);
        }
        if xs.cols() != self.cols {
            return Err(CoreError::ShapeMismatch { expected: self.cols, found: xs.cols() });
        }
        let bsz = xs.rows();
        let mut ys = Matrix::zeros(bsz, self.rows);
        for (ri, &r0) in self.row_starts.iter().enumerate() {
            for (ci, &c0) in self.col_starts.iter().enumerate() {
                let id = self.tiles[ri][ci];
                let info = group.operator_info(id)?;
                let (tr, tc) = (info.rows, info.cols);
                let slice = xs.block(0, c0, bsz, tc);
                let partials = group.mvm_batch_rows(id, &slice)?;
                for b in 0..bsz {
                    let y = &mut ys.row_mut(b)[r0..r0 + tr];
                    for (yk, &p) in y.iter_mut().zip(&partials.row(b)[..tr]) {
                        *yk += p;
                    }
                }
            }
        }
        Ok(ys)
    }

    /// Releases all tiles.
    ///
    /// # Errors
    ///
    /// Stale-handle errors if already freed.
    pub fn free(&mut self, group: &mut MacroGroup) -> Result<(), CoreError> {
        if self.freed {
            return Err(CoreError::InvalidOperator);
        }
        self.freed = true;
        for row in &self.tiles {
            for &id in row {
                group.free_operator(id)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amc_macro::MacroConfig;
    use gramc_linalg::{random, vector};

    #[test]
    fn single_tile_matches_plain_operator() {
        let mut group = MacroGroup::new(2, MacroConfig::small_ideal(8), 20);
        let mut rng = random::seeded_rng(80);
        let a = random::gaussian_matrix(&mut rng, 6, 6);
        let tiled = TiledOperator::load(&mut group, &a, TileMapping::FourBit).unwrap();
        assert_eq!(tiled.tile_count(), 1);
        let x = random::normal_vector(&mut rng, 6);
        let y = tiled.mvm(&mut group, &x).unwrap();
        let y_ref = a.matvec(&x);
        assert!(vector::rel_error(&y, &y_ref) < 0.05);
    }

    #[test]
    fn multi_tile_mvm_accumulates_correctly() {
        // 10×10 matrix on 4×4 arrays → 3×3 tiles; full-width tiles need
        // two macros each (2·4 cols > 4), edge tiles pack into one:
        // 3 rows × (2+2+1) = 15 macros.
        let mut group = MacroGroup::new(16, MacroConfig::small_ideal(4), 21);
        let mut rng = random::seeded_rng(81);
        let a = random::gaussian_matrix(&mut rng, 10, 10);
        let tiled = TiledOperator::load(&mut group, &a, TileMapping::FourBit).unwrap();
        assert_eq!(tiled.tile_count(), 9);
        assert_eq!(tiled.shape(), (10, 10));
        let x = random::normal_vector(&mut rng, 10);
        let y = tiled.mvm(&mut group, &x).unwrap();
        let y_ref = a.matvec(&x);
        // Tile-local quantization scales differ from global quantization,
        // so compare against the true product with a modest tolerance.
        assert!(vector::rel_error(&y, &y_ref) < 0.08, "{y:?} vs {y_ref:?}");
    }

    #[test]
    fn capacity_rollback_frees_partial_loads() {
        let mut group = MacroGroup::new(2, MacroConfig::small_ideal(4), 22);
        let mut rng = random::seeded_rng(82);
        let a = random::gaussian_matrix(&mut rng, 12, 12); // needs 9 tiles
        let before = group.free_macros();
        assert!(TiledOperator::load(&mut group, &a, TileMapping::FourBit).is_err());
        assert_eq!(group.free_macros(), before, "rollback must free claimed macros");
    }

    #[test]
    fn free_releases_and_invalidates() {
        let mut group = MacroGroup::new(8, MacroConfig::small_ideal(4), 23);
        let mut rng = random::seeded_rng(83);
        let a = random::gaussian_matrix(&mut rng, 8, 8);
        let mut tiled = TiledOperator::load(&mut group, &a, TileMapping::FourBit).unwrap();
        let before = group.free_macros();
        tiled.free(&mut group).unwrap();
        assert!(group.free_macros() > before);
        assert!(tiled.mvm(&mut group, &[0.0; 8]).is_err());
        assert!(tiled.free(&mut group).is_err());
    }

    #[test]
    fn input_length_checked() {
        let mut group = MacroGroup::new(2, MacroConfig::small_ideal(4), 24);
        let a = Matrix::identity(4);
        let tiled = TiledOperator::load(&mut group, &a, TileMapping::FourBit).unwrap();
        assert!(matches!(tiled.mvm(&mut group, &[1.0; 3]), Err(CoreError::ShapeMismatch { .. })));
    }
}
