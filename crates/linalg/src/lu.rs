//! LU factorization with partial pivoting: the workhorse behind the digital
//! baseline solver (`x = A⁻¹b`), and the dense-core factorization of the
//! MNA solves in `gramc-circuit` (which eliminate the sparse rest first).

use crate::error::LinalgError;
use crate::matrix::Matrix;

/// LU factorization `P·A = L·U` with partial (row) pivoting.
///
/// `L` has a unit diagonal and is stored together with `U` in a single packed
/// matrix. Construct with [`LuDecomposition::new`], then call
/// [`solve`](LuDecomposition::solve) any number of times.
///
/// # Examples
///
/// ```
/// use gramc_linalg::{Matrix, LuDecomposition};
///
/// # fn main() -> Result<(), gramc_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
/// let lu = LuDecomposition::new(&a)?;
/// let x = lu.solve(&[10.0, 12.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Packed L (unit lower, below diagonal) and U (upper, including diagonal).
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (±1), used for the determinant.
    perm_sign: f64,
}

/// Pivot magnitudes below this threshold are treated as singular.
const SINGULARITY_TOL: f64 = 1e-13;

/// Minimum RHS columns per thread before `solve_matrix` splits the batch.
const PAR_SOLVE_MIN_COLS: usize = 16;

/// Panel width of the blocked factorization.
const LU_PANEL: usize = 32;

/// Smallest dimension routed to the blocked factorization (below this the
/// panel/trailing split is pure overhead).
const LU_BLOCK_MIN: usize = 64;

/// Trailing-update rows per scheduling unit (multiple of the 4-row tile).
const LU_TRAIL_ROW_BLOCK: usize = 32;

impl LuDecomposition {
    /// Factorizes `a`.
    ///
    /// Dispatches by size: at `LU_BLOCK_MIN` and above this runs the
    /// blocked right-looking factorization (serial panel of `LU_PANEL`
    /// columns, then the O(n²)-per-panel trailing-submatrix update through
    /// the packed register-tile subtract kernel of `crate::kernel`, row
    /// blocks distributed over [`crate::parallel`]); smaller matrices use
    /// the serial unblocked loop
    /// ([`new_unblocked`](Self::new_unblocked)). Both paths perform the
    /// same eliminations in the same per-element order on the same values,
    /// so they choose identical pivots and produce bit-identical factors —
    /// at any thread budget.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::Singular`] if a pivot smaller than the singularity
    ///   threshold (relative to the matrix scale) is encountered.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if a.is_square() && a.rows() >= LU_BLOCK_MIN {
            Self::new_blocked(a)
        } else {
            Self::new_unblocked(a)
        }
    }

    /// Serial unblocked factorization: the reference path every fast flavor
    /// is verified against, and the small-size path of [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// See [`new`](Self::new).
    pub fn new_unblocked(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { found: a.shape() });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::InvalidArgument("empty matrix"));
        }
        let scale = a.max_abs().max(1.0);
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;

        for k in 0..n {
            // Partial pivoting: bring the largest remaining entry in column k
            // to the diagonal.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val <= SINGULARITY_TOL * scale {
                return Err(LinalgError::Singular { pivot: k });
            }
            if pivot_row != k {
                lu.swap_rows(k, pivot_row);
                perm.swap(k, pivot_row);
                perm_sign = -perm_sign;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                if factor == 0.0 {
                    continue;
                }
                for j in (k + 1)..n {
                    let ukj = lu[(k, j)];
                    lu[(i, j)] -= factor * ukj;
                }
            }
        }
        Ok(Self { lu, perm, perm_sign })
    }

    /// Blocked right-looking factorization (see [`new`](Self::new) for the
    /// dispatch story and the equivalence argument).
    ///
    /// Each elimination step still divides by the pivot, updates with a
    /// separate multiply and subtract, and skips exact-zero factors — only
    /// *when* the trailing columns receive their updates moves (deferred to
    /// the panel boundary), never the per-element update order or values.
    fn new_blocked(a: &Matrix) -> Result<Self, LinalgError> {
        debug_assert!(a.is_square() && a.rows() > 0);
        let n = a.rows();
        let scale = a.max_abs().max(1.0);
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        let mut packed = Vec::new();

        for k0 in (0..n).step_by(LU_PANEL) {
            let k1 = (k0 + LU_PANEL).min(n);
            // Panel factorization: full-height columns k0..k1, eliminations
            // applied within the panel only. Every column is fully updated
            // by the time its pivot search runs (in-panel steps here,
            // earlier panels via their trailing updates), so pivot choices
            // match the unblocked loop exactly.
            for k in k0..k1 {
                let mut pivot_row = k;
                let mut pivot_val = lu[(k, k)].abs();
                for i in (k + 1)..n {
                    let v = lu[(i, k)].abs();
                    if v > pivot_val {
                        pivot_val = v;
                        pivot_row = i;
                    }
                }
                if pivot_val <= SINGULARITY_TOL * scale {
                    return Err(LinalgError::Singular { pivot: k });
                }
                if pivot_row != k {
                    lu.swap_rows(k, pivot_row);
                    perm.swap(k, pivot_row);
                    perm_sign = -perm_sign;
                }
                let pivot = lu[(k, k)];
                let data = lu.as_mut_slice();
                let (top, below) = data.split_at_mut((k + 1) * n);
                let urow = &top[k * n + k + 1..k * n + k1];
                for row in below.chunks_exact_mut(n) {
                    let factor = row[k] / pivot;
                    row[k] = factor;
                    if factor == 0.0 {
                        continue;
                    }
                    for (x, &u) in row[k + 1..k1].iter_mut().zip(urow) {
                        *x -= factor * u;
                    }
                }
            }
            if k1 == n {
                break;
            }
            // U12 update: panel rows catch up on columns k1..n, ascending
            // elimination step m per row — the updates the unblocked loop
            // interleaved with the panel's.
            {
                let data = lu.as_mut_slice();
                for k in (k0 + 1)..k1 {
                    let (head, tail) = data.split_at_mut(k * n);
                    let (row_k_head, row_k_trail) = tail[..n].split_at_mut(k1);
                    for m in k0..k {
                        let factor = row_k_head[m];
                        if factor == 0.0 {
                            continue;
                        }
                        let urow = &head[m * n + k1..(m + 1) * n];
                        for (x, &u) in row_k_trail.iter_mut().zip(urow) {
                            *x -= factor * u;
                        }
                    }
                }
            }
            // Trailing update: A22 -= L21 · U12 through the packed subtract
            // micro-kernel, 4-row groups distributed over scoped threads.
            let nb = k1 - k0;
            let ntrail = n - k1;
            {
                let data = lu.as_slice();
                crate::kernel::pack_panels(
                    (k0..k1).map(|r| &data[r * n + k1..(r + 1) * n]),
                    ntrail,
                    &mut packed,
                );
            }
            let packed_ref = &packed;
            let data = lu.as_mut_slice();
            let (_, below) = data.split_at_mut(k1 * n);
            crate::parallel::for_each_chunk_mut(below, LU_TRAIL_ROW_BLOCK * n, |_, chunk| {
                let nrows = chunk.len() / n;
                let mut rest = chunk;
                let mut done = 0;
                while done + 4 <= nrows {
                    let (r0, tail) = rest.split_at_mut(n);
                    let (r1, tail) = tail.split_at_mut(n);
                    let (r2, tail) = tail.split_at_mut(n);
                    let (r3, tail) = tail.split_at_mut(n);
                    let (l0, c0) = r0.split_at_mut(k1);
                    let (l1, c1) = r1.split_at_mut(k1);
                    let (l2, c2) = r2.split_at_mut(k1);
                    let (l3, c3) = r3.split_at_mut(k1);
                    crate::kernel::update_rows_x4::<true, true>(
                        [c0, c1, c2, c3],
                        [&l0[k0..], &l1[k0..], &l2[k0..], &l3[k0..]],
                        packed_ref,
                        nb,
                        ntrail,
                    );
                    rest = tail;
                    done += 4;
                }
                while done < nrows {
                    let (r0, tail) = rest.split_at_mut(n);
                    let (l0, c0) = r0.split_at_mut(k1);
                    crate::kernel::update_rows_x1::<true, true>(
                        c0,
                        &l0[k0..],
                        packed_ref,
                        nb,
                        ntrail,
                    );
                    rest = tail;
                    done += 1;
                }
            });
        }
        Ok(Self { lu, perm, perm_sign })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` using the stored factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch { expected: (n, 1), found: (b.len(), 1) });
        }
        // Forward substitution with permuted RHS (L has unit diagonal).
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[self.perm[i]];
            for j in 0..i {
                sum -= self.lu[(i, j)] * y[j];
            }
            y[i] = sum;
        }
        // Back substitution on U.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for j in (i + 1)..n {
                sum -= self.lu[(i, j)] * x[j];
            }
            x[i] = sum / self.lu[(i, i)];
        }
        Ok(x)
    }

    /// Solves `A·X = B` for all right-hand sides at once.
    ///
    /// All columns are forward/back-substituted in place on one row-major
    /// buffer (contiguous row operations, no per-column `Vec` allocation —
    /// the historical column-by-column path cost an allocation plus a
    /// strided gather/scatter per RHS). With enough columns and a thread
    /// budget above 1 ([`parallel::current_max_threads`](crate::parallel::current_max_threads)),
    /// independent column blocks are solved on scoped threads.
    /// [`solve`](Self::solve) remains the single-RHS entry point and this
    /// method matches it column-for-column.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `B.rows() != dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch { expected: (n, b.cols()), found: b.shape() });
        }
        let m = b.cols();
        if m == 0 {
            return Ok(Matrix::zeros(n, 0));
        }
        let threads = crate::parallel::current_max_threads();
        if threads > 1 && m >= 2 * PAR_SOLVE_MIN_COLS {
            // Column blocks are independent systems: extract, solve each
            // block in place on its own thread, reassemble. The per-block
            // substitution is identical to the serial path, so results do
            // not depend on the split.
            let block_cols = m.div_ceil(threads).max(PAR_SOLVE_MIN_COLS);
            let mut blocks: Vec<Matrix> = (0..m)
                .step_by(block_cols)
                .map(|c0| b.block(0, c0, n, block_cols.min(m - c0)))
                .collect();
            crate::parallel::for_each_chunk_mut(&mut blocks, 1, |_, blk| {
                self.solve_in_place(&mut blk[0]);
            });
            let mut x = Matrix::zeros(n, m);
            for (bi, blk) in blocks.iter().enumerate() {
                x.set_block(0, bi * block_cols, blk);
            }
            return Ok(x);
        }
        let mut x = Matrix::zeros(n, m);
        for i in 0..n {
            x.row_mut(i).copy_from_slice(b.row(self.perm[i]));
        }
        self.solve_rows_in_place(&mut x);
        Ok(x)
    }

    /// Permutes `b`'s rows and substitutes in place (helper for the parallel
    /// column-block path, where each block arrives unpermuted).
    fn solve_in_place(&self, b: &mut Matrix) {
        let n = self.dim();
        let mut x = Matrix::zeros(n, b.cols());
        for i in 0..n {
            x.row_mut(i).copy_from_slice(b.row(self.perm[i]));
        }
        self.solve_rows_in_place(&mut x);
        *b = x;
    }

    /// Forward/back-substitutes every column of the already row-permuted
    /// `x` in place.
    fn solve_rows_in_place(&self, x: &mut Matrix) {
        let n = self.dim();
        let m = x.cols();
        let data = x.as_mut_slice();
        // Forward substitution on unit-lower L: row_i -= l_ij · row_j, j < i.
        for i in 1..n {
            let (done, rest) = data.split_at_mut(i * m);
            let xi = &mut rest[..m];
            for j in 0..i {
                let lij = self.lu[(i, j)];
                if lij == 0.0 {
                    continue;
                }
                let xj = &done[j * m..(j + 1) * m];
                for (a, &b) in xi.iter_mut().zip(xj) {
                    *a -= lij * b;
                }
            }
        }
        // Back substitution on U: row_i -= u_ij · row_j (j > i), then /= u_ii.
        for i in (0..n).rev() {
            let (head, solved) = data.split_at_mut((i + 1) * m);
            let xi = &mut head[i * m..];
            for j in (i + 1)..n {
                let uij = self.lu[(i, j)];
                if uij == 0.0 {
                    continue;
                }
                let xj = &solved[(j - i - 1) * m..(j - i) * m];
                for (a, &b) in xi.iter_mut().zip(xj) {
                    *a -= uij * b;
                }
            }
            // True division (not multiplication by a reciprocal) so every
            // column matches the single-RHS `solve` path bit-for-bit.
            let pivot = self.lu[(i, i)];
            for a in xi.iter_mut() {
                *a /= pivot;
            }
        }
    }

    /// Determinant of the factored matrix.
    pub fn det(&self) -> f64 {
        self.perm_sign * self.lu.diag().iter().product::<f64>()
    }

    /// Inverse of the factored matrix.
    ///
    /// # Errors
    ///
    /// Propagates solve errors (cannot occur for a successfully constructed
    /// factorization, but the signature is kept fallible for uniformity).
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }
}

/// Convenience: solve `A·x = b` with a fresh LU factorization.
///
/// # Errors
///
/// See [`LuDecomposition::new`] and [`LuDecomposition::solve`].
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    LuDecomposition::new(a)?.solve(b)
}

/// Convenience: matrix inverse via LU.
///
/// # Errors
///
/// See [`LuDecomposition::new`].
pub fn inverse(a: &Matrix) -> Result<Matrix, LinalgError> {
    LuDecomposition::new(a)?.inverse()
}

/// Convenience: determinant via LU. Returns 0 for singular matrices.
pub fn det(a: &Matrix) -> f64 {
    match LuDecomposition::new(a) {
        Ok(lu) => lu.det(),
        Err(_) => 0.0,
    }
}

/// Estimates the 1-norm condition number `‖A‖₁·‖A⁻¹‖₁` (exact inverse, so
/// this is the true κ₁ rather than an estimate; cost is O(n³)).
///
/// # Errors
///
/// Returns an error if `a` is singular or not square.
pub fn cond_1(a: &Matrix) -> Result<f64, LinalgError> {
    let inv = inverse(a)?;
    Ok(a.one_norm() * inv.one_norm())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_known_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let x = solve(&a, &[8.0, -11.0, -3.0]).unwrap();
        let expected = [2.0, 3.0, -1.0];
        for (xi, ei) in x.iter().zip(expected) {
            assert!((xi - ei).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = inverse(&a).unwrap();
        assert!(a.matmul(&inv).approx_eq(&Matrix::identity(2), 1e-12));
        assert!(inv.matmul(&a).approx_eq(&Matrix::identity(2), 1e-12));
    }

    #[test]
    fn determinant_of_triangular_and_permuted() {
        let a = Matrix::from_rows(&[&[2.0, 5.0], &[0.0, 3.0]]);
        assert!((det(&a) - 6.0).abs() < 1e-12);
        // Row-swapped version flips the sign.
        let b = Matrix::from_rows(&[&[0.0, 3.0], &[2.0, 5.0]]);
        assert!((det(&b) + 6.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        match LuDecomposition::new(&a) {
            Err(LinalgError::Singular { .. }) => {}
            other => panic!("expected Singular, got {other:?}"),
        }
        assert_eq!(det(&a), 0.0);
    }

    #[test]
    fn non_square_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(LuDecomposition::new(&a), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&a, &[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[9.0, 4.0], &[8.0, 3.0]]);
        let x = LuDecomposition::new(&a).unwrap().solve_matrix(&b).unwrap();
        assert!(a.matmul(&x).approx_eq(&b, 1e-12));
    }

    #[test]
    fn solve_matrix_matches_per_column_solve_exactly() {
        // The in-place multi-RHS sweep performs the same operations in the
        // same order as the single-RHS path, so columns agree bit-for-bit —
        // including sizes large enough to trigger the column-block split.
        let n = 12;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                4.0 + (i as f64).sin()
            } else {
                ((3 * i + 7 * j) as f64 * 0.37).cos() * 0.4
            }
        });
        let lu = LuDecomposition::new(&a).unwrap();
        for m in [1usize, 3, 40] {
            let b = Matrix::from_fn(n, m, |i, j| ((i * m + j) as f64 * 0.61).sin());
            let x = lu.solve_matrix(&b).unwrap();
            for j in 0..m {
                let xj = lu.solve(&b.col(j)).unwrap();
                for i in 0..n {
                    assert!(
                        x[(i, j)].to_bits() == xj[i].to_bits(),
                        "m={m} column {j} row {i}: {} vs {}",
                        x[(i, j)],
                        xj[i]
                    );
                }
            }
        }
    }

    fn assert_factorizations_bit_identical(a: &Matrix, label: &str) {
        let blocked = LuDecomposition::new_blocked(a).unwrap();
        let serial = LuDecomposition::new_unblocked(a).unwrap();
        assert_eq!(blocked.perm, serial.perm, "{label}: pivot choices diverged");
        assert_eq!(blocked.perm_sign, serial.perm_sign, "{label}");
        for (x, y) in blocked.lu.as_slice().iter().zip(serial.lu.as_slice()) {
            assert!(x.to_bits() == y.to_bits(), "{label}: {x} vs {y}");
        }
    }

    #[test]
    fn blocked_factorization_matches_unblocked_bitwise() {
        // Sizes straddling panel boundaries (multiples of the panel, one
        // off, panel-sized, sub-panel) with dense sign-mixed data.
        for n in [5usize, 31, 32, 33, 64, 97, 130] {
            let a = Matrix::from_fn(n, n, |i, j| {
                if i == j {
                    3.0 + (i as f64 * 0.3).sin()
                } else {
                    ((5 * i + 3 * j) as f64 * 0.29).sin() * 0.8 - 0.1
                }
            });
            assert_factorizations_bit_identical(&a, &format!("dense n={n}"));
        }
    }

    #[test]
    fn blocked_factorization_matches_unblocked_on_structured_matrices() {
        // Sparse/structured inputs exercise the exact-zero factor skip and
        // heavy pivoting: a permuted banded matrix and a permuted identity.
        let n = 70;
        let banded = Matrix::from_fn(n, n, |i, j| {
            let d = i.abs_diff(j);
            if d == 0 {
                4.0
            } else if d <= 2 {
                ((i + j) as f64 * 0.41).cos()
            } else {
                0.0
            }
        });
        assert_factorizations_bit_identical(&banded, "banded");
        let mut permuted = Matrix::zeros(n, n);
        for i in 0..n {
            permuted[(i, (i * 13 + 5) % n)] = 1.0 + i as f64 * 0.01;
        }
        assert_factorizations_bit_identical(&permuted, "permuted diagonal");
    }

    #[test]
    fn blocked_factorization_rejects_singular_like_unblocked() {
        // Make a 70×70 matrix singular by duplicating a row; both paths must
        // fail with the Singular error rather than producing garbage.
        let n = 70;
        let mut a = Matrix::from_fn(n, n, |i, j| ((3 * i + 7 * j) as f64 * 0.23).sin());
        let dup = a.row(10).to_vec();
        a.row_mut(50).copy_from_slice(&dup);
        assert!(matches!(LuDecomposition::new_blocked(&a), Err(LinalgError::Singular { .. })));
        assert!(matches!(LuDecomposition::new_unblocked(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn dispatched_factorization_solves_above_block_threshold() {
        let n = 96;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                5.0
            } else {
                ((i * n + j) as f64 * 0.13).sin() * 0.5
            }
        });
        let lu = LuDecomposition::new(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let x = lu.solve(&b).unwrap();
        let r = a.matvec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-9);
        }
    }

    #[test]
    fn solve_matrix_empty_rhs() {
        let lu = LuDecomposition::new(&Matrix::identity(3)).unwrap();
        let x = lu.solve_matrix(&Matrix::zeros(3, 0)).unwrap();
        assert_eq!(x.shape(), (3, 0));
    }

    #[test]
    fn cond_of_identity_is_one() {
        let c = cond_1(&Matrix::identity(4)).unwrap();
        assert!((c - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rhs_length_is_validated() {
        let lu = LuDecomposition::new(&Matrix::identity(3)).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }
}
