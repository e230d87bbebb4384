//! Packed register-tile matmul micro-kernels.
//!
//! This is the top rung of the raw-speed ladder for dense products: B is
//! repacked into column panels of [`NR`] lanes laid out contiguously along
//! `k` (a [`PackedRhs`], which callers may keep and reuse), and output rows
//! are produced four at a time against one panel with all 16 accumulators
//! held in registers. The inner loop body is 16 independent `acc += a * b`
//! updates on four 4-wide lanes — exactly the shape LLVM turns into `f64x4`
//! vector adds/muls on stable Rust, with no `unsafe` and no explicit
//! intrinsics.
//!
//! ## Bit-identity contract
//!
//! Every output element still accumulates over `k` in strictly ascending
//! order with a separate multiply and add per term (no `mul_add`, so no FMA
//! contraction), which makes the packed path bit-identical to
//! [`Matrix::matmul_reference`](crate::Matrix::matmul_reference) for finite
//! inputs — the same contract the previous blocked kernel had. Packing only
//! changes *where* B's values are read from, never the per-element reduction
//! order. Ragged panel edges are zero-padded; padded lanes are computed and
//! discarded, never stored.
//!
//! The same micro-kernel drives the blocked LU trailing update in
//! [`crate::lu`] through the `SUB` flavor (`acc -= a * b`) plus a
//! zero-factor skip that mirrors the serial elimination loop exactly.

use crate::matrix::Matrix;

/// Panel width in columns: one cache line of `f64`, one AVX2 vector.
pub(crate) const NR: usize = 4;

/// Packs rows `rows` (each of length `ncols`) into NR-lane column panels:
/// `buf[jp][k][l] = rows[k][jp * NR + l]`, zero-padded in the last panel.
///
/// `buf` is resized to `ncols.div_ceil(NR) * NR * rows.len()`.
pub(crate) fn pack_panels<'a>(
    rows: impl ExactSizeIterator<Item = &'a [f64]>,
    ncols: usize,
    buf: &mut Vec<f64>,
) {
    let kc = rows.len();
    buf.clear();
    buf.resize(ncols.div_ceil(NR) * kc * NR, 0.0);
    pack_panels_into(rows, ncols, buf);
}

/// [`pack_panels`] flavor writing into a pre-sized destination slice (one
/// k-block region of a larger cache-blocked packing).
pub(crate) fn pack_panels_into<'a>(
    rows: impl ExactSizeIterator<Item = &'a [f64]>,
    ncols: usize,
    dst: &mut [f64],
) {
    let kc = rows.len();
    let n_panels = ncols.div_ceil(NR);
    debug_assert_eq!(dst.len(), n_panels * kc * NR);
    for (k, row) in rows.enumerate() {
        debug_assert_eq!(row.len(), ncols);
        for jp in 0..n_panels {
            let slot = &mut dst[jp * kc * NR + k * NR..jp * kc * NR + (k + 1) * NR];
            let j0 = jp * NR;
            let lanes = NR.min(ncols - j0);
            slot[..lanes].copy_from_slice(&row[j0..j0 + lanes]);
        }
    }
}

/// One 4-lane vector of the register tile: `acc ±= broadcast(x) * bv`.
///
/// Written as four independent mul-then-add lane updates so LLVM emits one
/// vector multiply plus one vector add (never an FMA — contraction would
/// change rounding and break bit-identity with the reference loops).
#[inline(always)]
fn lane_update<const SUB: bool>(acc: &mut [f64; NR], x: f64, bv: &[f64]) {
    for (av, &bvl) in acc.iter_mut().zip(bv) {
        if SUB {
            *av -= x * bvl;
        } else {
            *av += x * bvl;
        }
    }
}

/// Updates four output rows (`c`, each of length `n_out`) against all packed
/// panels: `c[r] ±= Σ_k a[r][k] · B[k][..]` with `k` ascending per element.
///
/// `SUB` selects subtraction (the LU trailing update) instead of addition.
/// With `SKIP`, any `k` whose four `a` factors include an exact `0.0` falls
/// back to per-row updates that skip zero factors — matching the
/// `if factor == 0.0 { continue }` of the serial elimination loop bit-for-bit.
pub(crate) fn update_rows_x4<const SUB: bool, const SKIP: bool>(
    c: [&mut [f64]; 4],
    a: [&[f64]; 4],
    packed: &[f64],
    kc: usize,
    n_out: usize,
) {
    let [c0, c1, c2, c3] = c;
    let [a0, a1, a2, a3] = a;
    let (a0, a1) = (&a0[..kc], &a1[..kc]);
    let (a2, a3) = (&a2[..kc], &a3[..kc]);
    let n_panels = n_out.div_ceil(NR);
    let mut jp = 0;
    // Paired-panel (4×8) main loop: eight accumulator vectors in flight so
    // the vector-add dependency chains overlap instead of serializing.
    while jp + 2 <= n_panels && (jp + 2) * NR <= n_out {
        let j0 = jp * NR;
        let pa = &packed[jp * kc * NR..(jp + 1) * kc * NR];
        let pb = &packed[(jp + 1) * kc * NR..(jp + 2) * kc * NR];
        let mut t = [[0.0f64; NR]; 4];
        let mut u = [[0.0f64; NR]; 4];
        for ((tr, ur), cr) in t.iter_mut().zip(u.iter_mut()).zip([&*c0, &*c1, &*c2, &*c3]) {
            tr.copy_from_slice(&cr[j0..j0 + NR]);
            ur.copy_from_slice(&cr[j0 + NR..j0 + 2 * NR]);
        }
        let [mut t0, mut t1, mut t2, mut t3] = t;
        let [mut u0, mut u1, mut u2, mut u3] = u;
        let ks =
            a0.iter().zip(a1).zip(a2).zip(a3).zip(pa.chunks_exact(NR).zip(pb.chunks_exact(NR)));
        for ((((&x0, &x1), &x2), &x3), (bva, bvb)) in ks {
            if SKIP && (x0 == 0.0 || x1 == 0.0 || x2 == 0.0 || x3 == 0.0) {
                let rows = [
                    (&mut t0, &mut u0),
                    (&mut t1, &mut u1),
                    (&mut t2, &mut u2),
                    (&mut t3, &mut u3),
                ];
                for ((tr, ur), xr) in rows.into_iter().zip([x0, x1, x2, x3]) {
                    if xr != 0.0 {
                        lane_update::<SUB>(tr, xr, bva);
                        lane_update::<SUB>(ur, xr, bvb);
                    }
                }
                continue;
            }
            lane_update::<SUB>(&mut t0, x0, bva);
            lane_update::<SUB>(&mut t1, x1, bva);
            lane_update::<SUB>(&mut t2, x2, bva);
            lane_update::<SUB>(&mut t3, x3, bva);
            lane_update::<SUB>(&mut u0, x0, bvb);
            lane_update::<SUB>(&mut u1, x1, bvb);
            lane_update::<SUB>(&mut u2, x2, bvb);
            lane_update::<SUB>(&mut u3, x3, bvb);
        }
        let stores = [(t0, u0), (t1, u1), (t2, u2), (t3, u3)];
        for ((tr, ur), cr) in stores.iter().zip([&mut *c0, &mut *c1, &mut *c2, &mut *c3]) {
            cr[j0..j0 + NR].copy_from_slice(tr);
            cr[j0 + NR..j0 + 2 * NR].copy_from_slice(ur);
        }
        jp += 2;
    }
    // Remaining single (possibly ragged) panels.
    while jp < n_panels {
        let j0 = jp * NR;
        let lanes = NR.min(n_out - j0);
        let panel = &packed[jp * kc * NR..(jp + 1) * kc * NR];
        // Load the current output values into the register tile (padded
        // lanes start at 0.0 and are never stored back).
        let mut acc = [[0.0f64; NR]; 4];
        for (accr, cr) in acc.iter_mut().zip([&*c0, &*c1, &*c2, &*c3]) {
            accr[..lanes].copy_from_slice(&cr[j0..j0 + lanes]);
        }
        let [mut t0, mut t1, mut t2, mut t3] = acc;
        let ks = a0.iter().zip(a1).zip(a2).zip(a3).zip(panel.chunks_exact(NR));
        for ((((&x0, &x1), &x2), &x3), bv) in ks {
            if SKIP && (x0 == 0.0 || x1 == 0.0 || x2 == 0.0 || x3 == 0.0) {
                for (accr, xr) in
                    [&mut t0, &mut t1, &mut t2, &mut t3].into_iter().zip([x0, x1, x2, x3])
                {
                    if xr != 0.0 {
                        lane_update::<SUB>(accr, xr, bv);
                    }
                }
                continue;
            }
            // The hot body: 4 rows × 4 lanes of independent mul+add, each
            // row a broadcast(a) op over one 4-wide panel slice.
            lane_update::<SUB>(&mut t0, x0, bv);
            lane_update::<SUB>(&mut t1, x1, bv);
            lane_update::<SUB>(&mut t2, x2, bv);
            lane_update::<SUB>(&mut t3, x3, bv);
        }
        for (accr, cr) in [t0, t1, t2, t3].iter().zip([&mut *c0, &mut *c1, &mut *c2, &mut *c3]) {
            cr[j0..j0 + lanes].copy_from_slice(&accr[..lanes]);
        }
        jp += 1;
    }
}

/// Single-row edge flavor of [`update_rows_x4`].
///
/// Without `SKIP`, full panels go four at a time: four independent
/// accumulator vectors, so a lone output row is not bound by the latency of
/// one add chain. Each lane still sums its own `k` terms in ascending order.
pub(crate) fn update_rows_x1<const SUB: bool, const SKIP: bool>(
    c: &mut [f64],
    a: &[f64],
    packed: &[f64],
    kc: usize,
    n_out: usize,
) {
    let a = &a[..kc];
    let n_panels = n_out.div_ceil(NR);
    let mut jp = 0;
    while !SKIP && (jp + 4) * NR <= n_out {
        let j0 = jp * NR;
        let panel = |q: usize| packed[(jp + q) * kc * NR..(jp + q + 1) * kc * NR].chunks_exact(NR);
        let mut acc = [[0.0f64; NR]; 4];
        for (q, accq) in acc.iter_mut().enumerate() {
            accq.copy_from_slice(&c[j0 + q * NR..j0 + (q + 1) * NR]);
        }
        let [mut t0, mut t1, mut t2, mut t3] = acc;
        let ks = a.iter().zip(panel(0)).zip(panel(1)).zip(panel(2)).zip(panel(3));
        for ((((&x, b0), b1), b2), b3) in ks {
            lane_update::<SUB>(&mut t0, x, b0);
            lane_update::<SUB>(&mut t1, x, b1);
            lane_update::<SUB>(&mut t2, x, b2);
            lane_update::<SUB>(&mut t3, x, b3);
        }
        for (q, accq) in [t0, t1, t2, t3].iter().enumerate() {
            c[j0 + q * NR..j0 + (q + 1) * NR].copy_from_slice(accq);
        }
        jp += 4;
    }
    for jp in jp..n_panels {
        let j0 = jp * NR;
        let lanes = NR.min(n_out - j0);
        let panel = &packed[jp * kc * NR..(jp + 1) * kc * NR];
        let mut acc = [0.0f64; NR];
        acc[..lanes].copy_from_slice(&c[j0..j0 + lanes]);
        for (&x, bv) in a.iter().zip(panel.chunks_exact(NR)) {
            if SKIP && x == 0.0 {
                continue;
            }
            lane_update::<SUB>(&mut acc, x, bv);
        }
        c[j0..j0 + lanes].copy_from_slice(&acc[..lanes]);
    }
}

/// Output rows per scheduling unit (multiple of the 4-row tile height).
const PACKED_ROW_BLOCK: usize = 32;

/// k-extent of one cache block: one packed panel sliver is `KC · NR · 8` =
/// 8 KiB, small enough to sit in L1 while a row block streams through it.
const KC: usize = 256;

/// Panels per cache block (`NC_PANELS · NR` = 64 columns): with `KC` rows,
/// one packed B block is 128 KiB — L2-resident, reused across every row
/// group of a scheduling chunk instead of streaming all of B per row group.
const NC_PANELS: usize = 16;

/// Minimum `m`/`k`/`n` before the packed path beats the unpacked kernel
/// (below this, packing cost dominates and [`Matrix::matmul_unpacked`] wins).
pub(crate) const PACKED_MIN_DIM: usize = 16;

/// Whether packing the right-hand side pays off for this product shape.
pub(crate) fn packed_worthwhile(m: usize, k: usize, n: usize) -> bool {
    m >= PACKED_MIN_DIM && k >= PACKED_MIN_DIM && n >= PACKED_MIN_DIM
}

/// A right-hand matrix `B` (`k × n`) packed once for any number of products
/// `A · B` through the register-tile kernel.
///
/// [`Matrix::matmul`] packs its right-hand side on every call; a caller
/// that multiplies many left-hand sides against one unchanged `B` — the
/// macro's conductance planes against each batch of drive vectors — packs it
/// once with [`new`](Self::new) or, from its transposed blocks, with
/// [`from_transposed`](Self::from_transposed), and calls
/// [`left_mul`](Self::left_mul) per batch.
///
/// The layout is k-block-major panels (`[kb][jp][k_local][lane]`, `KC`
/// rows of `k` per block, 4-lane column panels, the last one
/// zero-padded). [`left_mul`](Self::left_mul) visits the k blocks in
/// ascending order and `k` ascends within each, with a separate multiply and
/// add per term, so for finite inputs every output element is bit-identical
/// to [`Matrix::matmul_reference`] at any row count, including 1.
#[derive(Debug, Clone)]
pub struct PackedRhs {
    k: usize,
    n: usize,
    data: Vec<f64>,
}

impl PackedRhs {
    fn zeroed(k: usize, n: usize) -> Self {
        Self { k, n, data: vec![0.0; n.div_ceil(NR) * k * NR] }
    }

    /// Start of the k block holding rows `k0 ..` of `B`.
    fn block_start(&self, k0: usize) -> usize {
        k0 * self.n.div_ceil(NR) * NR
    }

    /// Packs `b`.
    pub fn new(b: &Matrix) -> Self {
        let (k, n) = b.shape();
        let mut packed = Self::zeroed(k, n);
        for k0 in (0..k).step_by(KC) {
            let kc = KC.min(k - k0);
            let range = packed.block_start(k0)..packed.block_start(k0 + kc);
            pack_panels_into((k0..k0 + kc).map(|r| b.row(r)), n, &mut packed.data[range]);
        }
        packed
    }

    /// Packs `B = [M₀ᵀ | M₁ᵀ | …]` straight from the blocks `M_p`, which
    /// must share one column count `k`: row `i` of `M_p` becomes one column
    /// of `B`, blocks in order. No transpose is formed.
    ///
    /// # Panics
    ///
    /// Panics if the blocks' column counts differ.
    pub fn from_transposed(blocks: &[Matrix]) -> Self {
        let k = blocks.first().map_or(0, Matrix::cols);
        assert!(blocks.iter().all(|m| m.cols() == k), "blocks must share one column count");
        let mut packed = Self::zeroed(k, blocks.iter().map(Matrix::rows).sum());
        let columns = blocks.iter().flat_map(|m| (0..m.rows()).map(move |i| m.row(i)));
        for (j, col) in columns.enumerate() {
            let (jp, lane) = (j / NR, j % NR);
            for k0 in (0..k).step_by(KC) {
                let kc = KC.min(k - k0);
                let base = packed.block_start(k0) + jp * kc * NR + lane;
                for (kl, &v) in col[k0..k0 + kc].iter().enumerate() {
                    packed.data[base + kl * NR] = v;
                }
            }
        }
        packed
    }

    /// Returns `a · B`, row blocks distributed over [`crate::parallel`].
    ///
    /// Each row chunk walks cache blocks (`KC` × `NC_PANELS·NR`) of the
    /// packed panels, four rows at a time and then one at a time.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols()` differs from the row count of `B`.
    pub fn left_mul(&self, a: &Matrix) -> Matrix {
        let (m, k) = a.shape();
        assert_eq!(k, self.k, "matmul dimension mismatch: {m}x{k} · {}x{}", self.k, self.n);
        let n = self.n;
        let n_panels = n.div_ceil(NR);
        let mut out = Matrix::zeros(m, n);
        crate::parallel::for_each_chunk_mut(
            out.as_mut_slice(),
            PACKED_ROW_BLOCK * n,
            |start, chunk| {
                let row0 = start / n;
                let nrows = chunk.len() / n;
                for k0 in (0..k).step_by(KC) {
                    let kc = KC.min(k - k0);
                    let kb = &self.data[self.block_start(k0)..self.block_start(k0 + kc)];
                    for jp0 in (0..n_panels).step_by(NC_PANELS) {
                        let jp1 = (jp0 + NC_PANELS).min(n_panels);
                        let jblock = &kb[jp0 * kc * NR..jp1 * kc * NR];
                        let j0 = jp0 * NR;
                        let n_sub = (jp1 * NR).min(n) - j0;
                        let mut rest = &mut *chunk;
                        let mut i = row0;
                        let end = row0 + nrows;
                        while i + 4 <= end {
                            let (r0, tail) = rest.split_at_mut(n);
                            let (r1, tail) = tail.split_at_mut(n);
                            let (r2, tail) = tail.split_at_mut(n);
                            let (r3, tail) = tail.split_at_mut(n);
                            update_rows_x4::<false, false>(
                                [
                                    &mut r0[j0..j0 + n_sub],
                                    &mut r1[j0..j0 + n_sub],
                                    &mut r2[j0..j0 + n_sub],
                                    &mut r3[j0..j0 + n_sub],
                                ],
                                [
                                    &a.row(i)[k0..k0 + kc],
                                    &a.row(i + 1)[k0..k0 + kc],
                                    &a.row(i + 2)[k0..k0 + kc],
                                    &a.row(i + 3)[k0..k0 + kc],
                                ],
                                jblock,
                                kc,
                                n_sub,
                            );
                            rest = tail;
                            i += 4;
                        }
                        while i < end {
                            let (r0, tail) = rest.split_at_mut(n);
                            update_rows_x1::<false, false>(
                                &mut r0[j0..j0 + n_sub],
                                &a.row(i)[k0..k0 + kc],
                                jblock,
                                kc,
                                n_sub,
                            );
                            rest = tail;
                            i += 1;
                        }
                    }
                }
            },
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(rows: usize, cols: usize, seed: f64) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| ((i * cols + j) as f64 * seed + seed).sin())
    }

    #[test]
    fn pack_panels_layout_and_padding() {
        let b = Matrix::from_fn(3, 6, |i, j| (i * 6 + j) as f64);
        let mut buf = Vec::new();
        pack_panels((0..3).map(|r| b.row(r)), 6, &mut buf);
        assert_eq!(buf.len(), 2 * 3 * NR);
        // Panel 0, k = 1 holds b[1][0..4].
        assert_eq!(&buf[NR..2 * NR], &[6.0, 7.0, 8.0, 9.0]);
        // Panel 1, k = 2 holds b[2][4..6] then zero padding.
        assert_eq!(&buf[3 * NR + 2 * NR..3 * NR + 3 * NR], &[16.0, 17.0, 0.0, 0.0]);
    }

    #[test]
    fn packed_matmul_is_bit_identical_to_reference() {
        // Shapes straddling every edge case: tile tails in m and n,
        // single-lane panels, k below/above the panel stride. 1–9 rows
        // reach the single-row kernel (alone and after 4-row tiles); n = 13
        // leaves a ragged panel after three full ones, n = 70 fills the
        // four-panel loop and crosses a column block; k = 300 spans two k
        // blocks.
        let large = [(16, 16, 16), (17, 19, 21), (20, 16, 18), (33, 47, 65), (64, 64, 64)];
        let small = (1..=9).flat_map(|m| [(m, 300, 13), (m, 300, 70), (m, 19, 70)]);
        for (m, k, n) in large.into_iter().chain(small) {
            let a = seeded(m, k, 0.7);
            let b = seeded(k, n, 1.3);
            assert_bit_identical(&PackedRhs::new(&b).left_mul(&a), &a.matmul_reference(&b));
        }
    }

    fn assert_bit_identical(fast: &Matrix, reference: &Matrix) {
        assert_eq!(fast.shape(), reference.shape());
        for (x, y) in fast.as_slice().iter().zip(reference.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{:?}: {x} vs {y}", fast.shape());
        }
    }

    #[test]
    fn packing_transposed_blocks_matches_packing_their_stack() {
        // [M₀ᵀ | M₁ᵀ] packed from the blocks equals packing the stacked
        // transpose, across a k-block boundary and a ragged last panel.
        let (m0, m1) = (seeded(7, 300, 0.4), seeded(6, 300, 0.8));
        let stacked = m0.vstack(&m1).unwrap().transpose();
        let from_blocks = PackedRhs::from_transposed(&[m0, m1]);
        assert_eq!(from_blocks.data, PackedRhs::new(&stacked).data);
        let a = seeded(3, 300, 0.6);
        assert_bit_identical(&from_blocks.left_mul(&a), &a.matmul_reference(&stacked));
    }

    #[test]
    fn subtract_flavor_with_zero_skip_matches_serial_elimination() {
        // C -= A·B with scattered exact zeros in A, against a serial loop
        // that skips zero factors the way LU elimination does.
        let (m, kc, n) = (9usize, 8usize, 11usize);
        let a =
            Matrix::from_fn(
                m,
                kc,
                |i, j| if (i + j) % 3 == 0 { 0.0 } else { (i * j) as f64 * 0.1 - 1.0 },
            );
        let b = seeded(kc, n, 0.9);
        let mut c_fast = seeded(m, n, 2.1);
        let mut c_ref = c_fast.clone();
        let mut packed = Vec::new();
        pack_panels((0..kc).map(|r| b.row(r)), n, &mut packed);
        for i in 0..m {
            if i + 4 <= m && i % 4 == 0 {
                let rows = c_fast.as_mut_slice()[i * n..(i + 4) * n].split_at_mut(n);
                let (r0, tail) = rows;
                let (r1, tail) = tail.split_at_mut(n);
                let (r2, r3) = tail.split_at_mut(n);
                update_rows_x4::<true, true>(
                    [r0, r1, r2, r3],
                    [a.row(i), a.row(i + 1), a.row(i + 2), a.row(i + 3)],
                    &packed,
                    kc,
                    n,
                );
            } else if i % 4 == 0 || i >= m - (m % 4) {
                let row = &mut c_fast.as_mut_slice()[i * n..(i + 1) * n];
                update_rows_x1::<true, true>(row, a.row(i), &packed, kc, n);
            }
        }
        for i in 0..m {
            for k in 0..kc {
                let factor = a[(i, k)];
                if factor == 0.0 {
                    continue;
                }
                for j in 0..n {
                    c_ref[(i, j)] -= factor * b[(k, j)];
                }
            }
        }
        for (x, y) in c_fast.as_slice().iter().zip(c_ref.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
