//! Sparse LU with a dense core, the factorization behind [`DcOperator`].
//!
//! MNA matrices of the AMC topologies are mostly very sparse: op-amp output
//! currents are column singletons, op-amp constraint rows and inverter
//! nodes carry two or three entries, and only the unknowns the crossbar
//! couples form a dense block. [`SparseLu`] eliminates in Markowitz order
//! (smallest `(r−1)(c−1)` first, `r` and `c` being the entry counts of the
//! pivot's row and column) with threshold partial pivoting, and stops once
//! the cheapest admissible pivot would cost more than the unknowns left.
//! The remaining block goes to the dense [`LuDecomposition`]. Solves then
//! run sparse L, dense core, sparse U.
//!
//! The elimination order depends on the values only through the threshold
//! test. A factorization whose threshold test never rejected a candidate
//! therefore keeps a [`Plan`] of its arithmetic: every value it read or
//! wrote has a slot, and the plan lists the slots each step updates. The
//! caller numbers the starting entries' slots; fill-ins take the slots
//! after them. [`SparseLu::refactor`] replays that plan on new values of
//! the same pattern, bit for bit the arithmetic a fresh factorization would
//! do, without the pivot search.
//!
//! [`DcOperator`]: crate::DcOperator

use gramc_linalg::{LinalgError, LuDecomposition, Matrix};

/// A sparse pivot must be at least this fraction of the largest entry left
/// in its column.
const PIVOT_THRESHOLD: f64 = 0.1;

/// Pivots at or below this fraction of the matrix scale mark the system
/// singular (the test [`LuDecomposition`] applies to its own pivots).
const SINGULARITY_TOL: f64 = 1e-13;

const NONE: usize = usize::MAX;

/// Marks an update that creates its fill-in entry rather than reducing one.
const FILL: u32 = 1 << 31;

/// Factors of `A`: rows `p_k` and columns `q_k` eliminated sparsely, in
/// order, and the rest factored densely.
#[derive(Debug, Clone)]
pub(crate) struct SparseLu {
    dim: usize,
    /// Eliminated pivots in order: (row, column, value).
    pivots: Vec<(usize, usize, f64)>,
    /// Multipliers of pivot `k`, `lower[lower_ptr[k]..lower_ptr[k + 1]]`:
    /// row `index` takes `row −= value · row p_k`.
    lower: Vec<Entry>,
    lower_ptr: Vec<usize>,
    /// The rest of pivot row `k` at elimination time, by column,
    /// `upper[upper_ptr[k]..upper_ptr[k + 1]]`.
    upper: Vec<Entry>,
    upper_ptr: Vec<usize>,
    /// Rows and columns left to the dense core, in index order.
    core_rows: Vec<usize>,
    core_cols: Vec<usize>,
    core: Option<LuDecomposition>,
    /// How to redo this factorization on new values; `None` when the
    /// threshold test rejected a candidate, so the order depended on
    /// values.
    plan: Option<Plan>,
}

/// One stored value: its column in a matrix or U row (its row in an L
/// column), its slot in the recorded [`Plan`], and the value itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub(crate) index: u32,
    pub(crate) slot: u32,
    pub(crate) value: f64,
}

/// The recorded arithmetic of one factorization. Every value the
/// elimination touched has a slot: the starting entries as the caller
/// numbered them first, then each fill-in as it was created. Pivots carry
/// their slots here; L and U entries carry theirs.
#[derive(Debug, Clone)]
struct Plan {
    /// Number of starting entries, and of all slots.
    start: usize,
    slots: usize,
    /// Work array of the replay, one value per slot. The first replay
    /// allocates it; between replays its contents are stale.
    values: Vec<f64>,
    /// Slot of each pivot, parallel to `pivots`.
    pivot_slots: Vec<u32>,
    /// Target slot of every update, pivot by pivot, row entry by column
    /// entry; [`FILL`] marks the update that creates its entry.
    updates: Vec<u32>,
    /// (slot, row-major index) of every dense-core entry.
    core: Vec<(u32, u32)>,
}

/// A sparse index or slot as an [`Entry`] or the [`Plan`] stores it.
///
/// # Panics
///
/// At 2³¹ or more, which would collide with [`FILL`].
pub(crate) fn to_u32(n: usize) -> u32 {
    u32::try_from(n).ok().filter(|&n| n < FILL).expect("sparse index exceeds 2^31")
}

/// Rows (or columns) bucketed by entry count in intrusive doubly linked
/// lists, so the pivot search visits short lines first. Counts are exact;
/// every count of at least `cap` shares the last bucket, which the search
/// never reaches.
struct CountLists {
    head: Vec<usize>,
    next: Vec<usize>,
    prev: Vec<usize>,
    /// Current count of each line; `NONE` once it is eliminated.
    count: Vec<usize>,
}

impl CountLists {
    fn new(counts: impl ExactSizeIterator<Item = usize>, cap: usize) -> Self {
        let n = counts.len();
        let mut lists = Self {
            head: vec![NONE; cap + 1],
            next: vec![NONE; n],
            prev: vec![NONE; n],
            count: vec![NONE; n],
        };
        for (x, k) in counts.enumerate() {
            lists.link(x, k);
        }
        lists
    }

    fn bucket(&self, k: usize) -> usize {
        k.min(self.head.len() - 1)
    }

    fn link(&mut self, x: usize, k: usize) {
        let b = self.bucket(k);
        self.count[x] = k;
        self.prev[x] = NONE;
        self.next[x] = self.head[b];
        if self.head[b] != NONE {
            self.prev[self.head[b]] = x;
        }
        self.head[b] = x;
    }

    fn remove(&mut self, x: usize) {
        let (p, n) = (self.prev[x], self.next[x]);
        if p == NONE {
            let b = self.bucket(self.count[x]);
            self.head[b] = n;
        } else {
            self.next[p] = n;
        }
        if n != NONE {
            self.prev[n] = p;
        }
        self.count[x] = NONE;
    }

    fn set(&mut self, x: usize, k: usize) {
        if self.bucket(self.count[x]) == self.bucket(k) {
            self.count[x] = k;
        } else {
            self.remove(x);
            self.link(x, k);
        }
    }

    fn active(&self, x: usize) -> bool {
        self.count[x] != NONE
    }

    /// The lines whose count is `k` (for `k` below the cap).
    fn with_count(&self, k: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(self.head[k]).filter(|&x| x != NONE), |&x| {
            Some(self.next[x]).filter(|&y| y != NONE)
        })
    }
}

/// The active submatrix during elimination. An eliminated column's entries
/// stay in their rows as dead entries and fill is appended, so an entry
/// never moves and the column lists can point straight at it.
struct Active {
    /// Entries of each row.
    rows: Vec<Vec<Entry>>,
    /// Entries of each column: (row, position in that row). Eliminated
    /// rows stay listed; readers skip them.
    cols: Vec<Vec<(usize, usize)>>,
    row_lists: CountLists,
    col_lists: CountLists,
}

impl Active {
    /// The live entries of column `j`: (row, position in row).
    fn col(&self, j: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.cols[j].iter().copied().filter(|&(i, _)| self.row_lists.active(i))
    }

    /// The live entries of row `i`.
    fn row(&self, i: usize) -> impl Iterator<Item = Entry> + '_ {
        self.rows[i].iter().copied().filter(|e| self.col_lists.active(e.index as usize))
    }

    /// The cheapest pivot in Markowitz order whose count does not exceed
    /// `budget`, skipping `rejected` positions.
    ///
    /// Lines are visited by increasing entry count `k`. Every entry not yet
    /// visited by level `k` lies in a row and a column of at least `k`
    /// entries, so its count is at least `(k−1)²`, which bounds the search.
    fn markowitz(&self, budget: usize, rejected: &[(usize, usize)]) -> Option<(usize, usize)> {
        // (count, row, column) of the cheapest candidate so far.
        let mut best = (NONE, NONE, NONE);
        let consider = |best: &mut (usize, usize, usize), m: usize, i: usize, j: usize| {
            if m < best.0 && !rejected.contains(&(i, j)) {
                *best = (m, i, j);
            }
        };
        for k in 1..self.row_lists.head.len() - 1 {
            let floor = (k - 1) * (k - 1);
            if floor > budget || best.0 <= floor {
                break;
            }
            for j in self.col_lists.with_count(k) {
                for (i, _) in self.col(j) {
                    consider(&mut best, (self.row_lists.count[i] - 1) * (k - 1), i, j);
                }
                if best.0 <= floor {
                    break;
                }
            }
            for i in self.row_lists.with_count(k) {
                for e in self.row(i) {
                    let j = e.index as usize;
                    consider(&mut best, (k - 1) * (self.col_lists.count[j] - 1), i, j);
                }
                if best.0 <= floor {
                    break;
                }
            }
        }
        (best.0 <= budget).then_some((best.1, best.2))
    }
}

impl SparseLu {
    /// Factors the `dim × dim` matrix whose row `i` holds the entries
    /// `rows[i]` (distinct columns, any order), and keeps the [`Plan`] that
    /// [`refactor`](Self::refactor) replays. The entries' slots must number
    /// them `0..n`, in any order; `refactor` stamps new values by them.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Singular`] for a structurally or numerically singular
    /// matrix.
    pub(crate) fn new(dim: usize, rows: Vec<Vec<Entry>>) -> Result<Self, LinalgError> {
        let mut scale = 1.0_f64;
        let mut col_len = vec![0; dim];
        let mut slots = 0;
        for e in rows.iter().flatten() {
            scale = scale.max(e.value.abs());
            col_len[e.index as usize] += 1;
            slots += 1;
        }
        debug_assert!(rows.iter().flatten().all(|e| (e.slot as usize) < slots));
        let mut cols: Vec<Vec<(usize, usize)>> =
            col_len.iter().map(|&n| Vec::with_capacity(n)).collect();
        for (i, row) in rows.iter().enumerate() {
            for (pos, e) in row.iter().enumerate() {
                cols[e.index as usize].push((i, pos));
            }
        }
        // The search visits levels k with (k−1)² ≤ dim only.
        let cap = 2 + dim.isqrt();
        let mut a = Active {
            row_lists: CountLists::new(rows.iter().map(Vec::len), cap),
            col_lists: CountLists::new(col_len.into_iter(), cap),
            rows,
            cols,
        };
        let mut f = Self {
            dim,
            pivots: Vec::new(),
            lower: Vec::new(),
            lower_ptr: vec![0],
            upper: Vec::new(),
            upper_ptr: vec![0],
            core_rows: Vec::new(),
            core_cols: Vec::new(),
            core: None,
            plan: None,
        };
        // The plan, kept only if no candidate is rejected.
        let start = slots;
        let (mut pivot_slots, mut updates, mut core_slots) = (Vec::new(), Vec::new(), Vec::new());
        let mut replayable = true;
        // Per step: the pivot column's other entries (row, entry; the
        // entry's value becomes the multiplier), and where each row holds
        // the pivot-row column being applied (valid where `at_tag` matches
        // that column's tag).
        let mut column: Vec<(usize, Entry)> = Vec::new();
        let mut rejected = Vec::new();
        let mut at_pos = vec![0; dim];
        let mut at_tag = vec![NONE; dim];
        let mut tag = 0;

        for left in (1..=dim).rev() {
            rejected.clear();
            let chosen = loop {
                let Some((p, q)) = a.markowitz(left, &rejected) else { break None };
                column.clear();
                column.extend(a.col(q).map(|(i, pos)| (i, a.rows[i][pos])));
                let col_max = column.iter().fold(0.0_f64, |m, e| m.max(e.1.value.abs()));
                let piv = column.iter().find(|e| e.0 == p).expect("pivot in its column").1;
                if piv.value.abs() >= PIVOT_THRESHOLD * col_max {
                    break Some((p, q, piv));
                }
                rejected.push((p, q));
            };
            replayable &= rejected.is_empty();
            let Some((p, q, piv)) = chosen else { break };
            if piv.value.abs() <= SINGULARITY_TOL * scale {
                return Err(LinalgError::Singular { pivot: f.pivots.len() });
            }

            // Pivot row → U; column q → L.
            let u0 = f.upper.len();
            f.upper.extend(a.row(p).filter(|e| e.index as usize != q));
            a.row_lists.remove(p);
            a.col_lists.remove(q);
            column.retain(|e| e.0 != p);
            for (i, e) in column.iter_mut() {
                e.value /= piv.value;
                f.lower.push(Entry { index: to_u32(*i), ..*e });
            }

            // Every other row of column q takes `row −= l · pivot row`, one
            // pivot-row column at a time; the column's own list says where
            // each row holds it.
            for u in &f.upper[u0..] {
                let c = u.index as usize;
                let mut count = a.col_lists.count[c] - 1;
                if !column.is_empty() {
                    tag += 1;
                    for (i, pos) in a.col(c) {
                        at_pos[i] = pos;
                        at_tag[i] = tag;
                    }
                    for &(i, l) in &column {
                        if at_tag[i] == tag {
                            let e = &mut a.rows[i][at_pos[i]];
                            e.value -= l.value * u.value;
                            updates.push(e.slot);
                        } else {
                            let slot = to_u32(slots);
                            slots += 1;
                            a.cols[c].push((i, a.rows[i].len()));
                            a.rows[i].push(Entry {
                                index: u.index,
                                slot,
                                value: -(l.value * u.value),
                            });
                            updates.push(slot | FILL);
                            let n = a.row_lists.count[i] + 1;
                            a.row_lists.set(i, n);
                            count += 1;
                        }
                    }
                }
                a.col_lists.set(c, count);
            }
            for &(i, _) in &column {
                let n = a.row_lists.count[i] - 1;
                a.row_lists.set(i, n);
            }
            f.upper_ptr.push(f.upper.len());
            f.lower_ptr.push(f.lower.len());
            f.pivots.push((p, q, piv.value));
            pivot_slots.push(piv.slot);
        }

        // Whatever is left is the crossbar-coupled core: factor it densely.
        f.core_rows = (0..dim).filter(|&i| a.row_lists.active(i)).collect();
        f.core_cols = (0..dim).filter(|&j| a.col_lists.active(j)).collect();
        if !f.core_rows.is_empty() {
            let n = f.core_rows.len();
            let mut at = vec![NONE; dim];
            for (t, &j) in f.core_cols.iter().enumerate() {
                at[j] = t;
            }
            let mut core = Matrix::zeros(n, n);
            let entries = core.as_mut_slice();
            for (t, &i) in f.core_rows.iter().enumerate() {
                for e in a.row(i) {
                    let idx = t * n + at[e.index as usize];
                    entries[idx] = e.value;
                    core_slots.push((e.slot, to_u32(idx)));
                }
            }
            f.core = Some(LuDecomposition::new(&core)?);
        }
        f.plan = replayable.then(|| Plan {
            start,
            slots,
            values: Vec::new(),
            pivot_slots,
            updates,
            core: core_slots,
        });
        Ok(f)
    }

    /// Refactors new values of the pattern [`new`](Self::new) factored by
    /// replaying its recorded elimination. `stamp` writes the starting
    /// entries into a zeroed slice, indexed by the slots they had in `new`,
    /// and says whether they fit that pattern.
    ///
    /// Returns `false`, with the factors unchanged, when there is no plan
    /// (the recorded run rejected a candidate), `stamp` declines, a
    /// replayed pivot fails the threshold or singularity test, or the dense
    /// core is singular: a fresh factorization would then pivot differently
    /// or fail, and the caller runs one. Otherwise the factors are bit for
    /// bit those `new` computes from the same values.
    pub(crate) fn refactor(&mut self, stamp: impl FnOnce(&mut [f64]) -> bool) -> bool {
        let Some(plan) = &mut self.plan else { return false };
        let v = &mut plan.values;
        v.resize(plan.slots, 0.0);
        let start = &mut v[..plan.start];
        start.fill(0.0);
        if !stamp(start) {
            return false;
        }
        let scale = start.iter().fold(1.0_f64, |m, x| m.max(x.abs()));

        // Pivot by pivot, the fresh path's arithmetic in its order. The
        // multipliers overwrite their column entries, which no later pivot
        // reads, and a finished pivot row is never updated again, so after
        // the loop `v` holds every factor value at its slot.
        let mut done = 0;
        let mut ls = Vec::new();
        for (k, &ps) in plan.pivot_slots.iter().enumerate() {
            let piv = v[ps as usize];
            let lower = &self.lower[self.lower_ptr[k]..self.lower_ptr[k + 1]];
            let col_max = lower.iter().fold(piv.abs(), |m, e| m.max(v[e.slot as usize].abs()));
            if !(piv.abs() >= PIVOT_THRESHOLD * col_max) || piv.abs() <= SINGULARITY_TOL * scale {
                return false;
            }
            ls.clear();
            for e in lower {
                let l = &mut v[e.slot as usize];
                *l /= piv;
                ls.push(*l);
            }
            if ls.is_empty() {
                continue;
            }
            for e in &self.upper[self.upper_ptr[k]..self.upper_ptr[k + 1]] {
                let u = v[e.slot as usize];
                for (&l, &t) in ls.iter().zip(&plan.updates[done..done + ls.len()]) {
                    if t & FILL == 0 {
                        v[t as usize] -= l * u;
                    } else {
                        v[(t & !FILL) as usize] = -(l * u);
                    }
                }
                done += ls.len();
            }
        }

        let dense = if self.core_rows.is_empty() {
            None
        } else {
            let n = self.core_rows.len();
            let mut core = Matrix::zeros(n, n);
            let entries = core.as_mut_slice();
            for &(s, at) in &plan.core {
                entries[at as usize] = v[s as usize];
            }
            match LuDecomposition::new(&core) {
                Ok(lu) => Some(lu),
                Err(_) => return false,
            }
        };
        for (p, &s) in self.pivots.iter_mut().zip(&plan.pivot_slots) {
            p.2 = v[s as usize];
        }
        for e in self.lower.iter_mut().chain(&mut self.upper) {
            e.value = v[e.slot as usize];
        }
        self.core = dense;
        true
    }

    /// Whether [`refactor`](Self::refactor) can replay this factorization.
    pub(crate) fn can_refactor(&self) -> bool {
        self.plan.is_some()
    }

    /// Number of unknowns factored densely.
    #[cfg(test)]
    pub(crate) fn core_dim(&self) -> usize {
        self.core_rows.len()
    }

    fn lower(&self, k: usize) -> &[Entry] {
        &self.lower[self.lower_ptr[k]..self.lower_ptr[k + 1]]
    }

    fn upper(&self, k: usize) -> &[Entry] {
        &self.upper[self.upper_ptr[k]..self.upper_ptr[k + 1]]
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Propagates the dense core's solve errors.
    pub(crate) fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut y = b.to_vec();
        for (k, &(p, _, _)) in self.pivots.iter().enumerate() {
            let yp = y[p];
            for l in self.lower(k) {
                y[l.index as usize] -= l.value * yp;
            }
        }
        let mut x = vec![0.0; self.dim];
        if let Some(core) = &self.core {
            let rhs: Vec<f64> = self.core_rows.iter().map(|&i| y[i]).collect();
            for (&j, v) in self.core_cols.iter().zip(core.solve(&rhs)?) {
                x[j] = v;
            }
        }
        for (k, &(p, q, piv)) in self.pivots.iter().enumerate().rev() {
            let mut s = y[p];
            for u in self.upper(k) {
                s -= u.value * x[u.index as usize];
            }
            x[q] = s / piv;
        }
        Ok(x)
    }

    /// Solves `A·X = B` for every column of `B`, matching [`solve`]
    /// column for column.
    ///
    /// # Errors
    ///
    /// Propagates the dense core's solve errors.
    ///
    /// [`solve`]: Self::solve
    pub(crate) fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let m = b.cols();
        let mut y = b.clone();
        let mut acc = vec![0.0; m];
        for (k, &(p, _, _)) in self.pivots.iter().enumerate() {
            acc.copy_from_slice(y.row(p));
            for l in self.lower(k) {
                for (v, &a) in y.row_mut(l.index as usize).iter_mut().zip(&acc) {
                    *v -= l.value * a;
                }
            }
        }
        let mut x = Matrix::zeros(self.dim, m);
        if let Some(core) = &self.core {
            let rhs = Matrix::from_fn(self.core_rows.len(), m, |t, c| y[(self.core_rows[t], c)]);
            let xc = core.solve_matrix(&rhs)?;
            for (t, &j) in self.core_cols.iter().enumerate() {
                x.row_mut(j).copy_from_slice(xc.row(t));
            }
        }
        for (k, &(p, q, piv)) in self.pivots.iter().enumerate().rev() {
            acc.copy_from_slice(y.row(p));
            for u in self.upper(k) {
                for (a, &v) in acc.iter_mut().zip(x.row(u.index as usize)) {
                    *a -= u.value * v;
                }
            }
            for a in acc.iter_mut() {
                *a /= piv;
            }
            x.row_mut(q).copy_from_slice(&acc);
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Matrix rows of (column, value) pairs as [`Entry`] rows, their slots
    /// numbered row-major.
    fn entries(rows: Vec<Vec<(u32, f64)>>) -> Vec<Vec<Entry>> {
        let mut slot = 0;
        let mut entry = |(index, value)| {
            slot += 1;
            Entry { index, slot: slot - 1, value }
        };
        rows.into_iter().map(|row| row.into_iter().map(&mut entry).collect()).collect()
    }

    #[test]
    fn threshold_pivoting_passes_over_a_small_cheap_pivot() {
        // Row 1 is a singleton, the cheapest pivot there is, but its entry
        // is a millionth of the largest in its column: elimination must
        // start elsewhere and still solve A·x = b exactly.
        let rows = vec![
            vec![(0, 1.0), (1, 1.0), (2, 1.0)],
            vec![(0, 1e-6)],
            vec![(0, 1.0), (1, 2.0), (2, 3.0)],
        ];
        let mut lu = SparseLu::new(3, entries(rows)).unwrap();
        assert_ne!(lu.pivots[0].0, 1, "the small singleton must not pivot first");
        let x = lu.solve(&[3.0, 1e-6, 6.0]).unwrap();
        for v in x {
            assert!((v - 1.0).abs() < 1e-9, "{v}");
        }
        // The rejection made the order depend on the values: no replay.
        assert!(!lu.can_refactor());
        assert!(!lu.refactor(|_| true));
    }

    #[test]
    fn replay_matches_fresh_factorization() {
        let rows = |d: f64| {
            vec![
                vec![(0, 4.0), (1, 1.0), (2, 1.0)],
                vec![(0, d)],
                vec![(0, 1.0), (1, 2.0), (2, 3.0)],
            ]
        };
        let mut lu = SparseLu::new(3, entries(rows(2.0))).unwrap();
        assert_eq!(lu.pivots[0].0, 1, "the singleton pivots first");
        for d in [1.5, 3.0, 0.75] {
            let starting: Vec<f64> = rows(d).into_iter().flatten().map(|e| e.1).collect();
            assert!(lu.refactor(|start| {
                start.copy_from_slice(&starting);
                true
            }));
            let fresh = SparseLu::new(3, entries(rows(d))).unwrap();
            let b = [1.0, -2.0, 0.5];
            let bits = |x: Vec<f64>| x.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(lu.solve(&b).unwrap()), bits(fresh.solve(&b).unwrap()));
        }
    }
}
