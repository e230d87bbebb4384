//! Sparse LU with a dense core, the factorization behind [`DcOperator`].
//!
//! MNA matrices of the AMC topologies are mostly very sparse: op-amp output
//! currents are column singletons, op-amp constraint rows and inverter
//! nodes carry two or three entries, and only the unknowns the crossbar
//! couples form a dense block. [`SparseLu`] eliminates in Markowitz order
//! (smallest `(r−1)(c−1)` first, `r` and `c` being the entry counts of the
//! pivot's row and column) with threshold partial pivoting, and stops once
//! the cheapest admissible pivot would cost more than the unknowns left.
//!
//! What remains is the core. When it holds a block of pivots that share no
//! row or column, found from the pattern alone and at least as large as the
//! rest of the core, that block is eliminated in one Schur step: with the
//! core ordered as `[D B; C A]`, `D` diagonal, the rest becomes
//! `S = A − (C·D⁻¹)·B`, formed by the packed `matmul`, and only `S` goes to
//! the dense [`LuDecomposition`]. This is the two-stage PINV circuit's
//! core: each row TIA couples only to column unknowns, so its 64 row-side
//! pivots leave a 32-unknown `S` for a 64×32 array. Every block pivot must
//! pass the same threshold test as a sparse pivot (at least 0.1 of the
//! largest entry of its column in the core); if one fails, or `S` is
//! singular, the whole core is factored densely as before. Cores without
//! such a block (INV, EGV) are factored densely as a whole. Solves run
//! sparse L, the core (block, `S`, block back), sparse U.
//!
//! The elimination order depends on the values only through the threshold
//! test. A factorization whose threshold test never rejected a candidate
//! therefore keeps a [`Plan`] of its arithmetic: every value it read or
//! wrote has a slot, and the plan lists the slots each step updates. The
//! caller numbers the starting entries' slots; fill-ins take the slots
//! after them. [`SparseLu::refactor`] replays that plan on new values of
//! the same pattern, bit for bit the arithmetic a fresh factorization would
//! do, without the pivot search. The core's block is part of the pattern;
//! whether it passes its threshold test is decided again on every replay,
//! exactly as a fresh factorization decides it.
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
    /// Rows and columns left to the core, in index order.
    core_rows: Vec<usize>,
    core_cols: Vec<usize>,
    /// The core's block of independent pivots, if it has one.
    block: Option<Block>,
    core: Option<Core>,
    /// How to redo this factorization on new values; `None` when the
    /// threshold test rejected a candidate, so the order depended on
    /// values.
    plan: Option<Plan>,
}

/// Pivots of the core that share no row or column, as core positions
/// (indices into `core_rows` and `core_cols`), and the core rows and
/// columns left to their Schur complement, in index order.
#[derive(Debug, Clone)]
struct Block {
    pivots: Vec<(usize, usize)>,
    rows: Vec<usize>,
    cols: Vec<usize>,
}

/// The factored core.
#[derive(Debug, Clone)]
enum Core {
    /// The whole core, factored densely in index order.
    Dense(LuDecomposition),
    /// The [`Block`] eliminated in one step and its complement factored
    /// densely.
    Schur(Schur),
}

/// The core as `[D B; C A]`, `D` the block's pivots.
#[derive(Debug, Clone)]
struct Schur {
    /// The pivots `D`.
    pivots: Vec<f64>,
    /// `C·D⁻¹`, one row per complement row.
    lower: Matrix,
    /// `B`, one row per pivot.
    upper: Matrix,
    /// `S = A − C·D⁻¹·B`.
    complement: LuDecomposition,
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
    /// (slot, row-major index) of every core entry.
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

    /// The largest block of independent pivots a greedy pass finds in the
    /// core left by elimination, if it holds at least half the core and
    /// leaves something to factor. Rows are visited by increasing entry
    /// count, each taking its entry in the shortest column that keeps the
    /// block's rows and columns crossing only at its pivots. The pattern
    /// alone decides, so a replay finds the same block.
    fn block(&self, core_rows: &[usize], core_cols: &[usize]) -> Option<Block> {
        let n = core_rows.len();
        // Such a block of p pivots leaves p(p − 1) zeros in the core, so a
        // denser core (INV's and EGV's are full) has none.
        let p = n.div_ceil(2);
        let entries: usize = core_rows.iter().map(|&i| self.row_lists.count[i]).sum();
        if entries + p * (p - 1) > n * n {
            return None;
        }
        let (mut row_at, mut col_at) = (vec![NONE; self.rows.len()], vec![NONE; self.rows.len()]);
        for (t, (&i, &j)) in core_rows.iter().zip(core_cols).enumerate() {
            row_at[i] = t;
            col_at[j] = t;
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&t| (self.row_lists.count[core_rows[t]], t));
        // Rows with an entry in a chosen pivot column; columns with an
        // entry in a chosen pivot row. Neither may join the block.
        let (mut row_hit, mut col_hit) = (vec![false; n], vec![false; n]);
        let mut pivots = Vec::new();
        for t in order {
            if row_hit[t] {
                continue;
            }
            let cols = self.row(core_rows[t]).map(|e| col_at[e.index as usize]);
            let Some(u) = cols
                .filter(|&u| !col_hit[u])
                .min_by_key(|&u| (self.col_lists.count[core_cols[u]], u))
            else {
                continue;
            };
            for e in self.row(core_rows[t]) {
                col_hit[col_at[e.index as usize]] = true;
            }
            for (i, _) in self.col(core_cols[u]) {
                row_hit[row_at[i]] = true;
            }
            pivots.push((t, u));
        }
        if 2 * pivots.len() < n || pivots.len() == n {
            return None;
        }
        let (mut in_rows, mut in_cols) = (vec![false; n], vec![false; n]);
        for &(t, u) in &pivots {
            in_rows[t] = true;
            in_cols[u] = true;
        }
        Some(Block {
            pivots,
            rows: (0..n).filter(|&t| !in_rows[t]).collect(),
            cols: (0..n).filter(|&u| !in_cols[u]).collect(),
        })
    }
}

impl Block {
    /// Whether every pivot passes the sparse pivots' threshold and
    /// singularity tests in `core` (the core in index order).
    fn passes(&self, core: &Matrix, scale: f64) -> bool {
        let mut col_max = vec![0.0_f64; core.cols()];
        for r in 0..core.rows() {
            for (m, v) in col_max.iter_mut().zip(core.row(r)) {
                *m = m.max(v.abs());
            }
        }
        self.pivots.iter().all(|&(t, u)| {
            let piv = core[(t, u)].abs();
            piv >= PIVOT_THRESHOLD * col_max[u] && piv > SINGULARITY_TOL * scale
        })
    }
}

impl Core {
    /// Factors `core` (in index order), through `block`'s Schur step where
    /// it applies and densely otherwise. `scale` is the matrix scale of the
    /// singularity test.
    fn new(core: &Matrix, block: Option<&Block>, scale: f64) -> Result<Self, LinalgError> {
        if let Some(b) = block.filter(|b| b.passes(core, scale)) {
            let pivots: Vec<f64> = b.pivots.iter().map(|&(t, u)| core[(t, u)]).collect();
            let lower = Matrix::from_fn(b.rows.len(), pivots.len(), |r, k| {
                core[(b.rows[r], b.pivots[k].1)] / pivots[k]
            });
            let upper = Matrix::from_fn(pivots.len(), b.cols.len(), |k, c| {
                core[(b.pivots[k].0, b.cols[c])]
            });
            let update = lower.matmul(&upper);
            let s = Matrix::from_fn(b.rows.len(), b.cols.len(), |r, c| {
                core[(b.rows[r], b.cols[c])] - update[(r, c)]
            });
            if let Ok(complement) = LuDecomposition::new(&s) {
                return Ok(Self::Schur(Schur { pivots, lower, upper, complement }));
            }
        }
        LuDecomposition::new(core).map(Self::Dense)
    }

    /// Solves the core for `y`, both indexed by core position.
    fn solve(&self, block: Option<&Block>, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let s = match self {
            Self::Dense(lu) => return lu.solve(y),
            Self::Schur(s) => s,
        };
        let b = block.expect("a Schur core has its block");
        let yp: Vec<f64> = b.pivots.iter().map(|&(t, _)| y[t]).collect();
        let mut yc: Vec<f64> = b.rows.iter().map(|&t| y[t]).collect();
        for (r, v) in yc.iter_mut().enumerate() {
            for (l, &p) in s.lower.row(r).iter().zip(&yp) {
                *v -= l * p;
            }
        }
        let xc = s.complement.solve(&yc)?;
        let mut x = vec![0.0; y.len()];
        for (&u, &v) in b.cols.iter().zip(&xc) {
            x[u] = v;
        }
        for (k, (&(_, u), &p)) in b.pivots.iter().zip(&yp).enumerate() {
            let mut v = p;
            for (ub, &xv) in s.upper.row(k).iter().zip(&xc) {
                v -= ub * xv;
            }
            x[u] = v / s.pivots[k];
        }
        Ok(x)
    }

    /// Number of unknowns factored densely.
    #[cfg(test)]
    fn dense_dim(&self) -> usize {
        match self {
            Self::Dense(lu) => lu.dim(),
            Self::Schur(s) => s.complement.dim(),
        }
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
            block: None,
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

        // Whatever is left is the crossbar-coupled core.
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
            f.block = a.block(&f.core_rows, &f.core_cols);
            f.core = Some(Core::new(&core, f.block.as_ref(), scale)?);
        }
        // A resident factorization keeps these for as long as it lives:
        // drop the growth slack once, here.
        f.pivots.shrink_to_fit();
        f.lower.shrink_to_fit();
        f.lower_ptr.shrink_to_fit();
        f.upper.shrink_to_fit();
        f.upper_ptr.shrink_to_fit();
        f.plan = replayable.then(|| {
            pivot_slots.shrink_to_fit();
            updates.shrink_to_fit();
            core_slots.shrink_to_fit();
            Plan { start, slots, values: Vec::new(), pivot_slots, updates, core: core_slots }
        });
        Ok(f)
    }

    /// Refactors new values of the pattern [`new`](Self::new) factored by
    /// replaying its recorded elimination. `stamp` writes the starting
    /// entries into a zeroed slice, indexed by the slots they had in `new`,
    /// and says whether they fit that pattern.
    ///
    /// The core is factored as `new` factors it: through the Schur step if
    /// its block's pivots pass their tests on these values, densely
    /// otherwise.
    ///
    /// Returns `false`, with the factors unchanged, when there is no plan
    /// (the recorded run rejected a candidate), `stamp` declines, a
    /// replayed pivot fails the threshold or singularity test, or the core
    /// is singular: a fresh factorization would then pivot differently or
    /// fail, and the caller runs one. Otherwise the factors are bit for bit
    /// those `new` computes from the same values.
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

        let core = if self.core_rows.is_empty() {
            None
        } else {
            let n = self.core_rows.len();
            let mut core = Matrix::zeros(n, n);
            let entries = core.as_mut_slice();
            for &(s, at) in &plan.core {
                entries[at as usize] = v[s as usize];
            }
            match Core::new(&core, self.block.as_ref(), scale) {
                Ok(core) => Some(core),
                Err(_) => return false,
            }
        };
        for (p, &s) in self.pivots.iter_mut().zip(&plan.pivot_slots) {
            p.2 = v[s as usize];
        }
        for e in self.lower.iter_mut().chain(&mut self.upper) {
            e.value = v[e.slot as usize];
        }
        self.core = core;
        true
    }

    /// Whether [`refactor`](Self::refactor) can replay this factorization.
    pub(crate) fn can_refactor(&self) -> bool {
        self.plan.is_some()
    }

    /// Number of unknowns factored densely.
    #[cfg(test)]
    pub(crate) fn core_dim(&self) -> usize {
        self.core.as_ref().map_or(0, Core::dense_dim)
    }

    /// Heap bytes held by the factors and by the plan (its replay work
    /// array included).
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> (usize, usize) {
        let dense = |lu: &LuDecomposition| 8 * lu.dim() * (lu.dim() + 1);
        let core = match &self.core {
            None => 0,
            Some(Core::Dense(lu)) => dense(lu),
            Some(Core::Schur(s)) => {
                bytes(&s.pivots)
                    + 8 * (s.lower.as_slice().len() + s.upper.as_slice().len())
                    + dense(&s.complement)
            }
        };
        let block =
            self.block.as_ref().map_or(0, |b| bytes(&b.pivots) + bytes(&b.rows) + bytes(&b.cols));
        let factors = bytes(&self.pivots)
            + bytes(&self.lower)
            + bytes(&self.lower_ptr)
            + bytes(&self.upper)
            + bytes(&self.upper_ptr)
            + bytes(&self.core_rows)
            + bytes(&self.core_cols)
            + block
            + core;
        let plan = self.plan.as_ref().map_or(0, |p| {
            bytes(&p.values) + bytes(&p.pivot_slots) + bytes(&p.updates) + bytes(&p.core)
        });
        (factors, plan)
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
            for (&j, v) in self.core_cols.iter().zip(core.solve(self.block.as_ref(), &rhs)?) {
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

    /// Solves `A·X = B` column by column through [`solve`].
    ///
    /// # Errors
    ///
    /// Propagates the dense core's solve errors.
    ///
    /// [`solve`]: Self::solve
    pub(crate) fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let mut x = Matrix::zeros(self.dim, b.cols());
        for c in 0..b.cols() {
            for (i, v) in self.solve(&b.col(c))?.into_iter().enumerate() {
                x[(i, c)] = v;
            }
        }
        Ok(x)
    }
}

/// Heap bytes of `v`'s buffer.
#[cfg(test)]
pub(crate) fn bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
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
