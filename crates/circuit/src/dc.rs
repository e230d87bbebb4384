//! DC operating-point solver via modified nodal analysis (MNA).
//!
//! Unknowns are the non-ground node voltages plus one branch current per
//! voltage source and per op-amp output. Op-amps stamp their behavioural
//! constraint directly:
//!
//! * ideal:        `v⁺ + V_os − v⁻ = 0`
//! * finite gain:  `v_out − A·(v⁺ + V_os − v⁻) = 0`

use gramc_linalg::Matrix;

use crate::error::CircuitError;
use crate::netlist::{Circuit, Node};
use crate::sparse::{to_u32, Entry, SparseLu};

/// Solution of a DC operating-point analysis.
#[derive(Debug, Clone)]
pub struct DcSolution {
    node_voltages: Vec<f64>, // index 0 = ground = 0.0
    branch_currents: Vec<f64>,
    vsrc_count: usize,
}

impl DcSolution {
    /// Voltage at `node` in volts.
    pub fn voltage(&self, node: Node) -> f64 {
        self.node_voltages[node.index()]
    }

    /// Voltages at several nodes.
    pub fn voltages(&self, nodes: &[Node]) -> Vec<f64> {
        nodes.iter().map(|&n| self.voltage(n)).collect()
    }

    /// Current through the `k`-th voltage source (positive into its `plus`
    /// terminal from the circuit).
    pub fn voltage_source_current(&self, k: usize) -> f64 {
        self.branch_currents[k]
    }

    /// Output current supplied by the `k`-th op-amp.
    pub fn opamp_output_current(&self, k: usize) -> f64 {
        self.branch_currents[self.vsrc_count + k]
    }
}

/// How op-amps are stamped into the MNA matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpampStamping {
    /// Behavioural constraint rows (ideal / finite-gain DC model).
    Behavioural,
    /// Outputs pinned to externally supplied state values (the transient
    /// engine's algebraic network, where op-amp outputs are integrator
    /// states and act as voltage sources).
    PinnedOutputs,
}

/// A pre-assembled, pre-factored MNA operator.
///
/// The circuit's elements are stamped straight into sparse rows and
/// factored by sparse elimination in Markowitz order with threshold partial
/// pivoting: op-amp output currents first (column singletons, so no fill),
/// then op-amp constraint rows and inverter nodes (two or three entries
/// each). Elimination stops once the cheapest admissible pivot would cost
/// more than the unknowns left; that remaining block — the unknowns the
/// crossbar couples — is the core. For an `n×n` INV or EGV circuit the
/// core holds the `n` solution nodes and is factored by the dense
/// [`LuDecomposition`](gramc_linalg::LuDecomposition). For an `m×n` PINV
/// circuit it holds the `m + n` residual and solution nodes; the `m`
/// residual-side pivots share no row or column, so they go in one Schur
/// step and only an `n×n` block is factored densely (the whole core is,
/// should one of them fail the pivot threshold). An MVM circuit (open
/// loop) and the transient engine's pinned-output network leave no core at
/// all. A solve runs sparse L, core, sparse U.
///
/// Workloads that solve the *same* resistive network under many
/// excitations — the macro auto-ranging loops, the transient integrator,
/// repeated reads in write-verify — should factor once with
/// [`DcOperator::new`] and then call [`solve_circuit`](Self::solve_circuit)
/// (or the raw RHS entry points) per excitation. [`dc_solve`] remains the
/// one-shot convenience wrapper.
///
/// The elimination order follows from the sparsity pattern alone unless
/// the threshold test rejects a candidate. Every factorization therefore
/// records its order, every slot it touched and the starting slots each
/// conductance element stamps. When the same topology comes back with new
/// conductances — the same array read again with fresh read noise —
/// [`refactor_conductances`](Self::refactor_conductances) sums the new
/// values straight into those slots and replays the record, bit for bit
/// what [`new`](Self::new) would compute; [`refactor`](Self::refactor)
/// does the same from a circuit.
///
/// Cost: [`new`](Self::new) walks the netlist twice, searches every pivot
/// and records the plan, so it is the slow path, paid once per topology.
/// A replay touches no netlist: it gathers one value per conductance into
/// the recorded slots, redoes the recorded sparse arithmetic and factors
/// the core again (a 32-unknown dense block for a 32×32 INV, a 64-pivot
/// Schur step plus a 32-unknown block for a 64×32 PINV). Each right-hand
/// side then substitutes as a vector.
///
/// The factorization captures the circuit *topology and element values that
/// enter the matrix*: conductances, source/op-amp connectivity and op-amp
/// gains. Source **values** (voltage/current) and op-amp offsets only enter
/// the RHS, so they may change freely between solves (via
/// [`Circuit::set_voltage`] / [`Circuit::set_current`]).
#[derive(Debug, Clone)]
pub struct DcOperator {
    /// `None` for the empty circuit (trivial solution).
    lu: Option<SparseLu>,
    /// How a replay stamps new conductances into `lu`'s pattern; `None`
    /// when `lu` cannot be replayed.
    gather: Option<Gather>,
    nv: usize,
    nvs: usize,
    nop: usize,
    stamping: OpampStamping,
}

/// Map node -> MNA row/col (ground has none).
fn idx(n: Node) -> Option<usize> {
    if n.index() == 0 {
        None
    } else {
        Some(n.index() - 1)
    }
}

/// Stamps every element of `circuit` into its MNA matrix, one
/// `add(row, col, value)` per contribution, in element order.
fn stamp(circuit: &Circuit, stamping: OpampStamping, mut add: impl FnMut(usize, usize, f64)) {
    let nv = circuit.node_count - 1;
    let nvs = circuit.voltage_sources.len();
    for e in &circuit.conductances {
        if e.g == 0.0 {
            continue;
        }
        match (idx(e.a), idx(e.b)) {
            (Some(i), Some(j)) => {
                add(i, i, e.g);
                add(j, j, e.g);
                add(i, j, -e.g);
                add(j, i, -e.g);
            }
            (Some(i), None) | (None, Some(i)) => add(i, i, e.g),
            (None, None) => {}
        }
    }

    // Voltage sources: branch current unknown k flows from `plus`
    // through the external circuit (i.e. it is supplied into `plus`).
    for (k, e) in circuit.voltage_sources.iter().enumerate() {
        let col = nv + k;
        if let Some(i) = idx(e.plus) {
            add(i, col, 1.0);
            add(col, i, 1.0);
        }
        if let Some(i) = idx(e.minus) {
            add(i, col, -1.0);
            add(col, i, -1.0);
        }
    }

    // Op-amps: output branch current + constraint row.
    for (k, e) in circuit.opamps.iter().enumerate() {
        let col = nv + nvs + k;
        let out = idx(e.out);
        if let Some(i) = out {
            add(i, col, 1.0);
        }
        match stamping {
            // Output node pinned to the state value (symmetric
            // voltage-source stamp).
            OpampStamping::PinnedOutputs => {
                if let Some(i) = out {
                    add(col, i, 1.0);
                }
            }
            OpampStamping::Behavioural => match e.model.gain {
                None => {
                    // Ideal: v+ + offset - v- = 0.
                    if let Some(i) = idx(e.inp) {
                        add(col, i, 1.0);
                    }
                    if let Some(i) = idx(e.inn) {
                        add(col, i, -1.0);
                    }
                }
                Some(gain) => {
                    // v_out - A (v+ + offset - v-) = 0.
                    if let Some(i) = out {
                        add(col, i, 1.0);
                    }
                    if let Some(i) = idx(e.inp) {
                        add(col, i, -gain);
                    }
                    if let Some(i) = idx(e.inn) {
                        add(col, i, gain);
                    }
                }
            },
        }
    }
}

/// Marks a stamp without a starting entry: a grounded end, or the
/// diagonal of a node that has none.
const NO_SLOT: u32 = u32::MAX;

/// Marks a conductance element that was zero when recorded, so stamped
/// nothing.
const ZERO: u32 = u32::MAX - 1;

/// How a replay stamps new conductance values into the starting pattern of
/// the recorded factorization, without a netlist.
#[derive(Debug, Clone)]
struct Gather {
    /// The starting slots of each conductance element's four stamps, in
    /// element order: the diagonals of its ends, then its two off-diagonal
    /// entries. [`NO_SLOT`] where a stamp has no entry (a grounded end),
    /// `[ZERO; 4]` for an element that was zero.
    elems: Vec<[u32; 4]>,
    /// Slot and value of every starting entry the sources and op-amps
    /// stamp. These lie in branch-current rows or columns, which no
    /// conductance touches, so they never change.
    fixed: Vec<(u32, f64)>,
    /// Diagonal slot of each node, ground ([`NO_SLOT`]) included: the
    /// nodes the conductances join.
    diag: Vec<u32>,
    /// Terminals of the sources, and terminals and gains of the op-amps,
    /// which fix `fixed`.
    sources: Vec<(Node, Node)>,
    opamps: Vec<(Node, Node, Node, Option<f64>)>,
}

impl Gather {
    /// Records how `rows`, as [`assemble`] built them from `circuit`, take
    /// its conductances: the raw off-diagonal stamps of node row `i` are
    /// `raw_ptr[i]..`, conductances first and in element order, and raw
    /// stamp `k` sums into slot `slot_of[k]`. `None` for a circuit with a
    /// nonzero conductance from a node to itself, whose stamps cancel on
    /// the diagonal: without one, positive conductances can never sum to
    /// zero, which [`stamp`](Self::stamp) relies on.
    fn record(
        circuit: &Circuit,
        rows: &[Vec<Entry>],
        raw_ptr: &[usize],
        slot_of: &[u32],
        diag_slot: &[u32],
    ) -> Option<Self> {
        let nv = circuit.node_count - 1;
        let mut diag = vec![NO_SLOT; nv + 1];
        diag[1..].copy_from_slice(&diag_slot[..nv]);
        let mut next = raw_ptr[..nv].to_vec();
        let mut elems = Vec::with_capacity(circuit.conductances.len());
        for e in &circuit.conductances {
            if e.g == 0.0 {
                elems.push([ZERO; 4]);
                continue;
            }
            if e.a == e.b && e.a.index() != 0 {
                return None;
            }
            let (a, b) = (diag[e.a.index()], diag[e.b.index()]);
            let mut off = |from: Node, to: Node| match (idx(from), idx(to)) {
                (Some(i), Some(_)) => {
                    next[i] += 1;
                    slot_of[next[i] - 1]
                }
                _ => NO_SLOT,
            };
            elems.push([a, b, off(e.a, e.b), off(e.b, e.a)]);
        }
        let fixed = rows
            .iter()
            .enumerate()
            .flat_map(|(i, row)| row.iter().filter(move |e| i >= nv || e.index as usize >= nv))
            .map(|e| (e.slot, e.value))
            .collect();
        Some(Self {
            elems,
            fixed,
            diag,
            sources: circuit.voltage_sources.iter().map(|e| (e.plus, e.minus)).collect(),
            opamps: circuit.opamps.iter().map(|e| (e.inp, e.inn, e.out, e.model.gain)).collect(),
        })
    }

    /// Sums `conductances`, one per element in element order, into `start`
    /// (zeroed, one value per starting slot) as [`assemble`] sums them, and
    /// says whether they form the recorded pattern: one value per element,
    /// positive and finite where the recorded element was nonzero, zero
    /// where it was zero. Every node entry then sums values of one sign, so
    /// none is zero, as none was when recorded.
    fn stamp(&self, conductances: &[f64], start: &mut [f64]) -> bool {
        if conductances.len() != self.elems.len() {
            return false;
        }
        for &(s, v) in &self.fixed {
            start[s as usize] = v;
        }
        let mut fits = true;
        for (&[a, b, ab, ba], &g) in self.elems.iter().zip(conductances) {
            if a == ZERO {
                fits &= g == 0.0;
                continue;
            }
            fits &= g > 0.0 && g.is_finite();
            // The order of `stamp`'s four calls.
            for (s, v) in [(a, g), (b, g), (ab, -g), (ba, -g)] {
                if s != NO_SLOT {
                    start[s as usize] += v;
                }
            }
        }
        fits
    }

    /// Whether `circuit` has the recorded topology: its nonzero conductances
    /// join the recorded nodes, and its sources and op-amps have the
    /// recorded terminals and gains.
    fn connects_as(&self, circuit: &Circuit) -> bool {
        let slot = |n: Node| Some(self.diag[n.index()]).filter(|&s| s != NO_SLOT || n.index() == 0);
        circuit.node_count == self.diag.len()
            && circuit.conductances.len() == self.elems.len()
            && circuit
                .conductances
                .iter()
                .zip(&self.elems)
                .all(|(e, r)| e.g == 0.0 || (slot(e.a) == Some(r[0]) && slot(e.b) == Some(r[1])))
            && circuit
                .voltage_sources
                .iter()
                .map(|e| (e.plus, e.minus))
                .eq(self.sources.iter().copied())
            && circuit
                .opamps
                .iter()
                .map(|e| (e.inp, e.inn, e.out, e.model.gain))
                .eq(self.opamps.iter().copied())
    }
}

/// Stamps `circuit` into sparse rows of distinct columns. Repeated stamps
/// of one position sum in element order, as in a dense assembly; the
/// diagonal comes last in its row. Entries are numbered row-major: these
/// are the starting slots of the factorization's record. Also returns the
/// [`Gather`] of these rows, unless a repeated stamp cancelled to zero and
/// was dropped.
fn assemble(
    circuit: &Circuit,
    stamping: OpampStamping,
    dim: usize,
) -> (Vec<Vec<Entry>>, Option<Gather>) {
    // One pass counts each row's kept (nonzero) off-diagonal stamps, the
    // next fills the rows with them. Diagonal stamps (both ends of every
    // conductance) sum in place.
    let mut raw_ptr = vec![0; dim + 1];
    stamp(circuit, stamping, |i, j, v| raw_ptr[i + 1] += usize::from(i != j && v != 0.0));
    for i in 0..dim {
        raw_ptr[i + 1] += raw_ptr[i];
    }
    let mut rows: Vec<Vec<Entry>> =
        raw_ptr.windows(2).map(|w| Vec::with_capacity(w[1] - w[0] + 1)).collect();
    let mut diag = vec![0.0; dim];
    stamp(circuit, stamping, |i, j, v| {
        if i == j {
            diag[i] += v;
        } else if v != 0.0 {
            rows[i].push(Entry { index: to_u32(j), slot: 0, value: v });
        }
    });

    // Fold repeated stamps onto their first occurrence: `first[j]` holds
    // the (row, position) of column j's latest first stamp. Every raw stamp
    // lands in starting slot `start + at`, `start` being the number of
    // starting slots in the rows above.
    let mut first = vec![(usize::MAX, 0); dim];
    let mut slot_of = Vec::with_capacity(raw_ptr[dim]);
    let mut diag_slot = vec![NO_SLOT; dim];
    let mut start = 0;
    let mut exact = true;
    for (i, row) in rows.iter_mut().enumerate() {
        let mut n = 0;
        let mut folded = false;
        for k in 0..row.len() {
            let e = row[k];
            let j = e.index as usize;
            let at = if first[j].0 == i {
                row[first[j].1].value += e.value;
                folded = true;
                first[j].1
            } else {
                first[j] = (i, n);
                row[n] = e;
                n += 1;
                n - 1
            };
            slot_of.push(to_u32(start + at));
        }
        row.truncate(n);
        if folded {
            row.retain(|e| e.value != 0.0);
            exact &= row.len() == n;
        }
        if diag[i] != 0.0 {
            diag_slot[i] = to_u32(start + row.len());
            row.push(Entry { index: to_u32(i), slot: 0, value: diag[i] });
        }
        for (k, e) in row.iter_mut().enumerate() {
            e.slot = to_u32(start + k);
        }
        start += row.len();
    }
    let gather = exact.then(|| Gather::record(circuit, &rows, &raw_ptr, &slot_of, &diag_slot));
    (rows, gather.flatten())
}

impl DcOperator {
    /// Assembles and factors the MNA matrix of `circuit` with behavioural
    /// op-amp rows (the [`dc_solve`] semantics).
    ///
    /// # Errors
    ///
    /// [`CircuitError::SingularSystem`] for floating nodes or ill-posed
    /// feedback (e.g. an op-amp whose inputs are not connected to anything).
    pub fn new(circuit: &Circuit) -> Result<Self, CircuitError> {
        Self::build(circuit, OpampStamping::Behavioural)
    }

    /// Assembles and factors with op-amp outputs pinned to state values
    /// (the transient engine's algebraic network). RHS op-amp rows carry
    /// the states; see [`solve_states`](Self::solve_states).
    ///
    /// # Errors
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn new_pinned_outputs(circuit: &Circuit) -> Result<Self, CircuitError> {
        Self::build(circuit, OpampStamping::PinnedOutputs)
    }

    /// The fresh factorization behind every constructor and every
    /// [`refactor`](Self::refactor) that cannot replay. It keeps what a
    /// later replay needs.
    fn build(circuit: &Circuit, stamping: OpampStamping) -> Result<Self, CircuitError> {
        let nv = circuit.node_count - 1; // unknown node voltages (ground excluded)
        let nvs = circuit.voltage_sources.len();
        let nop = circuit.opamps.len();
        let dim = nv + nvs + nop;
        if dim == 0 {
            return Ok(Self { lu: None, gather: None, nv, nvs, nop, stamping });
        }
        let (rows, gather) = assemble(circuit, stamping, dim);
        let lu = SparseLu::new(dim, rows).map_err(CircuitError::from)?;
        let gather = gather.filter(|_| lu.can_refactor());
        Ok(Self { lu: Some(lu), gather, nv, nvs, nop, stamping })
    }

    /// Refactors for the element values of `circuit`, a circuit of the
    /// same topology as the one this operator was built from.
    ///
    /// When `circuit` joins the recorded nodes with its conductances and
    /// has the recorded sources and op-amps (terminals and gains), this is
    /// [`refactor_conductances`](Self::refactor_conductances) on its
    /// conductance values: the factors are bit for bit those of
    /// [`new`](Self::new) on `circuit`. Otherwise, or where that declines,
    /// it falls back to a fresh factorization, which records itself for the
    /// next call.
    ///
    /// # Errors
    ///
    /// Same conditions as [`new`](Self::new). On error the operator keeps
    /// its previous factorization.
    pub fn refactor(&mut self, circuit: &Circuit) -> Result<(), CircuitError> {
        if !self.replay(circuit) {
            *self = Self::build(circuit, self.stamping)?;
        }
        Ok(())
    }

    /// Replays the recorded factorization on `circuit`; `false` (factors
    /// unchanged) where only a fresh one is exact.
    fn replay(&mut self, circuit: &Circuit) -> bool {
        self.gather.as_ref().is_some_and(|g| g.connects_as(circuit))
            && self.refactor_conductances(
                &circuit.conductances.iter().map(|e| e.g).collect::<Vec<_>>(),
            )
    }

    /// Refactors for new conductance values of the circuit this operator
    /// was built from, with no netlist: `conductances` holds the value of
    /// every conductance element in the order the circuit added them (for
    /// the INV and PINV builders, [`topology::inv_conductances`] and
    /// [`topology::pinv_conductances`]). Sources and op-amps stay as
    /// recorded; source values and op-amp offsets only enter the RHS.
    ///
    /// The values are summed straight into the recorded starting slots and
    /// the recorded elimination is replayed on them: the same arithmetic in
    /// the same order, with the same threshold and singularity tests, but
    /// no pivot search. The factors are bit for bit those of
    /// [`new`](Self::new) on the circuit with these values.
    ///
    /// Returns `false`, with the factors unchanged, where only a fresh
    /// factorization is exact or defined: a value count other than the
    /// element count, a zero, negative or non-finite value where the
    /// recorded element was positive (a zero drops its stamps), a nonzero
    /// one where it was zero, a replayed pivot failing its test or a
    /// singular core. It always declines when the recorded circuit had
    /// entries summing to zero (repeated stamps that cancelled, or a
    /// conductance from a node to itself) or its run rejected a candidate,
    /// the one case where the elimination order depended on the values.
    /// Build the circuit and factor it with [`new`](Self::new) then.
    ///
    /// [`topology::inv_conductances`]: crate::topology::inv_conductances
    /// [`topology::pinv_conductances`]: crate::topology::pinv_conductances
    pub fn refactor_conductances(&mut self, conductances: &[f64]) -> bool {
        let (Some(lu), Some(gather)) = (&mut self.lu, &self.gather) else { return false };
        lu.refactor(|start| gather.stamp(conductances, start))
    }

    /// Dimension of the MNA system (0 for the empty circuit).
    pub fn dim(&self) -> usize {
        self.nv + self.nvs + self.nop
    }

    /// Number of unknown node voltages (ground excluded). The first
    /// `unknown_nodes()` rows of a raw solution vector are node voltages,
    /// in node order.
    pub fn unknown_nodes(&self) -> usize {
        self.nv
    }

    /// Builds the RHS vector from the *current* source values of `circuit`
    /// (which must have the same element counts as the circuit this
    /// operator was assembled from). Op-amp rows are filled per the
    /// stamping mode: offset terms (behavioural) or zero (pinned — callers
    /// supply states via [`solve_states`](Self::solve_states)).
    ///
    /// # Errors
    ///
    /// [`CircuitError::ShapeMismatch`] if the element counts differ.
    pub fn rhs(&self, circuit: &Circuit) -> Result<Vec<f64>, CircuitError> {
        if circuit.node_count - 1 != self.nv
            || circuit.voltage_sources.len() != self.nvs
            || circuit.opamps.len() != self.nop
        {
            return Err(CircuitError::ShapeMismatch {
                expected: self.dim(),
                found: (circuit.node_count - 1)
                    + circuit.voltage_sources.len()
                    + circuit.opamps.len(),
            });
        }
        let mut rhs = vec![0.0; self.dim()];
        for e in &circuit.current_sources {
            if let Some(i) = idx(e.into) {
                rhs[i] += e.i;
            }
            if let Some(i) = idx(e.from) {
                rhs[i] -= e.i;
            }
        }
        for (k, e) in circuit.voltage_sources.iter().enumerate() {
            rhs[self.nv + k] = e.v;
        }
        if self.stamping == OpampStamping::Behavioural {
            for (k, e) in circuit.opamps.iter().enumerate() {
                rhs[self.nv + self.nvs + k] = match e.model.gain {
                    None => -e.model.offset,
                    Some(gain) => gain * e.model.offset,
                };
            }
        }
        Ok(rhs)
    }

    /// Solves for the given excitation values of `circuit`, reusing the
    /// stored factorization.
    ///
    /// # Errors
    ///
    /// [`CircuitError::ShapeMismatch`] if `circuit`'s element counts differ
    /// from the assembled ones.
    pub fn solve_circuit(&self, circuit: &Circuit) -> Result<DcSolution, CircuitError> {
        let rhs = self.rhs(circuit)?;
        self.solve_rhs(&rhs)
    }

    /// Solves for a raw RHS vector (advanced; see [`rhs`](Self::rhs) for
    /// the layout: node rows, then voltage-source rows, then op-amp rows).
    ///
    /// # Errors
    ///
    /// [`CircuitError::ShapeMismatch`] for a wrong-length RHS.
    pub fn solve_rhs(&self, rhs: &[f64]) -> Result<DcSolution, CircuitError> {
        if rhs.len() != self.dim() {
            return Err(CircuitError::ShapeMismatch { expected: self.dim(), found: rhs.len() });
        }
        let Some(lu) = &self.lu else {
            return Ok(DcSolution {
                node_voltages: vec![0.0],
                branch_currents: Vec::new(),
                vsrc_count: 0,
            });
        };
        let x = lu.solve(rhs).map_err(CircuitError::from)?;
        Ok(self.solution_from(&x))
    }

    /// Multi-RHS solve: each column of `rhs` is one excitation, each column
    /// of the result is the corresponding raw MNA solution vector. All
    /// columns share the factorization; each substitutes as a vector, so
    /// every column matches [`solve_rhs`](Self::solve_rhs) bit for bit.
    ///
    /// # Errors
    ///
    /// [`CircuitError::ShapeMismatch`] for wrong row count;
    /// [`CircuitError::InvalidArgument`] on the empty circuit.
    pub fn solve_rhs_matrix(&self, rhs: &Matrix) -> Result<Matrix, CircuitError> {
        let Some(lu) = &self.lu else {
            return Err(CircuitError::InvalidArgument("empty circuit"));
        };
        if rhs.rows() != self.dim() {
            return Err(CircuitError::ShapeMismatch { expected: self.dim(), found: rhs.rows() });
        }
        lu.solve_matrix(rhs).map_err(CircuitError::from)
    }

    /// Pinned-outputs solve: op-amp rows carry `states`, other rows carry
    /// `base_rhs` (typically from [`rhs`](Self::rhs), or zeros for the
    /// homogeneous response). Returns the full node-voltage vector
    /// (including ground at index 0).
    ///
    /// # Errors
    ///
    /// [`CircuitError::ShapeMismatch`] for wrong state/RHS lengths.
    pub fn solve_states(&self, base_rhs: &[f64], states: &[f64]) -> Result<Vec<f64>, CircuitError> {
        if states.len() != self.nop {
            return Err(CircuitError::ShapeMismatch { expected: self.nop, found: states.len() });
        }
        let mut rhs = base_rhs.to_vec();
        for (k, &s) in states.iter().enumerate() {
            rhs[self.nv + self.nvs + k] = s;
        }
        let sol = self.solve_rhs(&rhs)?;
        Ok(sol.node_voltages)
    }

    fn solution_from(&self, x: &[f64]) -> DcSolution {
        let mut node_voltages = Vec::with_capacity(self.nv + 1);
        node_voltages.push(0.0);
        node_voltages.extend_from_slice(&x[..self.nv]);
        DcSolution { node_voltages, branch_currents: x[self.nv..].to_vec(), vsrc_count: self.nvs }
    }
}

/// Solves the DC operating point of `circuit` (one-shot: assembles, factors
/// and solves; use [`DcOperator`] to amortize the factorization over many
/// excitations).
///
/// # Errors
///
/// * [`CircuitError::SingularSystem`] for floating nodes or ill-posed
///   feedback (e.g. an op-amp whose inputs are not connected to anything).
pub fn dc_solve(circuit: &Circuit) -> Result<DcSolution, CircuitError> {
    DcOperator::new(circuit)?.solve_circuit(circuit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::OpampModel;
    use crate::topology;

    #[test]
    fn voltage_divider() {
        let mut c = Circuit::new();
        let top = c.node();
        let mid = c.node();
        c.voltage_source(top, Circuit::GROUND, 2.0);
        c.conductance(top, mid, 1e-3);
        c.conductance(mid, Circuit::GROUND, 3e-3);
        let sol = dc_solve(&c).unwrap();
        assert!((sol.voltage(mid) - 0.5).abs() < 1e-12);
        // Source current: 2.0 V across 1/(1e-3) + 1/(3e-3) = 1333.3 Ω.
        let i = sol.voltage_source_current(0);
        assert!((i + 1.5e-3).abs() < 1e-12, "source current {i}");
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        let n = c.node();
        c.current_source(Circuit::GROUND, n, 1e-3);
        c.conductance(n, Circuit::GROUND, 1e-3);
        let sol = dc_solve(&c).unwrap();
        assert!((sol.voltage(n) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverting_amplifier_ideal() {
        // Standard inverting amp: gain = -R_f/R_in = -2.
        let mut c = Circuit::new();
        let vin = c.node();
        let inn = c.node();
        let out = c.node();
        c.voltage_source(vin, Circuit::GROUND, 0.3);
        c.conductance(vin, inn, 1e-3); // R_in = 1k
        c.conductance(out, inn, 0.5e-3); // R_f = 2k
        c.opamp(Circuit::GROUND, inn, out, OpampModel::ideal());
        let sol = dc_solve(&c).unwrap();
        assert!((sol.voltage(out) + 0.6).abs() < 1e-12);
        assert!(sol.voltage(inn).abs() < 1e-12, "virtual ground violated");
    }

    #[test]
    fn inverting_amplifier_finite_gain_approaches_ideal() {
        let gains = [1e2, 1e4, 1e6];
        let mut errs = Vec::new();
        for g in gains {
            let mut c = Circuit::new();
            let vin = c.node();
            let inn = c.node();
            let out = c.node();
            c.voltage_source(vin, Circuit::GROUND, 0.3);
            c.conductance(vin, inn, 1e-3);
            c.conductance(out, inn, 1e-3);
            c.opamp(Circuit::GROUND, inn, out, OpampModel::with_gain(g));
            let sol = dc_solve(&c).unwrap();
            errs.push((sol.voltage(out) + 0.3).abs());
        }
        assert!(errs[0] > errs[1] && errs[1] > errs[2], "{errs:?}");
        assert!(errs[2] < 1e-6);
    }

    #[test]
    fn opamp_offset_appears_at_output() {
        // Unity-gain buffer with offset: output = vin + offset.
        let mut c = Circuit::new();
        let vin = c.node();
        let out = c.node();
        c.voltage_source(vin, Circuit::GROUND, 0.5);
        // Buffer: inp = vin, inn = out (direct feedback).
        c.opamp(vin, out, out, OpampModel::ideal().offset(2e-3));
        let sol = dc_solve(&c).unwrap();
        assert!((sol.voltage(out) - 0.502).abs() < 1e-12);
    }

    #[test]
    fn tia_converts_current_to_voltage() {
        let mut c = Circuit::new();
        let vg = c.node();
        c.current_source(Circuit::GROUND, vg, 5e-6);
        let out = c.tia(vg, 1e-4, OpampModel::ideal()); // R_f = 10k
        let sol = dc_solve(&c).unwrap();
        // I into virtual ground flows through feedback: V_out = -I/G_f.
        assert!((sol.voltage(out) + 0.05).abs() < 1e-12);
        assert!(sol.voltage(vg).abs() < 1e-12);
    }

    #[test]
    fn inverter_flips_sign() {
        let mut c = Circuit::new();
        let vin = c.node();
        c.voltage_source(vin, Circuit::GROUND, 0.42);
        let out = c.inverter(vin, 1e-3, OpampModel::ideal());
        let sol = dc_solve(&c).unwrap();
        assert!((sol.voltage(out) + 0.42).abs() < 1e-12);
    }

    #[test]
    fn operator_reuses_factorization_across_excitations() {
        // Factor once, solve for several source values: must match fresh
        // dc_solve exactly (the matrix never changes, only the RHS).
        let mut c = Circuit::new();
        let top = c.node();
        let mid = c.node();
        let vs = c.voltage_source(top, Circuit::GROUND, 2.0);
        c.conductance(top, mid, 1e-3);
        c.conductance(mid, Circuit::GROUND, 3e-3);
        let op = DcOperator::new(&c).unwrap();
        for v in [2.0, -1.0, 0.5, 7.25] {
            c.set_voltage(vs, v);
            let fast = op.solve_circuit(&c).unwrap();
            let fresh = dc_solve(&c).unwrap();
            assert_eq!(fast.voltage(mid).to_bits(), fresh.voltage(mid).to_bits());
            assert_eq!(
                fast.voltage_source_current(0).to_bits(),
                fresh.voltage_source_current(0).to_bits()
            );
            assert!((fast.voltage(mid) - v / 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn operator_tracks_current_source_updates() {
        let mut c = Circuit::new();
        let n = c.node();
        let is = c.current_source(Circuit::GROUND, n, 1e-3);
        c.conductance(n, Circuit::GROUND, 1e-3);
        let op = DcOperator::new(&c).unwrap();
        for i in [1e-3, -2e-3, 0.4e-3] {
            c.set_current(is, i);
            let sol = op.solve_circuit(&c).unwrap();
            assert!((sol.voltage(n) - i / 1e-3).abs() < 1e-12);
        }
    }

    #[test]
    fn operator_rejects_mismatched_circuit() {
        let mut c = Circuit::new();
        let n = c.node();
        c.conductance(n, Circuit::GROUND, 1e-3);
        c.current_source(Circuit::GROUND, n, 1e-3);
        let op = DcOperator::new(&c).unwrap();
        let _extra = c.node(); // changes the unknown count
        assert!(matches!(op.solve_circuit(&c), Err(CircuitError::ShapeMismatch { .. })));
        assert!(matches!(op.solve_rhs(&[0.0; 5]), Err(CircuitError::ShapeMismatch { .. })));
    }

    #[test]
    fn operator_multi_rhs_matches_single_solves() {
        let mut c = Circuit::new();
        let a = c.node();
        let b = c.node();
        c.conductance(a, b, 2e-3);
        c.conductance(a, Circuit::GROUND, 1e-3);
        c.conductance(b, Circuit::GROUND, 5e-4);
        c.current_source(Circuit::GROUND, a, 1e-3);
        let op = DcOperator::new(&c).unwrap();
        let dim = op.dim();
        let rhs = Matrix::from_fn(dim, 3, |i, j| ((i + 2 * j) as f64 * 0.3).sin() * 1e-3);
        let xs = op.solve_rhs_matrix(&rhs).unwrap();
        for j in 0..3 {
            let sol = op.solve_rhs(&rhs.col(j)).unwrap();
            for i in 0..dim.min(op.unknown_nodes()) {
                assert_eq!(xs[(i, j)].to_bits(), sol.node_voltages[i + 1].to_bits());
            }
        }
    }

    #[test]
    fn floating_node_is_singular() {
        let mut c = Circuit::new();
        let _floating = c.node();
        let n = c.node();
        c.conductance(n, Circuit::GROUND, 1e-3);
        assert!(matches!(dc_solve(&c), Err(CircuitError::SingularSystem)));
    }

    #[test]
    fn empty_circuit_solves_trivially() {
        let c = Circuit::new();
        let sol = dc_solve(&c).unwrap();
        assert_eq!(sol.voltage(Circuit::GROUND), 0.0);
    }

    #[test]
    fn kcl_holds_at_internal_node() {
        // Three conductances meeting at a node with a current source.
        let mut c = Circuit::new();
        let n = c.node();
        let m = c.node();
        c.current_source(Circuit::GROUND, n, 2e-3);
        c.conductance(n, Circuit::GROUND, 1e-3);
        c.conductance(n, m, 2e-3);
        c.conductance(m, Circuit::GROUND, 2e-3);
        let sol = dc_solve(&c).unwrap();
        let vn = sol.voltage(n);
        let vm = sol.voltage(m);
        let i_sum = 2e-3 - vn * 1e-3 - (vn - vm) * 2e-3;
        assert!(i_sum.abs() < 1e-15, "KCL residual {i_sum}");
        let i_sum_m = (vn - vm) * 2e-3 - vm * 2e-3;
        assert!(i_sum_m.abs() < 1e-15);
    }

    /// The whole-matrix assembly: the reference the cross-checks factor
    /// with the dense `LuDecomposition`.
    fn dense_mna(circuit: &Circuit, stamping: OpampStamping) -> Matrix {
        let dim = circuit.node_count - 1 + circuit.voltage_sources.len() + circuit.opamps.len();
        let mut a = Matrix::zeros(dim, dim);
        stamp(circuit, stamping, |i, j, v| a[(i, j)] += v);
        a
    }

    fn assert_close(got: &[f64], want: &[f64], what: &str) {
        let scale = want.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        let err = got.iter().zip(want).fold(0.0_f64, |m, (g, w)| m.max((g - w).abs()));
        assert!(err <= 1e-9 * scale, "{what}: error {err:e} against scale {scale:e}");
    }

    /// Three excitations of `op`: a current into every node, and volts on
    /// the source and op-amp rows (source values, op-amp offsets or pinned
    /// states).
    fn excitations(op: &DcOperator) -> Matrix {
        let nv = op.unknown_nodes();
        Matrix::from_fn(op.dim(), 3, |i, k| {
            let t = (7 * i + 13 * k) as f64;
            if i < nv {
                1e-6 * t.sin()
            } else {
                0.1 * t.cos()
            }
        })
    }

    /// Solves `circuit` through `DcOperator` and through a dense LU of its
    /// whole MNA matrix, for three excitations one at a time, as one
    /// multi-RHS batch and the first as a one-column batch. Node voltages
    /// and branch currents must agree to 1e-9 relative, and both batches
    /// must match the single solves bit for bit. Returns the size of the
    /// operator's dense core.
    fn cross_check(circuit: &Circuit, stamping: OpampStamping) -> usize {
        let op = DcOperator::build(circuit, stamping).unwrap();
        let dense = gramc_linalg::LuDecomposition::new(&dense_mna(circuit, stamping)).unwrap();
        let nv = op.unknown_nodes();
        let rhs = excitations(&op);
        let batch = op.solve_rhs_matrix(&rhs).unwrap();
        let single = op.solve_rhs_matrix(&Matrix::from_vec(op.dim(), 1, rhs.col(0))).unwrap();
        let sol = op.solve_rhs(&rhs.col(0)).unwrap();
        let got = sol.node_voltages[1..].iter().chain(&sol.branch_currents);
        for (i, v) in got.enumerate() {
            assert_eq!(v.to_bits(), single[(i, 0)].to_bits(), "one-column batch, row {i}");
        }
        for k in 0..3 {
            let want = dense.solve(&rhs.col(k)).unwrap();
            let sol = op.solve_rhs(&rhs.col(k)).unwrap();
            assert_close(&sol.node_voltages[1..], &want[..nv], "node voltages");
            assert_close(&sol.branch_currents, &want[nv..], "branch currents");
            let got = sol.node_voltages[1..].iter().chain(&sol.branch_currents);
            for (i, v) in got.enumerate() {
                assert_eq!(v.to_bits(), batch[(i, k)].to_bits(), "batch column {k}, row {i}");
            }
        }
        op.lu.as_ref().map_or(0, SparseLu::core_dim)
    }

    /// A 4-bit differential conductance pair for `a` (1–100 µS).
    fn pair(a: &Matrix) -> (Matrix, Matrix) {
        let scale = a.max_abs();
        let level = |v: f64| 1e-6 + 6.6e-6 * (15.0 * v.max(0.0) / scale).round();
        (a.map(level), a.map(|v| level(-v)))
    }

    /// Both op-amp flavours: ideal, and finite gain with per-amp offsets.
    fn with_models(build: impl Fn(OpampModel) -> Circuit) -> [Circuit; 2] {
        let mut finite = build(OpampModel::with_gain(1e4));
        for (k, id) in finite.opamp_ids().into_iter().enumerate() {
            let m = finite.opamp_model(id);
            finite.set_opamp_model(id, m.offset(1e-4 * (k as f64).sin()));
        }
        [build(OpampModel::ideal()), finite]
    }

    /// Cross-checks both stamping modes; the pinned-output network (the
    /// transient engine's) must leave no dense core.
    fn check_both(circuit: &Circuit) -> usize {
        assert_eq!(cross_check(circuit, OpampStamping::PinnedOutputs), 0);
        cross_check(circuit, OpampStamping::Behavioural)
    }

    #[test]
    fn sparse_factorization_matches_dense_lu_on_mvm() {
        let mut rng = gramc_linalg::random::seeded_rng(1);
        for (rows, cols) in [(4, 3), (8, 8), (32, 32)] {
            let (gp, gn) = pair(&gramc_linalg::random::gaussian_matrix(&mut rng, rows, cols));
            let v_in: Vec<f64> = (0..cols).map(|j| 0.1 * (j as f64).cos()).collect();
            for c in
                with_models(|m| topology::build_mvm(&gp, &gn, &v_in, 50e-6, m).unwrap().circuit)
            {
                assert_eq!(check_both(&c), 0, "open-loop MVM needs no dense core");
            }
        }
    }

    #[test]
    fn sparse_factorization_matches_dense_lu_on_inv() {
        let mut rng = gramc_linalg::random::seeded_rng(2);
        for n in [4, 16, 32] {
            let a = gramc_linalg::random::spd_with_condition(&mut rng, n, 4.0);
            let (gp, gn) = pair(&a);
            let i_in = vec![1e-6; n];
            for c in with_models(|m| topology::build_inv(&gp, &gn, &i_in, m).unwrap().circuit) {
                let core = check_both(&c);
                assert!(core <= n, "INV {n}×{n}: dense core {core}");
            }
        }
    }

    #[test]
    fn sparse_factorization_matches_dense_lu_on_pinv() {
        let mut rng = gramc_linalg::random::seeded_rng(3);
        for (rows, cols) in [(6, 3), (16, 8), (64, 32)] {
            let (gp, gn) = pair(&gramc_linalg::random::gaussian_matrix(&mut rng, rows, cols));
            let i_b = vec![1e-6; rows];
            let pinv = |g_f| {
                with_models(|m| topology::build_pinv(&gp, &gn, &i_b, g_f, m).unwrap().circuit)
            };
            // The row side of the `rows + cols` core goes in one Schur step.
            for c in pinv(50e-6) {
                let core = check_both(&c);
                assert_eq!(core, cols, "PINV {rows}×{cols}: dense core {core}");
            }
            // A 1 µS feedback leaves the row-side pivots at 0.011–0.032 of
            // their column maxima, below the threshold: the whole core is
            // factored densely.
            if rows == 64 {
                let [_, finite] = pinv(1e-6);
                assert_eq!(check_both(&finite), rows + cols, "PINV {rows}×{cols}, 1 µS");
            }
        }
    }

    #[test]
    fn sparse_factorization_matches_dense_lu_on_egv() {
        let mut rng = gramc_linalg::random::seeded_rng(4);
        for n in [4, 16] {
            let (gp, gn) = pair(&gramc_linalg::random::gram(&mut rng, n, 2 * n));
            for c in with_models(|m| topology::build_egv(&gp, &gn, 200e-6, m).unwrap().circuit) {
                let core = check_both(&c);
                assert!(core <= n, "EGV {n}×{n}: dense core {core}");
            }
        }
    }

    /// Asserts that `op` solves exactly as a fresh factorization of
    /// `circuit` does: every `solve_rhs` and `solve_rhs_matrix` output, bit
    /// for bit.
    fn assert_solves_as_fresh(op: &DcOperator, circuit: &Circuit) {
        let fresh = DcOperator::build(circuit, op.stamping).unwrap();
        let rhs = excitations(&fresh);
        let bits = |m: Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(op.solve_rhs_matrix(&rhs).unwrap()),
            bits(fresh.solve_rhs_matrix(&rhs).unwrap()),
            "multi-RHS solve"
        );
        let flat = |s: DcSolution| -> Vec<u64> {
            s.node_voltages.iter().chain(&s.branch_currents).map(|v| v.to_bits()).collect()
        };
        for k in 0..rhs.cols() {
            let (got, want) = (op.solve_rhs(&rhs.col(k)).unwrap(), fresh.solve_rhs(&rhs.col(k)));
            assert_eq!(flat(got), flat(want.unwrap()), "solve of excitation {k}");
        }
    }

    /// Factors one noisy read of the conductance pair of `a` as `new` does,
    /// then refactors through 25 more reads, for both op-amp flavours and
    /// both stampings. Every refactor must replay the recorded elimination
    /// and solve exactly as a fresh factorization.
    fn check_replays(
        a: &Matrix,
        seed: u64,
        build: impl Fn(&Matrix, &Matrix, OpampModel) -> Circuit,
    ) {
        let mut rng = gramc_linalg::random::seeded_rng(seed);
        let (gp, gn) = pair(a);
        let mut read = || {
            let mut noisy = |g: &Matrix| {
                let mut g = g.clone();
                for v in g.as_mut_slice() {
                    *v *= 1.0 + 0.01 * gramc_linalg::random::standard_normal(&mut rng);
                }
                g
            };
            let (p, n) = (noisy(&gp), noisy(&gn));
            with_models(|m| build(&p, &n, m))
        };
        let stampings = [OpampStamping::Behavioural, OpampStamping::PinnedOutputs];
        let first = read();
        let mut ops: Vec<DcOperator> = first
            .iter()
            .flat_map(|c| stampings.map(|s| DcOperator::build(c, s).unwrap()))
            .collect();
        for draw in 0..25 {
            let circuits = read();
            let mut op = ops.iter_mut();
            for c in &circuits {
                for _ in stampings {
                    let op = op.next().unwrap();
                    assert!(op.clone().replay(c), "draw {draw} would factor afresh");
                    op.refactor(c).unwrap();
                    assert_solves_as_fresh(op, c);
                }
            }
        }
    }

    #[test]
    fn replayed_factorization_matches_fresh_on_inv() {
        let a = gramc_linalg::random::spd_with_condition(
            &mut gramc_linalg::random::seeded_rng(5),
            32,
            4.0,
        );
        check_replays(&a, 6, |gp, gn, m| {
            topology::build_inv(gp, gn, &[1e-6; 32], m).unwrap().circuit
        });
    }

    #[test]
    fn replayed_factorization_matches_fresh_on_pinv() {
        let a =
            gramc_linalg::random::gaussian_matrix(&mut gramc_linalg::random::seeded_rng(7), 64, 32);
        // 50 µS replays the Schur step, 1 µS the whole dense core.
        for g_f in [50e-6, 1e-6] {
            check_replays(&a, 8, |gp, gn, m| {
                topology::build_pinv(gp, gn, &[1e-6; 64], g_f, m).unwrap().circuit
            });
        }
    }

    #[test]
    fn replayed_factorization_matches_fresh_on_egv() {
        let a = gramc_linalg::random::gram(&mut gramc_linalg::random::seeded_rng(9), 16, 32);
        check_replays(&a, 10, |gp, gn, m| topology::build_egv(gp, gn, 200e-6, m).unwrap().circuit);
    }

    /// A finite-gain amplifier of gain `gain` sensing node `p` (fed by a
    /// current source, `g1` to ground, `g2` to the output `o`, which has
    /// `g3` to ground). Its MNA determinant is `g2·gain − (g1 + g2)`.
    fn sensing_amplifier(g1: f64, g2: f64, g3: f64, gain: f64) -> Circuit {
        let mut c = Circuit::new();
        let (p, o) = (c.node(), c.node());
        c.current_source(Circuit::GROUND, p, 1e-3);
        c.conductance(p, Circuit::GROUND, g1);
        c.conductance(p, o, g2);
        c.conductance(o, Circuit::GROUND, g3);
        c.opamp(p, Circuit::GROUND, o, OpampModel::with_gain(gain));
        c
    }

    /// Refactors `op` for `circuit` and checks it fell back to a fresh
    /// factorization that solves exactly as `DcOperator::new` does.
    fn assert_falls_back(op: &mut DcOperator, circuit: &Circuit) {
        assert!(!op.clone().replay(circuit), "replay must decline");
        op.refactor(circuit).unwrap();
        assert_solves_as_fresh(op, circuit);
    }

    #[test]
    fn recorded_threshold_rejection_always_refactors_afresh() {
        // The input node's own conductance is the cheapest pivot, but the
        // gain stamp dwarfs it in its column: the recorded run rejects it,
        // so its order depends on the values and it keeps no plan.
        let mut op = DcOperator::new(&sensing_amplifier(1e-3, 1e-3, 1e-3, 1e4)).unwrap();
        assert!(!op.lu.as_ref().unwrap().can_refactor());
        for g1 in [2e-3, 5e-4] {
            assert_falls_back(&mut op, &sensing_amplifier(g1, 1e-3, 1e-3, 1e4));
        }
    }

    #[test]
    fn replayed_pivot_failing_its_threshold_refactors_afresh() {
        let mut op = DcOperator::new(&sensing_amplifier(1.0, 1.0, 1.0, 3.0)).unwrap();
        assert!(op.replay(&sensing_amplifier(1.5, 1.0, 1.0, 3.0)));
        // The second pivot is `g2`, coupling the input node to the output;
        // its column also holds the op-amp's unit output stamp.
        assert_falls_back(&mut op, &sensing_amplifier(1.0, 0.05, 1.0, 3.0));
    }

    #[test]
    fn changed_pattern_refactors_afresh() {
        let (gp, gn) = pair(&gramc_linalg::random::spd_with_condition(
            &mut gramc_linalg::random::seeded_rng(11),
            8,
            4.0,
        ));
        let inv = |gp: &Matrix| {
            topology::build_inv(gp, &gn, &[1e-6; 8], OpampModel::with_gain(1e4)).unwrap().circuit
        };
        let mut op = DcOperator::new(&inv(&gp)).unwrap();
        // A zero conductance drops its stamps.
        let mut open = gp.clone();
        open[(2, 5)] = 0.0;
        assert_falls_back(&mut op, &inv(&open));
        // An extra element adds some.
        let mut extra = inv(&gp);
        extra.conductance(Node(3), Node(4), 1e-5);
        assert_falls_back(&mut op, &extra);
        // The fallback recorded the new pattern: that one replays now, and
        // the original falls back once more.
        let mut heavier = gp.clone();
        heavier[(0, 0)] *= 1.5;
        let mut extra = inv(&heavier);
        extra.conductance(Node(3), Node(4), 1e-5);
        assert!(op.replay(&extra));
        assert_solves_as_fresh(&op, &extra);
        assert_falls_back(&mut op, &inv(&gp));
        // A conductance moved to another node, the element count unchanged.
        let mut moved = inv(&gp);
        let last = moved.conductances.len() - 1;
        moved.conductances[last].b = Node(1);
        assert_falls_back(&mut op, &moved);
        // An op-amp gain, which enters the matrix.
        let mut regained = inv(&gp);
        regained.set_opamp_model(regained.opamp_ids()[3], OpampModel::with_gain(2e4));
        assert_falls_back(&mut op, &regained);
    }

    #[test]
    fn conductance_refactor_declines_values_off_the_recorded_pattern() {
        let (gp, gn) = pair(&gramc_linalg::random::spd_with_condition(
            &mut gramc_linalg::random::seeded_rng(12),
            8,
            4.0,
        ));
        let inv = |gp: &Matrix| {
            topology::build_inv(gp, &gn, &[1e-6; 8], OpampModel::with_gain(1e4)).unwrap().circuit
        };
        // Element of cell (i, j)'s positive conductance.
        let cell = |i: usize, j: usize| 2 * 8 + 2 * (i * 8 + j);
        let mut open = gp.clone();
        open[(2, 5)] = 0.0;
        let mut op = DcOperator::new(&inv(&open)).unwrap();
        // The recorded zero stays zero: a replay.
        open[(0, 0)] *= 1.5;
        assert!(op.refactor_conductances(&topology::inv_conductances(&open, &gn)));
        assert_solves_as_fresh(&op, &inv(&open));
        let values = topology::inv_conductances(&open, &gn);
        let with = |k: usize, g: f64| {
            let mut v = values.clone();
            v[k] = g;
            v
        };
        for bad in [
            values[1..].to_vec(),
            [&values[..], &[1e-6]].concat(),
            with(cell(2, 5), 1e-6),
            with(cell(1, 1), 0.0),
            with(cell(1, 1), -1e-6),
            with(cell(1, 1), f64::NAN),
            with(cell(1, 1), f64::INFINITY),
        ] {
            assert!(!op.refactor_conductances(&bad));
        }
        // Declining leaves the factors as they were.
        assert_solves_as_fresh(&op, &inv(&open));
        // A conductance from a node to itself cancels on the diagonal: no
        // record, every refactor is fresh.
        let mut looped = inv(&gp);
        looped.conductance(Node(2), Node(2), 1e-5);
        let mut op = DcOperator::new(&looped).unwrap();
        assert_falls_back(&mut op, &looped);
    }

    /// Heap bytes of `op`: factors, replay plan and gather record.
    fn resident_bytes(op: &DcOperator) -> [usize; 3] {
        use crate::sparse::bytes;
        let (factors, plan) = op.lu.as_ref().map_or((0, 0), SparseLu::heap_bytes);
        let gather = op.gather.as_ref().map_or(0, |g| {
            bytes(&g.elems)
                + bytes(&g.fixed)
                + bytes(&g.diag)
                + bytes(&g.sources)
                + bytes(&g.opamps)
        });
        [factors, plan, gather]
    }

    #[test]
    fn resident_operators_stay_within_their_footprint() {
        let mut rng = gramc_linalg::random::seeded_rng(13);
        let model = OpampModel::with_gain(1e4);
        let (gp, gn) = pair(&gramc_linalg::random::spd_with_condition(&mut rng, 32, 4.0));
        let inv = topology::build_inv(&gp, &gn, &[1e-6; 32], model).unwrap().circuit;
        let (gp, gn) = pair(&gramc_linalg::random::gaussian_matrix(&mut rng, 64, 32));
        let pinv = topology::build_pinv(&gp, &gn, &[1e-6; 64], 50e-6, model).unwrap().circuit;
        // Just above the measured 159,636 and 632,980 B, so a growth of a
        // few percent in the factors, plan or gather fails.
        for (what, circuit, limit) in [("INV 32×32", inv, 170_000), ("PINV 64×32", pinv, 650_000)]
        {
            let mut op = DcOperator::new(&circuit).unwrap();
            // A replay allocates the plan's work array: count it.
            op.refactor(&circuit).unwrap();
            let [factors, plan, gather] = resident_bytes(&op);
            let total = factors + plan + gather;
            eprintln!("{what}: factors {factors} B, plan {plan} B, gather {gather} B, {total} B");
            assert!(total <= limit, "{what}: {total} B resident");
        }
    }

    #[test]
    fn circuit_turning_singular_fails_both_paths_alike() {
        let healthy = sensing_amplifier(1.0, 1.0, 1.0, 3.0);
        let mut op = DcOperator::new(&healthy).unwrap();
        // Gain (g1 + g2)/g2 zeroes the determinant, exactly in binary.
        let singular = sensing_amplifier(1.0, 1.0, 1.0, 2.0);
        assert!(matches!(DcOperator::new(&singular), Err(CircuitError::SingularSystem)));
        assert!(!op.clone().replay(&singular), "the replay must decline");
        assert!(matches!(op.refactor(&singular), Err(CircuitError::SingularSystem)));
        // A failed refactor keeps the previous factorization.
        assert_solves_as_fresh(&op, &healthy);
    }

    #[test]
    fn opamp_with_unconnected_inputs_is_singular() {
        let mut c = Circuit::new();
        let (inp, inn, out) = (c.node(), c.node(), c.node());
        c.conductance(out, Circuit::GROUND, 1e-3);
        c.opamp(inp, inn, out, OpampModel::ideal());
        assert!(matches!(dc_solve(&c), Err(CircuitError::SingularSystem)));
        c.set_opamp_model(c.opamp_ids()[0], OpampModel::with_gain(1e4));
        assert!(matches!(dc_solve(&c), Err(CircuitError::SingularSystem)));
    }

    #[test]
    fn parallel_voltage_sources_are_singular() {
        let mut c = Circuit::new();
        let n = c.node();
        c.voltage_source(n, Circuit::GROUND, 1.0);
        c.voltage_source(n, Circuit::GROUND, 1.0);
        c.conductance(n, Circuit::GROUND, 1e-3);
        assert!(matches!(dc_solve(&c), Err(CircuitError::SingularSystem)));
    }
}
