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
use crate::sparse::SparseLu;

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
/// more than the unknowns left, and that remaining block — the unknowns
/// the crossbar couples — is factored by the dense
/// [`LuDecomposition`](gramc_linalg::LuDecomposition). For an `n×n`
/// INV or EGV circuit the dense core holds the `n` solution nodes; for an
/// `m×n` PINV circuit it holds the `m + n` residual and solution nodes; an
/// MVM circuit (open loop) and the transient engine's pinned-output
/// network leave no core at all. A solve runs sparse L, dense core, sparse
/// U. Read noise changes the matrix values on every read, so the
/// elimination order is chosen afresh for every factorization.
///
/// Workloads that solve the *same* resistive network under many
/// excitations — the macro auto-ranging loops, the transient integrator,
/// repeated reads in write-verify — should factor once with
/// [`DcOperator::new`] and then call [`solve_circuit`](Self::solve_circuit)
/// (or the raw RHS entry points) per excitation. [`dc_solve`] remains the
/// one-shot convenience wrapper.
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

/// Stamps `circuit` into sparse rows of distinct columns. Repeated stamps
/// of one position sum in element order, as in a dense assembly; the
/// diagonal comes last in its row.
fn assemble(circuit: &Circuit, stamping: OpampStamping, dim: usize) -> Vec<Vec<(usize, f64)>> {
    // One pass sizes every row, the next fills it. Diagonal stamps (both
    // ends of every conductance) sum in place.
    let mut len = vec![1; dim];
    stamp(circuit, stamping, |i, j, _| len[i] += usize::from(i != j));
    let mut rows: Vec<Vec<(usize, f64)>> = len.into_iter().map(Vec::with_capacity).collect();
    let mut diag = vec![0.0; dim];
    stamp(circuit, stamping, |i, j, v| {
        if i == j {
            diag[i] += v;
        } else if v != 0.0 {
            rows[i].push((j, v));
        }
    });

    // Fold repeated stamps onto their first occurrence: `first[j]` holds
    // the (row, position) of column j's latest first stamp.
    let mut first = vec![(usize::MAX, 0); dim];
    for (i, row) in rows.iter_mut().enumerate() {
        let mut n = 0;
        let mut folded = false;
        for k in 0..row.len() {
            let (j, v) = row[k];
            if first[j].0 == i {
                row[first[j].1].1 += v;
                folded = true;
            } else {
                first[j] = (i, n);
                row[n] = (j, v);
                n += 1;
            }
        }
        row.truncate(n);
        if folded {
            row.retain(|e| e.1 != 0.0);
        }
        if diag[i] != 0.0 {
            row.push((i, diag[i]));
        }
    }
    rows
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

    fn build(circuit: &Circuit, stamping: OpampStamping) -> Result<Self, CircuitError> {
        let nv = circuit.node_count - 1; // unknown node voltages (ground excluded)
        let nvs = circuit.voltage_sources.len();
        let nop = circuit.opamps.len();
        let dim = nv + nvs + nop;
        if dim == 0 {
            return Ok(Self { lu: None, nv, nvs, nop, stamping });
        }
        let rows = assemble(circuit, stamping, dim);
        let lu = SparseLu::new(dim, rows).map_err(CircuitError::from)?;
        Ok(Self { lu: Some(lu), nv, nvs, nop, stamping })
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
    /// columns share the factorization and substitute together (the dense
    /// core through [`LuDecomposition::solve_matrix`]); every column matches
    /// [`solve_rhs`](Self::solve_rhs) bit for bit.
    ///
    /// [`LuDecomposition::solve_matrix`]: gramc_linalg::LuDecomposition::solve_matrix
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

    /// Solves `circuit` through `DcOperator` and through a dense LU of its
    /// whole MNA matrix, for three excitations one at a time and as one
    /// multi-RHS batch. Node voltages and branch currents must agree to
    /// 1e-9 relative, and the batch must match the single solves bit for
    /// bit. Returns the size of the operator's dense core.
    fn cross_check(circuit: &Circuit, stamping: OpampStamping) -> usize {
        let op = DcOperator::build(circuit, stamping).unwrap();
        let dense = gramc_linalg::LuDecomposition::new(&dense_mna(circuit, stamping)).unwrap();
        let (dim, nv) = (op.dim(), op.unknown_nodes());
        // A current into every node, and volts on the source and op-amp
        // rows (source values, op-amp offsets or pinned states).
        let rhs = Matrix::from_fn(dim, 3, |i, k| {
            let t = (7 * i + 13 * k) as f64;
            if i < nv {
                1e-6 * t.sin()
            } else {
                0.1 * t.cos()
            }
        });
        let batch = op.solve_rhs_matrix(&rhs).unwrap();
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
            for c in
                with_models(|m| topology::build_pinv(&gp, &gn, &i_b, 50e-6, m).unwrap().circuit)
            {
                let core = check_both(&c);
                assert!(core <= rows + cols, "PINV {rows}×{cols}: dense core {core}");
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
