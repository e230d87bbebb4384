//! The four reconfigurable AMC circuit topologies (paper Section II-B and
//! Fig. 2).
//!
//! All four builders wire the *same* component inventory — a conductance
//! crossbar, a bank of op-amps usable as TIAs or analog inverters, and
//! voltage/current drivers — differing only in the connections, exactly as
//! the register-array-controlled transmission gates reconfigure the macro in
//! hardware:
//!
//! | Mode | Circuit equation (ideal) | Solves |
//! |------|--------------------------|--------|
//! | MVM  | `V_out = −(1/G_f)·ΔG·V_in`        | `y = A·x`  |
//! | INV  | `ΔG·V_x = −I_in`                  | `A·x = b`  |
//! | PINV | `ΔGᵀ(ΔG·V_x + I_b) = 0`           | `x = A⁺·b` |
//! | EGV  | `(ΔG − G_λ·I)·V_x = 0`            | `A·x = λx` |
//!
//! `ΔG = G⁺ − G⁻` is the differential conductance pair; negative-coefficient
//! paths run through analog inverters (the paper's reconfigured OPAs). The
//! level-0 baseline conductance (1 µS) is present on *both* the positive and
//! negative paths of every cell and cancels exactly at the virtual grounds.

use gramc_linalg::Matrix;

use crate::error::CircuitError;
use crate::netlist::{Circuit, CurrentSourceId, Node, OpampModel, VoltageSourceId};

/// Unit conductance used for the analog inverters' input/feedback pair.
pub const INVERTER_CONDUCTANCE: f64 = 100e-6;

/// Leak from each PINV column sense node to ground.
const SENSE_LEAK: f64 = 1e-9;

fn check_pair(g_pos: &Matrix, g_neg: &Matrix) -> Result<(usize, usize), CircuitError> {
    if g_pos.shape() != g_neg.shape() {
        return Err(CircuitError::InvalidArgument(
            "positive and negative conductance arrays must have equal shape",
        ));
    }
    let (rows, cols) = g_pos.shape();
    if rows == 0 || cols == 0 {
        return Err(CircuitError::InvalidArgument("empty conductance array"));
    }
    Ok((rows, cols))
}

/// MVM topology: open-loop crossbar with TIA read-out.
#[derive(Debug, Clone)]
pub struct MvmTopology {
    /// The assembled netlist.
    pub circuit: Circuit,
    /// Handles to the per-column input drivers (update to re-run).
    pub input_sources: Vec<VoltageSourceId>,
    /// TIA output nodes; `V_out[i] = −(1/g_f)·Σ_j ΔG[i][j]·V_in[j]`.
    pub outputs: Vec<Node>,
    /// TIA feedback conductance used at read-out.
    pub g_f: f64,
}

/// Builds the MVM configuration: columns driven by `v_in`, rows held at
/// virtual ground by TIAs with feedback `g_f`; the negative array is driven
/// through analog inverters so its currents subtract at the virtual grounds.
///
/// # Errors
///
/// Shape errors per [`CircuitError::InvalidArgument`] /
/// [`CircuitError::ShapeMismatch`]; `g_f` must be positive.
pub fn build_mvm(
    g_pos: &Matrix,
    g_neg: &Matrix,
    v_in: &[f64],
    g_f: f64,
    model: OpampModel,
) -> Result<MvmTopology, CircuitError> {
    let (rows, cols) = check_pair(g_pos, g_neg)?;
    if v_in.len() != cols {
        return Err(CircuitError::ShapeMismatch { expected: cols, found: v_in.len() });
    }
    if !(g_f > 0.0) {
        return Err(CircuitError::InvalidArgument("g_f must be positive"));
    }
    let mut c = Circuit::new();
    // Column drive nodes and their inverted copies.
    let col_nodes = c.nodes(cols);
    let mut input_sources = Vec::with_capacity(cols);
    for (j, &cn) in col_nodes.iter().enumerate() {
        input_sources.push(c.voltage_source(cn, Circuit::GROUND, v_in[j]));
    }
    let inv_nodes: Vec<Node> =
        col_nodes.iter().map(|&cn| c.inverter(cn, INVERTER_CONDUCTANCE, model)).collect();
    // Row virtual grounds with TIAs.
    let mut outputs = Vec::with_capacity(rows);
    for i in 0..rows {
        let row = c.node();
        for j in 0..cols {
            c.conductance(col_nodes[j], row, g_pos[(i, j)]);
            c.conductance(inv_nodes[j], row, g_neg[(i, j)]);
        }
        outputs.push(c.tia(row, g_f, model));
    }
    Ok(MvmTopology { circuit: c, input_sources, outputs, g_f })
}

/// INV topology: one-step linear-system solver (ref. \[3\], Sun et al. 2019).
#[derive(Debug, Clone)]
pub struct InvTopology {
    /// The assembled netlist.
    pub circuit: Circuit,
    /// Handles to the per-row injection currents (update to re-run).
    pub input_sources: Vec<CurrentSourceId>,
    /// Solution nodes; ideally `ΔG·V_x = −I_in`.
    pub x_nodes: Vec<Node>,
}

/// Builds the INV configuration: row op-amps whose outputs feed back through
/// the crossbar columns, so KCL at the virtual grounds enforces
/// `ΔG·x = −I_in` and the outputs settle at `x = −ΔG⁻¹·I_in` in one step.
///
/// Requires a square conductance pair; the effective matrix must be
/// positive-stable for the physical feedback loop to converge (Wishart
/// matrices are).
///
/// # Errors
///
/// Shape errors per [`CircuitError::InvalidArgument`] /
/// [`CircuitError::ShapeMismatch`].
pub fn build_inv(
    g_pos: &Matrix,
    g_neg: &Matrix,
    i_in: &[f64],
    model: OpampModel,
) -> Result<InvTopology, CircuitError> {
    let (rows, cols) = check_pair(g_pos, g_neg)?;
    if rows != cols {
        return Err(CircuitError::InvalidArgument("INV requires a square matrix"));
    }
    if i_in.len() != rows {
        return Err(CircuitError::ShapeMismatch { expected: rows, found: i_in.len() });
    }
    let mut c = Circuit::new();
    let row_nodes = c.nodes(rows);
    // Row op-amps: out = x_i, virtual ground at row_i.
    let x_nodes: Vec<Node> = (0..rows)
        .map(|i| {
            let out = c.node();
            c.opamp(Circuit::GROUND, row_nodes[i], out, model);
            out
        })
        .collect();
    // Inverted copies for negative coefficients.
    let inv_x: Vec<Node> =
        x_nodes.iter().map(|&x| c.inverter(x, INVERTER_CONDUCTANCE, model)).collect();
    // Crossbar feedback connections.
    for i in 0..rows {
        for j in 0..cols {
            c.conductance(x_nodes[j], row_nodes[i], g_pos[(i, j)]);
            c.conductance(inv_x[j], row_nodes[i], g_neg[(i, j)]);
        }
    }
    // Injection currents.
    let input_sources: Vec<CurrentSourceId> =
        (0..rows).map(|i| c.current_source(Circuit::GROUND, row_nodes[i], i_in[i])).collect();
    Ok(InvTopology { circuit: c, input_sources, x_nodes })
}

/// The conductance of every element [`build_inv`] wires, in the order it
/// wires them: each inverter's input and feedback, then the crossbar row
/// by row, positive and negative cell of each column in turn. With them,
/// [`DcOperator::refactor_conductances`] refactors an INV circuit for a
/// new read of the pair without building it.
///
/// [`DcOperator::refactor_conductances`]: crate::DcOperator::refactor_conductances
pub fn inv_conductances(g_pos: &Matrix, g_neg: &Matrix) -> Vec<f64> {
    let mut g = Vec::with_capacity(2 * (g_pos.cols() + g_pos.as_slice().len()));
    g.resize(2 * g_pos.cols(), INVERTER_CONDUCTANCE);
    push_cells(&mut g, g_pos.as_slice(), g_neg.as_slice());
    g
}

/// Appends the positive and negative cell of each position in turn.
fn push_cells(g: &mut Vec<f64>, g_pos: &[f64], g_neg: &[f64]) {
    for (&p, &n) in g_pos.iter().zip(g_neg) {
        g.push(p);
        g.push(n);
    }
}

/// PINV topology: one-step least-squares solver (ref. \[5\], Wang et al. 2023).
#[derive(Debug, Clone)]
pub struct PinvTopology {
    /// The assembled netlist.
    pub circuit: Circuit,
    /// Handles to the per-row injection currents encoding `b`.
    pub input_sources: Vec<CurrentSourceId>,
    /// Solution nodes (length = matrix columns); ideally `x = A⁺·b` scaled.
    pub x_nodes: Vec<Node>,
    /// Stage-1 residual nodes (length = matrix rows).
    pub y_nodes: Vec<Node>,
    /// Stage-1 TIA feedback conductance.
    pub g_f: f64,
}

/// Builds the PINV configuration: two cascaded arrays holding `A` and `Aᵀ`.
/// Stage-1 TIAs form the residual `y ∝ −(ΔG·x + I_b)`, and stage-2 amps
/// drive `ΔGᵀ·y → 0`, so the DC solution satisfies the normal equations
/// `ΔGᵀ(ΔG·x + I_b) = 0`, i.e. the least-squares solution.
///
/// # Errors
///
/// Shape errors per [`CircuitError::InvalidArgument`] /
/// [`CircuitError::ShapeMismatch`]; `g_f` must be positive.
pub fn build_pinv(
    g_pos: &Matrix,
    g_neg: &Matrix,
    i_b: &[f64],
    g_f: f64,
    model: OpampModel,
) -> Result<PinvTopology, CircuitError> {
    let (rows, cols) = check_pair(g_pos, g_neg)?;
    if i_b.len() != rows {
        return Err(CircuitError::ShapeMismatch { expected: rows, found: i_b.len() });
    }
    if !(g_f > 0.0) {
        return Err(CircuitError::InvalidArgument("g_f must be positive"));
    }
    let mut c = Circuit::new();

    // Stage-2 outputs x_j drive the first array; allocate them first.
    let col_sense = c.nodes(cols); // stage-2 sense nodes c_j
    let x_nodes: Vec<Node> = col_sense
        .iter()
        .map(|&cj| {
            let out = c.node();
            // Non-inverting sense keeps the two-stage loop in net negative
            // feedback (see module docs in `transient`).
            c.opamp(cj, Circuit::GROUND, out, model);
            out
        })
        .collect();
    let inv_x: Vec<Node> =
        x_nodes.iter().map(|&x| c.inverter(x, INVERTER_CONDUCTANCE, model)).collect();

    // Stage 1: residual TIAs over array A.
    let mut y_nodes = Vec::with_capacity(rows);
    let mut input_sources = Vec::with_capacity(rows);
    for i in 0..rows {
        let r = c.node();
        for j in 0..cols {
            c.conductance(x_nodes[j], r, g_pos[(i, j)]);
            c.conductance(inv_x[j], r, g_neg[(i, j)]);
        }
        input_sources.push(c.current_source(Circuit::GROUND, r, i_b[i]));
        y_nodes.push(c.tia(r, g_f, model));
    }
    let inv_y: Vec<Node> =
        y_nodes.iter().map(|&y| c.inverter(y, INVERTER_CONDUCTANCE, model)).collect();

    // Stage 2: transposed array Aᵀ feeding the column sense nodes.
    for j in 0..cols {
        for i in 0..rows {
            c.conductance(y_nodes[i], col_sense[j], g_pos[(i, j)]);
            c.conductance(inv_y[i], col_sense[j], g_neg[(i, j)]);
        }
        // Sense node needs a DC path to ground for a well-posed solve when
        // op-amps are ideal (input currents are zero anyway).
        c.conductance(col_sense[j], Circuit::GROUND, SENSE_LEAK);
    }
    Ok(PinvTopology { circuit: c, input_sources, x_nodes, y_nodes, g_f })
}

/// The conductance of every element [`build_pinv`] wires with feedback
/// `g_f`, in the order it wires them: the solution inverters; each row's
/// stage-1 cells, positive and negative of each column in turn, then its
/// TIA feedback; the residual inverters; each column's stage-2 cells,
/// positive and negative of each row in turn, then its sense node's leak.
/// With them, [`DcOperator::refactor_conductances`] refactors a PINV
/// circuit for a new read of the pair without building it.
///
/// [`DcOperator::refactor_conductances`]: crate::DcOperator::refactor_conductances
pub fn pinv_conductances(g_pos: &Matrix, g_neg: &Matrix, g_f: f64) -> Vec<f64> {
    let (rows, cols) = g_pos.shape();
    let mut g = Vec::with_capacity(4 * rows * cols + 3 * (rows + cols));
    g.resize(2 * cols, INVERTER_CONDUCTANCE);
    for i in 0..rows {
        push_cells(&mut g, g_pos.row(i), g_neg.row(i));
        g.push(g_f);
    }
    g.resize(g.len() + 2 * rows, INVERTER_CONDUCTANCE);
    for j in 0..cols {
        for i in 0..rows {
            g.push(g_pos[(i, j)]);
            g.push(g_neg[(i, j)]);
        }
        g.push(SENSE_LEAK);
    }
    g
}

/// EGV topology: dominant-eigenvector feedback loop.
#[derive(Debug, Clone)]
pub struct EgvTopology {
    /// The assembled netlist.
    pub circuit: Circuit,
    /// Eigenvector read-out nodes (inverter outputs `x = −u`).
    pub x_nodes: Vec<Node>,
    /// TIA output nodes `u`.
    pub u_nodes: Vec<Node>,
    /// The programmed eigenvalue feedback conductance.
    pub g_lambda: f64,
}

/// Builds the EGV configuration: TIAs with feedback conductance `g_lambda`
/// close the loop `ΔG·x = G_λ·x`, which is neutrally stable along the
/// eigenvector whose eigenvalue (in conductance units) equals `g_lambda`.
///
/// The DC solution is the useless zero vector; run
/// [`transient_solve`](crate::transient_solve) from a small random initial
/// state and let amplifier saturation pin the dominant mode's amplitude —
/// program `g_lambda` slightly *below* the dominant eigenvalue so the loop
/// gain along that mode exceeds one.
///
/// # Errors
///
/// Shape errors per [`CircuitError::InvalidArgument`]; `g_lambda` must be
/// positive.
pub fn build_egv(
    g_pos: &Matrix,
    g_neg: &Matrix,
    g_lambda: f64,
    model: OpampModel,
) -> Result<EgvTopology, CircuitError> {
    let (rows, cols) = check_pair(g_pos, g_neg)?;
    if rows != cols {
        return Err(CircuitError::InvalidArgument("EGV requires a square matrix"));
    }
    if !(g_lambda > 0.0) {
        return Err(CircuitError::InvalidArgument("g_lambda must be positive"));
    }
    let mut c = Circuit::new();
    let row_nodes = c.nodes(rows);
    // TIAs: u_i with feedback g_lambda.
    let u_nodes: Vec<Node> = row_nodes.iter().map(|&r| c.tia(r, g_lambda, model)).collect();
    // Inverters: x_j = -u_j closes the loop with the right sign.
    let x_nodes: Vec<Node> =
        u_nodes.iter().map(|&u| c.inverter(u, INVERTER_CONDUCTANCE, model)).collect();
    // Crossbar: positive entries from x_j, negative entries from u_j = -x_j.
    for i in 0..rows {
        for j in 0..cols {
            c.conductance(x_nodes[j], row_nodes[i], g_pos[(i, j)]);
            c.conductance(u_nodes[j], row_nodes[i], g_neg[(i, j)]);
        }
    }
    Ok(EgvTopology { circuit: c, x_nodes, u_nodes, g_lambda })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::dc_solve;
    use crate::transient::{transient_solve, TransientConfig};
    use gramc_linalg::vector::rel_error_up_to_sign;
    use gramc_linalg::{lu, pseudoinverse, SymmetricEigen};

    /// Splits a signed matrix into (g_pos, g_neg) with a baseline floor on
    /// both sides, mimicking the level-0 conductance of real cells.
    fn split(a: &Matrix, unit: f64, floor: f64) -> (Matrix, Matrix) {
        let g_pos = a.map(|v| if v > 0.0 { v * unit + floor } else { floor });
        let g_neg = a.map(|v| if v < 0.0 { -v * unit + floor } else { floor });
        (g_pos, g_neg)
    }

    const UNIT: f64 = 50e-6; // siemens per matrix unit
    const FLOOR: f64 = 1e-6; // level-0 baseline

    #[test]
    fn mvm_matches_matrix_product() {
        let a = Matrix::from_rows(&[&[0.8, -0.4], &[0.2, 0.6]]);
        let (gp, gn) = split(&a, UNIT, FLOOR);
        let v_in = [0.15, -0.10];
        let g_f = UNIT;
        let t = build_mvm(&gp, &gn, &v_in, g_f, OpampModel::ideal()).unwrap();
        let sol = dc_solve(&t.circuit).unwrap();
        let v_out = sol.voltages(&t.outputs);
        let expected: Vec<f64> = a.matvec(&v_in).iter().map(|y| -y).collect();
        for (o, e) in v_out.iter().zip(&expected) {
            assert!((o - e).abs() < 1e-9, "{v_out:?} vs {expected:?}");
        }
    }

    #[test]
    fn mvm_baseline_floor_cancels() {
        // With a large floor, results must be unchanged (differential pair).
        let a = Matrix::from_rows(&[&[0.5, -0.5], &[-0.25, 1.0]]);
        let v_in = [0.2, 0.1];
        let (gp1, gn1) = split(&a, UNIT, 1e-6);
        let (gp2, gn2) = split(&a, UNIT, 20e-6);
        let t1 = build_mvm(&gp1, &gn1, &v_in, UNIT, OpampModel::ideal()).unwrap();
        let t2 = build_mvm(&gp2, &gn2, &v_in, UNIT, OpampModel::ideal()).unwrap();
        let o1 = dc_solve(&t1.circuit).unwrap().voltages(&t1.outputs);
        let o2 = dc_solve(&t2.circuit).unwrap().voltages(&t2.outputs);
        for (a, b) in o1.iter().zip(&o2) {
            assert!((a - b).abs() < 1e-9, "{o1:?} vs {o2:?}");
        }
    }

    #[test]
    fn inv_solves_linear_system() {
        // SPD matrix with negative off-diagonals.
        let a = Matrix::from_rows(&[&[2.0, -0.5], &[-0.5, 1.5]]);
        let b = [0.4, -0.2];
        let (gp, gn) = split(&a, UNIT, FLOOR);
        // ΔG·x = −I_in with ΔG = UNIT·A, so I_in = −UNIT·(A·x_expected)… we
        // encode b directly: I_in = −UNIT·b·v_unit puts x in volts of v_unit.
        let v_unit = 0.1;
        let i_in: Vec<f64> = b.iter().map(|bi| -UNIT * bi * v_unit).collect();
        let t = build_inv(&gp, &gn, &i_in, OpampModel::ideal()).unwrap();
        let sol = dc_solve(&t.circuit).unwrap();
        let x_volts = sol.voltages(&t.x_nodes);
        let x: Vec<f64> = x_volts.iter().map(|v| v / v_unit).collect();
        let x_ref = lu::solve(&a, &b).unwrap();
        for (u, v) in x.iter().zip(&x_ref) {
            assert!((u - v).abs() < 1e-8, "{x:?} vs {x_ref:?}");
        }
    }

    #[test]
    fn inv_finite_gain_error_shrinks_with_gain() {
        let a = Matrix::from_rows(&[&[1.5, 0.3], &[0.3, 2.0]]);
        let b = [1.0, -0.5];
        let (gp, gn) = split(&a, UNIT, FLOOR);
        let v_unit = 0.1;
        let i_in: Vec<f64> = b.iter().map(|bi| -UNIT * bi * v_unit).collect();
        let x_ref = lu::solve(&a, &b).unwrap();
        let mut errs = Vec::new();
        for gain in [1e2, 1e4] {
            let t = build_inv(&gp, &gn, &i_in, OpampModel::with_gain(gain)).unwrap();
            let sol = dc_solve(&t.circuit).unwrap();
            let x: Vec<f64> = sol.voltages(&t.x_nodes).iter().map(|v| v / v_unit).collect();
            errs.push(gramc_linalg::vector::rel_error(&x, &x_ref));
        }
        assert!(errs[1] < errs[0] / 10.0, "{errs:?}");
    }

    #[test]
    fn inv_transient_is_stable_for_spd_matrix() {
        let a = Matrix::from_rows(&[&[2.0, -0.4], &[-0.4, 1.2]]);
        let b = [0.3, 0.5];
        let (gp, gn) = split(&a, UNIT, FLOOR);
        let v_unit = 0.1;
        let i_in: Vec<f64> = b.iter().map(|bi| -UNIT * bi * v_unit).collect();
        let t = build_inv(&gp, &gn, &i_in, OpampModel::with_gain(1e4)).unwrap();
        let zeros = vec![0.0; t.circuit.opamp_count()];
        let tr = transient_solve(&t.circuit, &zeros, &TransientConfig::default()).unwrap();
        assert!(tr.settled, "INV loop failed to settle");
        let x: Vec<f64> = tr.voltages(&t.x_nodes).iter().map(|v| v / v_unit).collect();
        let x_ref = lu::solve(&a, &b).unwrap();
        for (u, v) in x.iter().zip(&x_ref) {
            assert!((u - v).abs() < 5e-3, "{x:?} vs {x_ref:?}");
        }
    }

    #[test]
    fn pinv_solves_least_squares() {
        // Tall 4×2 system.
        let a = Matrix::from_rows(&[&[1.0, 0.2], &[0.5, -1.0], &[-0.3, 0.8], &[0.9, 0.4]]);
        let b = [0.5, -0.1, 0.3, 0.7];
        let (gp, gn) = split(&a, UNIT, FLOOR);
        let v_unit = 0.1;
        let i_b: Vec<f64> = b.iter().map(|bi| -UNIT * bi * v_unit).collect();
        let t = build_pinv(&gp, &gn, &i_b, UNIT, OpampModel::ideal()).unwrap();
        let sol = dc_solve(&t.circuit).unwrap();
        let x: Vec<f64> = sol.voltages(&t.x_nodes).iter().map(|v| v / v_unit).collect();
        let x_ref = pseudoinverse(&a).unwrap().matvec(&b);
        for (u, v) in x.iter().zip(&x_ref) {
            assert!((u - v).abs() < 1e-6, "{x:?} vs {x_ref:?}");
        }
    }

    #[test]
    fn pinv_reduces_to_inverse_for_square_full_rank() {
        let a = Matrix::from_rows(&[&[1.2, 0.3], &[-0.2, 0.9]]);
        let b = [0.4, 0.1];
        let (gp, gn) = split(&a, UNIT, FLOOR);
        let v_unit = 0.1;
        let i_b: Vec<f64> = b.iter().map(|bi| -UNIT * bi * v_unit).collect();
        let t = build_pinv(&gp, &gn, &i_b, UNIT, OpampModel::ideal()).unwrap();
        let sol = dc_solve(&t.circuit).unwrap();
        let x: Vec<f64> = sol.voltages(&t.x_nodes).iter().map(|v| v / v_unit).collect();
        let x_ref = lu::solve(&a, &b).unwrap();
        for (u, v) in x.iter().zip(&x_ref) {
            assert!((u - v).abs() < 1e-6, "{x:?} vs {x_ref:?}");
        }
    }

    #[test]
    fn egv_transient_converges_to_dominant_eigenvector() {
        // Symmetric PSD matrix (a small Gram matrix).
        let a = Matrix::from_rows(&[&[2.0, 0.8, 0.3], &[0.8, 1.5, 0.2], &[0.3, 0.2, 1.0]]);
        let eig = SymmetricEigen::new(&a).unwrap();
        let lambda1 = eig.eigenvalues[0];
        // Program slightly below λ₁ so the dominant loop gain exceeds 1.
        let g_lambda = 0.97 * lambda1 * UNIT;
        let (gp, gn) = split(&a, UNIT, FLOOR);
        // High gain + small margin is the physical regime: the op-amps'
        // closed-loop gain deficits (~2/A) must be far below the eigenvalue
        // margin, and the settled state is then a mildly clipped eigenvector.
        // The growth mode is gain-fast, so dt must resolve it (see
        // gramc-circuit::transient module docs).
        let t = build_egv(&gp, &gn, g_lambda, OpampModel::with_gain(1e4)).unwrap();
        // Seed with a tiny asymmetric perturbation.
        let n_ops = t.circuit.opamp_count();
        let seed: Vec<f64> = (0..n_ops).map(|k| 1e-4 * ((k % 5) as f64 - 2.0)).collect();
        let cfg = TransientConfig {
            dt: Some(2e-11),
            t_max: 2e-6,
            settle_tol: 1e-5,
            ..Default::default()
        };
        let tr = transient_solve(&t.circuit, &seed, &cfg).unwrap();
        let x_raw = tr.voltages(&t.x_nodes);
        let (x, norm) = gramc_linalg::vector::normalize(&x_raw);
        assert!(norm > 1e-3, "EGV mode did not grow (norm {norm})");
        let v_ref = eig.eigenvector(0);
        let err = rel_error_up_to_sign(&x, &v_ref);
        assert!(err < 0.05, "eigenvector error {err}: {x:?} vs {v_ref:?}");
    }

    #[test]
    fn egv_with_lambda_above_spectrum_decays_to_zero() {
        let a = Matrix::from_rows(&[&[1.0, 0.2], &[0.2, 0.8]]);
        let eig = SymmetricEigen::new(&a).unwrap();
        let g_lambda = 1.2 * eig.eigenvalues[0] * UNIT;
        let (gp, gn) = split(&a, UNIT, FLOOR);
        let t = build_egv(&gp, &gn, g_lambda, OpampModel::with_gain(1e4)).unwrap();
        let n_ops = t.circuit.opamp_count();
        let seed: Vec<f64> = (0..n_ops).map(|k| 1e-3 * ((k % 3) as f64 - 1.0)).collect();
        let cfg = TransientConfig { dt: Some(2e-11), t_max: 2e-6, ..Default::default() };
        let tr = transient_solve(&t.circuit, &seed, &cfg).unwrap();
        let x = tr.voltages(&t.x_nodes);
        assert!(gramc_linalg::vector::norm2(&x) < 1e-4, "loop should decay when λ̂ > λ₁: {x:?}");
    }

    #[test]
    fn conductance_orders_match_the_builders() {
        let a = Matrix::from_fn(5, 3, |i, j| ((i * 3 + j) as f64 * 0.7).sin());
        let (gp, gn) = split(&a, UNIT, FLOOR);
        let wired = |c: &Circuit| c.conductances.iter().map(|e| e.g).collect::<Vec<_>>();
        let t = build_pinv(&gp, &gn, &[0.0; 5], 2.5 * UNIT, OpampModel::ideal()).unwrap();
        assert_eq!(pinv_conductances(&gp, &gn, 2.5 * UNIT), wired(&t.circuit));
        let sq = Matrix::from_fn(4, 4, |i, j| ((i * 4 + j) as f64 * 0.9).cos());
        let (gp, gn) = split(&sq, UNIT, FLOOR);
        let t = build_inv(&gp, &gn, &[0.0; 4], OpampModel::ideal()).unwrap();
        assert_eq!(inv_conductances(&gp, &gn), wired(&t.circuit));
    }

    #[test]
    fn builders_validate_shapes() {
        let g = Matrix::filled(2, 2, 1e-6);
        let g3 = Matrix::filled(2, 3, 1e-6);
        assert!(build_mvm(&g, &g3, &[0.0, 0.0], 1e-6, OpampModel::ideal()).is_err());
        assert!(build_mvm(&g, &g, &[0.0], 1e-6, OpampModel::ideal()).is_err());
        assert!(build_mvm(&g, &g, &[0.0, 0.0], 0.0, OpampModel::ideal()).is_err());
        assert!(build_inv(&g3, &g3, &[0.0, 0.0], OpampModel::ideal()).is_err());
        assert!(build_inv(&g, &g, &[0.0], OpampModel::ideal()).is_err());
        assert!(build_pinv(&g, &g, &[0.0], 1e-6, OpampModel::ideal()).is_err());
        assert!(build_egv(&g, &g, 0.0, OpampModel::ideal()).is_err());
        assert!(build_egv(&g3, &g3, 1e-6, OpampModel::ideal()).is_err());
    }
}
