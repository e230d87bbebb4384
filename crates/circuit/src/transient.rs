//! Transient simulation with single-pole op-amp dynamics.
//!
//! Each op-amp output is a state variable driven toward its soft-saturated
//! target:
//!
//! ```text
//! τ·dV_o/dt = V_sat·tanh( A·(v⁺ + V_os − v⁻) / V_sat ) − V_o
//! ```
//!
//! while the resistive network is solved algebraically at every evaluation
//! (the op-amp outputs act as voltage sources, so the system matrix is
//! constant and can be factored once).
//!
//! **Stiffness.** A closed feedback loop with open-loop gain `A` and
//! feedback factor `β` has a closed-loop pole at `≈ (1 + A·β)/τ` — for
//! `A = 10⁴` that is four orders of magnitude faster than `1/τ`, far beyond
//! any explicit integrator's stability region at reasonable step sizes. The
//! engine therefore integrates with **backward Euler + full Newton**
//! (A-stable), using a precomputed affine map from op-amp states to input
//! differentials: because the network is linear, `v⁺ − v⁻ = P·V + q` with a
//! constant matrix `P`, so Newton Jacobians are assembled in O(n²).
//!
//! **Growth-phase caveat.** Backward Euler is L-stable: it damps every mode
//! with `dt·λ ≫ 1`, including genuinely *growing* ones. Circuits that rely
//! on an unstable mode (the EGV loop, latches) must therefore resolve the
//! growth: keep `dt·λ_growth ≲ 0.3`, which in practice means using the
//! moderate open-loop gains of physically compensated amplifiers rather
//! than the 10⁵ "ideal" limit.
//!
//! This engine is what makes the EGV configuration work: the eigenvector
//! feedback loop is *neutrally* stable along the dominant eigenvector and
//! contracting along all others, so the DC solution is the useless zero
//! vector — the physical circuit instead grows the dominant mode until
//! amplifier saturation pins its amplitude, which the `tanh` reproduces.

use gramc_linalg::{LuDecomposition, Matrix};

use crate::dc::DcOperator;
use crate::error::CircuitError;
use crate::netlist::{Circuit, Node};

/// Default open-loop gain used in transient for "ideal" op-amps.
const IDEAL_TRANSIENT_GAIN: f64 = 1e5;

/// Integration parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientConfig {
    /// Backward-Euler step in seconds; `None` picks `min(τ)/5`.
    pub dt: Option<f64>,
    /// Simulation budget in seconds.
    pub t_max: f64,
    /// Relative settle tolerance on the slew `|target − V_o|`.
    pub settle_tol: f64,
    /// Record the full output trajectory (memory-heavy for large circuits).
    pub record_trajectory: bool,
}

impl Default for TransientConfig {
    fn default() -> Self {
        Self { dt: None, t_max: 500e-6, settle_tol: 1e-6, record_trajectory: false }
    }
}

/// Result of a transient run.
#[derive(Debug, Clone)]
pub struct TransientResult {
    /// Final op-amp output voltages (one per op-amp, netlist order).
    pub outputs: Vec<f64>,
    /// Final voltages at every node.
    pub node_voltages: Vec<f64>,
    /// Whether the settle criterion was met before `t_max`.
    pub settled: bool,
    /// Simulated time at exit, in seconds.
    pub time: f64,
    /// Number of accepted steps.
    pub steps: usize,
    /// Number of dense Jacobian factorizations performed. The modified
    /// Newton iteration reuses one factorization across iterations and
    /// steps while `(dt, tanh-slope)` are stable, so this is typically far
    /// below the total Newton iteration count.
    pub factorizations: usize,
    /// Recorded `(t, outputs)` samples if requested.
    pub trajectory: Vec<(f64, Vec<f64>)>,
}

impl TransientResult {
    /// Voltage at `node` in the final state.
    pub fn voltage(&self, node: Node) -> f64 {
        self.node_voltages[node.index()]
    }

    /// Voltages at several nodes in the final state.
    pub fn voltages(&self, nodes: &[Node]) -> Vec<f64> {
        nodes.iter().map(|&n| self.voltage(n)).collect()
    }
}

/// Pre-factored algebraic network for transient evaluation: a thin wrapper
/// over [`DcOperator`] in pinned-outputs mode (op-amp outputs act as voltage
/// sources carrying the integrator states; the matrix is factored once for
/// the whole run).
struct AlgebraicNetwork {
    op: DcOperator,
    base_rhs: Vec<f64>,
}

impl AlgebraicNetwork {
    fn build(circuit: &Circuit) -> Result<Self, CircuitError> {
        let op = DcOperator::new_pinned_outputs(circuit)?;
        if op.dim() == 0 {
            return Err(CircuitError::InvalidArgument("empty circuit"));
        }
        let base_rhs = op.rhs(circuit)?;
        Ok(Self { op, base_rhs })
    }

    /// Solves node voltages given the op-amp output states.
    fn solve(&self, states: &[f64]) -> Result<Vec<f64>, CircuitError> {
        self.op.solve_states(&self.base_rhs, states)
    }

    /// Batched homogeneous responses: column `j` of the result holds the
    /// node voltages (ground included, row 0) for unit state `e_j`: `nop`
    /// substitutions through one factorization.
    fn solve_homogeneous_units(&self, nop: usize) -> Result<Matrix, CircuitError> {
        let dim = self.op.dim();
        let state_row0 = dim - nop; // op-amp rows are the trailing block
        let rhs = Matrix::from_fn(dim, nop, |i, j| if i == state_row0 + j { 1.0 } else { 0.0 });
        let x = self.op.solve_rhs_matrix(&rhs)?;
        let nv = self.op.unknown_nodes();
        let mut volts = Matrix::zeros(nv + 1, nop);
        for j in 0..nop {
            for i in 0..nv {
                volts[(i + 1, j)] = x[(i, j)];
            }
        }
        Ok(volts)
    }
}

/// The affine map from op-amp states to op-amp input differentials:
/// `Δv = P·V + q`, where `Δv_k = v⁺_k + V_os,k − v⁻_k`.
struct InputMap {
    p: Matrix,
    q: Vec<f64>,
}

impl InputMap {
    fn build(circuit: &Circuit, net: &AlgebraicNetwork) -> Result<Self, CircuitError> {
        let nop = circuit.opamps.len();
        let extract = |volts: &[f64]| -> Vec<f64> {
            circuit
                .opamps
                .iter()
                .map(|e| volts[e.inp.index()] + e.model.offset - volts[e.inn.index()])
                .collect()
        };
        let zero_states = vec![0.0; nop];
        let q = extract(&net.solve(&zero_states)?);
        // Homogeneous responses (sources off, offset excluded) give the pure
        // state-to-input coupling, all unit states in one multi-RHS solve.
        let volts = net.solve_homogeneous_units(nop)?;
        let mut p = Matrix::zeros(nop, nop);
        for j in 0..nop {
            for (k, e) in circuit.opamps.iter().enumerate() {
                p[(k, j)] = volts[(e.inp.index(), j)] - volts[(e.inn.index(), j)];
            }
        }
        Ok(Self { p, q })
    }

    fn differentials(&self, states: &[f64]) -> Vec<f64> {
        let mut d = self.p.matvec(states);
        for (di, qi) in d.iter_mut().zip(&self.q) {
            *di += qi;
        }
        d
    }
}

/// Runs a transient simulation from the given initial op-amp output state
/// (pass zeros — or a small random perturbation for circuits like EGV whose
/// zero state is an unstable/neutral fixed point).
///
/// # Errors
///
/// * [`CircuitError::ShapeMismatch`] if `initial_outputs.len()` differs from
///   the op-amp count.
/// * [`CircuitError::SingularSystem`] if the resistive network is ill-posed.
/// * [`CircuitError::NoSettle`] if a Newton iteration fails to converge even
///   after step-size reduction.
/// * [`CircuitError::InvalidArgument`] for an empty circuit or non-positive
///   step.
pub fn transient_solve(
    circuit: &Circuit,
    initial_outputs: &[f64],
    config: &TransientConfig,
) -> Result<TransientResult, CircuitError> {
    let nop = circuit.opamps.len();
    if initial_outputs.len() != nop {
        return Err(CircuitError::ShapeMismatch { expected: nop, found: initial_outputs.len() });
    }
    let net = AlgebraicNetwork::build(circuit)?;
    if nop == 0 {
        let node_voltages = net.solve(&[])?;
        return Ok(TransientResult {
            outputs: Vec::new(),
            node_voltages,
            settled: true,
            time: 0.0,
            steps: 0,
            factorizations: 0,
            trajectory: Vec::new(),
        });
    }
    let map = InputMap::build(circuit, &net)?;

    let gains: Vec<f64> =
        circuit.opamps.iter().map(|o| o.model.gain.unwrap_or(IDEAL_TRANSIENT_GAIN)).collect();
    let taus: Vec<f64> = circuit.opamps.iter().map(|o| o.model.tau).collect();
    let sats: Vec<f64> = circuit.opamps.iter().map(|o| o.model.v_sat).collect();
    let tau_min = taus.iter().copied().fold(f64::INFINITY, f64::min).min(config.t_max);
    let dt0 = config.dt.unwrap_or(tau_min / 5.0);
    if !(dt0 > 0.0) {
        return Err(CircuitError::InvalidArgument("non-positive transient step"));
    }

    // f(V) and the tanh-slope diagonal at V.
    let eval = |states: &[f64]| -> (Vec<f64>, Vec<f64>) {
        let d = map.differentials(states);
        let mut f = Vec::with_capacity(nop);
        let mut slope = Vec::with_capacity(nop);
        for k in 0..nop {
            let u = gains[k] * d[k] / sats[k];
            let target = sats[k] * u.tanh();
            let sech2 = 1.0 - u.tanh() * u.tanh();
            f.push((target - states[k]) / taus[k]);
            slope.push(gains[k] * sech2);
        }
        (f, slope)
    };

    let mut state = initial_outputs.to_vec();
    let mut t = 0.0;
    let mut steps = 0usize;
    let mut trajectory = Vec::new();
    let mut settled = false;
    let mut dt = dt0;
    let max_steps = ((config.t_max / dt0).ceil() as usize).saturating_mul(8).max(16);

    // Modified Newton: the backward-Euler Jacobian depends only on the step
    // size and the tanh-slope diagonal, and during settling the slopes
    // barely move between iterations *and* steps. Cache one factorization
    // and reuse it while `(dt, slope)` stay within a relative drift bound —
    // a 10% stale Jacobian still contracts the iteration comfortably, the
    // convergence test is on the residual (so accepted states satisfy the
    // same 1e-12 tolerance either way), and a stalled solve falls back to
    // fresh factorizations before conceding the step size.
    const SLOPE_REUSE_RTOL: f64 = 0.1;
    struct FactorCache {
        dt: f64,
        slope: Vec<f64>,
        lu: LuDecomposition,
    }
    let mut cache: Option<FactorCache> = None;
    let mut factorizations = 0usize;
    let mut jac = Matrix::zeros(nop, nop);
    // One fresh-factorization retry per step attempt before conceding the
    // step size (see the non-convergence handling below).
    let mut fresh_retry = false;

    while t < config.t_max && steps < max_steps {
        if config.record_trajectory {
            trajectory.push((t, state.clone()));
        }
        // Backward Euler: solve W = state + dt·f(W) by (modified) Newton.
        let mut w = state.clone();
        let mut converged = false;
        let mut reused_stale = false;
        'newton: for _newton in 0..40 {
            let (f, slope) = eval(&w);
            // Residual R = W − state − dt·f(W).
            let mut r: Vec<f64> = (0..nop).map(|k| w[k] - state[k] - dt * f[k]).collect();
            let rnorm = r.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            let wscale = w.iter().fold(1e-9_f64, |m, v| m.max(v.abs()));
            if rnorm <= 1e-12 * wscale.max(1.0) {
                converged = true;
                break;
            }
            let reusable = cache.as_ref().is_some_and(|c| {
                c.dt == dt
                    && c.slope
                        .iter()
                        .zip(&slope)
                        .all(|(a, b)| (a - b).abs() <= SLOPE_REUSE_RTOL * a.abs().max(1.0))
            });
            if reusable {
                reused_stale = true;
            } else {
                // Jacobian: I − dt·diag(1/τ)(diag(slope)·P − I), assembled
                // into the preallocated buffer.
                for i in 0..nop {
                    for j in 0..nop {
                        let dfij = slope[i] * map.p[(i, j)] / taus[i]
                            - if i == j { 1.0 / taus[i] } else { 0.0 };
                        jac[(i, j)] = if i == j { 1.0 } else { 0.0 } - dt * dfij;
                    }
                }
                match LuDecomposition::new(&jac) {
                    Ok(lu) => {
                        factorizations += 1;
                        cache = Some(FactorCache { dt, slope, lu });
                    }
                    Err(_) => {
                        cache = None;
                        break 'newton;
                    }
                }
            }
            let lu = &cache.as_ref().expect("factorization cached above").lu;
            for ri in r.iter_mut() {
                *ri = -*ri;
            }
            match lu.solve(&r) {
                Ok(delta) => {
                    for (wi, di) in w.iter_mut().zip(&delta) {
                        *wi += di;
                    }
                }
                Err(_) => break,
            }
        }
        if !converged {
            if reused_stale && !fresh_retry {
                // A stale Jacobian, not the step size, may be what stalled
                // Newton: redo this step once with fresh factorizations
                // before shrinking dt.
                cache = None;
                fresh_retry = true;
                continue;
            }
            // Halve the step; give up below a floor.
            dt *= 0.5;
            fresh_retry = false;
            if dt < dt0 * 1e-4 {
                return Err(CircuitError::NoSettle { simulated_time: t, residual: f64::NAN });
            }
            continue;
        }
        fresh_retry = false;
        state = w;
        t += dt;
        steps += 1;
        dt = (dt * 1.5).min(dt0);

        // Settle check: residual slew relative to the output scale.
        let (f, _) = eval(&state);
        let scale = state.iter().fold(1e-9_f64, |m, v| m.max(v.abs()));
        let slew = f.iter().zip(&taus).map(|(fk, tk)| (fk * tk).abs()).fold(0.0_f64, f64::max);
        if slew <= config.settle_tol * scale {
            settled = true;
            break;
        }
    }

    let node_voltages = net.solve(&state)?;
    Ok(TransientResult {
        outputs: state,
        node_voltages,
        settled,
        time: t,
        steps,
        factorizations,
        trajectory,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::dc_solve;
    use crate::netlist::OpampModel;

    fn inverting_amp(gain_r: f64) -> (Circuit, Node) {
        let mut c = Circuit::new();
        let vin = c.node();
        let inn = c.node();
        let out = c.node();
        c.voltage_source(vin, Circuit::GROUND, 0.2);
        c.conductance(vin, inn, 1e-3);
        c.conductance(out, inn, 1e-3 / gain_r);
        c.opamp(Circuit::GROUND, inn, out, OpampModel::with_gain(1e4));
        (c, out)
    }

    #[test]
    fn transient_settles_to_dc_solution() {
        let (c, out) = inverting_amp(2.0);
        let dc = dc_solve(&c).unwrap();
        let tr = transient_solve(&c, &[0.0], &TransientConfig::default()).unwrap();
        assert!(tr.settled, "did not settle: {tr:?}");
        assert!(
            (tr.voltage(out) - dc.voltage(out)).abs() < 1e-4,
            "transient {} vs dc {}",
            tr.voltage(out),
            dc.voltage(out)
        );
    }

    #[test]
    fn high_gain_loop_is_integrated_stably() {
        // Gain 10⁵ loop: closed-loop pole ~10⁵/τ — hopeless for explicit
        // integrators at dt = τ/5, routine for backward Euler.
        let mut c = Circuit::new();
        let vin = c.node();
        let inn = c.node();
        let out = c.node();
        c.voltage_source(vin, Circuit::GROUND, 0.1);
        c.conductance(vin, inn, 1e-3);
        c.conductance(out, inn, 1e-3);
        c.opamp(Circuit::GROUND, inn, out, OpampModel::ideal());
        let tr = transient_solve(&c, &[0.0], &TransientConfig::default()).unwrap();
        assert!(tr.settled);
        assert!((tr.outputs[0] + 0.1).abs() < 1e-4, "output {}", tr.outputs[0]);
    }

    #[test]
    fn settle_time_scales_with_tau() {
        let mut times = Vec::new();
        for tau in [50e-9, 200e-9] {
            let mut c = Circuit::new();
            let vin = c.node();
            let inn = c.node();
            let out = c.node();
            c.voltage_source(vin, Circuit::GROUND, 0.2);
            c.conductance(vin, inn, 1e-3);
            c.conductance(out, inn, 1e-3);
            c.opamp(
                Circuit::GROUND,
                inn,
                out,
                OpampModel { gain: Some(1e4), offset: 0.0, tau, v_sat: 1.2 },
            );
            let tr = transient_solve(&c, &[0.0], &TransientConfig::default()).unwrap();
            assert!(tr.settled);
            times.push(tr.time);
        }
        assert!(times[1] > 2.0 * times[0], "{times:?}");
    }

    #[test]
    fn saturation_clips_output() {
        // Inverting amp with huge closed-loop gain driving past the rails.
        let mut c = Circuit::new();
        let vin = c.node();
        let inn = c.node();
        let out = c.node();
        c.voltage_source(vin, Circuit::GROUND, 0.5);
        c.conductance(vin, inn, 1e-3);
        c.conductance(out, inn, 1e-5);
        c.opamp(Circuit::GROUND, inn, out, OpampModel::with_gain(1e4));
        let tr = transient_solve(&c, &[0.0], &TransientConfig::default()).unwrap();
        assert!(tr.outputs[0].abs() <= 1.2 + 1e-9, "output {}", tr.outputs[0]);
        assert!(tr.outputs[0] < -1.0, "should be pinned near the negative rail");
    }

    #[test]
    fn unstable_positive_feedback_grows_to_rail() {
        // Loop gain 2 (gain 4, β = 1/2): the unstable time constant is τ,
        // well resolved by dt = τ/5. (Backward Euler would misrepresent a
        // gain-fast instability — see module docs — so growth-phase circuits
        // use physically compensated, moderate gains.)
        let mut c = Circuit::new();
        let inp = c.node();
        let out = c.node();
        c.conductance(out, inp, 1e-3);
        c.conductance(inp, Circuit::GROUND, 1e-3);
        c.opamp(inp, Circuit::GROUND, out, OpampModel::with_gain(4.0));
        let tr = transient_solve(&c, &[1e-6], &TransientConfig::default()).unwrap();
        assert!(tr.outputs[0] > 1.0, "latched output {}", tr.outputs[0]);
    }

    #[test]
    fn jacobian_factorizations_are_reused_across_steps() {
        // A finely-stepped settling run spends almost every step with a
        // near-constant tanh slope and a fixed dt, so the modified Newton
        // must get by with far fewer factorizations than accepted steps —
        // the old full-Newton path paid one per iteration (≥ steps).
        let mut c = Circuit::new();
        let vin = c.node();
        let inn = c.node();
        let out = c.node();
        c.voltage_source(vin, Circuit::GROUND, 0.2);
        c.conductance(vin, inn, 1e-3);
        c.conductance(out, inn, 5e-4);
        c.opamp(
            Circuit::GROUND,
            inn,
            out,
            OpampModel { gain: Some(10.0), offset: 0.0, tau: 100e-9, v_sat: 1.2 },
        );
        let cfg = TransientConfig { dt: Some(5e-9), ..Default::default() };
        let tr = transient_solve(&c, &[0.0], &cfg).unwrap();
        assert!(tr.settled);
        assert!(tr.steps > 20, "expected a long settling run, got {} steps", tr.steps);
        assert!(
            tr.factorizations * 2 < tr.steps,
            "{} factorizations over {} steps",
            tr.factorizations,
            tr.steps
        );
    }

    #[test]
    fn trajectory_is_recorded_when_requested() {
        let (c, _) = inverting_amp(1.0);
        let cfg = TransientConfig { record_trajectory: true, ..Default::default() };
        let tr = transient_solve(&c, &[0.0], &cfg).unwrap();
        assert!(tr.trajectory.len() > 2, "{} samples", tr.trajectory.len());
        assert_eq!(tr.trajectory[0].1.len(), 1);
    }

    #[test]
    fn wrong_initial_state_length_is_rejected() {
        let (c, _) = inverting_amp(1.0);
        assert!(matches!(
            transient_solve(&c, &[0.0, 0.0], &TransientConfig::default()),
            Err(CircuitError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn no_settle_is_reported_honestly() {
        let (c, _) = inverting_amp(1.0);
        let cfg = TransientConfig { t_max: 1e-9, dt: Some(1e-9), ..Default::default() };
        let tr = transient_solve(&c, &[0.0], &cfg).unwrap();
        assert!(!tr.settled);
    }

    #[test]
    fn opamp_free_circuit_solves_algebraically() {
        let mut c = Circuit::new();
        let n = c.node();
        c.current_source(Circuit::GROUND, n, 1e-3);
        c.conductance(n, Circuit::GROUND, 1e-3);
        let tr = transient_solve(&c, &[], &TransientConfig::default()).unwrap();
        assert!(tr.settled);
        assert!((tr.voltage(n) - 1.0).abs() < 1e-12);
    }
}
