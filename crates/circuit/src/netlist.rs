//! Netlist construction: nodes, passive elements, sources and op-amps.
//!
//! The AMC macro's reconfigurability (paper Fig. 2) is modelled by building a
//! different netlist from the same component inventory for each computing
//! mode — exactly what the register-array-controlled transmission gates do in
//! hardware.

use crate::error::CircuitError;

/// Handle to a circuit node. [`Circuit::GROUND`] is the reference node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Node(pub(crate) usize);

impl Node {
    /// Raw index of this node (0 is ground).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Behavioural op-amp model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpampModel {
    /// Open-loop DC gain; `None` models the ideal infinite-gain limit.
    pub gain: Option<f64>,
    /// Input-referred offset voltage in volts (added to the v⁺ input).
    pub offset: f64,
    /// Single-pole time constant in seconds (used by the transient engine).
    pub tau: f64,
    /// Output saturation voltage in volts (soft-clipped in transient).
    pub v_sat: f64,
}

impl Default for OpampModel {
    fn default() -> Self {
        Self { gain: None, offset: 0.0, tau: 100e-9, v_sat: 1.2 }
    }
}

impl OpampModel {
    /// An ideal op-amp: infinite gain, no offset.
    pub fn ideal() -> Self {
        Self::default()
    }

    /// A finite-gain op-amp with the given open-loop gain.
    pub fn with_gain(gain: f64) -> Self {
        Self { gain: Some(gain), ..Self::default() }
    }

    /// Returns this model with the given input offset voltage.
    pub fn offset(mut self, offset: f64) -> Self {
        self.offset = offset;
        self
    }
}

/// A two-terminal conductance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ConductanceElem {
    pub a: Node,
    pub b: Node,
    pub g: f64,
}

/// An independent current source driving `i` amperes into node `into`
/// (and out of node `from`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CurrentSourceElem {
    pub from: Node,
    pub into: Node,
    pub i: f64,
}

/// An independent voltage source: `v(plus) − v(minus) = v`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct VoltageSourceElem {
    pub plus: Node,
    pub minus: Node,
    pub v: f64,
}

/// An op-amp: output `out` driven so the model equation holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OpampElem {
    pub inp: Node,
    pub inn: Node,
    pub out: Node,
    pub model: OpampModel,
}

/// Handle to a voltage source, for updating its value between solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoltageSourceId(pub(crate) usize);

/// Handle to a current source, for updating its value between solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CurrentSourceId(pub(crate) usize);

/// Handle to an op-amp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpampId(pub(crate) usize);

/// A linear analog circuit under construction.
///
/// # Examples
///
/// Voltage divider:
///
/// ```
/// use gramc_circuit::{Circuit, dc_solve};
///
/// # fn main() -> Result<(), gramc_circuit::CircuitError> {
/// let mut c = Circuit::new();
/// let top = c.node();
/// let mid = c.node();
/// c.voltage_source(top, Circuit::GROUND, 1.0);
/// c.conductance(top, mid, 1e-3);
/// c.conductance(mid, Circuit::GROUND, 1e-3);
/// let sol = dc_solve(&c)?;
/// assert!((sol.voltage(mid) - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    pub(crate) node_count: usize, // includes ground
    pub(crate) conductances: Vec<ConductanceElem>,
    pub(crate) current_sources: Vec<CurrentSourceElem>,
    pub(crate) voltage_sources: Vec<VoltageSourceElem>,
    pub(crate) opamps: Vec<OpampElem>,
}

impl Circuit {
    /// The reference (ground) node.
    pub const GROUND: Node = Node(0);

    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        Self { node_count: 1, ..Self::default() }
    }

    /// Allocates a new node.
    pub fn node(&mut self) -> Node {
        let n = Node(self.node_count);
        self.node_count += 1;
        n
    }

    /// Allocates `n` new nodes.
    pub fn nodes(&mut self, n: usize) -> Vec<Node> {
        (0..n).map(|_| self.node()).collect()
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of op-amps.
    pub fn opamp_count(&self) -> usize {
        self.opamps.len()
    }

    fn check(&self, node: Node) -> Result<(), CircuitError> {
        if node.0 >= self.node_count {
            Err(CircuitError::InvalidNode { node: node.0, node_count: self.node_count })
        } else {
            Ok(())
        }
    }

    /// Adds a conductance of `g` siemens between `a` and `b`.
    ///
    /// Zero conductances are accepted and ignored at stamp time, so callers
    /// can wire full crossbar grids without special-casing empty cells.
    ///
    /// # Panics
    ///
    /// Panics if a node does not belong to this circuit or `g < 0`.
    pub fn conductance(&mut self, a: Node, b: Node, g: f64) {
        self.check(a).expect("conductance node a");
        self.check(b).expect("conductance node b");
        assert!(g >= 0.0 && g.is_finite(), "conductance must be finite and non-negative");
        self.conductances.push(ConductanceElem { a, b, g });
    }

    /// Adds a resistor of `r` ohms between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `r <= 0` or a node is invalid.
    pub fn resistor(&mut self, a: Node, b: Node, r: f64) {
        assert!(r > 0.0, "resistance must be positive");
        self.conductance(a, b, 1.0 / r);
    }

    /// Adds a current source driving `i` amperes into `into` and out of
    /// `from`. Returns a handle for later updates.
    ///
    /// # Panics
    ///
    /// Panics if a node is invalid.
    pub fn current_source(&mut self, from: Node, into: Node, i: f64) -> CurrentSourceId {
        self.check(from).expect("current source node");
        self.check(into).expect("current source node");
        self.current_sources.push(CurrentSourceElem { from, into, i });
        CurrentSourceId(self.current_sources.len() - 1)
    }

    /// Adds an ideal voltage source with `v(plus) − v(minus) = v`.
    /// Returns a handle for later updates.
    ///
    /// # Panics
    ///
    /// Panics if a node is invalid.
    pub fn voltage_source(&mut self, plus: Node, minus: Node, v: f64) -> VoltageSourceId {
        self.check(plus).expect("voltage source node");
        self.check(minus).expect("voltage source node");
        self.voltage_sources.push(VoltageSourceElem { plus, minus, v });
        VoltageSourceId(self.voltage_sources.len() - 1)
    }

    /// Adds an op-amp with non-inverting input `inp`, inverting input `inn`
    /// and output `out`.
    ///
    /// # Panics
    ///
    /// Panics if a node is invalid.
    pub fn opamp(&mut self, inp: Node, inn: Node, out: Node, model: OpampModel) -> OpampId {
        self.check(inp).expect("opamp inp");
        self.check(inn).expect("opamp inn");
        self.check(out).expect("opamp out");
        self.opamps.push(OpampElem { inp, inn, out, model });
        OpampId(self.opamps.len() - 1)
    }

    /// Convenience: a transimpedance amplifier on `input_node` — op-amp with
    /// grounded non-inverting input and feedback conductance `g_f` from the
    /// output back to `input_node` (its virtual ground). Returns the output
    /// node.
    pub fn tia(&mut self, input_node: Node, g_f: f64, model: OpampModel) -> Node {
        let out = self.node();
        self.opamp(Self::GROUND, input_node, out, model);
        self.conductance(out, input_node, g_f);
        out
    }

    /// Convenience: a unity-gain analog inverter reading `input` through
    /// conductance `g_u` with an equal feedback conductance. Returns the
    /// output node carrying `−v(input)`.
    ///
    /// These are the "analog inverters" the paper's OPA bank reconfigures
    /// into for matrices with negative coefficients.
    pub fn inverter(&mut self, input: Node, g_u: f64, model: OpampModel) -> Node {
        let inn = self.node();
        let out = self.node();
        self.conductance(input, inn, g_u);
        self.conductance(out, inn, g_u);
        self.opamp(Self::GROUND, inn, out, model);
        out
    }

    /// Updates the value of a voltage source.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale (from another circuit).
    pub fn set_voltage(&mut self, id: VoltageSourceId, v: f64) {
        self.voltage_sources[id.0].v = v;
    }

    /// Updates the value of a current source.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale (from another circuit).
    pub fn set_current(&mut self, id: CurrentSourceId, i: f64) {
        self.current_sources[id.0].i = i;
    }

    /// The nodes a current source drives between: `(from, into)`.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale (from another circuit).
    pub fn current_source_nodes(&self, id: CurrentSourceId) -> (Node, Node) {
        let e = &self.current_sources[id.0];
        (e.from, e.into)
    }

    /// Updates an op-amp's model (e.g. to inject a sampled offset).
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn set_opamp_model(&mut self, id: OpampId, model: OpampModel) {
        self.opamps[id.0].model = model;
    }

    /// Handles to all op-amps, in insertion order.
    pub fn opamp_ids(&self) -> Vec<OpampId> {
        (0..self.opamps.len()).map(OpampId).collect()
    }

    /// The model of an op-amp.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn opamp_model(&self, id: OpampId) -> OpampModel {
        self.opamps[id.0].model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_allocated_sequentially() {
        let mut c = Circuit::new();
        let a = c.node();
        let b = c.node();
        assert_eq!(a.index(), 1);
        assert_eq!(b.index(), 2);
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.nodes(3).len(), 3);
        assert_eq!(c.node_count(), 6);
    }

    #[test]
    #[should_panic(expected = "conductance node")]
    fn foreign_node_panics() {
        let mut c1 = Circuit::new();
        let mut c2 = Circuit::new();
        let far = c2.nodes(5)[4];
        c1.conductance(Circuit::GROUND, far, 1e-3);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_conductance_panics() {
        let mut c = Circuit::new();
        let a = c.node();
        c.conductance(a, Circuit::GROUND, -1.0);
    }

    #[test]
    fn source_values_can_be_updated() {
        let mut c = Circuit::new();
        let a = c.node();
        let vs = c.voltage_source(a, Circuit::GROUND, 1.0);
        let is = c.current_source(Circuit::GROUND, a, 1e-6);
        c.set_voltage(vs, 2.0);
        c.set_current(is, 2e-6);
        assert_eq!(c.voltage_sources[0].v, 2.0);
        assert_eq!(c.current_sources[0].i, 2e-6);
    }

    #[test]
    fn opamp_model_builders() {
        let m = OpampModel::with_gain(1e4).offset(1e-3);
        assert_eq!(m.gain, Some(1e4));
        assert_eq!(m.offset, 1e-3);
        assert_eq!(OpampModel::ideal().gain, None);
    }
}
