//! The AMC macro and macro group (paper Fig. 2) with the four analog
//! computing paths.
//!
//! An [`AmcMacro`] owns one 1T1R crossbar, its register array, the DA/AD
//! interfaces and an output buffer. A [`MacroGroup`] owns several macros (16
//! in the paper's system) plus the shared RNG, places matrix operators onto
//! them ("all matrices were mapped to one or two RRAM arrays with 4-bit
//! quantization") and executes the four primitives:
//!
//! * [`MacroGroup::mvm`] — crossbar fast path (exact TIA mathematics with
//!   aggregated read noise; validated against full MNA by
//!   [`MacroGroup::mvm_mna`]),
//! * [`MacroGroup::solve_inv`] — full MNA solve of the INV feedback circuit,
//! * [`MacroGroup::solve_pinv`] — full MNA solve of the two-array cascade,
//! * [`MacroGroup::solve_egv`] — the clipped-eigenvector fixed point of the
//!   EGV loop (the settled state of the saturating transient; see
//!   `gramc-circuit::transient` docs), iterated behaviourally.

use std::sync::Arc;

use gramc_array::{
    ActiveRegion, ArrayConfig, ConductanceMapper, CrossbarArray, LevelMatrix, MappedMatrix,
    ProgramOutcome, SignedEncoding, WriteVerifyController,
};
use gramc_circuit::{dc_solve, topology, DcOperator, OpampModel};
use gramc_device::{CellNoise, FaultConfig, FaultPlan, LevelQuantizer};
use gramc_linalg::{power_iteration, random, vector, Matrix, PackedRhs};
use gramc_telemetry::{HwCounters, HwSnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::converter::{Adc, Dac};
use crate::error::CoreError;
use crate::nonideal::{NonidealityConfig, ProgrammingMode};
use crate::registers::{MacroMode, RegisterArray};

/// Geometry and interface parameters of a macro.
#[derive(Debug, Clone, PartialEq)]
pub struct MacroConfig {
    /// Crossbar rows (paper: 128).
    pub array_rows: usize,
    /// Crossbar columns (paper: 128).
    pub array_cols: usize,
    /// Read/drive voltage full scale in volts.
    pub v_read: f64,
    /// Op-amp output / ADC full scale in volts.
    pub v_out_ref: f64,
    /// Non-ideality knobs.
    pub nonideal: NonidealityConfig,
}

impl Default for MacroConfig {
    fn default() -> Self {
        Self {
            array_rows: 128,
            array_cols: 128,
            v_read: 0.2,
            v_out_ref: 1.2,
            nonideal: NonidealityConfig::paper_default(),
        }
    }
}

impl MacroConfig {
    /// A small macro for fast tests.
    pub fn small(n: usize) -> Self {
        Self { array_rows: n, array_cols: n, ..Self::default() }
    }

    /// A small, fully ideal macro (deterministic tests).
    pub fn small_ideal(n: usize) -> Self {
        Self {
            array_rows: n,
            array_cols: n,
            nonideal: NonidealityConfig::ideal(),
            ..Self::default()
        }
    }
}

/// One AMC macro: crossbar + registers + converters + output buffer.
#[derive(Debug, Clone)]
pub struct AmcMacro {
    id: usize,
    array: CrossbarArray,
    registers: RegisterArray,
    dac: Dac,
    adc: Adc,
    /// Static input-referred offsets of the macro's op-amp bank (sampled
    /// once at fabrication — offsets are a device property, not noise).
    offset_bank: Vec<f64>,
    output_buffer: Vec<f64>,
    owner: Option<usize>,
}

impl AmcMacro {
    fn new(id: usize, config: &MacroConfig, rng: &mut StdRng) -> Self {
        let ni = &config.nonideal;
        let array_cfg = ArrayConfig {
            rows: config.array_rows,
            cols: config.array_cols,
            noise: CellNoise { c2c_gap_sigma: ni.c2c_gap_sigma, read_rel_sigma: ni.read_noise_rel },
            d2d_i0_sigma: ni.d2d_i0_sigma,
            d2d_g0_sigma: ni.d2d_g0_sigma,
            wire_resistance: ni.wire_resistance,
            ..ArrayConfig::default()
        };
        let offset_bank = (0..4 * config.array_rows.max(config.array_cols))
            .map(|_| {
                if ni.opamp_offset_sigma == 0.0 {
                    0.0
                } else {
                    ni.opamp_offset_sigma * random::standard_normal(rng)
                }
            })
            .collect();
        Self {
            id,
            array: CrossbarArray::new(array_cfg, rng),
            registers: RegisterArray::new(config.array_rows),
            dac: Dac::new(ni.dac_bits, config.v_read),
            adc: Adc::new(ni.adc_bits, config.v_out_ref),
            offset_bank,
            output_buffer: Vec::new(),
            owner: None,
        }
    }

    /// Input-referred offset of op-amp `k` in this macro's bank.
    pub fn opamp_offset(&self, k: usize) -> f64 {
        self.offset_bank[k % self.offset_bank.len()]
    }

    /// Macro index within its group.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The register array (mode + gate configuration).
    pub fn registers(&self) -> &RegisterArray {
        &self.registers
    }

    /// Currently configured mode.
    pub fn mode(&self) -> MacroMode {
        self.registers.mode()
    }

    /// The most recent ADC capture.
    pub fn output_buffer(&self) -> &[f64] {
        &self.output_buffer
    }

    /// The input DAC.
    pub fn dac(&self) -> &Dac {
        &self.dac
    }

    /// The output ADC.
    pub fn adc(&self) -> &Adc {
        &self.adc
    }
}

/// Handle to a matrix operator placed on a macro group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperatorId(usize);

/// Where one level plane of an operator lives.
#[derive(Debug, Clone, Copy)]
struct PlaneRef {
    macro_id: usize,
    region: ActiveRegion,
}

/// A placed operator: shape, scaling and plane locations.
#[derive(Debug, Clone)]
pub struct OperatorInfo {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Matrix units per level difference.
    pub scale: f64,
    /// Number of 4-bit planes (2 for differential, 4 for bit-sliced INT8).
    pub planes: usize,
    /// The matrix as quantized onto the levels (the analog ground truth).
    pub quantized: Matrix,
    /// Verify outcome of the load's programming pass across all planes —
    /// the write-verify failure count, surfaced instead of dropped.
    pub program: ProgramOutcome,
}

/// Result of a [`MacroGroup::health_probe`]: the programmed planes read
/// back and compared against the operator's mapped target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeReport {
    /// Matrix entries compared.
    pub cells: usize,
    /// Entries whose readback missed the target by more than the probe's
    /// level tolerance.
    pub bad_cells: usize,
    /// Relative Frobenius residual `‖readback − quantized‖ / ‖quantized‖`.
    pub residual: f64,
}

#[derive(Debug, Clone)]
struct Operator {
    info: OperatorInfo,
    /// Differential planes: `[pos, neg]` or `[hi_pos, hi_neg, lo_pos, lo_neg]`.
    planes: Vec<PlaneRef>,
    /// Each row's TIA offset as it reaches the output: the op-amp's
    /// input-referred offset times its noise gain `1 + ΣG_row/g_f`, with
    /// `ΣG_row` the row's programmed conductance across all planes (fixed
    /// at load time).
    output_offsets: Vec<f64>,
    /// TIA feedback conductance chosen at load time so the worst-case row
    /// current stays inside the ADC range (realized as parallel RRAM cells,
    /// i.e. quantized to multiples of the level step).
    g_f: f64,
    /// Factorization of the last INV or PINV circuit solved on this
    /// operator; the next solve in that mode refactors it (only the read
    /// noise differs).
    resident: Option<Resident>,
    /// The noise-free planes packed for batched MVMs (see
    /// [`MacroGroup::mvm_batch_rows`]).
    panel: Option<PlanePanel>,
    freed: bool,
}

/// An operator's noise-free planes packed as one right-hand panel
/// `[G₀ᵀ | G₁ᵀ | …]`, valid while every plane's array is at the generation
/// it was read at.
#[derive(Debug, Clone)]
struct PlanePanel {
    /// Generation of each plane's array at the read, in plane order.
    generations: Vec<u64>,
    packed: PackedRhs,
}

/// A factored INV or PINV circuit and what its solves need once the
/// netlist is gone.
#[derive(Debug, Clone)]
struct Resident {
    mode: MacroMode,
    dc: DcOperator,
    /// MNA row of the node each injection source drives.
    input_rows: Vec<usize>,
    /// MNA row of each solution node.
    x_rows: Vec<usize>,
    /// The RHS with no injection: the op-amp offset terms.
    offset_rhs: Vec<f64>,
}

impl Resident {
    /// Builds the `mode` circuit around a read of the pair, with op-amp `k`
    /// offset by `offset(k)`, and factors it afresh. `g_f` is the PINV
    /// stage-1 feedback.
    fn new(
        mode: MacroMode,
        (g_pos, g_neg): (&Matrix, &Matrix),
        g_f: f64,
        model: OpampModel,
        offset: impl Fn(usize) -> f64,
    ) -> Result<Self, CoreError> {
        // The injections enter per column through the RHS, so the circuit
        // builds with none.
        let zeros = vec![0.0; g_pos.rows()];
        let (mut circuit, input_sources, x_nodes) = if mode == MacroMode::Inv {
            let t = topology::build_inv(g_pos, g_neg, &zeros, model)?;
            (t.circuit, t.input_sources, t.x_nodes)
        } else {
            let t = topology::build_pinv(g_pos, g_neg, &zeros, g_f, model)?;
            (t.circuit, t.input_sources, t.x_nodes)
        };
        for (k, opamp) in circuit.opamp_ids().into_iter().enumerate() {
            let m = circuit.opamp_model(opamp);
            circuit.set_opamp_model(opamp, m.offset(offset(k)));
        }
        let dc = DcOperator::new(&circuit)?;
        let offset_rhs = dc.rhs(&circuit)?;
        // Sources inject from ground; solution nodes are never ground.
        let input_rows =
            input_sources.iter().map(|&s| circuit.current_source_nodes(s).1.index() - 1).collect();
        let x_rows = x_nodes.iter().map(|n| n.index() - 1).collect();
        Ok(Self { mode, dc, input_rows, x_rows, offset_rhs })
    }

    /// Refactors for a new read of the pair, gathered straight into the
    /// recorded factorization; `false` where only a fresh one is exact.
    fn refactor(&mut self, (g_pos, g_neg): (&Matrix, &Matrix), g_f: f64) -> bool {
        if self.mode == MacroMode::Inv {
            self.dc.refactor_conductances(&topology::inv_conductances(g_pos, g_neg))
        } else {
            self.dc.refactor_conductances(&topology::pinv_conductances(g_pos, g_neg, g_f))
        }
    }
}

/// Result of an EGV solve.
#[derive(Debug, Clone)]
pub struct EgvSolution {
    /// Rayleigh-quotient eigenvalue estimate (matrix units, computed
    /// digitally from the quantized operator).
    pub eigenvalue: f64,
    /// Unit-norm eigenvector as captured by the ADCs.
    pub eigenvector: Vec<f64>,
    /// Loop iterations until the direction settled.
    pub iterations: usize,
    /// The feedback conductance level that was programmed.
    pub lambda_level: usize,
}

/// A group of AMC macros with shared control (paper Fig. 2 "AMC macro
/// group"; the full system has 16 macros, Fig. 3).
///
/// # Examples
///
/// ```
/// use gramc_core::{MacroGroup, MacroConfig};
/// use gramc_linalg::Matrix;
///
/// # fn main() -> Result<(), gramc_core::CoreError> {
/// let mut group = MacroGroup::new(2, MacroConfig::small_ideal(4), 7);
/// let a = Matrix::from_rows(&[&[1.0, -0.5], &[0.25, 0.75]]);
/// let op = group.load_matrix(&a)?;
/// let y = group.mvm(op, &[1.0, 2.0])?;
/// let y_ref = a.matvec(&[1.0, 2.0]);
/// assert!((y[0] - y_ref[0]).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MacroGroup {
    config: MacroConfig,
    macros: Vec<AmcMacro>,
    operators: Vec<Operator>,
    quantizer: LevelQuantizer,
    write_verify: WriteVerifyController,
    rng: StdRng,
    /// One shared hardware-counter sink for the whole group (installed into
    /// every macro's array, so converter events counted here and array
    /// events counted there aggregate in one place).
    telemetry: Arc<HwCounters>,
}

impl MacroGroup {
    /// Creates a group of `n_macros` macros with the given configuration and
    /// RNG seed (all stochastic effects are reproducible from the seed).
    pub fn new(n_macros: usize, config: MacroConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let quantizer = LevelQuantizer::with_bits(config.nonideal.weight_bits);
        let mut macros: Vec<AmcMacro> =
            (0..n_macros).map(|id| AmcMacro::new(id, &config, &mut rng)).collect();
        // Counter installation happens after all RNG-driven construction:
        // telemetry never touches the random stream.
        let telemetry = {
            let counters = Arc::new(HwCounters::new());
            for m in &mut macros {
                m.array.set_telemetry(counters.clone());
            }
            counters
        };
        let write_verify = WriteVerifyController::new(Default::default(), quantizer.clone());
        Self { config, macros, operators: Vec::new(), quantizer, write_verify, rng, telemetry }
    }

    /// The group's shared hardware event counters (also the sink of every
    /// member array).
    pub fn telemetry(&self) -> &Arc<HwCounters> {
        &self.telemetry
    }

    /// A point-in-time copy of the group's hardware counters.
    pub fn hw_snapshot(&self) -> HwSnapshot {
        self.telemetry.snapshot()
    }

    /// The paper's full system complement: 16 macros of 128×128.
    pub fn paper_system(seed: u64) -> Self {
        Self::new(16, MacroConfig::default(), seed)
    }

    /// The group configuration.
    pub fn config(&self) -> &MacroConfig {
        &self.config
    }

    /// Number of macros.
    pub fn macro_count(&self) -> usize {
        self.macros.len()
    }

    /// Access a macro by id.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoSuchMacro`] if out of range.
    pub fn macro_at(&self, id: usize) -> Result<&AmcMacro, CoreError> {
        self.macros.get(id).ok_or(CoreError::NoSuchMacro { id, count: self.macros.len() })
    }

    /// Number of macros not yet claimed by an operator.
    pub fn free_macros(&self) -> usize {
        self.macros.iter().filter(|m| m.owner.is_none()).count()
    }

    /// Shape/scale information for a placed operator.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidOperator`] for stale handles.
    pub fn operator_info(&self, id: OperatorId) -> Result<&OperatorInfo, CoreError> {
        let op = self.operators.get(id.0).ok_or(CoreError::InvalidOperator)?;
        if op.freed {
            return Err(CoreError::InvalidOperator);
        }
        Ok(&op.info)
    }

    /// Releases the macros held by an operator.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidOperator`] for stale handles.
    pub fn free_operator(&mut self, id: OperatorId) -> Result<(), CoreError> {
        let op = self.operators.get_mut(id.0).ok_or(CoreError::InvalidOperator)?;
        if op.freed {
            return Err(CoreError::InvalidOperator);
        }
        op.freed = true;
        op.resident = None;
        op.panel = None;
        let macro_ids: Vec<usize> = op.planes.iter().map(|p| p.macro_id).collect();
        for mid in macro_ids {
            self.macros[mid].owner = None;
        }
        Ok(())
    }

    fn place_planes(
        &mut self,
        rows: usize,
        cols: usize,
        planes: &[&LevelMatrix],
        op_index: usize,
    ) -> Result<(Vec<PlaneRef>, ProgramOutcome), CoreError> {
        if rows > self.config.array_rows || cols > self.config.array_cols {
            return Err(CoreError::InvalidArgument(
                "matrix exceeds a single array; tile it (see gramc_core::tiling)",
            ));
        }
        // Pack two planes side by side when they fit ("one or two RRAM
        // arrays" — Fig. 2 shows the array split into column halves).
        let per_macro = if 2 * cols <= self.config.array_cols { 2 } else { 1 };
        let macros_needed = planes.len().div_ceil(per_macro);
        let free: Vec<usize> =
            self.macros.iter().filter(|m| m.owner.is_none()).map(|m| m.id).collect();
        if free.len() < macros_needed {
            return Err(CoreError::OutOfCapacity {
                requested: macros_needed,
                available: free.len(),
            });
        }
        let mut refs = Vec::with_capacity(planes.len());
        let mut outcome = ProgramOutcome::default();
        for (k, plane) in planes.iter().enumerate() {
            let macro_id = free[k / per_macro];
            let col0 = (k % per_macro) * cols;
            let region = ActiveRegion { row0: 0, col0, rows, cols };
            outcome.merge(self.program_plane(macro_id, region, plane)?);
            self.macros[macro_id].owner = Some(op_index);
            refs.push(PlaneRef { macro_id, region });
        }
        Ok((refs, outcome))
    }

    /// Programs one level plane and returns its typed verify outcome.
    ///
    /// Pulse-mode non-convergence is no longer a hard error here: the
    /// failure count is surfaced in the outcome (and recorded on the
    /// operator), leaving the accept/reject policy to the caller — the
    /// sharded runtime applies its configurable load threshold, standalone
    /// users read [`OperatorInfo::program`].
    fn program_plane(
        &mut self,
        macro_id: usize,
        region: ActiveRegion,
        plane: &LevelMatrix,
    ) -> Result<ProgramOutcome, CoreError> {
        match self.config.nonideal.programming {
            ProgrammingMode::Pulse => {
                let targets = plane.to_targets();
                let report = self
                    .write_verify
                    .program_region_lossy(
                        &mut self.macros[macro_id].array,
                        region,
                        &targets,
                        &mut self.rng,
                    )
                    .map_err(CoreError::from)?;
                Ok(report.outcome())
            }
            ProgrammingMode::Direct { sigma_levels } => {
                let targets = plane.to_conductances(&self.quantizer);
                self.macros[macro_id]
                    .array
                    .program_direct(region, &targets, &self.quantizer, sigma_levels, &mut self.rng)
                    .map_err(CoreError::from)
            }
        }
    }

    /// Loads a signed matrix with differential 4-bit mapping (the paper's
    /// default). Claims one or two macros.
    ///
    /// # Errors
    ///
    /// Mapping errors for empty/zero matrices; [`CoreError::OutOfCapacity`]
    /// if no macros are free; [`CoreError::InvalidArgument`] if the matrix
    /// exceeds a single array (tile it with [`crate::tiling`]).
    pub fn load_matrix(&mut self, a: &Matrix) -> Result<OperatorId, CoreError> {
        let mapper = ConductanceMapper::new(self.quantizer.clone(), SignedEncoding::Differential);
        let mapped: MappedMatrix = mapper.map(a).map_err(CoreError::from)?;
        let neg = mapped.negative.clone().expect("differential mapping has two planes");
        let op_index = self.operators.len();
        let (planes, program) =
            self.place_planes(a.rows(), a.cols(), &[&mapped.positive, &neg], op_index)?;
        let quantized = mapped.dequantize();
        let max_row_levels = (0..a.rows())
            .map(|i| quantized.row(i).iter().map(|v| (v / mapped.scale).abs()).sum::<f64>())
            .fold(0.0_f64, f64::max);
        let g_f = self.feedback_conductance(max_row_levels);
        let output_offsets = self.output_offsets(&planes, a.rows(), g_f)?;
        let info = OperatorInfo {
            rows: a.rows(),
            cols: a.cols(),
            scale: mapped.scale,
            planes: 2,
            quantized,
            program,
        };
        self.operators.push(Operator {
            info,
            planes,
            output_offsets,
            g_f,
            resident: None,
            panel: None,
            freed: false,
        });
        Ok(OperatorId(op_index))
    }

    /// Loads a signed matrix with 8-bit bit-sliced mapping: two 4-bit nibble
    /// planes per sign (paper Fig. 5 INT8 path). Claims two or four macros.
    ///
    /// # Errors
    ///
    /// Same conditions as [`load_matrix`](Self::load_matrix).
    pub fn load_matrix_bitsliced(&mut self, a: &Matrix) -> Result<OperatorId, CoreError> {
        if self.config.nonideal.weight_bits != 4 {
            return Err(CoreError::InvalidArgument(
                "bit slicing assumes 4-bit cells (two nibbles per 8-bit weight)",
            ));
        }
        let sliced = gramc_array::BitSlicedMatrix::map(a).map_err(CoreError::from)?;
        let op_index = self.operators.len();
        let (planes, program) = self.place_planes(
            a.rows(),
            a.cols(),
            &[&sliced.hi_pos, &sliced.hi_neg, &sliced.lo_pos, &sliced.lo_neg],
            op_index,
        )?;
        // Worst-case per-nibble-plane row current (hi and lo planes each see
        // at most 15 levels per cell).
        let max_row_levels = (0..a.rows())
            .map(|i| {
                (0..a.cols())
                    .map(|j| {
                        let hi = sliced.hi_pos.level(i, j).max(sliced.hi_neg.level(i, j));
                        let lo = sliced.lo_pos.level(i, j).max(sliced.lo_neg.level(i, j));
                        hi.max(lo) as f64
                    })
                    .sum::<f64>()
            })
            .fold(0.0_f64, f64::max);
        let g_f = self.feedback_conductance(max_row_levels);
        let output_offsets = self.output_offsets(&planes, a.rows(), g_f)?;
        let info = OperatorInfo {
            rows: a.rows(),
            cols: a.cols(),
            scale: sliced.scale,
            planes: 4,
            quantized: sliced.dequantize(),
            program,
        };
        self.operators.push(Operator {
            info,
            planes,
            output_offsets,
            g_f,
            resident: None,
            panel: None,
            freed: false,
        });
        Ok(OperatorId(op_index))
    }

    fn operator(&self, id: OperatorId) -> Result<&Operator, CoreError> {
        let op = self.operators.get(id.0).ok_or(CoreError::InvalidOperator)?;
        if op.freed {
            return Err(CoreError::InvalidOperator);
        }
        Ok(op)
    }

    fn configure_operator(&mut self, id: OperatorId, mode: MacroMode) -> Result<(), CoreError> {
        let macro_ids: Vec<usize> = self.operator(id)?.planes.iter().map(|p| p.macro_id).collect();
        for mid in macro_ids {
            self.macros[mid].registers.configure(mode);
        }
        Ok(())
    }

    /// TIA feedback conductance sized for the worst-case row current
    /// `I_max = v_read·step·max_i Σ_j |Δlevel_ij|`, rounded up to a multiple
    /// of the level step (parallel RRAM cells).
    fn feedback_conductance(&self, max_row_level_sum: f64) -> f64 {
        let needed =
            max_row_level_sum * self.quantizer.step() * self.config.v_read / self.config.v_out_ref;
        let steps = (needed / self.quantizer.step() * 1.02).ceil().max(1.0);
        steps * self.quantizer.step()
    }

    /// Each row's TIA offset at the output (see `Operator::output_offsets`);
    /// the op-amps are those of the first plane's macro.
    fn output_offsets(
        &self,
        planes: &[PlaneRef],
        rows: usize,
        g_f: f64,
    ) -> Result<Vec<f64>, CoreError> {
        let mut sums = vec![0.0; rows];
        for p in planes {
            let g = self.macros[p.macro_id]
                .array
                .conductances_ideal(p.region)
                .map_err(CoreError::from)?;
            for (i, s) in sums.iter_mut().enumerate() {
                *s += g.row(i).iter().sum::<f64>();
            }
        }
        let bank = &self.macros[planes[0].macro_id];
        Ok(sums.iter().enumerate().map(|(i, s)| bank.opamp_offset(i) * (1.0 + s / g_f)).collect())
    }

    fn opamp_model(&self) -> OpampModel {
        OpampModel { gain: self.config.nonideal.opamp_gain, ..OpampModel::default() }
    }

    /// Conversion factor: matrix units of output per (ampere / volt-scale).
    fn current_decode(&self, scale: f64, v_scale: f64) -> f64 {
        scale / (self.quantizer.step() * v_scale)
    }

    /// Analog MVM: `y = A·x` through the crossbar fast path with DAC/ADC
    /// quantization, read noise and TIA offsets. Bit-sliced operators are
    /// recombined digitally (`16·hi + lo`).
    ///
    /// # Errors
    ///
    /// [`CoreError::ShapeMismatch`] if `x.len()` differs from the operator's
    /// column count, plus stale-handle errors.
    pub fn mvm(&mut self, id: OperatorId, x: &[f64]) -> Result<Vec<f64>, CoreError> {
        let op = self.operator(id)?;
        let (rows, cols, scale, nplanes) =
            (op.info.rows, op.info.cols, op.info.scale, op.info.planes);
        if x.len() != cols {
            return Err(CoreError::ShapeMismatch { expected: cols, found: x.len() });
        }
        let planes = op.planes.clone();
        self.configure_operator(id, MacroMode::Mvm)?;

        let x_max = vector::norm_inf(x);
        if x_max == 0.0 {
            return Ok(vec![0.0; rows]);
        }
        let v_scale = self.config.v_read / x_max;
        // All planes share the DAC drive.
        let dac = self.macros[planes[0].macro_id].dac;
        let v: Vec<f64> = x.iter().map(|&xi| dac.convert(xi / x_max)).collect();
        // One DAC drive per input column, shared across planes; one ADC
        // conversion per row per differential pair. Settles and cell reads
        // are counted by `row_currents` inside the array.
        self.telemetry.add_dac_drives(cols as u64);
        self.telemetry.add_adc_conversions((rows * (nplanes / 2)) as u64);

        // Per-plane row currents.
        let mut currents = Vec::with_capacity(nplanes);
        for p in &planes {
            let i = self.macros[p.macro_id]
                .array
                .row_currents(p.region, &v, &mut self.rng)
                .map_err(CoreError::from)?;
            currents.push(i);
        }

        // TIA feedback sized at load time for the worst-case row current.
        let op_ref = self.operator(id)?;
        let g_f = op_ref.g_f;
        let adc = self.macros[planes[0].macro_id].adc;
        let conv = self.current_decode(scale, v_scale);
        let mut y = Vec::with_capacity(rows);
        for i in 0..rows {
            // Each differential pair is captured by its own TIA + ADC; the
            // nibble shift-add (×16) happens digitally AFTER conversion —
            // an analog ×16 would blow past the converter rails, which is
            // the entire reason bit slicing recombines digitally.
            let mut pair_values = Vec::with_capacity(nplanes / 2);
            for pair in 0..nplanes / 2 {
                let i_diff = currents[2 * pair][i] - currents[2 * pair + 1][i];
                let v_out = -i_diff / g_f + op_ref.output_offsets[i];
                pair_values.push(adc.convert(v_out) * adc.v_ref());
            }
            let v_combined = match nplanes {
                2 => pair_values[0],
                4 => 16.0 * pair_values[0] + pair_values[1],
                _ => unreachable!("operators have 2 or 4 planes"),
            };
            y.push(-v_combined * g_f * conv);
        }
        // Capture into the macro's output buffer (Fig. 2's read-out path).
        self.macros[planes[0].macro_id].output_buffer = y.clone();
        Ok(y)
    }

    /// Batched analog MVM: one conductance read (one read-noise sample) is
    /// shared across all input vectors — the throughput path for neural-
    /// network inference, where a layer evaluates hundreds of im2col columns
    /// back to back and the array state cannot change between them.
    ///
    /// Semantically equivalent to calling [`mvm`](Self::mvm) per column with
    /// a shared noise draw; converter quantization and TIA offsets are
    /// applied per column exactly as in the scalar path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`mvm`](Self::mvm).
    pub fn mvm_batch(
        &mut self,
        id: OperatorId,
        xs: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, CoreError> {
        let cols = self.operator(id)?.info.cols;
        for x in xs {
            if x.len() != cols {
                return Err(CoreError::ShapeMismatch { expected: cols, found: x.len() });
            }
        }
        let mut v = Matrix::zeros(xs.len(), cols);
        for (b, x) in xs.iter().enumerate() {
            v.row_mut(b).copy_from_slice(x);
        }
        let out = self.mvm_batch_rows(id, &v)?;
        Ok((0..out.rows()).map(|b| out.row(b).to_vec()).collect())
    }

    /// [`mvm_batch`](Self::mvm_batch) on matrix batches: row `b` of `xs` is
    /// input vector `b`, row `b` of the result is its output. This is the
    /// zero-copy streaming form the `gramc-nn` drive-matrix pipeline feeds
    /// directly (no per-vector `Vec`s on either side); the slice-based
    /// `mvm_batch` is a thin wrapper around it.
    ///
    /// All 2 or 4 planes share the DAC drive, so the batch runs as one
    /// product `V · [G₀ᵀ | G₁ᵀ | …]` against the operator's planes packed
    /// side by side ([`PackedRhs`]); row `b` of it holds every plane's
    /// currents for input `b` in adjacent column blocks, which the
    /// differential decode pairs up. Noise-free reads keep that panel with
    /// the operator, tagged with the generation of each plane's array, and
    /// rebuild it only after one of those arrays changed; a read noise
    /// sample is fresh per call and packed the same way. The product splits
    /// its rows over the thread budget and sums every output element in the
    /// same order at any thread count. A batch of all-zero inputs returns
    /// zeros without reading the arrays.
    ///
    /// The DAC-drive and ADC-decode loops run in their AVX2 build on a CPU
    /// with AVX2 (see [`gramc_linalg::kernel_isa`]), where each
    /// conversion's rounding is one instruction; the answer is the same
    /// bits in either build.
    ///
    /// # Errors
    ///
    /// [`CoreError::ShapeMismatch`] if `xs.cols()` differs from the
    /// operator's column count, plus stale-handle errors.
    pub fn mvm_batch_rows(&mut self, id: OperatorId, xs: &Matrix) -> Result<Matrix, CoreError> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `batch_rows_avx2` requires nothing but AVX2, and the
            // CPU was detected to have it just above.
            return unsafe { self.batch_rows_avx2(id, xs) };
        }
        self.batch_rows(id, xs)
    }

    /// [`batch_rows`](Self::batch_rows) compiled with AVX2 enabled.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn batch_rows_avx2(&mut self, id: OperatorId, xs: &Matrix) -> Result<Matrix, CoreError> {
        self.batch_rows(id, xs)
    }

    /// The body of [`mvm_batch_rows`](Self::mvm_batch_rows). Always inlined,
    /// with the converters it calls, so each caller builds its loops for
    /// its own instruction set.
    #[inline(always)]
    fn batch_rows(&mut self, id: OperatorId, xs: &Matrix) -> Result<Matrix, CoreError> {
        let op = self.operator(id)?;
        let (rows, cols, scale, nplanes) =
            (op.info.rows, op.info.cols, op.info.scale, op.info.planes);
        if xs.cols() != cols {
            return Err(CoreError::ShapeMismatch { expected: cols, found: xs.cols() });
        }
        let (planes, g_f) = (op.planes.clone(), op.g_f);
        let bank = &self.macros[planes[0].macro_id];
        let (dac, adc) = (bank.dac, bank.adc);
        self.configure_operator(id, MacroMode::Mvm)?;
        // DAC-converted drive matrix, one batch vector per row; all-zero
        // inputs keep their exact-zero output.
        let bsz = xs.rows();
        let mut v_mat = Matrix::zeros(bsz, cols);
        let mut x_maxes = vec![0.0; bsz];
        for (b, x_max) in x_maxes.iter_mut().enumerate() {
            let x = xs.row(b);
            *x_max = vector::norm_inf(x);
            if *x_max == 0.0 {
                continue;
            }
            for (vj, &xi) in v_mat.row_mut(b).iter_mut().zip(x) {
                *vj = dac.convert(xi / *x_max);
            }
        }
        let mut out = Matrix::zeros(bsz, rows);
        let driven = x_maxes.iter().filter(|&&m| m != 0.0).count() as u64;
        if driven == 0 {
            return Ok(out);
        }
        // Both reads include the IR-drop correction, like the scalar `mvm`.
        let currents = if self.config.nonideal.read_noise_rel != 0.0 {
            let reads = planes
                .iter()
                .map(|p| {
                    let array = &self.macros[p.macro_id].array;
                    array.effective_conductances_noisy(p.region, &mut self.rng)
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(CoreError::from)?;
            PackedRhs::from_transposed(&reads).left_mul(&v_mat)
        } else {
            self.plane_panel(id)?.left_mul(&v_mat)
        };
        // The batch path reads conductances directly (no `row_currents`), so
        // the macro itself accounts for the per-driven-row analog events:
        // each nonzero batch row drives the DACs once, settles every plane,
        // reads every cell of every plane, and converts rows × pairs ADCs.
        self.telemetry.add_dac_drives(driven * cols as u64);
        self.telemetry.add_settle_events(driven * nplanes as u64);
        self.telemetry.add_read_cycles_mvm(driven * (nplanes * rows * cols) as u64);
        self.telemetry.add_adc_conversions(driven * (rows * (nplanes / 2)) as u64);
        let output_offsets = &self.operators[id.0].output_offsets;
        for (b, &x_max) in x_maxes.iter().enumerate() {
            if x_max == 0.0 {
                continue;
            }
            let conv = self.current_decode(scale, self.config.v_read / x_max);
            let i_b = currents.row(b);
            // Differential pair `pair`'s ADC reading of output row `i`.
            let read = |pair: usize, i: usize| {
                let i_diff = i_b[2 * pair * rows + i] - i_b[(2 * pair + 1) * rows + i];
                adc.convert(-i_diff / g_f + output_offsets[i]) * adc.v_ref()
            };
            for (i, yi) in out.row_mut(b).iter_mut().enumerate() {
                let v_combined = match nplanes {
                    2 => read(0, i),
                    4 => 16.0 * read(0, i) + read(1, i),
                    _ => unreachable!("operators have 2 or 4 planes"),
                };
                *yi = -v_combined * g_f * conv;
            }
        }
        Ok(out)
    }

    /// The operator's noise-free planes packed as one panel
    /// `[G₀ᵀ | G₁ᵀ | …]`, read afresh only if an array under one of its
    /// planes has moved to a new generation since the last build. Served
    /// from the operator, it counts one snapshot hit per plane, as the
    /// per-plane snapshot lookups it stands for would.
    fn plane_panel(&mut self, id: OperatorId) -> Result<&PackedRhs, CoreError> {
        let op = &self.operators[id.0];
        let generations = op.planes.iter().map(|p| self.macros[p.macro_id].array.generation());
        if op.panel.as_ref().is_some_and(|panel| panel.generations.iter().copied().eq(generations))
        {
            self.telemetry.add_snapshot_hits(op.planes.len() as u64);
        } else {
            let reads = op
                .planes
                .iter()
                .map(|p| self.macros[p.macro_id].array.effective_conductances(p.region))
                .collect::<Result<Vec<_>, _>>()
                .map_err(CoreError::from)?;
            let generations =
                op.planes.iter().map(|p| self.macros[p.macro_id].array.generation()).collect();
            let packed = PackedRhs::from_transposed(&reads);
            self.operators[id.0].panel = Some(PlanePanel { generations, packed });
        }
        Ok(&self.operators[id.0].panel.as_ref().expect("panel served or just built").packed)
    }

    /// Reference MVM through the full MNA netlist (differential operators
    /// only) — used to validate the fast path. No read noise or converters;
    /// keeps device variation, quantization and op-amp gain/offset.
    ///
    /// # Errors
    ///
    /// Stale-handle and shape errors; [`CoreError::Circuit`] if the netlist
    /// solve fails.
    pub fn mvm_mna(&mut self, id: OperatorId, x: &[f64]) -> Result<Vec<f64>, CoreError> {
        let op = self.operator(id)?;
        if op.info.planes != 2 {
            return Err(CoreError::InvalidArgument("mvm_mna supports differential operators"));
        }
        if x.len() != op.info.cols {
            return Err(CoreError::ShapeMismatch { expected: op.info.cols, found: x.len() });
        }
        let (scale, planes) = (op.info.scale, op.planes.clone());
        let x_max = vector::norm_inf(x);
        if x_max == 0.0 {
            return Ok(vec![0.0; op.info.rows]);
        }
        let v_scale = self.config.v_read / x_max;
        let v: Vec<f64> = x.iter().map(|&xi| xi / x_max * self.config.v_read).collect();
        let g_pos = self.macros[planes[0].macro_id]
            .array
            .effective_conductances(planes[0].region)
            .map_err(CoreError::from)?;
        let g_neg = self.macros[planes[1].macro_id]
            .array
            .effective_conductances(planes[1].region)
            .map_err(CoreError::from)?;
        let g_f = self.operator(id)?.g_f;
        let model = self.opamp_model();
        let mut topo =
            topology::build_mvm(&g_pos, &g_neg, &v, g_f, model).map_err(CoreError::from)?;
        for (k, opamp) in topo.circuit.opamp_ids().into_iter().enumerate() {
            let m = topo.circuit.opamp_model(opamp);
            let off = self.macros[planes[0].macro_id].opamp_offset(k);
            topo.circuit.set_opamp_model(opamp, m.offset(off));
        }
        let sol = dc_solve(&topo.circuit).map_err(CoreError::from)?;
        let conv = self.current_decode(scale, v_scale);
        Ok(sol.voltages(&topo.outputs).iter().map(|v_out| -v_out * g_f * conv).collect())
    }

    /// One-step linear-system solve `A·x = b` on the INV configuration —
    /// the single-RHS form of [`solve_inv_batch`](Self::solve_inv_batch)
    /// (full MNA of the feedback circuit, DAC-quantized injection,
    /// ADC-quantized auto-ranged read-out).
    ///
    /// # Errors
    ///
    /// Shape/handle errors; [`CoreError::Circuit`] on singular netlists;
    /// [`CoreError::InvalidArgument`] for non-square or bit-sliced operators.
    pub fn solve_inv(&mut self, id: OperatorId, b: &[f64]) -> Result<Vec<f64>, CoreError> {
        let mut xs = self.solve_inv_batch(id, &[b.to_vec()])?;
        Ok(xs.pop().expect("one RHS in, one solution out"))
    }

    /// Multi-RHS linear-system solve on the INV configuration: every column
    /// of the batch shares one conductance read and one MNA factorization
    /// ([`DcOperator::solve_rhs_matrix`]), so `k` right-hand sides cost one
    /// factorization plus `k` substitutions instead of `k` full solves.
    ///
    /// Only an operator's first solve in this mode builds the netlist; later
    /// ones gather their read straight into the kept factorization
    /// ([`DcOperator::refactor_conductances`]).
    ///
    /// Auto-ranging (the Fig. 3 verify/flag path) runs per column: a column
    /// whose output rails the ADC halves its injection scale α (volts of
    /// output per matrix unit of x; `I_in = −(step/scale)·α·b`) and
    /// re-substitutes together with the other railed columns on the next
    /// attempt — only the injected currents change between attempts, so the
    /// factorization is never repeated.
    ///
    /// # Errors
    ///
    /// Shape/handle errors; [`CoreError::Circuit`] on singular netlists;
    /// [`CoreError::InvalidArgument`] for non-square or bit-sliced
    /// operators. The batch is one analog program: a column that still
    /// rails the ADC after every ranging attempt fails the whole call
    /// (solve such columns individually to isolate them).
    pub fn solve_inv_batch(
        &mut self,
        id: OperatorId,
        bs: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, CoreError> {
        let op = self.operator(id)?;
        if op.info.rows != op.info.cols {
            return Err(CoreError::InvalidArgument("INV requires a square operator"));
        }
        if op.info.planes != 2 {
            return Err(CoreError::InvalidArgument("INV requires a differential operator"));
        }
        self.ranged_solve_batch(id, bs, MacroMode::Inv)
    }

    /// One-step least-squares solve `x = A⁺·b` on the PINV configuration —
    /// the single-RHS form of [`solve_pinv_batch`](Self::solve_pinv_batch).
    ///
    /// # Errors
    ///
    /// Shape/handle errors; [`CoreError::Circuit`] on singular netlists.
    pub fn solve_pinv(&mut self, id: OperatorId, b: &[f64]) -> Result<Vec<f64>, CoreError> {
        let mut xs = self.solve_pinv_batch(id, &[b.to_vec()])?;
        Ok(xs.pop().expect("one RHS in, one solution out"))
    }

    /// Multi-RHS least-squares solve on the PINV configuration — the twin
    /// of [`Self::solve_inv_batch`]. Every column of the batch shares one
    /// conductance read and one MNA factorization
    /// ([`DcOperator::solve_rhs_matrix`]); auto-ranging runs per column with
    /// railed columns re-substituted together on the next attempt, so `k`
    /// right-hand sides cost one factorization plus `k` substitutions. As
    /// for INV, only the first solve in this mode builds the netlist.
    ///
    /// # Errors
    ///
    /// Shape/handle errors; [`CoreError::Circuit`] on singular netlists;
    /// [`CoreError::InvalidArgument`] for bit-sliced operators. The batch is
    /// one analog program: a column that still rails the ADC after every
    /// ranging attempt fails the whole call (solve such columns individually
    /// to isolate them).
    pub fn solve_pinv_batch(
        &mut self,
        id: OperatorId,
        bs: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, CoreError> {
        if self.operator(id)?.info.planes != 2 {
            return Err(CoreError::InvalidArgument("PINV requires a differential operator"));
        }
        self.ranged_solve_batch(id, bs, MacroMode::Pinv)
    }

    /// The shared body of the INV and PINV batch solves (`mode` picks the
    /// feedback circuit): one noisy conductance read, one factorization of
    /// the circuit, then ranged multi-RHS substitution of every column.
    ///
    /// The netlist is built only for a fresh factorization: the first
    /// solve, one in the other mode, or a read the recorded one cannot take
    /// (a zero conductance). The factorization is kept with the operator,
    /// with the injection rows, solution rows and op-amp offset RHS of its
    /// circuit, and the next solve in the same mode gathers its own read
    /// straight into it ([`DcOperator::refactor_conductances`]) and builds
    /// every RHS from those.
    fn ranged_solve_batch(
        &mut self,
        id: OperatorId,
        bs: &[Vec<f64>],
        mode: MacroMode,
    ) -> Result<Vec<Vec<f64>>, CoreError> {
        let op = self.operator(id)?;
        let (rows, cols) = (op.info.rows, op.info.cols);
        for b in bs {
            if b.len() != rows {
                return Err(CoreError::ShapeMismatch { expected: rows, found: b.len() });
            }
        }
        if bs.is_empty() {
            return Ok(Vec::new());
        }
        let (scale, planes) = (op.info.scale, op.planes.clone());
        self.configure_operator(id, mode)?;

        let dac = self.macros[planes[0].macro_id].dac;
        let adc = self.macros[planes[0].macro_id].adc;
        let c = self.quantizer.step() / scale;

        // Per-column injection state: quantized b, its norm and the current
        // ranging scale α (volts of output per matrix unit of x). Scanned
        // before the conductance read so an all-zero batch — including
        // every zero-b single solve — short-circuits without touching the
        // arrays or the RNG (matching the zero-input `mvm` path).
        let mut quantized: Vec<Vec<f64>> = Vec::with_capacity(bs.len());
        let mut b_maxes = Vec::with_capacity(bs.len());
        let mut alphas = Vec::with_capacity(bs.len());
        let mut xs: Vec<Option<Vec<f64>>> = vec![None; bs.len()];
        let mut active: Vec<usize> = Vec::new();
        for (ci, b) in bs.iter().enumerate() {
            let b_max = vector::norm_inf(b);
            if b_max == 0.0 {
                xs[ci] = Some(vec![0.0; cols]);
                quantized.push(Vec::new());
                b_maxes.push(0.0);
                alphas.push(0.0);
                continue;
            }
            quantized
                .push(b.iter().map(|&bi| dac.convert(bi / b_max) / self.config.v_read).collect());
            b_maxes.push(b_max);
            alphas.push(self.config.v_read / b_max);
            active.push(ci);
        }
        if active.is_empty() {
            return Ok(xs.into_iter().map(|x| x.expect("all columns zero")).collect());
        }
        // One DAC drive per element of every active injection column.
        self.telemetry.add_dac_drives((active.len() * rows) as u64);

        // One noisy conductance read shared by the whole batch (the
        // mvm_batch contract: the array state cannot change mid-batch).
        let g_pos = self.macros[planes[0].macro_id]
            .array
            .conductances(planes[0].region, &mut self.rng)
            .map_err(CoreError::from)?;
        let g_neg = self.macros[planes[1].macro_id]
            .array
            .conductances(planes[1].region, &mut self.rng)
            .map_err(CoreError::from)?;
        let g_f = c.clamp(self.quantizer.g_min(), self.quantizer.g_max());
        let read = (&g_pos, &g_neg);
        let replayed = self.operators[id.0]
            .resident
            .take()
            .filter(|r| r.mode == mode)
            .and_then(|mut r| r.refactor(read, g_f).then_some(r));
        let resident = match replayed {
            Some(r) => r,
            None => {
                let bank = &self.macros[planes[0].macro_id];
                Resident::new(mode, read, g_f, self.opamp_model(), |k| bank.opamp_offset(k))?
            }
        };

        // Ranged multi-RHS substitution: all still-railing columns stack
        // into one RHS matrix and substitute through the shared factors.
        for _attempt in 0..8 {
            if active.is_empty() {
                break;
            }
            // Every ranging attempt settles the feedback loop once per
            // still-active column, biasing both planes of the region.
            self.telemetry.add_solve_settles(active.len() as u64);
            self.telemetry.add_read_cycles_solve((active.len() * 2 * rows * cols) as u64);
            let mut rhs = Matrix::zeros(resident.dc.dim(), active.len());
            for (k, &ci) in active.iter().enumerate() {
                for (i, &v) in resident.offset_rhs.iter().enumerate() {
                    rhs[(i, k)] = v;
                }
                for (&row, &qb) in resident.input_rows.iter().zip(&quantized[ci]) {
                    rhs[(row, k)] += -c * alphas[ci] * b_maxes[ci] * qb;
                }
            }
            let sol = resident.dc.solve_rhs_matrix(&rhs)?;
            let mut railed = Vec::new();
            for (k, &ci) in active.iter().enumerate() {
                let volts: Vec<f64> = resident.x_rows.iter().map(|&r| sol[(r, k)]).collect();
                let peak = volts.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
                if peak > 0.95 * adc.v_ref() {
                    alphas[ci] *= 0.5;
                    railed.push(ci);
                } else {
                    self.telemetry.add_adc_conversions(cols as u64);
                    xs[ci] = Some(
                        volts
                            .iter()
                            .map(|&vx| adc.convert(vx) * adc.v_ref() / alphas[ci])
                            .collect(),
                    );
                }
            }
            active = railed;
        }
        self.operators[id.0].resident = Some(resident);
        if !active.is_empty() {
            return Err(CoreError::InvalidArgument(if mode == MacroMode::Inv {
                "INV output railed the ADC at every ranging attempt"
            } else {
                "PINV output railed the ADC at every ranging attempt"
            }));
        }
        let out: Vec<Vec<f64>> =
            xs.into_iter().map(|x| x.expect("every column solved or error returned")).collect();
        self.macros[planes[0].macro_id].output_buffer = out.last().cloned().unwrap_or_default();
        Ok(out)
    }

    /// Dominant-eigenvector solve on the EGV configuration.
    ///
    /// The controller first estimates λ₁ digitally (power iteration on the
    /// quantized operator — exactly what GRAMC's digital module can compute
    /// from the level data), programs the feedback conductance half a level
    /// *below* the estimate, and then iterates the loop's clipped fixed
    /// point: `u ← clip(ΔG·u / g_λ)`. This is the settled state of the
    /// saturating transient (validated against `transient_solve` in the
    /// integration tests).
    ///
    /// # Errors
    ///
    /// Shape/handle errors; [`CoreError::EgvNoConvergence`] if the loop
    /// direction does not settle.
    pub fn solve_egv(&mut self, id: OperatorId) -> Result<EgvSolution, CoreError> {
        let op = self.operator(id)?;
        if op.info.rows != op.info.cols {
            return Err(CoreError::InvalidArgument("EGV requires a square operator"));
        }
        if op.info.planes != 2 {
            return Err(CoreError::InvalidArgument("EGV requires a differential operator"));
        }
        let n = op.info.rows;
        let planes = op.planes.clone();
        let quantized = op.info.quantized.clone();
        self.configure_operator(id, MacroMode::Egv)?;

        // Effective ΔG with read noise, sampled once for the run.
        let g_pos = self.macros[planes[0].macro_id]
            .array
            .conductances(planes[0].region, &mut self.rng)
            .map_err(CoreError::from)?;
        let g_neg = self.macros[planes[1].macro_id]
            .array
            .conductances(planes[1].region, &mut self.rng)
            .map_err(CoreError::from)?;
        let dg = &g_pos - &g_neg;

        // Digital λ̂ estimate from the *measured* conductances — the
        // write-verify path reads the array anyway, so the controller
        // estimates the dominant eigenvalue of the operator it actually
        // holds (device variation included), in conductance units. This is
        // what keeps the λ margin at the read-noise scale instead of the
        // much larger static-variation scale.
        let pair = power_iteration(&dg, 10_000, 1e-10).map_err(CoreError::from)?;
        let g_lambda_ideal = pair.value;
        if !(g_lambda_ideal > 0.0) {
            return Err(CoreError::InvalidArgument("EGV requires a positive dominant eigenvalue"));
        }

        // The feedback conductance may exceed one cell's G_max (λ₁ can be
        // much larger than the matrix entries): realize it as parallel RRAM
        // cells, quantized to the level step. The controller programs it at
        // least half a step below λ̂·c so the dominant loop gain exceeds one,
        // and retries one step lower if the mode fails to grow (Fig. 3's
        // verify/retry control flow).
        let step = self.quantizer.step();
        let base_steps = ((g_lambda_ideal / step) - 0.5).floor().max(1.0);
        let v_sat = self.config.v_out_ref;
        let offsets: Vec<f64> =
            (0..n).map(|k| self.macros[planes[0].macro_id].opamp_offset(k)).collect();

        let mut chosen = None;
        'attempt: for attempt in 0..8 {
            let steps_down = base_steps - attempt as f64;
            if steps_down < 1.0 {
                break;
            }
            let g_lambda = steps_down * step;
            let mut u: Vec<f64> =
                (0..n).map(|k| 1e-3 * (((k * 37 + 11) % 17) as f64 - 8.0)).collect();
            let max_iters = 50_000;
            let mut last_nrm = vector::norm2(&u);
            for it in 0..max_iters {
                let w = dg.matvec(&u);
                let next: Vec<f64> = w
                    .iter()
                    .zip(&offsets)
                    .map(|(wi, off)| (wi / g_lambda + 2.0 * off).clamp(-v_sat, v_sat))
                    .collect();
                let (next_dir, nrm) = vector::normalize(&next);
                let (u_dir, _) = vector::normalize(&u);
                let delta = vector::rel_error_up_to_sign(&next_dir, &u_dir);
                let amp_delta = (nrm - last_nrm).abs() / nrm.max(1e-30);
                last_nrm = nrm;
                u = next;
                if nrm < 1e-10 {
                    // Decayed to the noise floor: λ̂ overshot the spectrum —
                    // retry one step lower.
                    continue 'attempt;
                }
                // Settled means BOTH the direction and the (clip-limited)
                // amplitude have stopped moving — during the growth phase
                // the direction settles long before the amplitude does.
                if delta < 1e-8 && amp_delta < 1e-8 {
                    if nrm > 0.05 * v_sat {
                        chosen = Some((u, it + 1, steps_down as usize));
                        break 'attempt;
                    }
                    continue 'attempt;
                }
                if it == max_iters - 1 && nrm > 0.05 * v_sat {
                    // The clipped fixed point can micro-oscillate (a small
                    // limit cycle in the saturated components); the grown
                    // direction is valid — accept it, as a lock-in amplifier
                    // reading the settled output would.
                    chosen = Some((u, it + 1, steps_down as usize));
                    break 'attempt;
                }
            }
            // Decayed and never grew within the budget: try one step lower.
        }
        let Some((u, iterations, lambda_level)) = chosen else {
            return Err(CoreError::EgvNoConvergence { iterations: 2000 });
        };
        // Every loop iteration is one analog settle of the feedback loop
        // reading both planes; the settled mode is captured once per row.
        self.telemetry.add_solve_settles(iterations as u64);
        self.telemetry.add_read_cycles_solve((iterations * 2 * n * n) as u64);
        self.telemetry.add_adc_conversions(n as u64);

        // ADC capture and normalization.
        let adc = self.macros[planes[0].macro_id].adc;
        let captured: Vec<f64> = u.iter().map(|&ui| adc.convert(ui) * adc.v_ref()).collect();
        let (eigenvector, _) = vector::normalize(&captured);
        // Digital Rayleigh quotient on the quantized operator.
        let eigenvalue = vector::dot(&eigenvector, &quantized.matvec(&eigenvector));
        self.macros[planes[0].macro_id].output_buffer = eigenvector.clone();
        Ok(EgvSolution { eigenvalue, eigenvector, iterations, lambda_level })
    }

    /// Health probe: reads an operator's programmed planes back (ideal read
    /// — no read noise, but device faults and drift included) and compares
    /// the realized matrix against the operator's quantized target.
    ///
    /// `level_tol` is the per-entry tolerance in level units: an entry whose
    /// realized value misses the target by more than `level_tol · scale`
    /// counts as a bad cell. The report's residual is the relative Frobenius
    /// error of the full readback, the quantity the runtime's health monitor
    /// thresholds on.
    ///
    /// # Errors
    ///
    /// Stale-handle errors.
    pub fn health_probe(&self, id: OperatorId, level_tol: f64) -> Result<ProbeReport, CoreError> {
        let op = self.operator(id)?;
        let (rows, cols, scale, nplanes) =
            (op.info.rows, op.info.cols, op.info.scale, op.info.planes);
        let step = self.quantizer.step();
        let mut plane_g = Vec::with_capacity(nplanes);
        for p in &op.planes {
            let g = self.macros[p.macro_id]
                .array
                .conductances_ideal(p.region)
                .map_err(CoreError::from)?;
            plane_g.push(g);
        }
        // Decode exactly as the MVM paths do: per-pair level differences
        // (the shared g_min cancels), bit-sliced pairs recombined as 16·hi+lo.
        let realized = Matrix::from_fn(rows, cols, |i, j| {
            let diff =
                |pair: usize| (plane_g[2 * pair][(i, j)] - plane_g[2 * pair + 1][(i, j)]) / step;
            let levels = match nplanes {
                2 => diff(0),
                4 => 16.0 * diff(0) + diff(1),
                _ => unreachable!("operators have 2 or 4 planes"),
            };
            levels * scale
        });
        let tol = level_tol * scale;
        let mut bad_cells = 0;
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..rows {
            for j in 0..cols {
                let err = realized[(i, j)] - op.info.quantized[(i, j)];
                if err.abs() > tol {
                    bad_cells += 1;
                }
                num += err * err;
                den += op.info.quantized[(i, j)] * op.info.quantized[(i, j)];
            }
        }
        let residual = if den > 0.0 { (num / den).sqrt() } else { num.sqrt() };
        Ok(ProbeReport { cells: rows * cols, bad_cells, residual })
    }
}

/// Fault-injection controls: install one seeded [`FaultPlan`] per macro,
/// advance the shared fault clock, and clear. Each macro gets a
/// decorrelated seed derived from the campaign seed, so a group-level
/// injection is reproducible end to end.
impl MacroGroup {
    /// Samples and installs a fault plan on every macro's crossbar.
    ///
    /// Macro `m` uses seed `seed ^ (m+1)·0x9E37_79B9_7F4A_7C15` — the same
    /// golden-ratio decorrelation the sharded runtime applies to shard
    /// seeds. Installing a plan invalidates the affected arrays' snapshot
    /// caches; an all-zero `config` leaves behavior bit-identical.
    pub fn inject_faults(&mut self, config: &FaultConfig, seed: u64) {
        let (rows, cols) = (self.config.array_rows, self.config.array_cols);
        for m in &mut self.macros {
            let macro_seed = seed ^ (m.id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let plan = FaultPlan::sample(rows, cols, config, macro_seed);
            m.array.install_fault_plan(plan);
        }
    }

    /// Advances every macro's fault clock by `dt` seconds (conductance
    /// drift), invalidating their snapshot caches.
    pub fn advance_fault_time(&mut self, dt: f64) {
        for m in &mut self.macros {
            m.array.advance_fault_time(dt);
        }
    }

    /// Removes all installed fault plans.
    pub fn clear_faults(&mut self) {
        for m in &mut self.macros {
            m.array.clear_fault_plan();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gramc_linalg::lu;
    use gramc_linalg::random::seeded_rng;

    fn ideal_group(n_macros: usize, n: usize, seed: u64) -> MacroGroup {
        MacroGroup::new(n_macros, MacroConfig::small_ideal(n), seed)
    }

    #[test]
    fn load_and_info() {
        let mut g = ideal_group(2, 8, 1);
        let a = Matrix::from_fn(4, 4, |i, j| ((i + j) as f64).sin());
        let op = g.load_matrix(&a).unwrap();
        let info = g.operator_info(op).unwrap();
        assert_eq!((info.rows, info.cols, info.planes), (4, 4, 2));
        // 8-bit ideal quantization: tight.
        assert!((&info.quantized - &a).max_abs() <= info.scale * 0.5 + 1e-12);
    }

    #[test]
    fn planes_pack_into_one_macro_when_they_fit() {
        let mut g = ideal_group(2, 8, 2);
        let a = Matrix::from_fn(8, 4, |i, j| (i * 4 + j) as f64 / 31.0 - 0.5);
        let _op = g.load_matrix(&a).unwrap();
        // 2 planes × 4 cols fit side by side in one 8-col macro.
        assert_eq!(g.free_macros(), 1);
    }

    #[test]
    fn wide_matrix_claims_two_macros() {
        let mut g = ideal_group(3, 8, 3);
        let a = Matrix::from_fn(8, 8, |i, j| ((i * 8 + j) as f64).cos());
        let _op = g.load_matrix(&a).unwrap();
        assert_eq!(g.free_macros(), 1);
    }

    #[test]
    fn capacity_is_enforced_and_freed() {
        // One 8-column macro: an 8x4 differential operator (2 planes x 4
        // cols) packs into it exactly once.
        let mut g = ideal_group(1, 8, 4);
        let a = Matrix::from_fn(8, 4, |i, j| (1 + i + j) as f64);
        let op1 = g.load_matrix(&a).unwrap();
        assert!(matches!(g.load_matrix(&a), Err(CoreError::OutOfCapacity { .. })));
        g.free_operator(op1).unwrap();
        assert!(g.load_matrix(&a).is_ok());
        assert!(matches!(g.free_operator(op1), Err(CoreError::InvalidOperator)));
    }

    #[test]
    fn mvm_matches_digital_reference_when_ideal() {
        let mut g = ideal_group(2, 6, 5);
        let mut rng = seeded_rng(50);
        let a = random::gaussian_matrix(&mut rng, 6, 6);
        let op = g.load_matrix(&a).unwrap();
        let x = random::normal_vector(&mut rng, 6);
        let y = g.mvm(op, &x).unwrap();
        let y_ref = g.operator_info(op).unwrap().quantized.matvec(&x);
        let err = vector::rel_error(&y, &y_ref);
        assert!(err < 0.01, "ideal MVM error {err}");
    }

    #[test]
    fn mvm_fast_path_matches_mna() {
        let mut g = MacroGroup::new(
            2,
            MacroConfig {
                nonideal: NonidealityConfig {
                    read_noise_rel: 0.0, // MNA path has no read noise
                    opamp_offset_sigma: 0.0,
                    ..NonidealityConfig::paper_default()
                },
                ..MacroConfig::small(5)
            },
            6,
        );
        let mut rng = seeded_rng(51);
        let a = random::gaussian_matrix(&mut rng, 5, 5);
        let op = g.load_matrix(&a).unwrap();
        let x = random::normal_vector(&mut rng, 5);
        let fast = g.mvm(op, &x).unwrap();
        let mna = g.mvm_mna(op, &x).unwrap();
        let err = vector::rel_error(&fast, &mna);
        // Fast path adds DAC/ADC quantization, MNA path adds finite gain:
        // they agree to converter resolution.
        assert!(err < 0.02, "fast {fast:?} vs mna {mna:?} (err {err})");
    }

    #[test]
    fn solve_inv_recovers_solution() {
        let mut g = ideal_group(2, 6, 7);
        let mut rng = seeded_rng(52);
        let a = random::spd_with_condition(&mut rng, 6, 5.0);
        let b = random::normal_vector(&mut rng, 6);
        let op = g.load_matrix(&a).unwrap();
        let x = g.solve_inv(op, &b).unwrap();
        let quantized = g.operator_info(op).unwrap().quantized.clone();
        let x_ref = lu::solve(&quantized, &b).unwrap();
        let err = vector::rel_error(&x, &x_ref);
        assert!(err < 0.02, "INV error {err}: {x:?} vs {x_ref:?}");
    }

    #[test]
    fn solve_pinv_recovers_least_squares() {
        let mut g = ideal_group(2, 8, 8);
        let mut rng = seeded_rng(53);
        let a = random::gaussian_matrix(&mut rng, 8, 3);
        let b = random::normal_vector(&mut rng, 8);
        let op = g.load_matrix(&a).unwrap();
        let x = g.solve_pinv(op, &b).unwrap();
        let quantized = g.operator_info(op).unwrap().quantized.clone();
        let x_ref = gramc_linalg::pseudoinverse(&quantized).unwrap().matvec(&b);
        let err = vector::rel_error(&x, &x_ref);
        assert!(err < 0.03, "PINV error {err}: {x:?} vs {x_ref:?}");
    }

    #[test]
    fn solve_egv_finds_dominant_eigenvector() {
        let mut g = ideal_group(2, 8, 9);
        let mut rng = seeded_rng(54);
        let a = random::gram(&mut rng, 8, 16);
        let op = g.load_matrix(&a).unwrap();
        let sol = g.solve_egv(op).unwrap();
        let quantized = g.operator_info(op).unwrap().quantized.clone();
        // Reference from the digital eigensolver on the (symmetrized)
        // quantized matrix — quantization can break exact symmetry.
        let q_sym = Matrix::from_fn(8, 8, |i, j| 0.5 * (quantized[(i, j)] + quantized[(j, i)]));
        let eig = gramc_linalg::SymmetricEigen::new(&q_sym).unwrap();
        let err = vector::rel_error_up_to_sign(&sol.eigenvector, &eig.eigenvector(0));
        assert!(err < 0.12, "EGV error {err}");
        assert!((sol.eigenvalue - eig.eigenvalues[0]).abs() / eig.eigenvalues[0] < 0.1);
    }

    #[test]
    fn shape_validation() {
        let mut g = ideal_group(2, 6, 10);
        let a = Matrix::from_fn(4, 4, |i, j| (1 + i * 4 + j) as f64);
        let op = g.load_matrix(&a).unwrap();
        assert!(matches!(g.mvm(op, &[1.0; 3]), Err(CoreError::ShapeMismatch { .. })));
        assert!(matches!(g.solve_inv(op, &[1.0; 5]), Err(CoreError::ShapeMismatch { .. })));
        let tall = Matrix::from_fn(6, 2, |i, j| (1 + i + j) as f64);
        let g2 = &mut ideal_group(2, 6, 11);
        let op_tall = g2.load_matrix(&tall).unwrap();
        assert!(matches!(g2.solve_inv(op_tall, &[1.0; 6]), Err(CoreError::InvalidArgument(_))));
        assert!(matches!(g2.solve_egv(op_tall), Err(CoreError::InvalidArgument(_))));
    }

    #[test]
    fn bitsliced_mvm_beats_4bit_accuracy() {
        let mut rng = seeded_rng(55);
        let a = random::gaussian_matrix(&mut rng, 6, 6);
        let x = random::normal_vector(&mut rng, 6);
        let y_true = a.matvec(&x);

        // 4-bit differential.
        let cfg4 = MacroConfig {
            nonideal: NonidealityConfig::quantization_only(4),
            ..MacroConfig::small(6)
        };
        let mut g4 = MacroGroup::new(2, cfg4, 12);
        let op4 = g4.load_matrix(&a).unwrap();
        let y4 = g4.mvm(op4, &x).unwrap();

        // 8-bit bit-sliced on 4-bit cells.
        let cfg8 = MacroConfig {
            nonideal: NonidealityConfig::quantization_only(4),
            ..MacroConfig::small(6)
        };
        let mut g8 = MacroGroup::new(4, cfg8, 12);
        let op8 = g8.load_matrix_bitsliced(&a).unwrap();
        let y8 = g8.mvm(op8, &x).unwrap();

        let e4 = vector::rel_error(&y4, &y_true);
        let e8 = vector::rel_error(&y8, &y_true);
        assert!(e8 < e4, "bit-sliced {e8} should beat 4-bit {e4}");
    }

    #[test]
    fn paper_default_mvm_error_is_in_band() {
        // With all paper non-idealities on, MVM relative error lands in the
        // few-percent-to-~15 % band of Fig. 4.
        let mut g = MacroGroup::new(2, MacroConfig::small(16), 13);
        let mut rng = seeded_rng(56);
        let a = random::wishart(&mut rng, 16, 32);
        let op = g.load_matrix(&a).unwrap();
        let x = random::normal_vector(&mut rng, 16);
        let y = g.mvm(op, &x).unwrap();
        let y_ref = a.matvec(&x);
        let err = vector::rel_error(&y, &y_ref);
        assert!(err > 0.001, "suspiciously perfect: {err}");
        assert!(err < 0.25, "error out of band: {err}");
    }

    #[test]
    fn solve_inv_batch_matches_per_column_solves() {
        let mut g = ideal_group(2, 6, 15);
        let mut rng = seeded_rng(57);
        let a = random::spd_with_condition(&mut rng, 6, 5.0);
        let op = g.load_matrix(&a).unwrap();
        let bs: Vec<Vec<f64>> = (0..4).map(|_| random::normal_vector(&mut rng, 6)).collect();
        let batch = g.solve_inv_batch(op, &bs).unwrap();
        assert_eq!(batch.len(), 4);
        // Ideal config: no read noise, so the shared conductance read equals
        // the per-call reads and the results must agree to rounding.
        for (b, x) in bs.iter().zip(&batch) {
            let x_ref = g.solve_inv(op, b).unwrap();
            assert!(vector::rel_error(x, &x_ref) < 1e-10, "{x:?} vs {x_ref:?}");
        }
    }

    #[test]
    fn solve_inv_batch_handles_zero_columns_and_shapes() {
        let mut g = ideal_group(2, 4, 16);
        let a = Matrix::from_fn(4, 4, |i, j| if i == j { 2.0 } else { 0.25 });
        let op = g.load_matrix(&a).unwrap();
        let bs = vec![vec![0.0; 4], vec![1.0, -0.5, 0.25, 0.75]];
        let xs = g.solve_inv_batch(op, &bs).unwrap();
        assert_eq!(xs[0], vec![0.0; 4]);
        let x_ref = g.solve_inv(op, &bs[1]).unwrap();
        assert!(vector::rel_error(&xs[1], &x_ref) < 1e-10);
        assert!(g.solve_inv_batch(op, &[vec![1.0; 3]]).is_err());
        assert!(g.solve_inv_batch(op, &[]).unwrap().is_empty());
    }

    #[test]
    fn solve_pinv_batch_matches_per_column_solves() {
        let mut g = ideal_group(2, 8, 18);
        let mut rng = seeded_rng(59);
        let a = random::gaussian_matrix(&mut rng, 8, 3);
        let op = g.load_matrix(&a).unwrap();
        let bs: Vec<Vec<f64>> = (0..4).map(|_| random::normal_vector(&mut rng, 8)).collect();
        let batch = g.solve_pinv_batch(op, &bs).unwrap();
        assert_eq!(batch.len(), 4);
        // Ideal config: no read noise, so the shared conductance read equals
        // the per-call reads and the results must agree to rounding.
        for (b, x) in bs.iter().zip(&batch) {
            assert_eq!(x.len(), 3);
            let x_ref = g.solve_pinv(op, b).unwrap();
            assert!(vector::rel_error(x, &x_ref) < 1e-10, "{x:?} vs {x_ref:?}");
        }
    }

    #[test]
    fn solve_pinv_batch_handles_zero_columns_and_shapes() {
        let mut g = ideal_group(2, 6, 19);
        let mut rng = seeded_rng(60);
        let a = random::gaussian_matrix(&mut rng, 6, 2);
        let op = g.load_matrix(&a).unwrap();
        let bs = vec![vec![0.0; 6], random::normal_vector(&mut rng, 6)];
        let xs = g.solve_pinv_batch(op, &bs).unwrap();
        assert_eq!(xs[0], vec![0.0; 2]);
        let x_ref = g.solve_pinv(op, &bs[1]).unwrap();
        assert!(vector::rel_error(&xs[1], &x_ref) < 1e-10);
        assert!(g.solve_pinv_batch(op, &[vec![1.0; 3]]).is_err());
        assert!(g.solve_pinv_batch(op, &[]).unwrap().is_empty());
    }

    #[test]
    fn mvm_batch_gt_cache_is_hit_and_invalidated() {
        use gramc_device::{FaultKind, FaultPlan};
        use gramc_telemetry::HwSnapshot;

        let mut rng = seeded_rng(58);
        let a = random::gaussian_matrix(&mut rng, 6, 6);
        let xs: Vec<Vec<f64>> = (0..3).map(|_| random::normal_vector(&mut rng, 6)).collect();
        let loaded = || {
            let mut g = ideal_group(4, 6, 17);
            let op = g.load_matrix(&a).unwrap();
            (g, op)
        };
        let (mut g, op) = loaded();
        // First call builds the panel, second call serves it — results
        // must be identical (the read is deterministic without read noise).
        let y1 = g.mvm_batch(op, &xs).unwrap();
        let before = g.hw_snapshot();
        let y2 = g.mvm_batch(op, &xs).unwrap();
        assert_eq!(y1, y2);
        // A served panel stands for one snapshot hit per plane; 3 driven
        // rows × 6 columns, 2 planes of 6×6 cells, 6 rows × 1 pair of ADCs.
        let expected = HwSnapshot {
            dac_drives: 18,
            adc_conversions: 18,
            settle_events: 6,
            read_cycles_mvm: 216,
            snapshot_hits: 2,
            ..HwSnapshot::default()
        };
        assert_eq!(g.hw_snapshot().since(&before), expected);

        // Faults on the same operator's arrays: after a cached batch, each
        // answer must equal that of a fresh group holding the same fault
        // state before its first batch. The stuck cell sits in plane 0's
        // region (both planes share macro 0 when they fit side by side).
        let mid = g.operators[op.0].planes[0].macro_id;
        let (rows, cols) = (g.config.array_rows, g.config.array_cols);
        let faults = [(1, 2, FaultKind::StuckAtOn), (4, 3, FaultKind::Drift)];
        let plan = FaultPlan::from_faults(rows, cols, &faults, Default::default());
        g.macros[mid].array.install_fault_plan(plan.clone());
        let y_stuck = g.mvm_batch(op, &xs).unwrap();
        assert_ne!(y_stuck, y2, "the stuck cell must change the answer");
        let (mut fresh, fresh_op) = loaded();
        fresh.macros[mid].array.install_fault_plan(plan.clone());
        assert_eq!(y_stuck, fresh.mvm_batch(fresh_op, &xs).unwrap());

        g.advance_fault_time(3600.0);
        let y_drift = g.mvm_batch(op, &xs).unwrap();
        assert_ne!(y_drift, y_stuck, "the drifting cell must change the answer");
        let (mut fresh, fresh_op) = loaded();
        fresh.macros[mid].array.install_fault_plan(plan);
        fresh.advance_fault_time(3600.0);
        assert_eq!(y_drift, fresh.mvm_batch(fresh_op, &xs).unwrap());

        // Reprogramming the macros (free + reload of a different matrix)
        // bumps the array generations; a stale panel must not survive.
        g.clear_faults();
        g.free_operator(op).unwrap();
        let b = random::gaussian_matrix(&mut rng, 6, 6);
        let op2 = g.load_matrix(&b).unwrap();
        let y3 = g.mvm_batch(op2, &xs).unwrap();
        let quantized = g.operator_info(op2).unwrap().quantized.clone();
        for (x, y) in xs.iter().zip(&y3) {
            let y_ref = quantized.matvec(x);
            assert!(vector::rel_error(y, &y_ref) < 0.01, "{y:?} vs {y_ref:?}");
        }
    }

    #[test]
    fn all_zero_batch_leaves_the_noisy_read_stream_alone() {
        // With read noise, reading the planes draws one sample per cell: a
        // batch of zero inputs must return zeros without that read, so the
        // next noisy answer is the one it would have been without the batch.
        let solved = |zero_batch_first: bool| {
            let mut g = MacroGroup::new(2, MacroConfig::small(6), 23);
            let a = Matrix::from_fn(6, 6, |i, j| if i == j { 2.0 } else { 0.2 });
            let op = g.load_matrix(&a).unwrap();
            if zero_batch_first {
                let before = g.hw_snapshot();
                let ys = g.mvm_batch(op, &[vec![0.0; 6], vec![0.0; 6]]).unwrap();
                assert_eq!(ys, vec![vec![0.0; 6]; 2]);
                assert_eq!(g.hw_snapshot(), before, "a zero batch records no hardware event");
            }
            g.solve_inv(op, &[1.0, -0.5, 0.25, 0.75, -1.0, 0.5]).unwrap()
        };
        let (plain, after_zero_batch) = (solved(false), solved(true));
        for (x, y) in plain.iter().zip(&after_zero_batch) {
            assert_eq!(x.to_bits(), y.to_bits(), "{plain:?} vs {after_zero_batch:?}");
        }
    }

    #[test]
    fn mvm_batch_rows_matches_vec_batch_and_is_thread_count_invariant() {
        // The Matrix-batch entry point is the implementation the Vec-batch
        // wrapper delegates to, and its one product over all planes must
        // not change results with the thread budget it splits rows over —
        // here on a 4-plane bit-sliced operator. Noise-free config keeps
        // every call deterministic; bit slicing needs 4-bit cells, so use
        // the quantization-only config.
        let cfg = MacroConfig {
            nonideal: NonidealityConfig::quantization_only(4),
            ..MacroConfig::small(6)
        };
        let mut g = MacroGroup::new(4, cfg, 91);
        let mut rng = seeded_rng(92);
        let a = random::gaussian_matrix(&mut rng, 6, 6);
        let op = g.load_matrix_bitsliced(&a).unwrap();
        let xs: Vec<Vec<f64>> = (0..5).map(|_| random::normal_vector(&mut rng, 6)).collect();
        let mut m = Matrix::zeros(5, 6);
        for (b, x) in xs.iter().enumerate() {
            m.row_mut(b).copy_from_slice(x);
        }
        let via_vecs = g.mvm_batch(op, &xs).unwrap();
        let via_rows = g.mvm_batch_rows(op, &m).unwrap();
        let serial_planes =
            gramc_linalg::parallel::with_thread_cap(1, || g.mvm_batch_rows(op, &m)).unwrap();
        for (b, y) in via_vecs.iter().enumerate() {
            for (j, v) in y.iter().enumerate() {
                assert_eq!(v.to_bits(), via_rows[(b, j)].to_bits());
                assert_eq!(v.to_bits(), serial_planes[(b, j)].to_bits());
            }
        }
    }

    #[test]
    fn batch_loops_give_the_same_bits_in_both_builds() {
        // The portable build of the DAC-drive and ADC-decode loops, called
        // directly, against the dispatched one (the AVX2 build on a CPU with
        // AVX2), on two groups seeded alike so noisy reads draw the same
        // samples: every output and every hardware counter, bit for bit.
        let configs = [
            ("ideal", NonidealityConfig::ideal(), false),
            ("bit-sliced quantization_only(4)", NonidealityConfig::quantization_only(4), true),
            ("paper_default", NonidealityConfig::paper_default(), false),
        ];
        for (name, nonideal, bitsliced) in configs {
            let cfg = MacroConfig { nonideal, ..MacroConfig::small(24) };
            let mut rng = seeded_rng(71);
            let a = random::gaussian_matrix(&mut rng, 20, 24);
            let loaded = || {
                let mut g = MacroGroup::new(4, cfg.clone(), 72);
                let op = if bitsliced { g.load_matrix_bitsliced(&a) } else { g.load_matrix(&a) };
                (g, op.unwrap())
            };
            let ((mut portable, op), (mut dispatched, _)) = (loaded(), loaded());
            for bsz in (1..=9).chain([17, 33]) {
                let mut xs = random::gaussian_matrix(&mut rng, bsz, 24);
                if bsz > 1 {
                    // An all-zero input keeps its exact-zero output.
                    xs.row_mut(bsz / 2).fill(0.0);
                }
                let (before_p, before_d) = (portable.hw_snapshot(), dispatched.hw_snapshot());
                let want = portable.batch_rows(op, &xs).unwrap();
                let got = dispatched.mvm_batch_rows(op, &xs).unwrap();
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{name}, batch of {bsz}");
                assert_eq!(
                    dispatched.hw_snapshot().since(&before_d),
                    portable.hw_snapshot().since(&before_p),
                    "{name}, batch of {bsz}"
                );
            }
        }
    }

    #[test]
    fn mode_configuration_tracks_operations() {
        let mut g = ideal_group(2, 4, 14);
        let a = Matrix::from_fn(4, 4, |i, j| if i == j { 2.0 } else { 0.3 / (1.0 + j as f64) });
        let op = g.load_matrix(&a).unwrap();
        g.mvm(op, &[1.0, 0.0, 0.0, 0.0]).unwrap();
        assert_eq!(g.macro_at(0).unwrap().mode(), MacroMode::Mvm);
        g.solve_inv(op, &[1.0, 0.0, 0.0, 0.0]).unwrap();
        assert_eq!(g.macro_at(0).unwrap().mode(), MacroMode::Inv);
    }
}
