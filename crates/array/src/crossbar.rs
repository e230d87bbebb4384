//! The 1T1R crossbar array with its WL/BL/SL drivers.
//!
//! Per the paper's macro design (Fig. 2): "The size of RRAM array is
//! moderately set as 128 × 128. The 1T1R cells in the crosspoint array are
//! enabled by BL, WL, and source-line (SL) drivers, which allow to select the
//! active region in the array to fit different sizes of matrix problems."

use std::sync::{Arc, Mutex};

use gramc_device::{CellNoise, DeviceParams, FaultKind, FaultPlan, LevelQuantizer, Nmos, OneTOneR};
use gramc_linalg::Matrix;
use gramc_telemetry::HwCounters;
use rand::Rng;

use crate::error::ArrayError;
use crate::write_verify::ProgramOutcome;

/// The paper's array dimension.
pub const PAPER_ARRAY_SIZE: usize = 128;

/// Construction parameters for a crossbar array.
#[derive(Debug, Clone)]
pub struct ArrayConfig {
    /// Number of rows (word lines).
    pub rows: usize,
    /// Number of columns (bit lines).
    pub cols: usize,
    /// RRAM compact-model parameters shared by all cells.
    pub device: DeviceParams,
    /// Access-transistor model shared by all cells.
    pub nmos: Nmos,
    /// Per-cell noise configuration.
    pub noise: CellNoise,
    /// Device-to-device relative sigma on the current prefactor `I0`.
    pub d2d_i0_sigma: f64,
    /// Device-to-device relative sigma on the gap length `g0`.
    pub d2d_g0_sigma: f64,
    /// Wire resistance per cell segment in ohms (0 disables IR-drop
    /// modelling; the paper's simulations neglect it, but the ablation
    /// benches sweep it).
    pub wire_resistance: f64,
}

impl Default for ArrayConfig {
    fn default() -> Self {
        Self {
            rows: PAPER_ARRAY_SIZE,
            cols: PAPER_ARRAY_SIZE,
            device: DeviceParams::default(),
            nmos: Nmos::default(),
            noise: CellNoise::default(),
            d2d_i0_sigma: 0.02,
            d2d_g0_sigma: 0.005,
            wire_resistance: 0.0,
        }
    }
}

impl ArrayConfig {
    /// A small array for fast unit tests.
    pub fn small(rows: usize, cols: usize) -> Self {
        Self { rows, cols, ..Self::default() }
    }

    /// A noiseless, variation-free configuration (deterministic tests).
    pub fn ideal(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            noise: CellNoise::none(),
            d2d_i0_sigma: 0.0,
            d2d_g0_sigma: 0.0,
            ..Self::default()
        }
    }
}

/// A rectangular active region selected by the WL/BL/SL drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveRegion {
    /// First active row.
    pub row0: usize,
    /// First active column.
    pub col0: usize,
    /// Active row count.
    pub rows: usize,
    /// Active column count.
    pub cols: usize,
}

impl ActiveRegion {
    /// Region covering an entire `rows × cols` array.
    pub fn full(rows: usize, cols: usize) -> Self {
        Self { row0: 0, col0: 0, rows, cols }
    }

    /// Region of the given size anchored at the array origin.
    pub fn at_origin(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols)
    }

    /// Shape of the region.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
}

/// One cached effective-conductance snapshot (see
/// [`CrossbarArray::effective_conductances`]).
#[derive(Debug)]
struct Snapshot {
    region: ActiveRegion,
    g: Matrix,
    /// `gᵀ`, built on the first [`CrossbarArray::row_currents_batch`] of
    /// the generation, its only reader. (A macro group packs the planes of
    /// its MVMs itself; see `gramc_core::MacroGroup::mvm_batch_rows`.)
    g_t: Option<Matrix>,
}

/// Region-keyed snapshot cache, valid for one array generation.
#[derive(Debug, Default)]
struct ConductanceCache {
    entries: Vec<Snapshot>,
    /// Every cell's noise-free read (before faults) of each region read
    /// noisily, most recently used last: the part of a noisy read that
    /// only a mutation can change.
    cells: Vec<(ActiveRegion, Matrix)>,
}

/// Cached regions kept per array. An operator occupies at most a few plane
/// regions on one array, so a handful of slots never thrashes.
const CACHE_SLOTS: usize = 8;

/// A crossbar of 1T1R cells with region-selectable drivers.
///
/// # Conductance cache and invalidation contract
///
/// Reconstructing the effective-conductance matrix of a region walks every
/// cell's compact model — by far the dominant cost of an analog read when
/// the array state has not changed. The array therefore keeps a
/// *generation-tagged snapshot cache*:
///
/// * every mutation ([`program_direct`](Self::program_direct) and every
///   [`cell_mut`](Self::cell_mut) borrow — the write-verify controller's
///   entry point) bumps [`generation`](Self::generation) and drops all
///   snapshots;
/// * [`effective_conductances`](Self::effective_conductances) and
///   [`row_currents_batch`](Self::row_currents_batch) serve from the
///   snapshot of their region, rebuilding it only on the first read after a
///   mutation.
///
/// Noisy reads ([`conductances`](Self::conductances)) model a fresh ADC
/// sample per call: every call draws new read noise for every cell. Only
/// the noise-free conductance underneath is kept, per region and under the
/// same invalidation, so a cell's compact model is evaluated once per
/// generation. That reuse is not counted as a snapshot hit or miss.
///
/// An installed [`FaultPlan`](gramc_device::FaultPlan) participates in the
/// same contract: installing or clearing a plan and advancing the fault clock
/// ([`advance_fault_time`](Self::advance_fault_time), which moves every
/// drifting cell) all invalidate the cache, so snapshots never outlive a
/// change of the faulted state.
///
/// # Examples
///
/// ```
/// use gramc_array::{CrossbarArray, ArrayConfig, ActiveRegion};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut xbar = CrossbarArray::new(ArrayConfig::ideal(4, 4), &mut rng);
/// let region = ActiveRegion::full(4, 4);
/// let g = xbar.conductances(region, &mut rng).unwrap();
/// assert_eq!(g.shape(), (4, 4));
/// ```
#[derive(Debug)]
pub struct CrossbarArray {
    config: ArrayConfig,
    cells: Vec<OneTOneR>,
    /// Bumped on every mutation; snapshots from older generations are stale.
    generation: u64,
    /// Interior-mutable so `&self` read paths can populate it (a `Mutex`
    /// rather than `RefCell` keeps the array `Send + Sync`; reads are
    /// single-owner in practice, so the lock is uncontended).
    cache: Mutex<ConductanceCache>,
    faults: Option<FaultState>,
    /// Hardware event counters (observation only — never touches RNG or
    /// math). Fresh per array; [`set_telemetry`](Self::set_telemetry)
    /// installs a shared sink so a macro group aggregates its arrays.
    telemetry: Arc<HwCounters>,
}

/// Installed fault plan plus the array's fault clock and the precomputed
/// stuck-at conductance rails (from the array's device parameters).
#[derive(Debug, Clone)]
struct FaultState {
    plan: FaultPlan,
    /// Seconds since the plan was installed (drives drift).
    time: f64,
    g_on: f64,
    g_off: f64,
}

impl Clone for CrossbarArray {
    fn clone(&self) -> Self {
        Self {
            config: self.config.clone(),
            cells: self.cells.clone(),
            generation: self.generation,
            // Snapshots are derived data; the clone rebuilds on first read.
            cache: Mutex::new(ConductanceCache::default()),
            faults: self.faults.clone(),
            // A clone counts independently; owners sharing a sink re-install
            // it via `set_telemetry`.
            telemetry: Arc::new(HwCounters::new()),
        }
    }
}

impl CrossbarArray {
    /// Builds the array, sampling device-to-device variation from `rng`.
    pub fn new<R: Rng + ?Sized>(config: ArrayConfig, rng: &mut R) -> Self {
        let mut cells = Vec::with_capacity(config.rows * config.cols);
        for _ in 0..config.rows * config.cols {
            cells.push(OneTOneR::with_variation(
                config.device.clone(),
                config.nmos,
                config.noise,
                rng,
                config.d2d_i0_sigma,
                config.d2d_g0_sigma,
            ));
        }
        Self {
            config,
            cells,
            generation: 0,
            cache: Mutex::new(ConductanceCache::default()),
            faults: None,
            telemetry: Arc::new(HwCounters::new()),
        }
    }

    /// Installs a shared hardware-counter sink (e.g. one per macro group)
    /// so this array's events aggregate with its siblings'.
    pub fn set_telemetry(&mut self, counters: Arc<HwCounters>) {
        self.telemetry = counters;
    }

    /// The array's hardware event counters.
    pub fn telemetry(&self) -> &Arc<HwCounters> {
        &self.telemetry
    }

    /// Installs a fault plan: from now on reads are filtered through it
    /// (stuck cells read their rail, drifting cells decay with the fault
    /// clock, noisy reads may be disturbed). Invalidates the snapshot
    /// cache. Installing an [empty](FaultPlan::is_empty) plan leaves every
    /// read bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if the plan's shape differs from the array's.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        assert_eq!(plan.shape(), self.shape(), "fault plan shape must match the array");
        let g_on = self.config.device.conductance_at_gap(self.config.device.gap_min);
        let g_off = self.config.device.conductance_at_gap(self.config.device.gap_max);
        self.faults = Some(FaultState { plan, time: 0.0, g_on, g_off });
        self.invalidate_cache();
    }

    /// Removes the installed fault plan (if any) and invalidates the cache.
    pub fn clear_fault_plan(&mut self) {
        if self.faults.take().is_some() {
            self.invalidate_cache();
        }
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|f| &f.plan)
    }

    /// Advances the fault clock by `dt` seconds — drifting cells relax
    /// toward `G_off` accordingly. Invalidates the snapshot cache (the
    /// effective conductances moved). No-op without an installed plan.
    pub fn advance_fault_time(&mut self, dt: f64) {
        if let Some(fs) = &mut self.faults {
            fs.time += dt;
            self.invalidate_cache();
        }
    }

    /// Seconds on the fault clock since the plan was installed.
    pub fn fault_time(&self) -> f64 {
        self.faults.as_ref().map_or(0.0, |f| f.time)
    }

    /// What a read of cell `(row, col)` returns given the fault state, for
    /// a fault-free read of `g`.
    #[inline]
    fn fault_adjust(&self, g: f64, row: usize, col: usize) -> f64 {
        let Some(fs) = &self.faults else { return g };
        match fs.plan.fault_at(row, col) {
            None => g,
            Some(FaultKind::StuckAtOn) => fs.g_on,
            Some(FaultKind::StuckAtOff) => fs.g_off,
            Some(FaultKind::Drift) => {
                // Guard t == 0 so a freshly installed plan is bit-identical
                // (g_off + (g - g_off) need not round-trip exactly).
                if fs.time > 0.0 {
                    let tau = fs.plan.config().drift_tau_s.max(f64::MIN_POSITIVE);
                    fs.g_off + (g - fs.g_off) * (-fs.time / tau).exp()
                } else {
                    g
                }
            }
        }
    }

    /// The rail a stuck cell reads at, if `(row, col)` is stuck under the
    /// installed plan. Used by the programming paths to detect and report
    /// cells that cannot take their target.
    pub(crate) fn stuck_conductance_at(&self, row: usize, col: usize) -> Option<f64> {
        let fs = self.faults.as_ref()?;
        match fs.plan.fault_at(row, col)? {
            FaultKind::StuckAtOn => Some(fs.g_on),
            FaultKind::StuckAtOff => Some(fs.g_off),
            FaultKind::Drift => None,
        }
    }

    /// Mutation counter: bumped whenever the array state may have changed
    /// (cell programming or a mutable cell borrow). Snapshot consumers can
    /// use it to detect staleness across reads.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Drops all cached snapshots and bumps the generation. Called by every
    /// mutating entry point; public so external controllers driving cells
    /// directly can keep the contract.
    pub fn invalidate_cache(&mut self) {
        self.generation += 1;
        let cache = self.cache.get_mut().expect("cache lock poisoned");
        cache.entries.clear();
        cache.cells.clear();
    }

    /// Runs `f` on the (possibly freshly built) snapshot for `region`.
    fn with_snapshot<T>(
        &self,
        region: ActiveRegion,
        f: impl FnOnce(&mut Snapshot) -> T,
    ) -> Result<T, ArrayError> {
        self.check_region(region)?;
        let mut cache = self.cache.lock().expect("cache lock poisoned");
        if let Some(pos) = cache.entries.iter().position(|s| s.region == region) {
            self.telemetry.add_snapshot_hits(1);
            // Move to the back (most recently used).
            let mut snap = cache.entries.remove(pos);
            let out = f(&mut snap);
            cache.entries.push(snap);
            return Ok(out);
        }
        self.telemetry.add_snapshot_misses(1);
        let g = self.build_effective_conductances(region)?;
        let mut snap = Snapshot { region, g, g_t: None };
        let out = f(&mut snap);
        if cache.entries.len() >= CACHE_SLOTS {
            cache.entries.remove(0);
        }
        cache.entries.push(snap);
        Ok(out)
    }

    /// The array configuration.
    pub fn config(&self) -> &ArrayConfig {
        &self.config
    }

    /// Physical shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.config.rows, self.config.cols)
    }

    /// Validates that a region fits in the array.
    pub fn check_region(&self, region: ActiveRegion) -> Result<(), ArrayError> {
        if region.row0 + region.rows > self.config.rows
            || region.col0 + region.cols > self.config.cols
            || region.rows == 0
            || region.cols == 0
        {
            return Err(ArrayError::RegionOutOfBounds {
                region: (region.row0, region.col0, region.rows, region.cols),
                array: (self.config.rows, self.config.cols),
            });
        }
        Ok(())
    }

    /// Immutable access to the cell at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn cell(&self, row: usize, col: usize) -> &OneTOneR {
        assert!(row < self.config.rows && col < self.config.cols, "cell out of bounds");
        &self.cells[row * self.config.cols + col]
    }

    /// Mutable access to the cell at `(row, col)` (used by the write-verify
    /// controller).
    ///
    /// Conservatively invalidates the conductance cache: the borrow may be
    /// used to pulse or reprogram the cell, and a stale snapshot must never
    /// outlive a mutation (see the cache contract in the type docs).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn cell_mut(&mut self, row: usize, col: usize) -> &mut OneTOneR {
        assert!(row < self.config.rows && col < self.config.cols, "cell out of bounds");
        self.invalidate_cache();
        &mut self.cells[row * self.config.cols + col]
    }

    /// Reads the noisy conductance matrix of a region (one ADC read per
    /// cell, each with independent read noise).
    ///
    /// Every cell takes exactly what [`OneTOneR::read`] returns for the same
    /// RNG draws, in row-major order; the noise-free conductance under the
    /// noise comes from a per-region cache that every mutation invalidates
    /// (see the type docs).
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::RegionOutOfBounds`] for invalid regions.
    pub fn conductances<R: Rng + ?Sized>(
        &self,
        region: ActiveRegion,
        rng: &mut R,
    ) -> Result<Matrix, ArrayError> {
        self.check_region(region)?;
        // Every cell carries the array's noise configuration.
        let sigma = self.config.noise.read_rel_sigma;
        let mut cache = self.cache.lock().expect("cache lock poisoned");
        let pos = cache.cells.iter().position(|(r, _)| *r == region);
        let (_, ideal) = match pos {
            Some(pos) => cache.cells.remove(pos),
            None => {
                if cache.cells.len() >= CACHE_SLOTS {
                    cache.cells.remove(0);
                }
                let read = |i, j| self.cell(region.row0 + i, region.col0 + j).read_ideal();
                (region, Matrix::from_fn(region.rows, region.cols, read))
            }
        };
        let mut g = ideal.clone();
        cache.cells.push((region, ideal));
        drop(cache);
        if sigma != 0.0 {
            for v in g.as_mut_slice() {
                *v = (*v * (1.0 + sigma * standard_normal(rng))).max(0.0);
            }
        }
        self.apply_faults(&mut g, region, rng);
        Ok(g)
    }

    /// Filters a noisy read of `region` through the installed fault plan:
    /// stuck and drifting cells first, then read disturb. Returns at once
    /// when no plan is installed.
    fn apply_faults<R: Rng + ?Sized>(&self, g: &mut Matrix, region: ActiveRegion, rng: &mut R) {
        if self.faults.is_none() {
            return;
        }
        for i in 0..region.rows {
            for (j, v) in g.row_mut(i).iter_mut().enumerate() {
                *v = self.fault_adjust(*v, region.row0 + i, region.col0 + j);
            }
        }
        self.apply_read_disturb(g, region, rng);
    }

    /// Transient read disturb: with an installed plan whose disturb
    /// probability is positive, each noisy sample independently dips by the
    /// configured fraction. Never applied to noise-free (verify/snapshot)
    /// reads; consumes no RNG when the probability is zero.
    fn apply_read_disturb<R: Rng + ?Sized>(
        &self,
        g: &mut Matrix,
        region: ActiveRegion,
        rng: &mut R,
    ) {
        let Some(fs) = &self.faults else { return };
        let p = fs.plan.config().read_disturb_prob;
        if p <= 0.0 {
            return;
        }
        let dip = 1.0 - fs.plan.config().read_disturb_frac;
        for i in 0..region.rows {
            for j in 0..region.cols {
                if rng.gen::<f64>() < p {
                    g[(i, j)] *= dip;
                }
            }
        }
    }

    /// Reads the noise-free conductance matrix of a region.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::RegionOutOfBounds`] for invalid regions.
    pub fn conductances_ideal(&self, region: ActiveRegion) -> Result<Matrix, ArrayError> {
        self.check_region(region)?;
        let mut g = Matrix::zeros(region.rows, region.cols);
        for i in 0..region.rows {
            for j in 0..region.cols {
                let (row, col) = (region.row0 + i, region.col0 + j);
                g[(i, j)] = self.fault_adjust(self.cell(row, col).read_ideal(), row, col);
            }
        }
        Ok(g)
    }

    /// Effective conductance matrix including the (optional) first-order
    /// IR-drop degradation from finite wire resistance: a cell at distance
    /// `d = i + j` segments from the drivers sees its conductance reduced to
    /// `G / (1 + G·R_wire·d)`.
    ///
    /// Served from the generation-tagged snapshot cache (see the type docs):
    /// the first call after a mutation rebuilds the snapshot, subsequent
    /// calls for the same region copy it out.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::RegionOutOfBounds`] for invalid regions.
    pub fn effective_conductances(&self, region: ActiveRegion) -> Result<Matrix, ArrayError> {
        self.with_snapshot(region, |snap| snap.g.clone())
    }

    /// One noisy effective-conductance read: per-cell read noise plus the
    /// IR-drop correction of [`effective_conductances`](Self::effective_conductances).
    /// Each call is a fresh sample (see [`conductances`](Self::conductances)).
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::RegionOutOfBounds`] for invalid regions.
    pub fn effective_conductances_noisy<R: Rng + ?Sized>(
        &self,
        region: ActiveRegion,
        rng: &mut R,
    ) -> Result<Matrix, ArrayError> {
        let mut g = self.conductances(region, rng)?;
        self.apply_ir_drop(&mut g, region);
        Ok(g)
    }

    /// First-order IR-drop degradation from finite wire resistance: a cell
    /// at distance `d = i + j` segments from the drivers sees its
    /// conductance reduced to `G / (1 + G·R_wire·d)`. No-op when
    /// `wire_resistance` is 0.
    fn apply_ir_drop(&self, g: &mut Matrix, region: ActiveRegion) {
        let r = self.config.wire_resistance;
        if r > 0.0 {
            for i in 0..region.rows {
                for j in 0..region.cols {
                    let d = (i + j) as f64;
                    let gij = g[(i, j)];
                    g[(i, j)] = gij / (1.0 + gij * r * d);
                }
            }
        }
    }

    /// Uncached snapshot construction (the pre-cache `effective_conductances`
    /// body). Also the bench baseline for the per-call reconstruction cost.
    fn build_effective_conductances(&self, region: ActiveRegion) -> Result<Matrix, ArrayError> {
        let mut g = self.conductances_ideal(region)?;
        self.apply_ir_drop(&mut g, region);
        Ok(g)
    }

    /// Public uncached reconstruction: reads every cell's compact model and
    /// applies the IR-drop correction, bypassing the snapshot cache. This is
    /// what every MVM paid before the cache existed; the perf benches time
    /// the cached fast path against it.
    pub fn effective_conductances_uncached(
        &self,
        region: ActiveRegion,
    ) -> Result<Matrix, ArrayError> {
        self.build_effective_conductances(region)
    }

    /// Batched analog MVM fast path: every row of `v_batch` is one
    /// column-voltage drive vector, and row `b` of the output holds the
    /// per-row currents `I_b = G·v_b` in amperes. The conductance snapshot
    /// is read **once** for the whole batch and the products run through
    /// the blocked [`Matrix::matmul`] kernel, so a batch of `B` vectors
    /// costs one snapshot plus one `(B×cols)·(cols×rows)` product instead
    /// of `B` matrix reconstructions.
    ///
    /// Read noise is aggregated per output. For independent multiplicative
    /// per-cell read noise of relative sigma σ, the output current noise is
    /// exactly Gaussian with standard deviation `σ·√(Σ_j (G_ij·v_j)²)`, so
    /// sampling per output is distribution-exact and O(n) faster than
    /// per-cell sampling (validated against per-cell sampling in tests).
    /// The samples are drawn per output in batch-row major order, so a batch
    /// of `B` vectors gives the bits of `B` one-row batches with the same
    /// RNG. A macro group's MVM draws the per-cell sample instead (see
    /// `gramc_core::MacroGroup::mvm_batch_rows`).
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::ShapeMismatch`] if `v_batch.cols() !=
    /// region.cols` and [`ArrayError::RegionOutOfBounds`] for invalid
    /// regions.
    pub fn row_currents_batch<R: Rng + ?Sized>(
        &self,
        region: ActiveRegion,
        v_batch: &Matrix,
        rng: &mut R,
    ) -> Result<Matrix, ArrayError> {
        self.check_region(region)?;
        if v_batch.cols() != region.cols {
            return Err(ArrayError::ShapeMismatch {
                expected: (v_batch.rows(), region.cols),
                found: v_batch.shape(),
            });
        }
        // One settle event per drive vector, each biasing the whole region.
        self.telemetry.add_settle_events(v_batch.rows() as u64);
        self.telemetry.add_read_cycles_mvm((v_batch.rows() * region.rows * region.cols) as u64);
        let sigma = self.config.noise.read_rel_sigma;
        self.with_snapshot(region, |snap| {
            // Y = V · Gᵀ, with Gᵀ cached alongside the snapshot.
            let g_t = snap.g_t.get_or_insert_with(|| snap.g.transpose());
            let mut out = v_batch.matmul(g_t);
            if sigma > 0.0 {
                // var_bi = Σ_j (G_ij·v_bj)², accumulated term by term in
                // column order, so each drive row's output does not depend
                // on the batch it arrived in.
                for b in 0..out.rows() {
                    let v = v_batch.row(b);
                    for i in 0..region.rows {
                        let mut var = 0.0;
                        for (j, &gij) in snap.g.row(i).iter().enumerate() {
                            let term = gij * v[j];
                            var += term * term;
                        }
                        out[(b, i)] += sigma * var.sqrt() * standard_normal(rng);
                    }
                }
            }
            out
        })
    }

    /// Directly programs a region to the given target conductances (in
    /// siemens) by setting each cell's filament gap, bypassing pulse-level
    /// simulation. `sigma_levels` adds Gaussian programming error in level
    /// units, emulating the residual error the write-verify loop leaves
    /// behind (its tolerance band).
    ///
    /// This is the fast path used by the LeNet pipeline; the full pulse-level
    /// path lives in [`crate::WriteVerifyController`].
    ///
    /// Returns a [`ProgramOutcome`]: without a fault plan every cell
    /// takes its (clamped) target and `failures` is 0; under an installed
    /// fault plan, stuck cells that cannot land within half a level of
    /// their target are counted as failures — the same verify-readback
    /// signal the pulse path reports, surfaced instead of dropped.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::RegionOutOfBounds`] or
    /// [`ArrayError::ShapeMismatch`].
    pub fn program_direct<R: Rng + ?Sized>(
        &mut self,
        region: ActiveRegion,
        targets: &Matrix,
        quantizer: &LevelQuantizer,
        sigma_levels: f64,
        rng: &mut R,
    ) -> Result<ProgramOutcome, ArrayError> {
        self.check_region(region)?;
        if targets.shape() != region.shape() {
            return Err(ArrayError::ShapeMismatch {
                expected: region.shape(),
                found: targets.shape(),
            });
        }
        self.invalidate_cache();
        // Direct programming models one blind write pulse per cell (the
        // pulse-level path counts its measured pulse total instead).
        let cells = region.rows * region.cols;
        self.telemetry.add_write_cycles(cells as u64);
        self.telemetry.add_write_pulses(cells as u64);
        let mut failures = 0;
        for i in 0..region.rows {
            for j in 0..region.cols {
                let mut g = targets[(i, j)];
                if sigma_levels > 0.0 {
                    g += sigma_levels * quantizer.step() * standard_normal(rng);
                }
                let g = g.clamp(quantizer.g_min(), quantizer.g_max());
                let (row, col) = (region.row0 + i, region.col0 + j);
                // Direct cell indexing: `cell_mut` would re-invalidate (and
                // re-bump the generation) once per cell.
                let idx = row * self.config.cols + col;
                self.cells[idx].program_conductance(g);
                // Verify readback against what the cell will actually read
                // as (a stuck cell ignores the seated state entirely).
                if let Some(g_stuck) = self.stuck_conductance_at(row, col) {
                    let err_levels = (g_stuck - g).abs() / quantizer.step();
                    if err_levels > 0.5 {
                        failures += 1;
                    }
                }
            }
        }
        Ok(ProgramOutcome { cells, failures })
    }
}

/// Local standard-normal sampler (Box–Muller).
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gramc_device::MICRO_SIEMENS;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ideal_array(rows: usize, cols: usize, seed: u64) -> (CrossbarArray, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xbar = CrossbarArray::new(ArrayConfig::ideal(rows, cols), &mut rng);
        (xbar, rng)
    }

    /// The row currents of one drive vector: a one-row batch.
    fn one_row_batch(
        xbar: &CrossbarArray,
        region: ActiveRegion,
        v: &[f64],
        rng: &mut StdRng,
    ) -> Result<Vec<f64>, ArrayError> {
        Ok(xbar.row_currents_batch(region, &Matrix::from_rows(&[v]), rng)?.row(0).to_vec())
    }

    #[test]
    fn fresh_array_is_high_resistance() {
        let (xbar, mut rng) = ideal_array(4, 4, 1);
        let g = xbar.conductances(ActiveRegion::full(4, 4), &mut rng).unwrap();
        assert!(g.max_abs() < 2.0 * MICRO_SIEMENS);
    }

    #[test]
    fn region_bounds_checked() {
        let (xbar, mut rng) = ideal_array(4, 4, 2);
        let bad = ActiveRegion { row0: 2, col0: 2, rows: 4, cols: 4 };
        assert!(matches!(
            xbar.conductances(bad, &mut rng),
            Err(ArrayError::RegionOutOfBounds { .. })
        ));
        let empty = ActiveRegion { row0: 0, col0: 0, rows: 0, cols: 1 };
        assert!(xbar.check_region(empty).is_err());
    }

    #[test]
    fn program_direct_hits_targets() {
        let (mut xbar, mut rng) = ideal_array(3, 3, 3);
        let q = LevelQuantizer::paper_default();
        let region = ActiveRegion::full(3, 3);
        let targets = Matrix::from_fn(3, 3, |i, j| q.conductance_of((i * 3 + j) % 16));
        xbar.program_direct(region, &targets, &q, 0.0, &mut rng).unwrap();
        let g = xbar.conductances_ideal(region).unwrap();
        assert!(g.approx_eq(&targets, 1e-10), "{g:?} vs {targets:?}");
    }

    #[test]
    fn row_currents_match_g_times_v() {
        let (mut xbar, mut rng) = ideal_array(3, 2, 4);
        let q = LevelQuantizer::paper_default();
        let region = ActiveRegion::full(3, 2);
        let targets = Matrix::from_fn(3, 2, |i, j| q.conductance_of(2 * i + j + 1));
        xbar.program_direct(region, &targets, &q, 0.0, &mut rng).unwrap();
        let v = [0.1, -0.2];
        let i = one_row_batch(&xbar, region, &v, &mut rng).unwrap();
        let expected = targets.matvec(&v);
        for (a, b) in i.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-15, "{i:?} vs {expected:?}");
        }
    }

    #[test]
    fn aggregated_noise_matches_per_cell_statistics() {
        // The per-output noise shortcut must match brute-force per-cell
        // sampling in mean and standard deviation.
        let mut rng = StdRng::seed_from_u64(6);
        let mut cfg = ArrayConfig::ideal(4, 4);
        cfg.noise.read_rel_sigma = 0.05;
        let mut xbar = CrossbarArray::new(cfg, &mut rng);
        let q = LevelQuantizer::paper_default();
        let region = ActiveRegion::full(4, 4);
        let targets = Matrix::from_fn(4, 4, |i, j| q.conductance_of((5 * i + j) % 16));
        xbar.program_direct(region, &targets, &q, 0.0, &mut rng).unwrap();
        let v = [0.2, 0.1, -0.1, 0.05];

        let n = 4000;
        let mut agg_sum = 0.0;
        let mut agg_sq = 0.0;
        let mut cell_sum = 0.0;
        let mut cell_sq = 0.0;
        for _ in 0..n {
            let fast = one_row_batch(&xbar, region, &v, &mut rng).unwrap()[0];
            agg_sum += fast;
            agg_sq += fast * fast;
            // Brute force: sample each cell independently.
            let mut slow = 0.0;
            for j in 0..4 {
                let g = xbar.cell(0, j).read(&mut rng);
                slow += g * v[j];
            }
            cell_sum += slow;
            cell_sq += slow * slow;
        }
        let (m1, m2) = (agg_sum / n as f64, cell_sum / n as f64);
        let s1 = (agg_sq / n as f64 - m1 * m1).sqrt();
        let s2 = (cell_sq / n as f64 - m2 * m2).sqrt();
        assert!((m1 - m2).abs() / m2.abs() < 0.02, "means {m1} vs {m2}");
        assert!((s1 - s2).abs() / s2 < 0.15, "stds {s1} vs {s2}");
    }

    #[test]
    fn wire_resistance_reduces_far_cell_conductance() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut cfg = ArrayConfig::ideal(4, 4);
        cfg.wire_resistance = 100.0;
        let mut xbar = CrossbarArray::new(cfg, &mut rng);
        let q = LevelQuantizer::paper_default();
        let region = ActiveRegion::full(4, 4);
        let targets = Matrix::filled(4, 4, 50.0 * MICRO_SIEMENS);
        xbar.program_direct(region, &targets, &q, 0.0, &mut rng).unwrap();
        let g = xbar.effective_conductances(region).unwrap();
        assert!(g[(0, 0)] > g[(3, 3)], "IR drop should penalize far cells");
        assert!((g[(0, 0)] - 50.0 * MICRO_SIEMENS).abs() < 1e-12);
    }

    #[test]
    fn batched_row_currents_bit_identical_to_single_loop() {
        // With read noise ON: the batch draws per output in batch-major
        // order, so one batched call must reproduce a loop of one-row
        // batches against the same seeded RNG, bit for bit.
        let mut rng = StdRng::seed_from_u64(40);
        let mut cfg = ArrayConfig::ideal(6, 5);
        cfg.noise.read_rel_sigma = 0.03;
        let mut xbar = CrossbarArray::new(cfg, &mut rng);
        let q = LevelQuantizer::paper_default();
        let region = ActiveRegion::full(6, 5);
        let targets = Matrix::from_fn(6, 5, |i, j| q.conductance_of((3 * i + j) % 16));
        xbar.program_direct(region, &targets, &q, 0.0, &mut rng).unwrap();

        let batch = Matrix::from_fn(7, 5, |b, j| ((b * 5 + j) as f64 * 0.13).sin() * 0.2);
        let mut rng_batch = StdRng::seed_from_u64(99);
        let ys = xbar.row_currents_batch(region, &batch, &mut rng_batch).unwrap();
        let mut rng_loop = StdRng::seed_from_u64(99);
        for b in 0..batch.rows() {
            let y = one_row_batch(&xbar, region, batch.row(b), &mut rng_loop).unwrap();
            for (i, yi) in y.iter().enumerate() {
                assert!(
                    ys[(b, i)].to_bits() == yi.to_bits(),
                    "batch row {b} output {i}: {} vs {yi}",
                    ys[(b, i)]
                );
            }
        }
    }

    #[test]
    fn cache_is_invalidated_by_program_direct() {
        // Stale-cache regression: read (populating the cache), reprogram,
        // read again — the second read must see the new conductances.
        let (mut xbar, mut rng) = ideal_array(3, 3, 42);
        let q = LevelQuantizer::paper_default();
        let region = ActiveRegion::full(3, 3);
        let first = Matrix::filled(3, 3, 20.0 * MICRO_SIEMENS);
        xbar.program_direct(region, &first, &q, 0.0, &mut rng).unwrap();
        let gen0 = xbar.generation();
        let g1 = xbar.effective_conductances(region).unwrap();
        assert!(g1.approx_eq(&first, 1e-12));
        // Warm the snapshot again, then mutate.
        let _ = one_row_batch(&xbar, region, &[0.1, 0.1, 0.1], &mut rng).unwrap();
        let second = Matrix::filled(3, 3, 80.0 * MICRO_SIEMENS);
        xbar.program_direct(region, &second, &q, 0.0, &mut rng).unwrap();
        assert!(xbar.generation() > gen0, "generation must advance on programming");
        let g2 = xbar.effective_conductances(region).unwrap();
        assert!(g2.approx_eq(&second, 1e-12), "stale cache served after program_direct");
        let i = one_row_batch(&xbar, region, &[1.0, 0.0, 0.0], &mut rng).unwrap();
        assert!((i[0] - 80.0 * MICRO_SIEMENS).abs() < 1e-12, "stale current {i:?}");
    }

    #[test]
    fn cache_is_invalidated_by_cell_mut() {
        let (mut xbar, mut rng) = ideal_array(2, 2, 43);
        let q = LevelQuantizer::paper_default();
        let region = ActiveRegion::full(2, 2);
        let targets = Matrix::filled(2, 2, 10.0 * MICRO_SIEMENS);
        xbar.program_direct(region, &targets, &q, 0.0, &mut rng).unwrap();
        let _warm = xbar.effective_conductances(region).unwrap();
        let gen0 = xbar.generation();
        xbar.cell_mut(0, 0).program_conductance(90.0 * MICRO_SIEMENS);
        assert!(xbar.generation() > gen0);
        let g = xbar.effective_conductances(region).unwrap();
        assert!((g[(0, 0)] - 90.0 * MICRO_SIEMENS).abs() < 1e-12, "stale cache after cell_mut");
    }

    #[test]
    fn cached_reads_match_uncached_reconstruction() {
        let mut rng = StdRng::seed_from_u64(44);
        let mut cfg = ArrayConfig::ideal(5, 4);
        cfg.wire_resistance = 250.0; // exercise the IR-drop branch too
        let mut xbar = CrossbarArray::new(cfg, &mut rng);
        let q = LevelQuantizer::paper_default();
        let region = ActiveRegion::full(5, 4);
        let targets = Matrix::from_fn(5, 4, |i, j| q.conductance_of((2 * i + j) % 16));
        xbar.program_direct(region, &targets, &q, 0.0, &mut rng).unwrap();
        let cached1 = xbar.effective_conductances(region).unwrap();
        let cached2 = xbar.effective_conductances(region).unwrap();
        let uncached = xbar.effective_conductances_uncached(region).unwrap();
        assert_eq!(cached1, cached2);
        assert_eq!(cached1, uncached);
        // Sub-regions get their own snapshots and stay consistent.
        let sub = ActiveRegion { row0: 1, col0: 1, rows: 3, cols: 2 };
        assert_eq!(
            xbar.effective_conductances(sub).unwrap(),
            xbar.effective_conductances_uncached(sub).unwrap()
        );
    }

    /// The noisy read `conductances` must reproduce: every cell's own
    /// `read`, filtered through the fault state, then read disturb.
    fn per_cell_read(xbar: &CrossbarArray, region: ActiveRegion, rng: &mut StdRng) -> Matrix {
        let mut g = Matrix::zeros(region.rows, region.cols);
        for i in 0..region.rows {
            for j in 0..region.cols {
                let (row, col) = (region.row0 + i, region.col0 + j);
                g[(i, j)] = xbar.fault_adjust(xbar.cell(row, col).read(rng), row, col);
            }
        }
        xbar.apply_read_disturb(&mut g, region, rng);
        g
    }

    /// Two noisy reads of each region (the second reusing the noise-free
    /// cell reads of the first) against per-cell reads from an identically
    /// seeded RNG, bit for bit.
    fn assert_reads_match_per_cell(xbar: &CrossbarArray, seed: u64) {
        let half = ActiveRegion { row0: 1, col0: 2, rows: 4, cols: 3 };
        for region in [ActiveRegion::full(6, 5), half] {
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for _ in 0..2 {
                let got = xbar.conductances(region, &mut a).unwrap();
                let want = per_cell_read(xbar, region, &mut b);
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "region {region:?}");
            }
        }
    }

    fn noisy_array(seed: u64) -> CrossbarArray {
        let mut cfg = ArrayConfig::small(6, 5);
        cfg.noise.read_rel_sigma = 0.05;
        CrossbarArray::new(cfg, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn noisy_reads_match_per_cell_reads_across_mutations() {
        let mut xbar = noisy_array(60);
        assert_reads_match_per_cell(&xbar, 1);
        let q = LevelQuantizer::paper_default();
        let region = ActiveRegion::full(6, 5);
        let targets = Matrix::from_fn(6, 5, |i, j| q.conductance_of((2 * i + 3 * j) % 16));
        let mut rng = StdRng::seed_from_u64(61);
        xbar.program_direct(region, &targets, &q, 0.3, &mut rng).unwrap();
        assert_reads_match_per_cell(&xbar, 2);
        xbar.cell_mut(2, 3).set_pulse(1.2, 2.0, 30e-9, &mut rng);
        assert_reads_match_per_cell(&xbar, 3);
    }

    #[test]
    fn voltage_length_is_validated() {
        let (xbar, mut rng) = ideal_array(3, 2, 8);
        let region = ActiveRegion::full(3, 2);
        assert!(one_row_batch(&xbar, region, &[0.1], &mut rng).is_err());
    }

    #[test]
    fn programming_error_sigma_spreads_conductance() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut xbar = CrossbarArray::new(ArrayConfig::ideal(16, 16), &mut rng);
        let q = LevelQuantizer::paper_default();
        let region = ActiveRegion::full(16, 16);
        let targets = Matrix::filled(16, 16, 50.0 * MICRO_SIEMENS);
        xbar.program_direct(region, &targets, &q, 0.4, &mut rng).unwrap();
        let g = xbar.conductances_ideal(region).unwrap();
        let mean: f64 = g.as_slice().iter().sum::<f64>() / 256.0;
        let std: f64 =
            (g.as_slice().iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 256.0).sqrt();
        let expected = 0.4 * q.step();
        assert!((std - expected).abs() / expected < 0.35, "std {std} vs {expected}");
    }

    #[test]
    fn direct_programming_reports_clean_outcome() {
        let mut rng = StdRng::seed_from_u64(40);
        let mut xbar = CrossbarArray::new(ArrayConfig::ideal(4, 4), &mut rng);
        let q = LevelQuantizer::paper_default();
        let targets = Matrix::filled(4, 4, 40.0 * MICRO_SIEMENS);
        let outcome =
            xbar.program_direct(ActiveRegion::full(4, 4), &targets, &q, 0.0, &mut rng).unwrap();
        assert_eq!(outcome.cells, 16);
        assert!(outcome.converged());
        assert_eq!(outcome.failure_frac(), 0.0);
    }

    mod fault_inject {
        use super::*;
        use gramc_device::{FaultConfig, FaultKind, FaultPlan};

        fn stuck_plan(rows: usize, cols: usize, faults: &[(usize, usize, FaultKind)]) -> FaultPlan {
            FaultPlan::from_faults(rows, cols, faults, FaultConfig::default())
        }

        #[test]
        fn stuck_cells_read_their_rail() {
            let (mut xbar, _) = ideal_array(4, 4, 50);
            let q = LevelQuantizer::paper_default();
            let dev = xbar.config().device.clone();
            xbar.install_fault_plan(stuck_plan(
                4,
                4,
                &[(0, 0, FaultKind::StuckAtOn), (1, 2, FaultKind::StuckAtOff)],
            ));
            let mut rng = StdRng::seed_from_u64(51);
            let targets = Matrix::filled(4, 4, q.conductance_of(8));
            let outcome =
                xbar.program_direct(ActiveRegion::full(4, 4), &targets, &q, 0.0, &mut rng).unwrap();
            assert_eq!(outcome.failures, 2, "both stuck cells miss a mid-range target");
            let g = xbar.conductances_ideal(ActiveRegion::full(4, 4)).unwrap();
            let g_on = dev.conductance_at_gap(dev.gap_min);
            let g_off = dev.conductance_at_gap(dev.gap_max);
            assert!((g[(0, 0)] - g_on).abs() < 1e-12);
            assert!((g[(1, 2)] - g_off).abs() < 1e-12);
            assert!((g[(3, 3)] - q.conductance_of(8)).abs() < 1e-12, "healthy cell unaffected");
        }

        #[test]
        fn installing_and_advancing_faults_invalidates_snapshots() {
            let (mut xbar, mut rng) = ideal_array(4, 4, 52);
            let q = LevelQuantizer::paper_default();
            let region = ActiveRegion::full(4, 4);
            let targets = Matrix::filled(4, 4, q.conductance_of(12));
            xbar.program_direct(region, &targets, &q, 0.0, &mut rng).unwrap();
            let clean = xbar.effective_conductances(region).unwrap();
            let gen0 = xbar.generation();
            let mut cfg = FaultConfig::default();
            cfg.drift_tau_s = 1.0;
            xbar.install_fault_plan(FaultPlan::from_faults(4, 4, &[(2, 2, FaultKind::Drift)], cfg));
            assert!(xbar.generation() > gen0, "install must bump the generation");
            // Fresh install, t = 0: bit-identical readback.
            assert_eq!(xbar.effective_conductances(region).unwrap(), clean);
            // Advancing the clock must drop the snapshot and move the cell.
            xbar.advance_fault_time(2.0);
            let drifted = xbar.effective_conductances(region).unwrap();
            assert!(drifted[(2, 2)] < clean[(2, 2)], "drifting cell relaxes toward G_off");
            assert_eq!(drifted[(0, 0)], clean[(0, 0)], "healthy cells untouched");
        }

        #[test]
        fn empty_plan_is_bit_identical() {
            let (mut a, mut rng_a) = ideal_array(4, 4, 53);
            let (mut b, mut rng_b) = ideal_array(4, 4, 53);
            let q = LevelQuantizer::paper_default();
            let region = ActiveRegion::full(4, 4);
            let targets = Matrix::filled(4, 4, q.conductance_of(5));
            b.install_fault_plan(FaultPlan::sample(4, 4, &FaultConfig::default(), 99));
            let oa = a.program_direct(region, &targets, &q, 0.3, &mut rng_a).unwrap();
            let ob = b.program_direct(region, &targets, &q, 0.3, &mut rng_b).unwrap();
            assert_eq!(oa, ob);
            assert_eq!(
                a.conductances(region, &mut rng_a).unwrap(),
                b.conductances(region, &mut rng_b).unwrap(),
                "zero-rate plan must not perturb reads or the RNG stream"
            );
        }

        #[test]
        fn noisy_reads_match_per_cell_reads_under_faults() {
            let mut xbar = noisy_array(62);
            let q = LevelQuantizer::paper_default();
            let targets = Matrix::filled(6, 5, q.conductance_of(9));
            let mut rng = StdRng::seed_from_u64(63);
            xbar.program_direct(ActiveRegion::full(6, 5), &targets, &q, 0.0, &mut rng).unwrap();
            assert_reads_match_per_cell(&xbar, 4);
            let mut cfg = FaultConfig::default();
            cfg.drift_tau_s = 1.0;
            cfg.read_disturb_prob = 0.3;
            cfg.read_disturb_frac = 0.2;
            let faults = [(0, 0, FaultKind::StuckAtOn), (2, 3, FaultKind::Drift)];
            xbar.install_fault_plan(FaultPlan::from_faults(6, 5, &faults, cfg));
            assert_reads_match_per_cell(&xbar, 5);
            xbar.advance_fault_time(0.5);
            assert_reads_match_per_cell(&xbar, 6);
            xbar.clear_fault_plan();
            assert_reads_match_per_cell(&xbar, 7);
        }

        #[test]
        fn read_disturb_only_touches_noisy_reads() {
            let (mut xbar, mut rng) = ideal_array(8, 8, 54);
            let q = LevelQuantizer::paper_default();
            let region = ActiveRegion::full(8, 8);
            let targets = Matrix::filled(8, 8, q.conductance_of(10));
            xbar.program_direct(region, &targets, &q, 0.0, &mut rng).unwrap();
            let clean_ideal = xbar.conductances_ideal(region).unwrap();
            let mut cfg = FaultConfig::default();
            cfg.read_disturb_prob = 1.0;
            cfg.read_disturb_frac = 0.5;
            xbar.install_fault_plan(FaultPlan::from_faults(8, 8, &[], cfg));
            assert_eq!(xbar.conductances_ideal(region).unwrap(), clean_ideal);
            let noisy = xbar.conductances(region, &mut rng).unwrap();
            let expected = q.conductance_of(10) * 0.5;
            for v in noisy.as_slice() {
                assert!((v - expected).abs() < 1e-12, "every sample disturbed: {v}");
            }
        }
    }
}
