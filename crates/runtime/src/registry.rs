//! Cross-shard operator registry: global handles, placement, lifecycle —
//! and the quarantine/migration bookkeeping of the health monitor.

use std::sync::Arc;

use gramc_core::tiling::TileMapping;
use gramc_core::OperatorId;
use gramc_linalg::Matrix;

use crate::error::RuntimeError;

/// Global handle to an operator placed somewhere in the sharded runtime.
///
/// Unlike [`OperatorId`](gramc_core::OperatorId), which is local to one
/// macro group, a handle is valid runtime-wide: the registry maps it to
/// `(shard, local id)` — a mapping the recovery machinery may rewrite when
/// it migrates the operator off a quarantined shard, transparently to the
/// handle's holder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OperatorHandle(pub(crate) usize);

/// Placement policy for newly loaded operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// The healthy shard currently holding the fewest live operators (ties
    /// go to the lowest shard index). The default.
    #[default]
    LeastLoaded,
    /// Cycle healthy shards in submission order.
    RoundRobin,
    /// A fixed shard — reproduces a single-group run exactly and lets
    /// callers co-locate operators. Pinning to a quarantined shard is
    /// allowed at submission; the load job then completes on the digital
    /// fallback path.
    Pinned(usize),
}

/// Lifecycle of a registry entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EntryState {
    /// Load submitted but not yet executed.
    Pending,
    /// Live on its shard.
    Live(OperatorId),
    /// Live on the digital fallback path — no analog planes anywhere
    /// (loaded onto a quarantined shard, or degraded during recovery).
    LiveDigital,
    /// Free queued while the load itself is still queued (fully pipelined
    /// load → … → free; the load job runs first, per shard tickets).
    PendingFreeQueued,
    /// A free job is queued behind earlier work (the operator is still
    /// live until that job retires).
    FreeQueued(OperatorId),
    /// A free job is queued for a digital-fallback operator.
    FreeQueuedDigital,
    /// Freed, or the load failed.
    Dead,
}

/// Where a compute job finds its operator at execution time.
#[derive(Debug, Clone)]
pub(crate) enum ExecTarget {
    /// Analog planes on `shard` under local id `id`. A job executing on a
    /// different shard (the operator migrated after the job enqueued) must
    /// re-enqueue itself there.
    Analog { shard: usize, id: OperatorId },
    /// Digital fallback: compute from the registry's kept matrix.
    Digital(Arc<Matrix>),
}

/// Where a free job performs its release.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FreeTarget {
    /// Release locally: `Some(id)` frees the group operator, `None` was a
    /// digital-fallback operator with nothing to release.
    Local(Option<OperatorId>),
    /// The operator migrated — re-enqueue the free on its current shard.
    Moved(usize),
}

#[derive(Debug)]
struct Entry {
    shard: usize,
    /// Matrix shape recorded at load submission, so MVM inputs (against
    /// `cols`) and solve right-hand sides (against `rows`) are checked
    /// before they enqueue or join a coalesced batch.
    rows: usize,
    cols: usize,
    /// The operator's matrix, kept for migration re-programming and the
    /// digital fallback path.
    matrix: Arc<Matrix>,
    mapping: TileMapping,
    state: EntryState,
}

/// Handle table plus the placement counters and quarantine flags. Lives
/// behind one mutex in the runtime; every method is a short critical
/// section.
#[derive(Debug)]
pub(crate) struct Registry {
    entries: Vec<Entry>,
    live_per_shard: Vec<usize>,
    quarantined: Vec<bool>,
    rr_next: usize,
}

impl Registry {
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            entries: Vec::new(),
            live_per_shard: vec![0; shards],
            quarantined: vec![false; shards],
            rr_next: 0,
        }
    }

    /// Chooses a shard under `placement` and allocates a `Pending` entry.
    /// `LeastLoaded` and `RoundRobin` skip quarantined shards while any
    /// healthy shard remains; with none left, placement proceeds anyway and
    /// the load job lands on the digital fallback path.
    pub(crate) fn place(
        &mut self,
        placement: Placement,
        rows: usize,
        cols: usize,
        matrix: Arc<Matrix>,
        mapping: TileMapping,
    ) -> Result<(OperatorHandle, usize), RuntimeError> {
        let shards = self.live_per_shard.len();
        let healthy: Vec<usize> = (0..shards).filter(|&s| !self.quarantined[s]).collect();
        let pool: Vec<usize> = if healthy.is_empty() { (0..shards).collect() } else { healthy };
        let shard = match placement {
            Placement::LeastLoaded => pool
                .iter()
                .copied()
                .min_by_key(|&s| self.live_per_shard[s])
                .expect("runtime has at least one shard"),
            Placement::RoundRobin => {
                let s = pool[self.rr_next % pool.len()];
                self.rr_next = self.rr_next.wrapping_add(1);
                s
            }
            Placement::Pinned(s) => {
                if s >= shards {
                    return Err(RuntimeError::BadShard { shard: s, shards });
                }
                s
            }
        };
        self.live_per_shard[shard] += 1;
        let handle = OperatorHandle(self.entries.len());
        self.entries.push(Entry { shard, rows, cols, matrix, mapping, state: EntryState::Pending });
        Ok((handle, shard))
    }

    fn entry_mut(&mut self, handle: OperatorHandle) -> Result<&mut Entry, RuntimeError> {
        self.entries.get_mut(handle.0).ok_or(RuntimeError::InvalidHandle)
    }

    fn entry(&self, handle: OperatorHandle) -> Result<&Entry, RuntimeError> {
        self.entries.get(handle.0).ok_or(RuntimeError::InvalidHandle)
    }

    /// Marks a `Pending` entry live after its load executed (or free-queued
    /// when the free was already pipelined behind the load).
    pub(crate) fn fulfill(&mut self, handle: OperatorHandle, id: OperatorId) {
        let entry = self.entry_mut(handle).expect("fulfilling an allocated entry");
        entry.state = match entry.state {
            EntryState::Pending => EntryState::Live(id),
            EntryState::PendingFreeQueued => EntryState::FreeQueued(id),
            state => unreachable!("fulfilling a load in state {state:?}"),
        };
    }

    /// Marks a `Pending` entry live on the digital fallback path (its load
    /// targeted a quarantined shard).
    pub(crate) fn fulfill_digital(&mut self, handle: OperatorHandle) {
        let entry = self.entry_mut(handle).expect("fulfilling an allocated entry");
        entry.state = match entry.state {
            EntryState::Pending => EntryState::LiveDigital,
            EntryState::PendingFreeQueued => EntryState::FreeQueuedDigital,
            state => unreachable!("fulfilling a load in state {state:?}"),
        };
    }

    /// Retires an entry whose load failed.
    pub(crate) fn abandon(&mut self, handle: OperatorHandle) {
        let (shard, state) = {
            let entry = self.entry_mut(handle).expect("abandoning an allocated entry");
            (entry.shard, std::mem::replace(&mut entry.state, EntryState::Dead))
        };
        if state != EntryState::Dead {
            self.live_per_shard[shard] = self.live_per_shard[shard].saturating_sub(1);
        }
    }

    /// Shard an operator lives (or will live) on, with its shape `(shard,
    /// rows, cols)` for checking inputs at submission — usable while the
    /// load is still queued, which is what lets follow-up jobs enqueue
    /// behind it. Free-queued handles are rejected: the handle is dead to
    /// further submissions the moment its free is accepted.
    pub(crate) fn submission_target(
        &self,
        handle: OperatorHandle,
    ) -> Result<(usize, usize, usize), RuntimeError> {
        let entry = self.entry(handle)?;
        match entry.state {
            EntryState::PendingFreeQueued
            | EntryState::FreeQueued(_)
            | EntryState::FreeQueuedDigital
            | EntryState::Dead => Err(RuntimeError::InvalidHandle),
            EntryState::Pending | EntryState::Live(_) | EntryState::LiveDigital => {
                Ok((entry.shard, entry.rows, entry.cols))
            }
        }
    }

    /// Where a compute job finds this operator right now. `Pending` states
    /// are unreachable for the job's home shard — tickets order the load
    /// first — but a job re-dispatched after migration may observe them on
    /// another shard's timeline, so they map to `InvalidHandle` rather
    /// than panicking.
    pub(crate) fn exec_target(&self, handle: OperatorHandle) -> Result<ExecTarget, RuntimeError> {
        let entry = self.entry(handle)?;
        match entry.state {
            EntryState::Live(id) | EntryState::FreeQueued(id) => {
                Ok(ExecTarget::Analog { shard: entry.shard, id })
            }
            EntryState::LiveDigital | EntryState::FreeQueuedDigital => {
                Ok(ExecTarget::Digital(entry.matrix.clone()))
            }
            EntryState::Pending | EntryState::PendingFreeQueued | EntryState::Dead => {
                Err(RuntimeError::InvalidHandle)
            }
        }
    }

    /// Marks the handle free-queued at submission so a second free is
    /// rejected immediately. A still-pending load is fine — the free job
    /// enqueues behind it (fully pipelined lifecycle).
    pub(crate) fn queue_free(&mut self, handle: OperatorHandle) -> Result<usize, RuntimeError> {
        let entry = self.entry_mut(handle)?;
        match entry.state {
            EntryState::Live(id) => {
                entry.state = EntryState::FreeQueued(id);
                Ok(entry.shard)
            }
            EntryState::LiveDigital => {
                entry.state = EntryState::FreeQueuedDigital;
                Ok(entry.shard)
            }
            EntryState::Pending => {
                entry.state = EntryState::PendingFreeQueued;
                Ok(entry.shard)
            }
            EntryState::PendingFreeQueued
            | EntryState::FreeQueued(_)
            | EntryState::FreeQueuedDigital
            | EntryState::Dead => Err(RuntimeError::DoubleFree),
        }
    }

    /// Retires a free-queued entry when its free job executes on
    /// `executing_shard`; tells the job what to release, or where to
    /// re-enqueue itself if the operator migrated after the free enqueued.
    pub(crate) fn retire_on(
        &mut self,
        handle: OperatorHandle,
        executing_shard: usize,
    ) -> Result<FreeTarget, RuntimeError> {
        let (shard, target) = {
            let entry = self.entry_mut(handle)?;
            match entry.state {
                EntryState::FreeQueued(id) if entry.shard == executing_shard => {
                    entry.state = EntryState::Dead;
                    (entry.shard, FreeTarget::Local(Some(id)))
                }
                EntryState::FreeQueued(_) => return Ok(FreeTarget::Moved(entry.shard)),
                EntryState::FreeQueuedDigital => {
                    entry.state = EntryState::Dead;
                    (entry.shard, FreeTarget::Local(None))
                }
                _ => return Err(RuntimeError::InvalidHandle),
            }
        };
        self.live_per_shard[shard] = self.live_per_shard[shard].saturating_sub(1);
        Ok(target)
    }

    /// Live-operator count per shard (placement heuristic + introspection).
    pub(crate) fn live_per_shard(&self) -> &[usize] {
        &self.live_per_shard
    }

    // ── quarantine and migration ──────────────────────────────────────

    /// Quarantines `shard`; returns `false` if it already was.
    pub(crate) fn quarantine(&mut self, shard: usize) -> bool {
        !std::mem::replace(&mut self.quarantined[shard], true)
    }

    /// Whether `shard` is quarantined.
    pub(crate) fn is_quarantined(&self, shard: usize) -> bool {
        self.quarantined[shard]
    }

    /// Quarantined shard indices.
    pub(crate) fn quarantined_shards(&self) -> Vec<usize> {
        (0..self.quarantined.len()).filter(|&s| self.quarantined[s]).collect()
    }

    /// Analog operators currently on `shard` (live or free-queued — a
    /// free-queued operator still occupies planes the migration must move
    /// or release).
    pub(crate) fn analog_ops_on(&self, shard: usize) -> Vec<(OperatorHandle, OperatorId)> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.shard == shard)
            .filter_map(|(i, e)| match e.state {
                EntryState::Live(id) | EntryState::FreeQueued(id) => Some((OperatorHandle(i), id)),
                _ => None,
            })
            .collect()
    }

    /// The operator's matrix and mapping, for re-programming or digital
    /// fallback.
    pub(crate) fn matrix_and_mapping(
        &self,
        handle: OperatorHandle,
    ) -> Result<(Arc<Matrix>, TileMapping), RuntimeError> {
        self.entry(handle).map(|e| (e.matrix.clone(), e.mapping))
    }

    /// The healthy shard with the fewest live operators — where migrating
    /// operators go. `None` when every shard is quarantined.
    pub(crate) fn migration_target(&self) -> Option<usize> {
        (0..self.live_per_shard.len())
            .filter(|&s| !self.quarantined[s])
            .min_by_key(|&s| self.live_per_shard[s])
    }

    /// Rewrites a live/free-queued analog entry to its new home after
    /// migration, keeping the per-shard live counts consistent.
    pub(crate) fn relocate(
        &mut self,
        handle: OperatorHandle,
        new_shard: usize,
        new_id: OperatorId,
    ) {
        let old_shard = {
            let entry = self.entry_mut(handle).expect("relocating an allocated entry");
            let old = entry.shard;
            entry.state = match entry.state {
                EntryState::Live(_) => EntryState::Live(new_id),
                EntryState::FreeQueued(_) => EntryState::FreeQueued(new_id),
                state => unreachable!("relocating an operator in state {state:?}"),
            };
            entry.shard = new_shard;
            old
        };
        self.live_per_shard[old_shard] = self.live_per_shard[old_shard].saturating_sub(1);
        self.live_per_shard[new_shard] += 1;
    }

    /// Demotes a live/free-queued analog entry to the digital fallback
    /// path; returns the local id its old shard must release.
    pub(crate) fn demote_to_digital(&mut self, handle: OperatorHandle) -> Option<OperatorId> {
        let entry = self.entry_mut(handle).expect("demoting an allocated entry");
        match entry.state {
            EntryState::Live(id) => {
                entry.state = EntryState::LiveDigital;
                Some(id)
            }
            EntryState::FreeQueued(id) => {
                entry.state = EntryState::FreeQueuedDigital;
                Some(id)
            }
            _ => None,
        }
    }
}
