//! Shared measurement machinery: closed-loop clients with exact latency
//! samples and inline answer checks, and runtime/hardware counter deltas
//! around a measured phase.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gramc_core::metrics::AnalogCostModel;
use gramc_runtime::{HwSnapshot, MetricsSnapshot, Runtime, RuntimeServer};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::SpanLog;

/// Exact-latency sample room reserved per client before a window starts
/// (a window's samples fit several times over).
const LATENCY_CAPACITY: usize = 1 << 18;
/// Span room reserved per client in a traced window.
const SPAN_CAPACITY: usize = 1 << 19;

/// A runtime under a persistent `RuntimeServer`, with the workload's
/// operator handles. Dropping it shuts the server down (draining the
/// queues and joining the workers), so no worker outlives its sub-run.
pub struct Served<T> {
    pub rt: Arc<Runtime>,
    pub ops: T,
    server: Option<RuntimeServer>,
}

impl<T> Served<T> {
    /// Starts serving `rt`; `load` then submits the operators and waits
    /// for them.
    pub fn start(
        rt: Runtime,
        load: impl FnOnce(&Runtime) -> Result<T, String>,
    ) -> Result<Self, String> {
        let rt = Arc::new(rt);
        let server = RuntimeServer::start(rt.clone());
        match load(&rt) {
            Ok(ops) => Ok(Self { rt, ops, server: Some(server) }),
            Err(e) => {
                server.shutdown();
                Err(e)
            }
        }
    }

    /// Shuts the server down; fails if a serving worker panicked.
    pub fn shutdown(mut self) -> Result<(), String> {
        match self.server.take().map(RuntimeServer::shutdown) {
            Some(r) if r.panicked_workers > 0 => Err("a serving worker panicked".into()),
            _ => Ok(()),
        }
    }
}

impl<T> Drop for Served<T> {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// CPU ticks stolen by the hypervisor, and all CPU ticks, from the line of
/// `/proc/stat` for the CPU the process is pinned to (the all-CPU `cpu`
/// line when unpinned; zeros where it cannot be read).
pub fn cpu_ticks() -> (u64, u64) {
    let label = crate::host::pinned_cpu().map_or_else(|| "cpu".to_string(), |c| format!("cpu{c}"));
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some(label.as_str()))
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of the host's CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// `‖got − want‖₂ / ‖want‖₂` (absolute error when `want` is zero).
pub fn rel_error(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    let (mut num, mut den) = (0.0, 0.0);
    for (g, w) in got.iter().zip(want) {
        num += (g - w) * (g - w);
        den += w * w;
    }
    if den == 0.0 {
        num.sqrt()
    } else {
        (num / den).sqrt()
    }
}

/// One client thread's view of a phase.
#[derive(Debug)]
pub struct ClientCtx {
    pub client: usize,
    pub rng: StdRng,
    pub lat_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// Ops completed with a correct answer (images on `lenet_stream`).
    pub ops: u64,
    pub rel_sum: f64,
    pub rel_n: u64,
    pub rel_max: f64,
    /// Ops per request kind (`solve_mix`: INV, PINV, MVM).
    pub kinds: [u64; 3],
    pub log: Option<SpanLog>,
    next_req: u64,
}

impl ClientCtx {
    pub fn new(client: usize, seed: u64, traced: bool) -> Self {
        Self {
            client,
            rng: StdRng::seed_from_u64(
                seed ^ (client as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407),
            ),
            lat_ns: Vec::with_capacity(LATENCY_CAPACITY),
            attempted: 0,
            failed: 0,
            wrong: 0,
            ops: 0,
            rel_sum: 0.0,
            rel_n: 0,
            rel_max: 0.0,
            kinds: [0; 3],
            log: traced.then(|| SpanLog::with_capacity(SPAN_CAPACITY)),
            next_req: 0,
        }
    }

    /// A request id unique across clients.
    pub fn req_id(&mut self) -> u64 {
        self.next_req += 1;
        ((self.client as u64) << 48) | self.next_req
    }

    /// Records one attempted op: its latency, and either its relative
    /// error against the digital reference or a failure. An answer whose
    /// error exceeds `tol` counts as wrong.
    pub fn finish(&mut self, lat_ns: u64, answer: Result<f64, ()>, tol: f64, weight: u64) {
        self.attempted += weight;
        match answer {
            Ok(err) => {
                self.lat_ns.push(lat_ns);
                self.rel_sum += err;
                self.rel_n += 1;
                self.rel_max = self.rel_max.max(err);
                if err.is_finite() && err <= tol {
                    self.ops += weight;
                } else {
                    self.wrong += weight;
                }
            }
            Err(()) => self.failed += weight,
        }
    }
}

/// Everything measured over one phase of a workload.
#[derive(Debug, Default)]
pub struct Phase {
    /// Whether spans were recorded.
    pub traced: bool,
    pub wall_s: f64,
    /// Share of the host's CPU time the hypervisor stole during the window.
    pub steal_frac: f64,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub ops: u64,
    pub lat_ns: Vec<u64>,
    pub rel_sum: f64,
    pub rel_n: u64,
    pub rel_max: f64,
    pub kinds: [u64; 3],
    pub logs: Vec<SpanLog>,
    pub rt: RtDelta,
}

impl Phase {
    pub fn throughput(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }

    /// Adds `other`'s counts, samples and counter deltas to this phase
    /// (spans stay with `other`).
    pub fn merge(&mut self, other: &Phase) {
        self.wall_s += other.wall_s;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.ops += other.ops;
        self.lat_ns.extend_from_slice(&other.lat_ns);
        self.rel_sum += other.rel_sum;
        self.rel_n += other.rel_n;
        self.rel_max = self.rel_max.max(other.rel_max);
        for (k, v) in self.kinds.iter_mut().zip(other.kinds) {
            *k += v;
        }
        self.rt.add(&other.rt);
    }

    pub fn absorb(&mut self, c: ClientCtx) {
        self.attempted += c.attempted;
        self.failed += c.failed;
        self.wrong += c.wrong;
        self.ops += c.ops;
        self.lat_ns.extend_from_slice(&c.lat_ns);
        self.rel_sum += c.rel_sum;
        self.rel_n += c.rel_n;
        self.rel_max = self.rel_max.max(c.rel_max);
        for (k, v) in self.kinds.iter_mut().zip(c.kinds) {
            *k += v;
        }
        if let Some(log) = c.log {
            self.logs.push(log);
        }
    }
}

/// Runs `clients` closed-loop client threads for `seconds`: each calls
/// `op` (which submits one request or a burst, waits for each and records
/// it through its [`ClientCtx`]) until the deadline passes. Runtime counters are
/// cut around the phase.
pub fn closed_loop<F>(
    rt: &Runtime,
    clients: usize,
    seconds: f64,
    seed: u64,
    traced: bool,
    op: F,
) -> Phase
where
    F: Fn(&mut ClientCtx) + Sync,
{
    let mut phase = Phase { traced, ..Phase::default() };
    let ctxs: Vec<ClientCtx> = (0..clients).map(|c| ClientCtx::new(c, seed, traced)).collect();
    let before = RtCut::take(rt);
    let ticks = cpu_ticks();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let done: Vec<ClientCtx> = std::thread::scope(|s| {
        let handles: Vec<_> = ctxs
            .into_iter()
            .map(|mut ctx| {
                let op = &op;
                s.spawn(move || {
                    while Instant::now() < deadline {
                        op(&mut ctx);
                    }
                    ctx
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.steal_frac = steal_frac(ticks, cpu_ticks());
    phase.rt = RtCut::take(rt).since(&before);
    for c in done {
        phase.absorb(c);
    }
    phase
}

/// Runs `f`, recording it as a span in `ctx`'s log when tracing.
pub fn span<R>(
    ctx: &mut ClientCtx,
    name: &'static str,
    req: u64,
    parent: u32,
    f: impl FnOnce() -> R,
) -> R {
    match ctx.log.as_mut() {
        Some(log) => log.time(name, req, parent, f),
        None => f(),
    }
}

/// A point-in-time cut of a runtime's serving metrics and of each shard's
/// hardware counters.
pub struct RtCut {
    snap: MetricsSnapshot,
    shard_hw: Vec<HwSnapshot>,
}

impl RtCut {
    pub fn take(rt: &Runtime) -> Self {
        let shard_hw = (0..rt.shard_count())
            .map(|s| rt.shard_group(s).expect("shard index in range").hw_snapshot())
            .collect();
        Self { snap: rt.metrics_snapshot(), shard_hw }
    }

    pub fn since(&self, before: &RtCut) -> RtDelta {
        let (a, b) = (&self.snap, &before.snap);
        let shard_sum = |f: fn(&gramc_runtime::ShardMetrics) -> u64| -> u64 {
            a.shards.iter().map(f).sum::<u64>() - b.shards.iter().map(f).sum::<u64>()
        };
        let requests = |s: &MetricsSnapshot| s.tenants.iter().map(|t| t.requests).sum::<u64>();
        let shard_hw: Vec<HwSnapshot> =
            self.shard_hw.iter().zip(&before.shard_hw).map(|(x, y)| x.since(y)).collect();
        let mut hw = HwSnapshot::default();
        for s in &shard_hw {
            hw += s;
        }
        let model = AnalogCostModel::default();
        RtDelta {
            queue_wait_ns: a.submit_to_dispatch.sum_ns - b.submit_to_dispatch.sum_ns,
            dispatches: a.dispatch_to_complete.count - b.dispatch_to_complete.count,
            exec_ns: a.dispatch_to_complete.sum_ns - b.dispatch_to_complete.sum_ns,
            requests: requests(a) - requests(b),
            steals: shard_sum(|s| s.steals),
            requeues: shard_sum(|s| s.requeues),
            busy_ns: shard_sum(|s| s.busy_ns),
            shards: a.shards.len(),
            journal_dropped: a.journal_overwritten - b.journal_overwritten,
            journal_len: a.journal_len as u64,
            sim_makespan_s: shard_hw.iter().map(|s| model.attribute(s).latency).fold(0.0, f64::max),
            sim_energy_j: model.attribute(&hw).energy,
            hw,
        }
    }
}

impl RtDelta {
    /// Accumulates a later phase's deltas. Phases run one after another,
    /// so their modeled times add.
    pub fn add(&mut self, o: &RtDelta) {
        self.queue_wait_ns += o.queue_wait_ns;
        self.dispatches += o.dispatches;
        self.exec_ns += o.exec_ns;
        self.requests += o.requests;
        self.steals += o.steals;
        self.requeues += o.requeues;
        self.busy_ns += o.busy_ns;
        self.shards = self.shards.max(o.shards);
        self.journal_dropped += o.journal_dropped;
        self.journal_len += o.journal_len;
        self.sim_makespan_s += o.sim_makespan_s;
        self.sim_energy_j += o.sim_energy_j;
        self.hw += &o.hw;
    }
}

/// Runtime and hardware counter deltas over a phase.
#[derive(Debug, Default, Clone)]
pub struct RtDelta {
    pub queue_wait_ns: u64,
    pub dispatches: u64,
    pub exec_ns: u64,
    pub requests: u64,
    pub steals: u64,
    pub requeues: u64,
    pub busy_ns: u64,
    pub shards: usize,
    pub journal_dropped: u64,
    pub journal_len: u64,
    /// Modeled analog time of the busiest shard (shards run in parallel).
    pub sim_makespan_s: f64,
    pub sim_energy_j: f64,
    pub hw: HwSnapshot,
}
