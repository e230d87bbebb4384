//! Persistent serving front-end: always-on worker threads over a
//! [`Runtime`], parked between submissions, plus the live metrics reporter
//! that streams [`MetricsSnapshot`](crate::MetricsSnapshot) JSONL while the
//! server runs.
//!
//! [`Runtime::run_all`] is a *batch* drain — it spins workers up (unless
//! the thread budget is 1, when the caller drains alone), empties the
//! queues and tears them down, so a caller pays thread start-up and no
//! submission completes until somebody drains. [`RuntimeServer`] inverts
//! that: one thread per shard runs for the server's whole lifetime,
//! executing jobs the moment they are due and parking on a condvar when the
//! queues run dry. `submit_* → JobHandle::wait` then behaves like a real
//! service call: no global drain, first-come completion, bounded queues
//! with typed rejection when admission control is on
//! ([`Runtime::with_queue_limit`]).

use std::sync::Arc;
use std::thread::JoinHandle;

use crate::runtime::Runtime;

/// What one [`RuntimeServer`] lifetime did, returned by
/// [`shutdown`](RuntimeServer::shutdown).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// Worker threads the server ran (one per shard).
    pub workers: usize,
    /// Workers that died to a panicking job body instead of exiting
    /// cleanly. Waiters on the panicked job saw
    /// [`RuntimeError::JobPanicked`](crate::RuntimeError::JobPanicked);
    /// the remaining workers kept serving.
    pub panicked_workers: usize,
    /// Jobs retired across the server's lifetime.
    pub jobs_executed: usize,
}

/// Always-on serving engine: persistent worker threads over an
/// [`Arc<Runtime>`].
///
/// Workers are spawned by [`start`](Self::start) (one per shard, same
/// ticket discipline as [`Runtime::run_all`], so results stay bit-identical
/// under fixed seeds and pinned placement) and run until
/// [`shutdown`](Self::shutdown), which drains in-flight work before
/// joining. Between submissions workers park on a condvar; any `submit_*`
/// wakes them.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use gramc_core::tiling::TileMapping;
/// use gramc_core::MacroConfig;
/// use gramc_linalg::Matrix;
/// use gramc_runtime::{Placement, Runtime, RuntimeServer};
///
/// # fn main() -> Result<(), gramc_runtime::RuntimeError> {
/// let rt = Arc::new(Runtime::new(2, 2, MacroConfig::small_ideal(4), 7));
/// let server = RuntimeServer::start(rt.clone());
/// let a = Matrix::from_rows(&[&[1.0, -0.5], &[0.25, 0.75]]);
/// let (op, loaded) = rt.submit_load(&a, TileMapping::FourBit, Placement::LeastLoaded)?;
/// loaded.wait()?; // no run_all: the server completes it
/// let y = rt.submit_mvm(op, vec![1.0, 2.0])?.wait_vector()?;
/// assert!((y[0] - 0.0).abs() < 0.05);
/// let report = server.shutdown();
/// assert_eq!(report.panicked_workers, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RuntimeServer {
    rt: Arc<Runtime>,
    workers: Vec<JoinHandle<()>>,
    executed_at_start: usize,
}

impl RuntimeServer {
    /// Spawns one persistent worker per shard and marks the runtime served
    /// (submissions start waking the park condvar). Jobs already queued are
    /// picked up immediately.
    pub fn start(rt: Arc<Runtime>) -> Self {
        let executed_at_start = rt.executed_total();
        rt.begin_serving();
        let workers = (0..rt.shard_count())
            .map(|w| {
                let rt = rt.clone();
                std::thread::Builder::new()
                    .name(format!("gramc-serve-{w}"))
                    .spawn(move || rt.serve_loop(w))
                    .expect("spawning a serving worker")
            })
            .collect();
        Self { rt, workers, executed_at_start }
    }

    /// The served runtime.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.rt
    }

    /// Graceful shutdown: raises the stop flag, wakes every parked worker,
    /// and joins them. Workers finish draining the queues first, so every
    /// job submitted before this call still completes and its waiters are
    /// answered. Blocks until all workers have exited.
    pub fn shutdown(self) -> ServeReport {
        self.rt.signal_shutdown();
        let workers = self.workers.len();
        let mut panicked_workers = 0;
        for handle in self.workers {
            if handle.join().is_err() {
                panicked_workers += 1;
            }
        }
        self.rt.end_serving();
        ServeReport {
            workers,
            panicked_workers,
            jobs_executed: self.rt.executed_total() - self.executed_at_start,
        }
    }
}

/// Background thread that periodically appends one
/// [`MetricsSnapshot`](crate::MetricsSnapshot) JSONL record to a file while
/// a server runs — the live metrics stream of a serving deployment. One
/// line per tick (compact JSON, schema-versioned); a final snapshot is
/// always written at [`stop`](Self::stop) so short runs still record their
/// end state.
#[derive(Debug)]
pub struct MetricsReporter {
    stop: Arc<std::sync::atomic::AtomicBool>,
    thread: JoinHandle<std::io::Result<usize>>,
}

impl MetricsReporter {
    /// Starts snapshotting `rt` every `interval` into the JSONL file at
    /// `path` (created or truncated).
    ///
    /// # Errors
    ///
    /// I/O errors creating the file.
    pub fn start(
        rt: Arc<Runtime>,
        path: &std::path::Path,
        interval: std::time::Duration,
    ) -> std::io::Result<Self> {
        use std::io::Write as _;
        let file = std::fs::File::create(path)?;
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop_flag = stop.clone();
        let thread = std::thread::Builder::new().name("gramc-metrics".into()).spawn(
            move || -> std::io::Result<usize> {
                let mut out = std::io::BufWriter::new(file);
                let mut lines = 0usize;
                loop {
                    let stopping = stop_flag.load(std::sync::atomic::Ordering::SeqCst);
                    out.write_all(rt.metrics_snapshot().to_jsonl_line().as_bytes())?;
                    out.flush()?;
                    lines += 1;
                    if stopping {
                        return Ok(lines);
                    }
                    std::thread::sleep(interval);
                }
            },
        )?;
        Ok(Self { stop, thread })
    }

    /// Stops the reporter after one final snapshot and returns the number
    /// of JSONL records written.
    ///
    /// # Errors
    ///
    /// I/O errors from the reporter thread; a panicked reporter surfaces as
    /// [`std::io::ErrorKind::Other`].
    pub fn stop(self) -> std::io::Result<usize> {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        self.thread.join().map_err(|_| std::io::Error::other("metrics reporter panicked"))?
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use gramc_core::tiling::TileMapping;
    use gramc_core::MacroConfig;
    use gramc_linalg::Matrix;

    use super::*;
    use crate::Placement;

    /// 1,000 park → submit → wake cycles: each job is submitted only once
    /// the lone worker has gone to sleep. Workers park without a timeout,
    /// so a lost wakeup leaves the job queued and its one-second wait fails
    /// instead of hanging the suite; a worker that never parks again fails
    /// the same way.
    #[test]
    fn parked_worker_wakes_for_every_submission() {
        let rt = Arc::new(Runtime::new(1, 2, MacroConfig::small_ideal(4), 3));
        let server = RuntimeServer::start(rt.clone());
        let a = Matrix::from_rows(&[&[1.0, -0.5], &[0.25, 0.75]]);
        let (op, loaded) =
            rt.submit_load(&a, TileMapping::FourBit, Placement::Pinned(0)).expect("load");
        let second = Duration::from_secs(1);
        loaded.wait_timeout(second).expect("the load is served");
        let mut parks = 0;
        for cycle in 0..1000 {
            let deadline = Instant::now() + second;
            while rt.parks() == parks {
                assert!(Instant::now() < deadline, "cycle {cycle}: the worker never parked");
                std::thread::yield_now();
            }
            parks = rt.parks();
            let job = rt.submit_mvm(op, vec![1.0, 2.0]).expect("submit");
            if let Err(e) = job.wait_timeout(second) {
                panic!("cycle {cycle}: the parked worker never served the job: {e:?}");
            }
        }
        let report = server.shutdown();
        assert_eq!(report.jobs_executed, 1001, "the load and every MVM ran once");
    }
}
