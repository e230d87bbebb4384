//! Closed- and open-loop load generators for the serving observatory.
//!
//! Both generators hammer one loaded operator on a live
//! [`RuntimeServer`](gramc_runtime::RuntimeServer) with single-request MVM
//! batches (`submit_mvm_batch` with one vector — one job per request, so
//! per-request latency is well defined) and record end-to-end
//! `submit → wait` latency into a shared
//! [`LatencyHistogram`]:
//!
//! * **Closed loop** ([`closed_loop`]): `clients` threads each run
//!   submit→wait back-to-back until the deadline. Offered load adapts to
//!   service rate, so this measures *sustained throughput* and latency
//!   under a fixed concurrency level.
//! * **Open loop** ([`open_loop`]): a pacer thread submits at a fixed
//!   arrival rate regardless of completions (the queue absorbs bursts;
//!   admission control rejects past the bound) while waiter threads retire
//!   handles. This is the coordinated-omission-free view: latency at an
//!   *offered* rate, plus the rejection rate once the queue saturates.
//!   Sweeping the rate locates the saturation knee.
//!
//! [`LoadReport::sample`] converts a run into a [`timing::Sample`](crate::timing::Sample) row for
//! `BENCH_kernels.json`; [`LoadReport::meta`] yields the latency/throughput
//! key-value pairs (p50/p99/p999, throughput, rejection rate) for the
//! report's `meta` block.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use gramc_runtime::{JobHandle, OperatorHandle, Runtime, RuntimeError};
use gramc_telemetry::{HistogramSnapshot, LatencyHistogram};

use crate::timing::Sample;

/// Outcome of one load-generation run at one concurrency level (closed
/// loop) or one arrival rate (open loop).
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Row name, e.g. `serving_closed_c4` or `serving_open_2000rps`.
    pub name: String,
    /// Requests that completed (waited to success) inside the window.
    pub completed: u64,
    /// Requests rejected by admission control
    /// ([`RuntimeError::QueueFull`]).
    pub rejected: u64,
    /// Wall-clock measurement window in seconds.
    pub elapsed_s: f64,
    /// End-to-end submit→wait latency distribution.
    pub latency: HistogramSnapshot,
}

impl LoadReport {
    /// Sustained throughput in requests per second.
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.completed as f64 / self.elapsed_s
        } else {
            0.0
        }
    }

    /// Fraction of submissions rejected by admission control.
    pub fn rejection_rate(&self) -> f64 {
        let offered = self.completed + self.rejected;
        if offered > 0 {
            self.rejected as f64 / offered as f64
        } else {
            0.0
        }
    }

    /// This run as a `BENCH_kernels.json` row: `iters` is completed
    /// requests, `mean_ns` the mean latency and `min_ns` the p50 estimate
    /// (a robust "typical request" floor for regression checks).
    pub fn sample(&self) -> Sample {
        Sample {
            name: self.name.clone(),
            iters: self.completed.max(1),
            mean_ns: self.latency.mean_ns(),
            min_ns: self.latency.p50_ns() as f64,
        }
    }

    /// Latency/throughput metadata rows (`<name>_p50_us`, …) for the
    /// report's `meta` block.
    pub fn meta(&self) -> Vec<(String, String)> {
        let us = |ns: u64| format!("{:.1}", ns as f64 / 1e3);
        vec![
            (format!("{}_p50_us", self.name), us(self.latency.p50_ns())),
            (format!("{}_p99_us", self.name), us(self.latency.p99_ns())),
            (format!("{}_p999_us", self.name), us(self.latency.p999_ns())),
            (format!("{}_throughput_rps", self.name), format!("{:.0}", self.throughput_rps())),
            (format!("{}_completed", self.name), format!("{}", self.completed)),
            (format!("{}_rejected", self.name), format!("{}", self.rejected)),
            (format!("{}_rejection_rate", self.name), format!("{:.4}", self.rejection_rate())),
        ]
    }
}

/// One submit→wait round trip, recorded into `hist` on success.
///
/// Returns `Ok(true)` on completion, `Ok(false)` on a
/// [`RuntimeError::QueueFull`] rejection, and any other error verbatim
/// (load generation treats those as fatal harness bugs).
fn one_request(
    rt: &Runtime,
    op: OperatorHandle,
    x: &[f64],
    hist: &LatencyHistogram,
) -> Result<bool, RuntimeError> {
    let t0 = Instant::now();
    match rt.submit_mvm_batch(op, vec![x.to_vec()]) {
        Ok(handle) => {
            handle.wait()?;
            hist.record_ns(t0.elapsed().as_nanos() as u64);
            Ok(true)
        }
        Err(RuntimeError::QueueFull { .. }) => Ok(false),
        Err(e) => Err(e),
    }
}

/// Closed-loop run: `clients` threads submit-and-wait back-to-back against
/// `op` for `duration`. The runtime must already have a live
/// [`RuntimeServer`](gramc_runtime::RuntimeServer) attached — nothing here
/// drains queues.
///
/// # Panics
///
/// Panics if a request fails with anything other than queue rejection
/// (harness misuse: dead handle, non-finite input, …).
pub fn closed_loop(
    rt: &Arc<Runtime>,
    op: OperatorHandle,
    x: &[f64],
    clients: usize,
    duration: Duration,
) -> LoadReport {
    let hist = LatencyHistogram::new();
    let rejected = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let (rt, hist, rejected) = (Arc::clone(rt), &hist, &rejected);
            scope.spawn(move || {
                while started.elapsed() < duration {
                    match one_request(&rt, op, x, hist) {
                        Ok(true) => {}
                        Ok(false) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                            // Closed-loop clients back off briefly on
                            // rejection instead of hot-spinning the
                            // admission check.
                            std::thread::sleep(Duration::from_micros(50));
                        }
                        Err(e) => panic!("closed-loop request failed: {e}"),
                    }
                }
            });
        }
    });
    let latency = hist.snapshot();
    LoadReport {
        name: format!("serving_closed_c{clients}"),
        completed: latency.count,
        rejected: rejected.load(Ordering::Relaxed),
        elapsed_s: started.elapsed().as_secs_f64(),
        latency,
    }
}

/// Open-loop run: a pacer thread submits at `rate_rps` fixed arrival rate
/// for `duration` while `waiters` threads retire the handles. Rejections
/// ([`RuntimeError::QueueFull`]) count against the offered load without
/// slowing the pacer. After the window closes, in-flight requests are
/// drained (and still recorded) so the tail is not censored.
///
/// # Panics
///
/// Panics if submission or wait fails with anything other than queue
/// rejection.
pub fn open_loop(
    rt: &Arc<Runtime>,
    op: OperatorHandle,
    x: &[f64],
    rate_rps: f64,
    duration: Duration,
    waiters: usize,
) -> LoadReport {
    assert!(rate_rps > 0.0, "open_loop needs a positive arrival rate");
    let period = Duration::from_secs_f64(1.0 / rate_rps);
    let hist = LatencyHistogram::new();
    let rejected = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<(Instant, JobHandle)>();
    let rx = Mutex::new(rx);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..waiters.max(1) {
            let (rx, hist) = (&rx, &hist);
            scope.spawn(move || loop {
                // Hold the receiver lock only for the dequeue: waits run
                // unlocked so slow jobs don't serialize the pool.
                let next = rx.lock().expect("waiter lock").recv();
                match next {
                    Ok((t0, handle)) => {
                        handle.wait().expect("open-loop request failed");
                        hist.record_ns(t0.elapsed().as_nanos() as u64);
                    }
                    Err(_) => return, // pacer hung up: window over
                }
            });
        }
        // Pacer: submit on the fixed schedule; never block on completions.
        let mut next_tick = started;
        while started.elapsed() < duration {
            let t0 = Instant::now();
            match rt.submit_mvm_batch(op, vec![x.to_vec()]) {
                Ok(handle) => tx.send((t0, handle)).expect("waiter pool alive"),
                Err(RuntimeError::QueueFull { .. }) => {
                    rejected.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => panic!("open-loop submit failed: {e}"),
            }
            next_tick += period;
            let now = Instant::now();
            if next_tick > now {
                std::thread::sleep(next_tick - now);
            }
            // Behind schedule: submit immediately (no catch-up burst —
            // a saturated host degrades toward closed-loop pacing).
        }
        drop(tx); // waiters drain in-flight handles, then exit
    });
    let latency = hist.snapshot();
    LoadReport {
        name: format!("serving_open_{}rps", rate_rps.round() as u64),
        completed: latency.count,
        rejected: rejected.load(Ordering::Relaxed),
        elapsed_s: started.elapsed().as_secs_f64(),
        latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gramc_core::tiling::TileMapping;
    use gramc_core::MacroConfig;
    use gramc_linalg::Matrix;
    use gramc_runtime::{Placement, RuntimeServer};

    fn serving_fixture() -> (Arc<Runtime>, RuntimeServer, OperatorHandle) {
        let rt = Arc::new(Runtime::new(2, 2, MacroConfig::small_ideal(8), 11));
        let server = RuntimeServer::start(rt.clone());
        let a = Matrix::identity(8);
        let (op, loaded) =
            rt.submit_load(&a, TileMapping::FourBit, Placement::LeastLoaded).expect("load");
        loaded.wait().expect("load completes");
        (rt, server, op)
    }

    #[test]
    fn closed_loop_completes_requests_and_reports() {
        let (rt, server, op) = serving_fixture();
        let x = vec![1.0; 8];
        let report = closed_loop(&rt, op, &x, 2, Duration::from_millis(120));
        assert!(report.completed > 0, "no requests completed");
        assert_eq!(report.completed, report.latency.count);
        assert!(report.throughput_rps() > 0.0);
        let sample = report.sample();
        assert_eq!(sample.name, "serving_closed_c2");
        assert!(sample.mean_ns > 0.0);
        let meta = report.meta();
        assert!(meta.iter().any(|(k, _)| k.ends_with("_p999_us")));
        server.shutdown();
    }

    #[test]
    fn open_loop_holds_the_arrival_schedule() {
        let (rt, server, op) = serving_fixture();
        let x = vec![0.5; 8];
        let report = open_loop(&rt, op, &x, 200.0, Duration::from_millis(200), 2);
        // 200 rps over 200 ms ≈ 40 arrivals; allow wide slack for CI jitter
        // but require the pacer actually paced (i.e. did not burst-submit
        // thousands or stall at zero).
        let offered = report.completed + report.rejected;
        assert!((5..=120).contains(&(offered as usize)), "offered {offered} arrivals");
        assert!(report.completed > 0);
        server.shutdown();
    }
}
