//! Minimal self-calibrating timing harness and JSON report writer.
//!
//! The build environment has no crates.io access, so the kernel timers are
//! plain `harness = false` bench binaries built on this module instead of
//! criterion: warm-up, iteration-count calibration to a target wall time,
//! then mean/min statistics over batched runs.

use std::fmt::Write as _;
use std::time::Instant;

/// Statistics for one timed kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Kernel label (e.g. `matmul_512`).
    pub name: String,
    /// Total iterations measured (across all batches).
    pub iters: u64,
    /// Mean wall time per iteration in nanoseconds.
    pub mean_ns: f64,
    /// Fastest single batch, per iteration, in nanoseconds.
    pub min_ns: f64,
}

impl Sample {
    /// Mean wall time per iteration in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.mean_ns / 1e6
    }
}

/// Times `f`, auto-calibrating the iteration count so the measurement phase
/// takes roughly `target_ms` milliseconds (min 1 iteration, max `max_iters`).
///
/// Returns per-iteration statistics. The closure's return value is consumed
/// with [`std::hint::black_box`] so the optimizer cannot elide the kernel.
pub fn time<T, F: FnMut() -> T>(name: &str, target_ms: f64, max_iters: u64, mut f: F) -> Sample {
    // Warm-up + calibration probe.
    let t0 = Instant::now();
    std::hint::black_box(f());
    let probe = t0.elapsed().as_secs_f64().max(1e-9);

    let budget = target_ms / 1e3;
    let iters = ((budget / probe).ceil() as u64).clamp(1, max_iters);
    // Split into up to 5 batches so `min_ns` has some resolution.
    let batches = iters.min(5);
    let per_batch = iters.div_ceil(batches);

    let mut total = 0.0;
    let mut done = 0u64;
    let mut min_per_iter = f64::INFINITY;
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..per_batch {
            std::hint::black_box(f());
        }
        let dt = t.elapsed().as_secs_f64();
        total += dt;
        done += per_batch;
        min_per_iter = min_per_iter.min(dt / per_batch as f64);
    }
    Sample {
        name: name.to_string(),
        iters: done,
        mean_ns: total / done as f64 * 1e9,
        min_ns: min_per_iter * 1e9,
    }
}

/// Collects samples and prints them as an aligned table.
#[derive(Debug, Default)]
pub struct Reporter {
    samples: Vec<Sample>,
}

impl Reporter {
    /// Empty reporter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Times `f` (see [`time`]) and records + prints the sample.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, f: F) -> &Sample {
        let s = time(name, 300.0, 1_000_000, f);
        println!(
            "{:<44} {:>12.3} ms/iter  ({} iters, min {:.3} ms)",
            s.name,
            s.mean_ms(),
            s.iters,
            s.min_ns / 1e6
        );
        self.samples.push(s);
        self.samples.last().expect("just pushed")
    }

    /// All recorded samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Mean time of a recorded sample in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `name` was never benched.
    pub fn mean_ms(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no sample named {name}"))
            .mean_ms()
    }
}

/// Serializes samples (plus free-form metadata) as a JSON document.
///
/// Hand-rolled because serde is unavailable offline; the output is plain
/// `{"meta": {...}, "kernels": {name: {mean_ms, min_ms, iters}}}`.
pub fn to_json(meta: &[(&str, String)], samples: &[Sample]) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut out = String::from("{\n  \"meta\": {\n");
    for (i, (k, v)) in meta.iter().enumerate() {
        let comma = if i + 1 < meta.len() { "," } else { "" };
        // Numbers pass through unquoted; everything else is a string.
        if v.parse::<f64>().is_ok() {
            let _ = writeln!(out, "    \"{}\": {}{}", esc(k), v, comma);
        } else {
            let _ = writeln!(out, "    \"{}\": \"{}\"{}", esc(k), esc(v), comma);
        }
    }
    out.push_str("  },\n  \"kernels\": {\n");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 < samples.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    \"{}\": {{\"mean_ms\": {:.6}, \"min_ms\": {:.6}, \"iters\": {}}}{}",
            esc(&s.name),
            s.mean_ns / 1e6,
            s.min_ns / 1e6,
            s.iters,
            comma
        );
    }
    out.push_str("  }\n}\n");
    out
}

/// Reads one kernel's `mean_ms` back out of a [`to_json`]-shaped document.
///
/// Hand-rolled for the same offline reason as the writer; tolerant of
/// surrounding whitespace and key order. Returns `None` when the kernel is
/// absent or the number is malformed — callers treat that as "no baseline".
pub fn read_mean_ms(json: &str, kernel: &str) -> Option<f64> {
    let key = format!("\"{kernel}\":");
    let rest = &json[json.find(&key)? + key.len()..];
    let rest = &rest[rest.find("\"mean_ms\":")? + "\"mean_ms\":".len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_returns_positive_stats() {
        let s = time("noop_sum", 5.0, 10_000, || (0..100u64).sum::<u64>());
        assert!(s.mean_ns > 0.0);
        assert!(s.min_ns > 0.0);
        assert!(s.iters >= 1);
    }

    #[test]
    fn json_shape_is_wellformed() {
        let samples = vec![Sample { name: "k\"1".into(), iters: 3, mean_ns: 1.5e6, min_ns: 1.0e6 }];
        let j = to_json(&[("dim", "128".into()), ("host", "ci".into())], &samples);
        assert!(j.contains("\"dim\": 128"));
        assert!(j.contains("\"host\": \"ci\""));
        assert!(j.contains("\"k\\\"1\""));
        assert!(j.contains("\"mean_ms\": 1.500000"));
        // Balanced braces.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn read_mean_ms_round_trips_through_to_json() {
        let samples = vec![
            Sample { name: "matmul_512".into(), iters: 10, mean_ns: 37.5e6, min_ns: 34.0e6 },
            Sample { name: "lu".into(), iters: 3, mean_ns: 2.0e6, min_ns: 1.5e6 },
        ];
        let j = to_json(&[("bench", "x".into())], &samples);
        assert_eq!(read_mean_ms(&j, "matmul_512"), Some(37.5));
        assert_eq!(read_mean_ms(&j, "lu"), Some(2.0));
        assert_eq!(read_mean_ms(&j, "absent"), None);
        assert_eq!(read_mean_ms("not json", "matmul_512"), None);
    }

    #[test]
    fn reporter_lookup_by_name() {
        let mut r = Reporter::new();
        r.bench("tiny", || 1 + 1);
        assert!(r.mean_ms("tiny") >= 0.0);
        assert_eq!(r.samples().len(), 1);
    }
}
