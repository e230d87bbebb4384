//! # gramc-bench
//!
//! Benchmark harness and figure-regeneration binaries for the GRAMC
//! reproduction. Each figure of the paper has a binary that prints the
//! series/rows the paper plots:
//!
//! * `fig1_write_verify` — SET/RESET level-vs-pulse staircases (Fig. 1b/1c),
//! * `fig4_validation` — MVM/INV/PINV/EGV scatter + relative errors (Fig. 4),
//! * `fig5_lenet` — LeNet-5 accuracy at INT4/INT8/FP32 (Fig. 5),
//! * `ablation_nonideal` — per-error-source sensitivity sweeps,
//! * `scaling_model` — analog-vs-digital latency/energy model (supplemental).
//!
//! The `bench_kernels` binary times the kernels with [`timing`] (criterion
//! is unavailable offline) and writes the repo-root `BENCH_kernels.json`
//! perf baseline.

#![warn(missing_docs)]

pub mod json;
pub mod loadgen;
pub mod timing;

use gramc_linalg::vector;

/// Formats an `(ideal, measured)` scatter series as aligned text rows,
/// with a summary relative-error line — the textual equivalent of the
/// paper's Fig. 4 panels.
pub fn format_scatter(name: &str, ideal: &[f64], measured: &[f64], max_rows: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {name}\n"));
    out.push_str(&format!("{:>14} {:>14}\n", "ideal", "analog"));
    for (i, (a, b)) in ideal.iter().zip(measured).enumerate() {
        if i >= max_rows {
            out.push_str(&format!("  … ({} more rows)\n", ideal.len() - max_rows));
            break;
        }
        out.push_str(&format!("{a:>14.6} {b:>14.6}\n"));
    }
    out.push_str(&format!(
        "relative error ‖analog − ideal‖/‖ideal‖ = {:.2} %\n",
        100.0 * vector::rel_error(measured, ideal)
    ));
    out
}

/// Pearson correlation between two equal-length series (scatter tightness).
pub fn correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum::<f64>() / n;
    let sa = (a.iter().map(|x| (x - ma) * (x - ma)).sum::<f64>() / n).sqrt();
    let sb = (b.iter().map(|x| (x - mb) * (x - mb)).sum::<f64>() / n).sqrt();
    if sa == 0.0 || sb == 0.0 {
        0.0
    } else {
        cov / (sa * sb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_format_contains_summary() {
        let s = format_scatter("test", &[1.0, 2.0], &[1.1, 1.9], 10);
        assert!(s.contains("relative error"));
        assert!(s.contains("test"));
    }

    #[test]
    fn correlation_of_identical_series_is_one() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert!((correlation(&a, &a) - 1.0).abs() < 1e-12);
        let b = [4.0, 3.0, 2.0, 1.0];
        assert!((correlation(&a, &b) + 1.0).abs() < 1e-12);
    }
}
