//! Exact latency statistics: every op's latency is kept as one sample and
//! percentiles come from the sorted samples (nearest-rank), never from
//! bucketed histograms.

/// Percentile ladder searched for the reported tail.
const TAIL_LADDER: [f64; 6] = [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999];

/// Samples a percentile must leave above it to count as resolved.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of ascending `sorted` samples: the smallest
/// sample with at least `q·n` samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `q` outside `(0, 1]`.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summary of one set of exact latency samples, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub count: usize,
    pub mean_ns: f64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// Highest ladder percentile with at least [`TAIL_MIN_BEYOND`] samples
    /// above its rank (0 when even the median has too few).
    pub tail_q: f64,
    pub tail_ns: u64,
    pub max_ns: u64,
}

impl Summary {
    /// Sorts `samples` in place and summarizes them (`None` when empty).
    pub fn of(samples: &mut [u64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let n = samples.len();
        let (tail_q, tail_ns) = TAIL_LADDER
            .iter()
            .rev()
            .find(|&&q| n - (q * n as f64).ceil() as usize >= TAIL_MIN_BEYOND)
            .map_or((0.0, 0), |&q| (q, quantile(samples, q)));
        Some(Self {
            count: n,
            mean_ns: samples.iter().map(|&s| s as f64).sum::<f64>() / n as f64,
            p50_ns: quantile(samples, 0.5),
            p99_ns: quantile(samples, 0.99),
            tail_q,
            tail_ns,
            max_ns: samples[n - 1],
        })
    }
}

/// Checks [`quantile`] against the rank definition on shuffled samples
/// with ties: the returned value must have at least `q·n` samples at or
/// below it and fewer than `q·n` strictly below it. Runs at start-up so a
/// broken quantile can never produce a result.
pub fn self_test() -> Result<(), String> {
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 4097] {
        let mut samples: Vec<u64> = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % 997
            })
            .collect();
        let shuffled = samples.clone();
        samples.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let v = quantile(&samples, q);
            let at_or_below = shuffled.iter().filter(|&&s| s <= v).count() as f64;
            let below = shuffled.iter().filter(|&&s| s < v).count() as f64;
            let need = q * n as f64;
            if at_or_below < need || below >= need.ceil().max(1.0) {
                return Err(format!("quantile({q}) of {n} samples = {v} breaks the rank rule"));
            }
        }
        let s = Summary::of(&mut shuffled.clone()).ok_or("no summary of samples")?;
        if s.p50_ns != quantile(&samples, 0.5) || s.max_ns != samples[n - 1] {
            return Err(format!("summary of {n} samples disagrees with the sorted vector"));
        }
        if s.tail_q > 0.0 && n - ((s.tail_q * n as f64).ceil() as usize) < TAIL_MIN_BEYOND {
            return Err(format!("tail percentile {} of {n} samples is unresolved", s.tail_q));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_the_sorted_vector() {
        self_test().unwrap();
    }

    #[test]
    fn nearest_rank_on_a_small_vector() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&sorted, 0.5), 50);
        assert_eq!(quantile(&sorted, 0.99), 99);
        assert_eq!(quantile(&sorted, 1.0), 100);
        let s = Summary::of(&mut sorted.clone()).unwrap();
        // 100 samples: p90 leaves exactly 10 above it, p99 only 1.
        assert_eq!((s.tail_q, s.tail_ns), (0.9, 90));
        assert!(Summary::of(&mut []).is_none());
    }
}
