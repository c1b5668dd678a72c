//! Summary statistics of timing samples: the median, the tail-percentile
//! rule, and the growth-exponent fit between two ladder rungs.

/// Median of a sample set (mean of the middle pair for an even count).
/// `None` for an empty set.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A tail percentile chosen by the percentile rule: the highest nearest-rank
/// percentile at or below `target` that still leaves at least `min_beyond`
/// samples above it. With enough samples that is `target` itself; with
/// fewer, the rule steps down to the percentile the sample supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, as a fraction (0.9 for p90).
    pub quantile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly above it.
    pub beyond: usize,
}

/// Applies the percentile rule (see [`Tail`]). `None` when no percentile
/// leaves `min_beyond` samples above it, i.e. with at most `min_beyond`
/// samples.
pub fn tail(samples: &[f64], target: f64, min_beyond: usize) -> Option<Tail> {
    let sorted = sorted(samples);
    let n = sorted.len();
    // Nearest rank (1-based) of the target percentile, capped so that
    // `min_beyond` samples remain above it.
    let target_rank = ((target * n as f64).ceil() as usize).max(1);
    let rank = target_rank.min(n.checked_sub(min_beyond)?);
    if rank == 0 {
        return None;
    }
    Some(Tail {
        quantile: if rank == target_rank {
            target
        } else {
            rank as f64 / n as f64
        },
        value: sorted[rank - 1],
        beyond: n - rank,
    })
}

/// The exponent `k` of a power law `t ~ n^k` through two points:
/// `ln(t_large / t_small) / ln(n_large / n_small)`.
pub fn growth_exponent(n_small: f64, t_small: f64, n_large: f64, t_large: f64) -> f64 {
    (t_large / t_small).ln() / (n_large / n_small).ln()
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the functions must sort for themselves.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_is_reported_once_ten_samples_lie_beyond_it() {
        // 100 samples: p90 is the 90th, and exactly 10 lie above it.
        let t = tail(&ramp(100), 0.9, 10).unwrap();
        assert_eq!((t.quantile, t.value, t.beyond), (0.9, 90.0, 10));
        // 200 samples: p90 is the 180th, 20 beyond.
        let t = tail(&ramp(200), 0.9, 10).unwrap();
        assert_eq!((t.quantile, t.value, t.beyond), (0.9, 180.0, 20));
    }

    #[test]
    fn the_rule_steps_down_when_p90_lacks_ten_samples_beyond() {
        // 50 samples: p90 (rank 45) leaves 5 beyond, so the rule reports the
        // 40th sample, the highest rank with 10 above it.
        let t = tail(&ramp(50), 0.9, 10).unwrap();
        assert_eq!((t.value, t.beyond), (40.0, 10));
        assert!((t.quantile - 0.8).abs() < 1e-12);
        // 11 samples: only the minimum has 10 above it.
        let t = tail(&ramp(11), 0.9, 10).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 10));
        // 10 or fewer: no percentile qualifies.
        assert_eq!(tail(&ramp(10), 0.9, 10), None);
        assert_eq!(tail(&[], 0.9, 10), None);
    }

    #[test]
    fn growth_exponent_recovers_the_power_law() {
        // t = n^2: doubling n quadruples t.
        let k = growth_exponent(300.0, 0.09, 600.0, 0.36);
        assert!((k - 2.0).abs() < 1e-9, "{k}");
        // Linear growth.
        let k = growth_exponent(308.0, 0.1, 1568.0, 0.1 * 1568.0 / 308.0);
        assert!((k - 1.0).abs() < 1e-9, "{k}");
        // No growth.
        assert_eq!(growth_exponent(300.0, 1.0, 1500.0, 1.0), 0.0);
    }
}
