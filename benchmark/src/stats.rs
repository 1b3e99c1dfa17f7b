//! Percentiles and medians — the only arithmetic between a raw sample and
//! a reported number.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `None` when empty.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// Sorts `samples` in place and returns their nearest-rank percentile.
pub fn percentile(samples: &mut [u64], q: f64) -> Option<u64> {
    samples.sort_unstable();
    percentile_sorted(samples, q)
}

/// Median of a few values (mean of the middle two when even). Panics on
/// an empty slice or a NaN: both are bugs in the caller.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a median"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A metric measured once per round. Which of the values is reported is
/// the metric's own choice (`e2e::Pick`); median, min and max are printed
/// beside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Rounds {
    pub values: Vec<f64>,
}

impl Rounds {
    pub fn new(values: Vec<f64>) -> Rounds {
        assert!(!values.is_empty(), "a metric needs at least one round");
        Rounds { values }
    }

    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// How far the rounds disagree: see [`quartile_spread`].
    pub fn spread(&self) -> f64 {
        quartile_spread(&self.values)
    }
}

/// Distance between the first and the third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(values, n=4)`
/// gives them (the driver's own measure of spread between runs). 0 for
/// fewer than two values or a median of 0.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a spread"));
    let quartile = |i: usize| {
        let at = i * (v.len() + 1);
        let j = (at / 4).clamp(1, v.len() - 1);
        let delta = at as f64 - 4.0 * j as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let mid = median(&v);
    if mid == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / mid.abs()
    }
}

/// Quantile of a log₂-bucketed histogram (bucket 0 holds the value 0,
/// bucket `i` holds `[2^(i-1), 2^i − 1]`), interpolated linearly inside
/// the bucket the rank falls in. The engine's own `quantile` returns the
/// bucket's upper bound, which reads the same on every run; this one
/// moves with the data.
pub fn log2_bucket_quantile(buckets: &[u64], q: f64) -> Option<f64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut below = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if (below + n) as f64 >= rank {
            if i == 0 {
                return Some(0.0);
            }
            let lo = (1u128 << (i - 1)) as f64;
            let hi = (1u128 << i) as f64;
            let inside = ((rank - below as f64) / n as f64).clamp(0.0, 1.0);
            return Some(lo + (hi - lo) * inside);
        }
        below += n;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut s, 0.50), Some(50));
        assert_eq!(percentile(&mut s, 0.99), Some(99));
        assert_eq!(percentile(&mut s, 1.0), Some(100));
        assert_eq!(percentile(&mut s, 0.0), Some(1));
        assert_eq!(percentile(&mut [7], 0.99), Some(7));
        assert_eq!(percentile(&mut [], 0.5), None);
        // 1,000 samples leave exactly ten beyond p99.
        let mut k: Vec<u64> = (1..=1000).collect();
        let p99 = percentile(&mut k, 0.99).unwrap();
        assert_eq!(k.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        let r = Rounds::new(vec![10.0, 12.0, 11.0]);
        assert_eq!(r.median(), 11.0);
        assert_eq!(r.min(), 10.0);
        assert_eq!(r.max(), 12.0);
    }

    #[test]
    fn quartile_spread_matches_pythons_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&ten) - 1.0).abs() < 1e-12);
        // statistics.quantiles([12, 10, 11], n=4) == [10.0, 11.0, 12.0]
        assert!((quartile_spread(&[12.0, 10.0, 11.0]) - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
        assert_eq!(Rounds::new(vec![5.0, 5.0, 5.0]).spread(), 0.0);
    }

    #[test]
    fn bucket_quantile_interpolates() {
        // 10 samples in [128, 255]: the median sits mid-bucket.
        let mut b = vec![0u64; 65];
        b[8] = 10;
        assert_eq!(log2_bucket_quantile(&b, 0.5), Some(192.0));
        // Half the mass in bucket 1 (value 1), half in [128, 255].
        b[1] = 10;
        assert_eq!(log2_bucket_quantile(&b, 0.25), Some(1.5));
        assert_eq!(log2_bucket_quantile(&b, 0.75), Some(192.0));
        assert_eq!(log2_bucket_quantile(&[0; 65], 0.5), None);
    }
}
