//! Order statistics with the benchmark's tail rule: a tail percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly above a tail percentile before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// The tail percentile every latency class reports (p90: 100 samples
/// put ten beyond it).
pub const TAIL_Q: f64 = 0.90;

/// Median of `values` (mean of the two middle values for an even
/// count); `NaN` when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of an ascending slice (`q` in `(0, 1]`).
#[must_use]
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A reported tail percentile and the samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile value.
    pub value: f64,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

/// The `q`-quantile of `values` and the samples strictly beyond it,
/// whether or not enough lie there for the tail to be reported.
#[must_use]
pub fn quantile_and_beyond(values: &[f64], q: f64) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let value = nearest_rank(&sorted, q);
    let beyond = sorted.iter().filter(|&&x| x > value).count();
    Some(Tail { value, beyond })
}

/// The `q`-quantile of `values`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie strictly beyond it (ties with the
/// percentile do not count as beyond).
#[must_use]
pub fn tail(values: &[f64], q: f64) -> Option<Tail> {
    quantile_and_beyond(values, q).filter(|t| t.beyond >= MIN_BEYOND)
}

/// Samples a class needs before its [`TAIL_Q`] tail can be reported.
#[must_use]
pub fn samples_for_tail(q: f64) -> usize {
    (MIN_BEYOND as f64 / (1.0 - q)).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn no_tail_without_ten_samples_beyond() {
        // 99 samples put only 9 beyond the nearest-rank p90.
        assert_eq!(tail(&ramp(99), 0.90), None);
        assert_eq!(
            quantile_and_beyond(&ramp(99), 0.90).map(|t| t.beyond),
            Some(9)
        );
        let t = tail(&ramp(100), 0.90).expect("100 samples carry a p90");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        // p95 needs 200 samples.
        assert_eq!(tail(&ramp(199), 0.95), None);
        assert_eq!(tail(&ramp(200), 0.95).map(|t| t.beyond), Some(10));
        assert_eq!(samples_for_tail(0.90), 100);
        assert_eq!(samples_for_tail(0.95), 200);
    }

    #[test]
    fn ties_at_the_percentile_are_not_beyond() {
        // 150 samples, but the top 60 all equal the percentile.
        let mut values = ramp(90);
        values.extend(std::iter::repeat_n(1000.0, 60));
        assert_eq!(tail(&values, 0.90), None);
        assert_eq!(tail(&[], 0.90), None);
    }
}
