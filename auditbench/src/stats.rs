//! Order statistics used by every workload: medians, the tail rule and
//! quartile spreads.

/// The median of `values` (mean of the middle pair for even counts).
/// Infinite samples (failed operations) sort last.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        let (a, b) = (v[n / 2 - 1], v[n / 2]);
        if a.is_infinite() || b.is_infinite() {
            b
        } else {
            (a + b) / 2.0
        }
    }
}

/// A tail: the highest percentile that still has at least ten samples
/// beyond it, with the sample count it was taken from.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `values`, or `None` with fewer than `TAIL_BEYOND + 1`
/// samples. Sample `n - 11` (ascending) has exactly ten samples after it;
/// its percentile is the share of samples at or below it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let k = n - TAIL_BEYOND - 1;
    Some(Tail {
        percentile: 100.0 * (k + 1) as f64 / n as f64,
        value: v[k],
        samples: n,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).expect("100 samples have a tail");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert!(tail(&v[..10]).is_none());
    }

    #[test]
    fn failures_count_as_missing_the_limit() {
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        v.extend([f64::INFINITY; 10]);
        assert_eq!(tail(&v).map(|t| t.value), Some(20.0));
        v.push(f64::INFINITY);
        assert!(tail(&v).is_some_and(|t| t.value.is_infinite()));
    }
}
