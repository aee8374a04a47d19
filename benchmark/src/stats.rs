//! Order statistics for repetition times and latency samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the benchmark driver
//! and `aa.sh` use across runs: the same arithmetic inside a run and
//! between runs keeps the two spreads comparable.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for even `n`. Panics on an
/// empty slice (a repetition loop that ran zero times is a harness bug).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, q3)` by the exclusive method: the `i`-th quartile sits at
/// position `i·(n+1)/4` (1-based) with linear interpolation, clamped to
/// the sample range. One sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank index of the `p`-quantile in a sorted sample of `n`:
/// the smallest index with at least `p·n` samples at or below it.
pub fn percentile_index(n: usize, p: f64) -> usize {
    assert!(n > 0 && (0.0..=1.0).contains(&p));
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The `p`-quantile of an ascending `u64` sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[percentile_index(sorted.len(), p)]
}

/// The one estimator every host-time number uses: the median of the timed
/// repetitions, with the spread beside it.
#[derive(Debug, Clone, Copy)]
pub struct Reps {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub n: usize,
}

impl Reps {
    pub fn of(xs: &[f64]) -> Reps {
        let (q1, q3) = quartiles(xs);
        Reps {
            median: median(xs),
            q1,
            q3,
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            n: xs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1,2,3,4,5,6,7,8,9], n=4) -> [2.5, 5.0, 7.5]
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&nine), (2.5, 7.5));
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([10, 20, 40], n=4) -> [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn p99_index_is_nearest_rank() {
        assert_eq!(percentile_index(100, 0.99), 98);
        assert_eq!(percentile_index(101, 0.99), 99);
        assert_eq!(percentile_index(1, 0.99), 0);
        assert_eq!(percentile_index(1000, 0.999), 998);
        assert_eq!(percentile_index(10, 0.5), 4);
        assert_eq!(percentile_index(10, 1.0), 9);
        assert_eq!(percentile_index(10, 0.0), 0);
        let s: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&s, 0.99), 198);
    }

    #[test]
    fn reps_summary() {
        let r = Reps::of(&[2.0, 1.0, 4.0, 3.0, 5.0]);
        assert_eq!((r.median, r.min, r.n), (3.0, 1.0, 5));
        assert_eq!((r.q1, r.q3), (1.5, 4.5));
    }
}
