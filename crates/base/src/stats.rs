//! Statistics used by the experiment harnesses: exact percentiles and
//! empirical CDFs over collected samples, and a streaming log-bucketed
//! histogram.

/// A collection of `f64` samples supporting exact order statistics.
///
/// Samples are stored raw and sorted lazily on first query; this is the
/// right trade-off for experiment harnesses that record everything then
/// report at the end.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
}

impl Summary {
    pub fn new() -> Summary {
        Summary::default()
    }

    pub fn record(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "non-finite sample");
        self.samples.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, vs: impl IntoIterator<Item = f64>) {
        for v in vs {
            self.record(v);
        }
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
            self.sorted = true;
        }
    }

    /// Exact p-quantile (`0.0 ..= 1.0`) using the nearest-rank method, which
    /// matches how tail latency is conventionally reported ("the 99th
    /// percentile request"). Returns `None` on an empty summary.
    pub fn quantile(&mut self, p: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&p), "quantile out of range");
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        Some(self.samples[rank - 1])
    }

    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }
    pub fn p95(&mut self) -> Option<f64> {
        self.quantile(0.95)
    }
    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }
    pub fn p999(&mut self) -> Option<f64> {
        self.quantile(0.999)
    }
    pub fn min(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.samples.first().copied()
    }
    pub fn max(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.samples.last().copied()
    }

    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Fraction of samples strictly greater than `threshold`.
    pub fn frac_above(&self, threshold: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().filter(|&&v| v > threshold).count() as f64 / self.samples.len() as f64
    }

    /// Empirical CDF sampled at `points` evenly spaced quantiles
    /// (plus the max), suitable for plotting: `(value, cumulative
    /// probability)` pairs sorted by value.
    pub fn cdf(&mut self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "need at least two CDF points");
        self.ensure_sorted();
        let mut pts = Vec::with_capacity(points);
        if self.samples.is_empty() {
            return pts;
        }
        for i in 0..points {
            let p = i as f64 / (points - 1) as f64;
            let n = self.samples.len();
            let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
            pts.push((self.samples[rank - 1], p));
        }
        pts
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// A streaming log-bucketed histogram over `u64` values (HDR-histogram
/// style): values below `2^sub_bits` are counted exactly, and every octave
/// above that is split into `2^sub_bits` equal sub-buckets, bounding the
/// relative quantile error at `2^-sub_bits` while using a fixed, small
/// amount of memory. Unlike [`Summary`] it never retains samples, so it is
/// safe to keep per-tenant over arbitrarily long sweeps, and it recovers
/// tail quantiles, not just moments.
///
/// Merging is exact: because bucket boundaries depend only on `sub_bits`,
/// merging two histograms is a per-bucket count addition and yields exactly
/// the histogram of the concatenated sample streams.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    sub_bits: u32,
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl LogHistogram {
    /// `sub_bits` sub-buckets per octave (power of two); 5 gives ≤ 3.2%
    /// relative error in ~15 KB, 7 gives ≤ 0.8% in ~58 KB.
    pub fn new(sub_bits: u32) -> LogHistogram {
        assert!((1..=16).contains(&sub_bits), "sub_bits out of range");
        // Buckets: 2^sub_bits exact values, then one group of 2^sub_bits
        // sub-buckets for each of the (64 - sub_bits) remaining octaves.
        let n = ((65 - sub_bits) as usize) << sub_bits;
        LogHistogram {
            sub_bits,
            counts: vec![0; n],
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    pub fn sub_bits(&self) -> u32 {
        self.sub_bits
    }

    fn index_of(&self, v: u64) -> usize {
        let b = self.sub_bits;
        if v >> b == 0 {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros();
            let shift = msb - b;
            (((shift + 1) as usize) << b) + ((v >> shift) as usize - (1usize << b))
        }
    }

    /// Inclusive `[lo, hi]` value range of bucket `idx`.
    pub fn bucket_bounds(&self, idx: usize) -> (u64, u64) {
        let b = self.sub_bits;
        let oct = idx >> b;
        if oct == 0 {
            (idx as u64, idx as u64)
        } else {
            let shift = (oct - 1) as u32;
            let base = (1u64 << b) + (idx as u64 & ((1u64 << b) - 1));
            // hi = lo + bucket_width - 1, written so the top bucket
            // (ending exactly at u64::MAX) cannot overflow.
            let lo = base << shift;
            (lo, lo + ((1u64 << shift) - 1))
        }
    }

    /// Inclusive `[lo, hi]` range of the bucket that `v` falls into — the
    /// resolution of the histogram around `v`.
    pub fn bucket_bounds_of(&self, v: u64) -> (u64, u64) {
        self.bucket_bounds(self.index_of(v))
    }

    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.index_of(v);
        self.counts[idx] += n;
        self.total += n;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v as u128 * n as u128;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact minimum recorded value (`None` if empty).
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Exact maximum recorded value (`None` if empty).
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Exact mean (sums are kept in `u128`, so no precision loss on the way
    /// in; the division is the only rounding step).
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// Nearest-rank p-quantile estimate: the upper bound of the bucket
    /// holding the rank-`⌈p·n⌉` sample, clamped to the exact max. The true
    /// sample lies in the same bucket, so the error is at most one bucket
    /// width (relative error ≤ `2^-sub_bits`).
    pub fn quantile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&p), "quantile out of range");
        if self.total == 0 {
            return None;
        }
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.bucket_bounds(idx).1.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Exact merge: afterwards `self` is exactly the histogram of both
    /// sample streams. Panics if the bucket layouts differ.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(self.sub_bits, other.sub_bits, "bucket layouts differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// Reset to empty, keeping the bucket allocation. Lets a caller reuse
    /// one histogram per window instead of reallocating the bucket array
    /// (the telemetry recorder does this every sampling interval).
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.min = u64::MAX;
        self.max = 0;
        self.sum = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_nearest_rank() {
        let mut s = Summary::new();
        s.extend((1..=100).map(|i| i as f64));
        assert_eq!(s.quantile(0.99), Some(99.0));
        assert_eq!(s.quantile(0.50), Some(50.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(100.0));
    }

    #[test]
    fn quantile_empty() {
        let mut s = Summary::new();
        assert_eq!(s.quantile(0.5), None);
    }

    #[test]
    fn frac_above_counts_strictly() {
        let mut s = Summary::new();
        s.extend([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.frac_above(2.0), 0.5);
        assert_eq!(s.frac_above(0.0), 1.0);
        assert_eq!(s.frac_above(4.0), 0.0);
    }

    #[test]
    fn cdf_monotone() {
        let mut s = Summary::new();
        s.extend([5.0, 1.0, 3.0, 2.0, 4.0]);
        let cdf = s.cdf(11);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(cdf.first(), Some(&(1.0, 0.0)));
        assert_eq!(cdf.last(), Some(&(5.0, 1.0)));
    }

    #[test]
    fn log_histogram_buckets_partition_u64() {
        // Bucket ranges must tile the value space with no gaps or overlaps,
        // and index_of must be the inverse of bucket_bounds.
        let h = LogHistogram::new(3);
        let mut expected_lo = 0u64;
        for idx in 0..h.counts.len() {
            let (lo, hi) = h.bucket_bounds(idx);
            assert_eq!(lo, expected_lo, "gap before bucket {idx}");
            assert!(hi >= lo);
            assert_eq!(h.index_of(lo), idx);
            assert_eq!(h.index_of(hi), idx);
            if hi == u64::MAX {
                assert_eq!(idx, h.counts.len() - 1, "top bucket must be last");
                return;
            }
            expected_lo = hi + 1;
        }
        panic!("buckets never reached u64::MAX");
    }

    #[test]
    fn log_histogram_small_values_exact() {
        let mut h = LogHistogram::new(5);
        for v in 0..32u64 {
            h.record_n(v, v + 1);
        }
        for v in 0..32u64 {
            let (lo, hi) = h.bucket_bounds(h.index_of(v));
            assert_eq!((lo, hi), (v, v), "values below 2^sub_bits are exact");
        }
        assert_eq!(h.count(), (1..=32).sum::<u64>());
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(31));
    }

    #[test]
    fn log_histogram_quantile_error_bounded() {
        let mut h = LogHistogram::new(5);
        let mut s = Summary::new();
        let vals: Vec<u64> = (0..2000u64).map(|i| i * i * 17 + 3).collect();
        for &v in &vals {
            h.record(v);
            s.record(v as f64);
        }
        for &p in &[0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let est = h.quantile(p).unwrap();
            let exact = s.quantile(p).unwrap() as u64;
            let (lo, hi) = h.bucket_bounds(h.index_of(est));
            assert!(
                lo <= exact && exact <= hi,
                "p={p}: exact {exact} outside bucket [{lo},{hi}] of estimate {est}"
            );
        }
        assert_eq!(h.quantile(1.0), Some(*vals.iter().max().unwrap()));
    }

    #[test]
    fn log_histogram_merge_is_exact() {
        let mut a = LogHistogram::new(5);
        let mut b = LogHistogram::new(5);
        let mut all = LogHistogram::new(5);
        for i in 0..500u64 {
            let v = i * 977 % 100_000;
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.counts, all.counts);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        assert_eq!(a.mean(), all.mean());
    }

    #[test]
    fn log_histogram_empty() {
        let h = LogHistogram::new(5);
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn log_histogram_extremes() {
        let mut h = LogHistogram::new(5);
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
    }
}
