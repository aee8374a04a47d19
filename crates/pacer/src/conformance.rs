//! Checking a wire schedule against an arrival curve.
//!
//! The pacer's whole correctness claim is that the *data* frames it emits
//! conform to the VM's `{B, S, Bmax}` arrival curve — that is what the
//! placement manager assumed when it bounded every switch queue. These
//! helpers verify that claim on concrete schedules (tests, Fig. 10, and
//! the packet-level simulator's assertions).

use crate::batch::WireFrame;
use silo_base::{Bytes, Dur, Time};

/// Check that the data frames of `frames` (any order-preserving schedule)
/// never exceed `curve` over any frame-aligned closed interval:
/// `Σ bytes in [t_i, t_j] ≤ A(t_j − t_i) + slack` for all `i ≤ j`.
///
/// For a concave arrival curve and a finite schedule, intervals starting
/// and ending at data-frame starts are the binding ones, so the check is
/// exact. `slack` absorbs the one-frame quantization the batcher may add
/// (use one MTU).
///
/// Returns `Err((i, j))` — indices of the violating interval — on failure.
pub fn check_conformance<P>(
    frames: &[WireFrame<P>],
    curve: &silo_netcalc_curve::CurveLike<'_>,
    slack: Bytes,
) -> Result<(), (usize, usize)> {
    let data: Vec<(Time, u64)> = frames
        .iter()
        .filter_map(|f| match f {
            WireFrame::Data { start, size, .. } => Some((*start, size.as_u64())),
            WireFrame::Void { .. } => None,
        })
        .collect();
    // Prefix sums for O(1) interval byte counts.
    let mut prefix = vec![0u64];
    for &(_, s) in &data {
        prefix.push(prefix.last().unwrap() + s);
    }
    for i in 0..data.len() {
        for j in i..data.len() {
            let bytes = prefix[j + 1] - prefix[i];
            let dt = (data[j].0 - data[i].0).as_secs_f64();
            let allowed = curve.eval(dt) + slack.as_f64();
            if bytes as f64 > allowed {
                return Err((i, j));
            }
        }
    }
    Ok(())
}

/// The minimum gap between consecutive *data* frame starts in a schedule —
/// the paper's pacing-granularity metric (68 ns at 10 GbE).
pub fn min_data_gap<P>(frames: &[WireFrame<P>]) -> Option<Dur> {
    let starts: Vec<Time> = frames
        .iter()
        .filter_map(|f| match f {
            WireFrame::Data { start, .. } => Some(*start),
            WireFrame::Void { .. } => None,
        })
        .collect();
    starts.windows(2).map(|w| w[1] - w[0]).min()
}

/// A tiny adapter so this module does not force a `silo-netcalc`
/// dependency onto `silo-pacer` users that only need gap checking: any
/// `A(t)` evaluator works.
pub mod silo_netcalc_curve {
    /// An arrival-curve evaluator: `eval(t_seconds) -> bytes`.
    pub struct CurveLike<'a> {
        pub eval: &'a dyn Fn(f64) -> f64,
    }

    impl<'a> CurveLike<'a> {
        pub fn eval(&self, t: f64) -> f64 {
            (self.eval)(t)
        }

        /// The dual-slope curve `min(bmax·t + mtu, b·t + s)` (bytes/sec,
        /// bytes).
        pub fn dual_slope_fn(
            b_bps: f64,
            s_bytes: f64,
            bmax_bps: f64,
            mtu_bytes: f64,
        ) -> impl Fn(f64) -> f64 {
            move |t: f64| (bmax_bps / 8.0 * t + mtu_bytes).min(b_bps / 8.0 * t + s_bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::silo_netcalc_curve::CurveLike;
    use super::*;
    use crate::batch::PacedBatcher;
    use crate::bucket::{BucketChain, TokenBucket};
    use silo_base::Rate;

    /// Run a saturating sender through the bucket chain + batcher and
    /// return the full wire schedule.
    fn paced_schedule(b: Rate, s: Bytes, bmax: Rate, pkts: usize) -> Vec<WireFrame<u32>> {
        let link = Rate::from_gbps(10);
        let mut chain = BucketChain::new(vec![
            TokenBucket::new(bmax, Bytes(1500)),
            TokenBucket::new(b, s),
        ]);
        let mut batcher = PacedBatcher::new(link, Dur::from_us(50), Bytes(1500));
        for i in 0..pkts {
            let t = chain.stamp(Time::ZERO, Bytes(1500));
            batcher.enqueue(t, Bytes(1500), i as u32);
        }
        let mut frames = Vec::new();
        let mut now = Time::ZERO;
        loop {
            let batch = batcher.next_batch(now);
            if batch.is_empty() {
                break;
            }
            now = batch.done_at;
            frames.extend(batch.frames);
        }
        frames
    }

    #[test]
    fn paced_output_conforms_to_guarantee() {
        let b = Rate::from_gbps(1);
        let s = Bytes::from_kb(15);
        let bmax = Rate::from_gbps(2);
        let frames = paced_schedule(b, s, bmax, 200);
        let f = CurveLike::dual_slope_fn(1e9, 15_000.0, 2e9, 1500.0);
        let curve = CurveLike { eval: &f };
        check_conformance(&frames, &curve, Bytes(1500)).expect("schedule conforms");
    }

    #[test]
    fn unpaced_output_violates_guarantee() {
        // The same packets sent back-to-back at line rate blow the curve.
        let link = Rate::from_gbps(10);
        let mut frames = Vec::new();
        let mut t = Time::ZERO;
        for _ in 0..200 {
            frames.push(WireFrame::Data {
                start: t,
                size: Bytes(1500),
                payload: 0u32,
            });
            t += link.tx_time(Bytes(1500));
        }
        let f = CurveLike::dual_slope_fn(1e9, 15_000.0, 2e9, 1500.0);
        let curve = CurveLike { eval: &f };
        assert!(check_conformance(&frames, &curve, Bytes(1500)).is_err());
    }

    #[test]
    fn min_gap_matches_rate_limit() {
        // 1 Gbps with a drained burst: 12 us between data starts.
        let frames = paced_schedule(Rate::from_gbps(1), Bytes(1500), Rate::from_gbps(1), 50);
        let gap = min_data_gap(&frames).unwrap();
        assert_eq!(gap, Dur::from_us(12));
    }

    #[test]
    fn min_gap_none_without_data() {
        let frames: Vec<WireFrame<u32>> = Vec::new();
        assert_eq!(min_data_gap(&frames), None);
    }
}
