//! Measuring a wire schedule.
//!
//! The pacer's whole correctness claim is that the *data* frames it emits
//! conform to the VM's `{B, S, Bmax}` arrival curve — that is what the
//! placement manager assumed when it bounded every switch queue. The
//! simulator checks that claim on every run with the audit's wire-level
//! meters (`silo_simnet::audit`); this module keeps the pacing-granularity
//! metric Fig. 10 reports.

use crate::batch::WireFrame;
use silo_base::{Dur, Time};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::PacedBatcher;
    use crate::bucket::{BucketChain, TokenBucket};
    use silo_base::{Bytes, Rate};

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

    /// Meter the data frames' wire starts through fresh `{B, S}` and
    /// `{Bmax, MTU}` buckets, each one MTU deeper (the one-frame
    /// quantization the batcher may add), and count the frames that
    /// overdraw either. A schedule conforms to the dual-slope curve iff
    /// it conforms to each of its two lines.
    fn overdrafts(frames: &[WireFrame<u32>], b: Rate, s: Bytes, bmax: Rate) -> u64 {
        let mtu = Bytes(1500);
        let mut meters = [
            TokenBucket::new(b, s + mtu),
            TokenBucket::new(bmax, mtu + mtu),
        ];
        for f in frames {
            if let WireFrame::Data { start, size, .. } = f {
                for m in &mut meters {
                    m.commit(*start, *size);
                }
            }
        }
        meters.iter().map(TokenBucket::violations).sum()
    }

    #[test]
    fn paced_output_conforms_to_guarantee() {
        let b = Rate::from_gbps(1);
        let s = Bytes::from_kb(15);
        let bmax = Rate::from_gbps(2);
        let frames = paced_schedule(b, s, bmax, 200);
        assert_eq!(overdrafts(&frames, b, s, bmax), 0, "schedule conforms");
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
        let (b, s, bmax) = (Rate::from_gbps(1), Bytes::from_kb(15), Rate::from_gbps(2));
        assert!(overdrafts(&frames, b, s, bmax) > 0);
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
