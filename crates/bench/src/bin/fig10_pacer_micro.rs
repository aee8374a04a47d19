//! Figure 10: pacer microbenchmarks.
//!
//! (a) CPU usage and packet rate vs the pacer's rate limit on a 10 GbE
//!     NIC. Packet rates (data + void) come from a real simulated wire
//!     schedule; CPU cores come from the calibrated linear cost model
//!     (see `silo_pacer::CpuModel` — the simulation cannot measure
//!     cycles, so this panel is model-driven by mechanism-produced rates).
//! (b) Data and void throughput vs rate limit, plus the ideal data rate.
//!     The paper's claim: ≥ 98 % of ideal at every limit, 100 % of line
//!     at 10 G, minimum packet spacing 68 ns.

use silo_base::{Bytes, Dur, Rate, Time};
use silo_pacer::{
    min_data_gap, BucketChain, CpuModel, PacedBatcher, TokenBucket, VoidChunks, WireFrame,
};

const LINK: Rate = Rate(10_000_000_000);
const MTU: Bytes = Bytes(1500);

/// Drive a saturating sender at `limit` through the pacer for `dur` of
/// wire time; return the full frame schedule.
fn schedule(limit: Rate, dur: Dur) -> Vec<WireFrame<u64>> {
    let mut chain = BucketChain::new(vec![
        TokenBucket::new(limit, MTU), // pure rate limit: 1-MTU burst
    ]);
    let mut batcher = PacedBatcher::new(LINK, Dur::from_us(50), MTU);
    let mut frames = Vec::new();
    let mut now = Time::ZERO;
    let horizon = Time::ZERO + dur;
    let mut next_id = 0u64;
    let mut stamped_until = Time::ZERO;
    while now < horizon {
        // Keep a small backlog of stamped packets ahead of the wire.
        while stamped_until < now + Dur::from_us(200) {
            let t = chain.stamp(now, MTU);
            batcher.enqueue(t, MTU, next_id);
            next_id += 1;
            stamped_until = t;
        }
        let batch = batcher.next_batch(now);
        if batch.is_empty() {
            now = batcher.next_stamp().map(|s| s.max(now)).unwrap_or(horizon);
            continue;
        }
        now = batch.done_at;
        frames.extend(batch.frames);
    }
    frames
}

fn main() {
    let dur = Dur::from_ms(20);
    let model = CpuModel::default();
    println!("== Fig 10a/b: pacer microbenchmark (10 GbE, MTU data) ==");
    println!("limit\tdata_Gbps\tvoid_Gbps\tideal_Gbps\tdata/ideal\tpkts_Mpps\tcores");
    for g in 1..=10u64 {
        let limit = Rate::from_gbps(g);
        let frames = schedule(limit, dur);
        let secs = dur.as_secs_f64();
        let (mut data_b, mut void_b, mut data_n, mut void_n) = (0u64, 0u64, 0u64, 0u64);
        for f in &frames {
            match *f {
                WireFrame::Data { size, .. } => {
                    data_b += size.as_u64();
                    data_n += 1;
                }
                WireFrame::Void {
                    start,
                    bytes,
                    gap_end,
                } => {
                    // The NIC sends each void chunk as its own packet.
                    void_b += bytes.as_u64();
                    void_n += VoidChunks::new(start, gap_end, LINK, MTU).count() as u64;
                }
            }
        }
        let data_gbps = data_b as f64 * 8.0 / secs / 1e9;
        let void_gbps = void_b as f64 * 8.0 / secs / 1e9;
        let ideal = (g as f64).min(10.0);
        let pkts = (data_n + void_n) as f64 / secs / 1e6;
        let batches_ps = 1.0 / 50e-6;
        let cores = model.cores(data_n as f64 / secs, void_n as f64 / secs, batches_ps);
        println!(
            "{g}G\t{data_gbps:.2}\t{void_gbps:.2}\t{ideal:.0}\t{:.3}\t{pkts:.2}\t{cores:.2}",
            data_gbps / ideal
        );
        assert!(
            data_gbps / ideal > 0.97,
            "paper claims >= 98% of ideal at {g} Gbps, got {:.3}",
            data_gbps / ideal
        );
    }
    println!(
        "no-pacing baseline: {:.2} cores at 10 Gbps (LSO off)",
        model.cores_unpaced(10e9 / (1500.0 * 8.0))
    );

    // Minimum spacing: two 84 B frames with one 84 B void between them.
    let mut b: PacedBatcher<u32> = PacedBatcher::new(LINK, Dur::from_us(50), MTU);
    b.enqueue(Time::ZERO, Bytes(84), 0);
    b.enqueue(Time(2 * 67_200), Bytes(84), 1);
    let batch = b.next_batch(Time::ZERO);
    let start_to_start = min_data_gap(&batch.frames).unwrap();
    // The inter-packet *gap* is one minimal void frame: start-to-start
    // minus the first frame's own wire time.
    let gap = start_to_start - LINK.tx_time(Bytes(84));
    println!("\nminimum achievable inter-packet gap: {gap} (paper: 68 ns = one 84 B void)");
    assert_eq!(gap, Dur::from_ps(67_200));
}
