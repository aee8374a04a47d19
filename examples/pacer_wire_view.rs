//! A microscope on the pacer: stamp a bursty VM's packets through the
//! Fig. 8 token-bucket hierarchy, assemble paced-IO batches, and print
//! the literal wire schedule — data frames landing on their stamps with
//! void frames occupying every gap (Fig. 9).
//!
//! Run with: `cargo run --example pacer_wire_view`

use silo::base::{Bytes, Dur, Rate, Time};
use silo::pacer::{BucketChain, PacedBatcher, TokenBucket, VoidChunks, WireFrame};

fn main() {
    let link = Rate::from_gbps(10);
    // Guarantee: B = 2 Gbps, S = 15 KB burst at Bmax = 5 Gbps.
    let mut chain = BucketChain::new(vec![
        TokenBucket::new(Rate::from_gbps(5), Bytes(1500)), // Bmax
        TokenBucket::new(Rate::from_gbps(2), Bytes::from_kb(15)), // {B, S}
    ]);
    let mtu = Bytes(1500);
    let mut batcher = PacedBatcher::new(link, Dur::from_us(50), mtu);

    // The VM dumps a 30 KB message at t = 0: the first 15 KB rides the
    // burst at Bmax spacing, the rest drains at B.
    for i in 0..20u32 {
        let stamp = chain.stamp(Time::ZERO, Bytes(1500));
        batcher.enqueue(stamp, Bytes(1500), i);
    }

    println!("wire schedule (10 GbE):");
    println!("{:>10}  {:>6}  {:>5}  note", "start", "bytes", "kind");
    let mut now = Time::ZERO;
    let mut voids = 0u32;
    loop {
        let batch = batcher.next_batch(now);
        if batch.is_empty() {
            match batcher.next_stamp() {
                Some(s) => {
                    now = s;
                    continue;
                }
                None => break,
            }
        }
        for f in &batch.frames {
            match *f {
                WireFrame::Data {
                    start,
                    size,
                    payload,
                } => println!(
                    "{:>10}  {:>6}  data   packet #{payload}",
                    format!("{start}"),
                    size.as_u64()
                ),
                // One run per gap; list the void frames it stands for.
                WireFrame::Void { start, gap_end, .. } => {
                    for (start, size) in VoidChunks::new(start, gap_end, link, mtu) {
                        voids += 1;
                        println!(
                            "{:>10}  {:>6}  void   (dropped by first-hop switch)",
                            format!("{start}"),
                            size.as_u64()
                        );
                    }
                }
            }
        }
        now = batch.done_at;
    }
    println!("\n{voids} void frames kept the data packets exactly on their stamps");
    println!("while the NIC transmitted each batch back-to-back (Paced IO Batching).");
}
