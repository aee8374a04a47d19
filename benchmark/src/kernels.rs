//! Layer kernels for the traced run.
//!
//! Host time spent inside `Sim::run` cannot be seen from outside it, so
//! the traced run times each layer's public operations on their own, at
//! the size and mix the run itself reported, and multiplies by the run's
//! own operation counts (`est_share.*`). This is an estimate: a kernel
//! runs with warm caches and nothing else in them, so it prices a layer
//! at its best, and `est_share.unattributed` is what that leaves over.
//!
//! Every kernel returns host nanoseconds per operation as the median of
//! [`SAMPLES`] timed passes.

use crate::stats::median;
use silo_base::{Bytes, Dur, EventQueue, LogHistogram, Rate, Time};
use silo_netcalc::{backlog_bound, Curve, ServiceCurve};
use silo_pacer::{Batch, BucketChain, HoseAllocator, PacedBatcher, TokenBucket};
use silo_simnet::packet::{Packet, PathId, PktArena, PktId, PktKind};
use silo_simnet::port::{Enqueue, PortState};
use silo_simnet::tcp::TcpConn;
use silo_topology::HostId;
use std::hint::black_box;
use std::time::Instant;

const SAMPLES: usize = 5;

/// Median ns per operation of `pass`, which performs `ops` operations.
fn time_per_op(ops: u64, mut pass: impl FnMut()) -> f64 {
    pass(); // warm
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// xorshift64*: the kernels need cheap, repeatable variety, not quality.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The run's event-queue mix: standing depth and the share of scheduled
/// events that are cancelled before they fire.
pub struct QueueMix {
    pub peak_len: u64,
    pub scheduled: u64,
    pub cancelled: u64,
}

/// `EventQueue::{push, push_cancelable, cancel, pop}` at the run's
/// standing depth and scheduled:cancelled:fired mix. One operation is one
/// call; horizons mix packet-time (~µs) and RTO-time (10 ms) timers the
/// way the simulator's do.
pub fn eventq_ns_per_op(mix: &QueueMix, ops: u64) -> f64 {
    let depth = mix.peak_len.max(16);
    // Of every 1000 scheduled events, this many are cancelable timers
    // that get cancelled.
    let cancel_permille = (mix.cancelled * 1000)
        .checked_div(mix.scheduled)
        .unwrap_or(0);
    time_per_op(ops, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = Rng(0x5110);
        let mut now = 0u64;
        for i in 0..depth {
            q.push(Time(now + rng.below(1_200_000) + 1), i);
        }
        let mut armed = None;
        let mut done = 0u64;
        while done < ops {
            let (t, item) = q.pop().expect("queue stays at depth");
            black_box(item);
            now = t.as_ps();
            if rng.below(1000) < cancel_permille {
                // A timer re-arm: drop the previous one, arm the next,
                // and replace the popped event to hold the depth.
                if let Some(k) = armed.take() {
                    q.cancel(k);
                    done += 1;
                }
                armed = Some(q.push_cancelable(Time(now + 10_000_000_000), done));
                done += 1;
            }
            q.push(Time(now + rng.below(1_200_000) + 1), done);
            done += 2;
        }
    })
}

fn data_packet(seq: u64) -> Packet {
    Packet {
        conn: 0,
        kind: PktKind::Data,
        seq,
        payload: 1440,
        size: Bytes(1500),
        retx: false,
        ce: false,
        ecn_echo: false,
        prio: 0,
        sent_at: Time::ZERO,
        enq_at: Time::ZERO,
        path: PathId(0),
        hop: 0,
    }
}

/// `PortState::{enqueue, dequeue}`: one operation is a packet through a
/// 10 GbE switch port (312 KB buffer) holding a few dozen packets, with a
/// burst now and then that tail-drops.
pub fn port_ns_per_pkt(pkts: u64) -> f64 {
    let mut arena = PktArena::new();
    let ids: Vec<PktId> = (0..256).map(|i| arena.alloc(data_packet(i))).collect();
    time_per_op(pkts, || {
        let mut port = PortState::new(Rate::from_gbps(10), Bytes::from_kb(312), Dur::from_ns(500));
        let mut rng = Rng(0x9027);
        let mut now = Time::ZERO;
        let mut done = 0u64;
        while done < pkts {
            let burst = if rng.below(64) == 0 {
                256
            } else {
                1 + rng.below(4)
            };
            let mut accepted = 0u64;
            for i in 0..burst {
                now = Time(now.as_ps() + 1_200_000);
                let id = ids[(i % 256) as usize];
                if let Enqueue::Accepted { mark_ce } = port.enqueue(now, id, Bytes(1500), 0) {
                    black_box(mark_ce);
                    accepted += 1;
                }
            }
            for _ in 0..accepted {
                black_box(port.dequeue());
            }
            done += burst;
        }
    })
}

/// `TcpConn::{receive_segment, grow_cwnd, on_rtt_sample}`: one operation
/// is one in-order data segment received plus the sender-side handling of
/// its ack, with every 32nd segment arriving out of order.
pub fn tcp_ns_per_segment(segs: u64) -> f64 {
    const MSS: u64 = 1440;
    time_per_op(segs, || {
        let mut c = TcpConn::new(
            0,
            0,
            0,
            1,
            HostId(0),
            HostId(1),
            0,
            PathId(0),
            PathId(1),
            10.0 * MSS as f64,
        );
        let mut seq = 0u64;
        for i in 0..segs {
            if i % 32 == 31 {
                // The next segment overtakes this one.
                black_box(c.receive_segment(seq + MSS, MSS));
                black_box(c.receive_segment(seq, MSS));
                seq += 2 * MSS;
            } else {
                black_box(c.receive_segment(seq, MSS));
                seq += MSS;
            }
            c.grow_cwnd(MSS, MSS as f64);
            c.on_rtt_sample(Dur::from_us(40 + i % 7));
        }
        black_box(c.cwnd);
    })
}

/// `PktArena::{alloc, free}`: one operation is one packet's alloc and
/// free, with a few hundred packets in flight so the free list is used.
pub fn packet_ns_per_alloc_free(pkts: u64) -> f64 {
    time_per_op(pkts, || {
        let mut arena = PktArena::with_capacity(512);
        let mut live: Vec<PktId> = (0..256).map(|i| arena.alloc(data_packet(i))).collect();
        let mut rng = Rng(0xa7e4);
        for i in 0..pkts {
            let slot = rng.below(256) as usize;
            arena.free(live[slot]);
            live[slot] = arena.alloc(data_packet(i));
        }
        black_box(arena.live());
    })
}

/// `BucketChain::stamp`: one operation stamps one MTU packet through a
/// `{B, S}` bucket and a `Bmax` bucket (Fig. 8's lower two layers).
pub fn pacer_ns_per_stamp(pkts: u64) -> f64 {
    time_per_op(pkts, || {
        let mut chain = BucketChain::new(vec![
            TokenBucket::new(Rate::from_gbps(1), Bytes::from_kb(15)),
            TokenBucket::new(Rate::from_gbps(10), Bytes(1500)),
        ]);
        let mut now = Time::ZERO;
        for _ in 0..pkts {
            now = chain.stamp(now, Bytes(1500));
        }
        black_box(now);
    })
}

/// `PacedBatcher::{enqueue, next_batch_into}`: one operation is one data
/// packet enqueued and later emitted in a 50 µs batch. Stamps are 2 µs
/// apart on a 10 GbE link, so each batch carries ~25 data frames and the
/// short gaps between them as void frames.
pub fn pacer_ns_per_batched_pkt(pkts: u64) -> f64 {
    time_per_op(pkts, || {
        let mut b: PacedBatcher<u32> =
            PacedBatcher::new(Rate::from_gbps(10), Dur::from_us(50), Bytes(1500));
        let mut out = Batch::empty();
        let mut now = Time::ZERO;
        let mut stamp = 0u64;
        let mut queued = 0u64;
        while queued < pkts {
            // Keep a window's worth of stamped packets ahead of the NIC.
            for _ in 0..25 {
                stamp += 2_000_000;
                b.enqueue(Time(stamp), Bytes(1500), queued as u32);
                queued += 1;
            }
            while b.pending() > 0 {
                b.next_batch_into(now, &mut out);
                black_box(out.frames.len());
                now = if out.is_empty() {
                    b.next_stamp().expect("pending").max(now)
                } else {
                    out.done_at
                };
            }
        }
    })
}

/// `HoseAllocator::allocate`: one operation is one allocation for a
/// 12-VM all-to-all tenant (the class-B mean), 132 active pairs.
pub fn pacer_ns_per_hose_alloc(calls: u64) -> f64 {
    let hose = HoseAllocator::new(Rate::from_gbps(2));
    let pairs: Vec<(u32, u32)> = (0..12u32)
        .flat_map(|s| (0..12u32).filter(move |&d| d != s).map(move |d| (s, d)))
        .collect();
    time_per_op(calls, || {
        for _ in 0..calls {
            black_box(hose.allocate(black_box(&pairs)));
        }
    })
}

/// `LogHistogram::record` at the simulator's latency resolution.
pub fn stats_ns_per_record(records: u64) -> f64 {
    time_per_op(records, || {
        let mut h = LogHistogram::new(silo_simnet::metrics::LATENCY_HIST_SUB_BITS);
        let mut rng = Rng(0x1057);
        for _ in 0..records {
            h.record(50_000_000 + rng.below(2_000_000_000));
        }
        black_box(h.count());
    })
}

/// `backlog_bound` of an aggregate of six class-A arrival curves against
/// a 10 GbE service curve: what a bound-cache miss costs.
pub fn netcalc_ns_per_backlog_bound(calls: u64) -> f64 {
    let one = Curve::dual_slope(
        Rate::from_gbps(1),
        Bytes::from_kb(100),
        Rate::from_gbps(10),
        Bytes(1500),
    );
    let agg = one.scale(6.0);
    let svc = ServiceCurve::constant_rate(Rate::from_gbps(10));
    time_per_op(calls, || {
        for _ in 0..calls {
            black_box(backlog_bound(black_box(&agg), &svc));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kernel runs, at a small size, and reports a positive time.
    #[test]
    fn kernels_run() {
        let mix = QueueMix {
            peak_len: 300,
            scheduled: 1000,
            cancelled: 150,
        };
        let results = [
            eventq_ns_per_op(&mix, 2_000),
            eventq_ns_per_op(
                &QueueMix {
                    peak_len: 0,
                    scheduled: 0,
                    cancelled: 0,
                },
                500,
            ),
            port_ns_per_pkt(2_000),
            tcp_ns_per_segment(2_000),
            packet_ns_per_alloc_free(2_000),
            pacer_ns_per_stamp(2_000),
            pacer_ns_per_batched_pkt(2_000),
            pacer_ns_per_hose_alloc(20),
            stats_ns_per_record(2_000),
            netcalc_ns_per_backlog_bound(200),
        ];
        for (i, r) in results.iter().enumerate() {
            assert!(r.is_finite() && *r > 0.0, "kernel {i} reported {r}");
        }
    }
}
