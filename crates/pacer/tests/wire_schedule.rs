//! Golden-master and differential tests for the pacer's wire schedule
//! (§4.3.1, Fig. 9): the exact frame sequence a NIC transmits is part of
//! Silo's contract — data packets leave at their token-bucket stamps,
//! never early, with at most one minimal void frame (67.2 ns at 10 GbE)
//! of added delay, and the schedule must not depend on which stamp-queue
//! backend the batcher happens to use.

use rand::Rng;
use silo_base::{seeded_rng, Bytes, Dur, QueueBackend, Rate, Time};
use silo_pacer::batch::{PacedBatcher, VoidChunks, WireFrame, MIN_VOID_BYTES};

const LINK: Rate = Rate(10_000_000_000);
const MTU: Bytes = Bytes(1500);

/// 84 B at 10 GbE — the minimum spacing between consecutive frame starts.
fn min_frame_time() -> Dur {
    LINK.tx_time(Bytes(MIN_VOID_BYTES))
}

/// The frames the NIC transmits: `(start, size, Some(payload))` per data
/// frame, and each void run expanded into its `(start, size, None)`
/// chunks.
fn expand<P: Clone>(frames: &[WireFrame<P>]) -> Vec<(Time, Bytes, Option<P>)> {
    let mut out = Vec::new();
    for f in frames {
        match f {
            WireFrame::Data {
                start,
                size,
                payload,
            } => out.push((*start, *size, Some(payload.clone()))),
            WireFrame::Void { start, gap_end, .. } => out.extend(
                VoidChunks::new(*start, *gap_end, LINK, MTU).map(|(s, size)| (s, size, None)),
            ),
        }
    }
    out
}

/// Render frames as `start_ps kind size` lines — the golden format.
fn render<P: Clone>(frames: &[WireFrame<P>]) -> Vec<String> {
    expand(frames)
        .iter()
        .map(|(start, size, payload)| {
            let kind = if payload.is_some() { "data" } else { "void" };
            format!("{} {kind} {}", start.as_ps(), size.as_u64())
        })
        .collect()
}

/// Pull batches until the queue drains, starting at `t0`; return the
/// transmitted frames, void runs expanded.
fn drain<P: Clone>(b: &mut PacedBatcher<P>, t0: Time) -> Vec<(Time, Bytes, Option<P>)> {
    let mut frames = Vec::new();
    let mut now = t0;
    loop {
        let batch = b.next_batch(now);
        if batch.is_empty() {
            match b.next_stamp() {
                Some(s) => now = s.max(now),
                None => break,
            }
        } else {
            now = batch.done_at;
            frames.extend(expand(&batch.frames));
        }
    }
    frames
}

#[test]
fn golden_two_vm_interleaved_schedule() {
    // VM A: 1500 B frames at 0 / 6 / 12 µs (a 2 Gbps pacing chain);
    // VM B: 84 B frames at 3 / 9 µs. Every gap is filled with voids, the
    // last of which is shrunk to land the next data frame exactly on its
    // stamp. Hand-computed at 10 GbE (1500 B = 1.2 µs, 84 B = 67.2 ns).
    let mut b = PacedBatcher::new(LINK, Dur::from_us(50), Bytes(1500));
    for (us, size, id) in [
        (0u64, 1500u64, 0u32),
        (6, 1500, 1),
        (12, 1500, 2),
        (3, 84, 100),
        (9, 84, 101),
    ] {
        b.enqueue(Time::from_us(us), Bytes(size), id);
    }
    let batch = b.next_batch(Time::ZERO);
    let golden = [
        "0 data 1500",       // A0 on its stamp
        "1200000 void 1500", // gap to B0: 1.8 µs = 1500 + 750 void bytes
        "2400000 void 750",
        "3000000 data 84",   // B0 exactly on its stamp
        "3067200 void 1500", // gap to A1: 2.9328 µs = 1500+1500+666
        "4267200 void 1500",
        "5467200 void 666",
        "6000000 data 1500", // A1
        "7200000 void 1500",
        "8400000 void 750",
        "9000000 data 84", // B1
        "9067200 void 1500",
        "10267200 void 1500",
        "11467200 void 666",
        "12000000 data 1500", // A2
    ];
    assert_eq!(render(&batch.frames), golden);
    assert_eq!(batch.done_at, Time::from_us(12) + LINK.tx_time(Bytes(1500)));
}

#[test]
fn schedule_is_back_to_back_with_min_spacing() {
    // Random stamps and sizes: the emitted schedule must be gap-free
    // (each frame starts exactly where the previous one ended) and no two
    // frame starts may be closer than one minimal frame time.
    let mut rng = seeded_rng(42);
    let mut b = PacedBatcher::new(LINK, Dur::from_us(50), Bytes(1500));
    for id in 0..500u32 {
        let stamp = Time(rng.random_range(0..2_000_000_000u64)); // 2 ms
        let size = Bytes(rng.random_range(MIN_VOID_BYTES..1501));
        b.enqueue(stamp, size, id);
    }
    let frames = drain(&mut b, Time::ZERO);
    assert_eq!(frames.iter().filter(|f| f.2.is_some()).count(), 500);
    for w in frames.windows(2) {
        let spacing = w[1].0 - w[0].0;
        assert!(
            spacing >= min_frame_time(),
            "frames {} and {} only {} ps apart",
            w[0].0.as_ps(),
            w[1].0.as_ps(),
            spacing.as_ps()
        );
        // Within a batch frames are back-to-back; across batches the NIC
        // may idle, so allow gaps but never overlap.
        assert!(w[1].0 >= w[0].0 + LINK.tx_time(w[0].1));
    }
}

#[test]
fn paced_flow_achieves_98pct_of_ideal_rate_1_to_9_gbps() {
    // A single VM paced to R on a 10 G link, sending MTU frames stamped
    // exactly 1500 B / R apart. Void-frame rounding may delay each data
    // frame by < 68 ns but must never starve the flow: delivered goodput
    // stays within 2% of R at every guarantee the paper sweeps (Fig. 10).
    for gbps in 1..=9u64 {
        let rate = Rate::from_gbps(gbps);
        let period = rate.tx_time(Bytes(1500));
        let mut b = PacedBatcher::new(LINK, Dur::from_us(50), Bytes(1500));
        let n = 2_000u64;
        for i in 0..n {
            b.enqueue(Time::ZERO + period * i, Bytes(1500), i);
        }
        let frames = drain(&mut b, Time::ZERO);
        let data: Vec<Time> = frames
            .iter()
            .filter(|f| f.2.is_some())
            .map(|f| f.0)
            .collect();
        assert_eq!(data.len(), n as usize, "{gbps} Gbps: every frame sent");
        let span = (*data.last().unwrap() + LINK.tx_time(Bytes(1500)))
            .since(Time::ZERO)
            .as_secs_f64();
        let achieved_bps = n as f64 * 1500.0 * 8.0 / span;
        let ideal_bps = rate.as_bps() as f64;
        assert!(
            achieved_bps >= 0.98 * ideal_bps,
            "{gbps} Gbps: achieved {:.3} Gbps < 98% of ideal",
            achieved_bps / 1e9
        );
        // Conformance: no data frame ever leaves before its stamp, and
        // rounding delay stays under one minimal frame time.
        for (i, &start) in data.iter().enumerate() {
            let stamp = Time::ZERO + period * i as u64;
            assert!(start >= stamp, "{gbps} Gbps: frame {i} left early");
            assert!(
                start.since(stamp) < min_frame_time(),
                "{gbps} Gbps: frame {i} delayed {} ps",
                start.since(stamp).as_ps()
            );
        }
    }
}

#[test]
fn wheel_and_heap_backends_emit_identical_schedules() {
    // Same random workload through the timer wheel and the reference
    // BinaryHeap: the batcher's wire schedule (and therefore everything
    // downstream of the pacer) must be byte-identical.
    let mut rng = seeded_rng(7);
    let mut wheel =
        PacedBatcher::with_queue_backend(LINK, Dur::from_us(50), Bytes(1500), QueueBackend::Wheel);
    let mut heap =
        PacedBatcher::with_queue_backend(LINK, Dur::from_us(50), Bytes(1500), QueueBackend::Heap);
    let mut now = Time::ZERO;
    for round in 0..200u32 {
        // A burst of stamps around `now` — including equal stamps (FIFO
        // tie-break is part of the contract) and stamps already in the
        // past (late arrivals from a slow pacing chain).
        for j in 0..rng.random_range(1..8u32) {
            let t = match rng.random_range(0..4u32) {
                0 => now,
                1 => Time(now.as_ps().saturating_sub(rng.random_range(0..500_000u64))),
                _ => now + Dur::from_ns(rng.random_range(0..200_000u64)),
            };
            let size = Bytes(rng.random_range(MIN_VOID_BYTES..1501));
            wheel.enqueue(t, size, (round, j));
            heap.enqueue(t, size, (round, j));
        }
        let bw = wheel.next_batch(now);
        let bh = heap.next_batch(now);
        assert_eq!(render(&bw.frames), render(&bh.frames), "round {round}");
        assert_eq!(
            expand(&bw.frames),
            expand(&bh.frames),
            "round {round}: payload order diverged"
        );
        assert_eq!(bw.done_at, bh.done_at);
        now = bw.done_at.max(now) + Dur::from_us(rng.random_range(1..30u64));
    }
}
