//! Paced IO Batching with void packets (paper §4.3.1, Fig. 9).
//!
//! Packets arrive already *timestamped* by the token-bucket chains of the
//! VMs sharing the NIC (stamps from different VMs interleave arbitrarily,
//! so the batcher keeps a priority queue). The batcher assembles, once per
//! DMA-completion, up to one batch window (50 µs by default) of wire
//! frames in which every gap between data packets is occupied by void
//! frames. The NIC transmits the whole batch back-to-back, so each data
//! packet hits the wire exactly at (or minimally after) its timestamp.
//!
//! Voids are only generated *between* packets of a batch: if nothing is
//! due yet the batch is empty and the NIC idles until the next stamp (§5:
//! "the pacer does not incur any extra CPU overhead when the network is
//! idle").

use silo_base::{Bytes, Dur, EventQueue, QueueBackend, Rate, Time};

/// The smallest frame a NIC can put on the wire: 64 B Ethernet minimum +
/// 20 B preamble/IPG = 84 B, i.e. 67.2 ns at 10 GbE — the pacer's spacing
/// granularity (§4.3.1).
pub const MIN_VOID_BYTES: u64 = 84;

/// One entry in a batch's wire schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum WireFrame<P> {
    /// A tenant packet whose first bit hits the wire at `start`.
    Data {
        start: Time,
        size: Bytes,
        payload: P,
    },
    /// The void frames filling one gap `[start, gap_end)`, forwarded by
    /// the NIC and dropped by the first switch (destination MAC = source
    /// MAC). `bytes` is the run's total wire size; the frames themselves
    /// are `VoidChunks::new(start, gap_end, link, mtu)`. Take wire
    /// intervals from those chunks, not from `tx_time(bytes)`: integer
    /// picoseconds make the two differ by a few ps per chunk.
    Void {
        start: Time,
        bytes: Bytes,
        gap_end: Time,
    },
}

impl<P> WireFrame<P> {
    /// Instant the frame's (or the run's first chunk's) first bit hits
    /// the wire.
    pub fn start(&self) -> Time {
        match self {
            WireFrame::Data { start, .. } | WireFrame::Void { start, .. } => *start,
        }
    }
}

/// The void chunks filling the gap `[cursor, gap_end)` on a link of rate
/// `link`: the frames a [`WireFrame::Void`] run stands for. Each chunk
/// covers the remaining gap clamped to `[MIN_VOID_BYTES, mtu]`, and the
/// cursor advances by the chunk's own integer-rounded serialization time
/// (so the final cursor may overshoot `gap_end` by a sub-84 B round-up).
/// Yields `(start, size)` per chunk; [`VoidChunks::cursor`] exposes the
/// post-run cursor.
#[derive(Debug, Clone)]
pub struct VoidChunks {
    cursor: Time,
    gap_end: Time,
    link: Rate,
    mtu: u64,
}

impl VoidChunks {
    pub fn new(cursor: Time, gap_end: Time, link: Rate, mtu: Bytes) -> VoidChunks {
        VoidChunks {
            cursor,
            gap_end,
            link,
            mtu: mtu.as_u64(),
        }
    }

    /// Where the wire cursor stands after the chunks yielded so far.
    pub fn cursor(&self) -> Time {
        self.cursor
    }

    /// Consume the whole run and return `(total bytes, final cursor)` —
    /// exactly what driving the iterator to exhaustion yields, but with
    /// the full-MTU prefix skipped in O(1) instead of walked chunk by
    /// chunk (the batcher's hot path: a mostly-idle 50 µs window is one
    /// ~40-chunk run).
    ///
    /// Exactness argument: while at least `mtu` gap bytes remain, every
    /// chunk is exactly `mtu` and the cursor step is the constant
    /// `tx_time(mtu)`, so `k` verified steps land where `k` iterations
    /// would (integer picoseconds are associative). The per-step
    /// predicate "chunk `i` is a full MTU" is monotone non-increasing in
    /// `i` (the cursor only advances, `bytes_in` is monotone), so
    /// checking it at `k − 1` proves it for every skipped step — no
    /// rounding model of `bytes_in`/`tx_time` is assumed. The tail runs
    /// through [`Iterator::next`] itself.
    pub fn drain_total(mut self) -> (Bytes, Time) {
        let t_mtu = self.link.tx_time(Bytes(self.mtu));
        let mut total = 0u64;
        if self.cursor < self.gap_end {
            let gap_bytes = self.link.bytes_in(self.gap_end - self.cursor).as_u64();
            // Idealized full-chunk count; verified (and lowered if the
            // integer rounding shaved a chunk) before the jump.
            let mut k = gap_bytes / self.mtu;
            let full_at = |i: u64| {
                let c = self.cursor + t_mtu * i;
                c < self.gap_end && self.link.bytes_in(self.gap_end - c).as_u64() >= self.mtu
            };
            while k > 0 && !full_at(k - 1) {
                k -= 1;
            }
            total += k * self.mtu;
            self.cursor += t_mtu * k;
        }
        for (_, size) in self.by_ref() {
            total += size.as_u64();
        }
        (Bytes(total), self.cursor)
    }
}

impl Iterator for VoidChunks {
    type Item = (Time, Bytes);

    fn next(&mut self) -> Option<(Time, Bytes)> {
        if self.cursor >= self.gap_end {
            return None;
        }
        let gap_bytes = self.link.bytes_in(self.gap_end - self.cursor).as_u64();
        let void = gap_bytes.clamp(MIN_VOID_BYTES, self.mtu);
        let start = self.cursor;
        self.cursor += self.link.tx_time(Bytes(void));
        Some((start, Bytes(void)))
    }
}

/// One NIC batch: frames transmitted back-to-back plus the DMA-completion
/// instant at which the next batch should be pulled.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch<P> {
    pub frames: Vec<WireFrame<P>>,
    /// When the NIC finishes this batch (`== the pull instant` for an
    /// empty batch: the NIC is idle; re-arm at [`PacedBatcher::next_stamp`]).
    pub done_at: Time,
}

impl<P> Batch<P> {
    /// An empty batch with no frame storage — the seed value for the
    /// scratch-reuse path ([`PacedBatcher::next_batch_into`]).
    pub fn empty() -> Batch<P> {
        Batch {
            frames: Vec::new(),
            done_at: Time::ZERO,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
    pub fn data_bytes(&self) -> Bytes {
        self.frames
            .iter()
            .map(|f| match f {
                WireFrame::Data { size, .. } => *size,
                WireFrame::Void { .. } => Bytes::ZERO,
            })
            .sum()
    }
    pub fn void_bytes(&self) -> Bytes {
        self.frames
            .iter()
            .map(|f| match f {
                WireFrame::Data { .. } => Bytes::ZERO,
                WireFrame::Void { bytes, .. } => *bytes,
            })
            .sum()
    }
}

/// Assembles paced batches for one NIC shared by many VM pacers.
///
/// The stamp queue is the same timer wheel that drives the simulator's
/// event loop ([`silo_base::EventQueue`]): earliest stamp first, FIFO on
/// equal stamps.
///
/// A NIC's stamps come from a few senders whose own stamps never
/// decrease: a VM's token buckets answer no earlier than their last
/// commit, and an ACK is stamped at the instant it is sent. So a caller
/// that can name the sender uses [`PacedBatcher::enqueue_from`], which
/// files the stamp on that sender's lane of the queue
/// ([`EventQueue::push_lane`]): a FIFO append instead of a trip through
/// the wheel's levels, with pop order still `(stamp, insertion order)`
/// across every lane and the wheel. A stamp that steps back on its lane
/// (a VM whose buckets were just reset) takes the wheel, so the schedule
/// is the one [`PacedBatcher::enqueue`] gives for the same stamps.
pub struct PacedBatcher<P> {
    link: Rate,
    window: Dur,
    mtu: Bytes,
    queue: EventQueue<(Bytes, P)>,
    /// Data frames scheduled *before* their stamp — release-causality
    /// violations. Structurally impossible (a packet is only popped once
    /// `head_stamp <= cursor`), so this stays zero; the audit layer folds
    /// it into its report as a checked invariant rather than trusting the
    /// code by inspection.
    early_releases: u64,
}

impl<P> PacedBatcher<P> {
    /// `link` is the NIC line rate; `window` the batch length in wire time
    /// (the paper uses 50 µs); `mtu` caps individual void frames.
    pub fn new(link: Rate, window: Dur, mtu: Bytes) -> PacedBatcher<P> {
        PacedBatcher::with_queue_backend(link, window, mtu, QueueBackend::default())
    }

    /// [`PacedBatcher::new`] with an explicit stamp-queue backend — the
    /// differential tests run the same workload through the timer wheel
    /// and the reference heap and demand identical wire schedules.
    pub fn with_queue_backend(
        link: Rate,
        window: Dur,
        mtu: Bytes,
        backend: QueueBackend,
    ) -> PacedBatcher<P> {
        assert!(window > Dur::ZERO);
        assert!(mtu.as_u64() >= MIN_VOID_BYTES);
        PacedBatcher {
            link,
            window,
            mtu,
            queue: EventQueue::with_backend(backend),
            early_releases: 0,
        }
    }

    /// Number of data frames ever scheduled ahead of their stamp (always
    /// zero for a correct batcher; see the field doc).
    pub fn early_releases(&self) -> u64 {
        self.early_releases
    }

    /// Hand a timestamped packet to the NIC queue (any stamp order; equal
    /// stamps keep insertion order).
    pub fn enqueue(&mut self, stamp: Time, size: Bytes, payload: P) {
        self.queue.push(stamp, (size, payload));
    }

    /// [`PacedBatcher::enqueue`] for a stamp from sender `source`, a
    /// small dense index whose stamps are normally non-decreasing (the
    /// type docs). The batches are identical either way; this one keeps
    /// the sender's stamps in a FIFO lane instead of the wheel.
    pub fn enqueue_from(&mut self, source: usize, stamp: Time, size: Bytes, payload: P) {
        self.queue.push_lane(source, stamp, (size, payload));
    }

    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Earliest stamp waiting, if any — when an empty batch comes back,
    /// the host re-arms its pull timer for this instant.
    pub fn next_stamp(&mut self) -> Option<Time> {
        self.queue.peek_time()
    }

    /// Build the next batch, called at `now` (NIC idle: previous DMA
    /// completed). The batch starts at the first due stamp (never before
    /// `now`) and covers one window of wire time:
    ///
    /// * a data packet whose stamp has passed goes out immediately;
    /// * a gap before the next stamp is filled with void frames, emitted
    ///   as one [`WireFrame::Void`] run — unless the queue is empty, in
    ///   which case the batch ends early;
    /// * a sub-84 B gap is rounded **up** to one minimal void frame: data
    ///   is delayed by < 68 ns rather than released early, keeping the
    ///   schedule conformant;
    /// * if nothing is due yet (`next_stamp() > now`), the batch is empty —
    ///   the NIC idles rather than transmit leading voids.
    pub fn next_batch(&mut self, now: Time) -> Batch<P> {
        let mut batch = Batch::empty();
        self.next_batch_into(now, &mut batch);
        batch
    }

    /// [`PacedBatcher::next_batch`] writing into caller-owned storage: the
    /// frame vector is cleared and refilled, so a host pulling batches in
    /// a loop reuses one allocation instead of building a fresh `Vec`
    /// every 50 µs window. Identical schedule, byte for byte.
    pub fn next_batch_into(&mut self, now: Time, out: &mut Batch<P>) {
        out.frames.clear();
        out.done_at = now;
        let Some(head_stamp) = self.queue.peek_time() else {
            return;
        };
        if head_stamp > now {
            return;
        }
        let mut cursor = now;
        let end = now + self.window;
        while cursor < end {
            let Some(head_stamp) = self.queue.peek_time() else {
                break;
            };
            if head_stamp <= cursor {
                let (_, (size, payload)) = self.queue.pop().expect("nonempty");
                if cursor < head_stamp {
                    self.early_releases += 1;
                }
                out.frames.push(WireFrame::Data {
                    start: cursor,
                    size,
                    payload,
                });
                cursor += self.link.tx_time(size);
            } else {
                // Fill the gap up to the stamp (or window end) with voids.
                // The head stamp cannot change until the next pop, so the
                // whole gap is one run; the cursor walks its per-chunk
                // rounding.
                let gap_end = head_stamp.min(end);
                let (bytes, after) =
                    VoidChunks::new(cursor, gap_end, self.link, self.mtu).drain_total();
                out.frames.push(WireFrame::Void {
                    start: cursor,
                    bytes,
                    gap_end,
                });
                cursor = after;
            }
        }
        out.done_at = cursor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_base::prop::{forall, shrink_vec, Rng};

    const LINK: Rate = Rate(10_000_000_000);
    const MTU: Bytes = Bytes(1500);

    fn batcher() -> PacedBatcher<u32> {
        PacedBatcher::new(LINK, Dur::from_us(50), MTU)
    }

    /// A wire schedule frame by frame: `(start, size, Some(payload))` per
    /// data frame, `(start, size, None)` per void chunk.
    type Frames = Vec<(Time, Bytes, Option<u32>)>;

    /// The batch's frames with every void run expanded into its chunks.
    fn expand(batch: &Batch<u32>) -> Frames {
        let mut out = Vec::new();
        for f in &batch.frames {
            match *f {
                WireFrame::Data {
                    start,
                    size,
                    payload,
                } => out.push((start, size, Some(payload))),
                WireFrame::Void {
                    start,
                    bytes,
                    gap_end,
                } => {
                    let run: Vec<(Time, Bytes)> =
                        VoidChunks::new(start, gap_end, LINK, MTU).collect();
                    assert_eq!(run.iter().map(|c| c.1).sum::<Bytes>(), bytes, "run total");
                    out.extend(run.into_iter().map(|(s, size)| (s, size, None)));
                }
            }
        }
        out
    }

    /// The data frames of a batch as `(start, payload)`.
    fn data(batch: &Batch<u32>) -> Vec<(Time, u32)> {
        expand(batch)
            .into_iter()
            .filter_map(|(start, _, p)| Some((start, p?)))
            .collect()
    }

    #[test]
    fn empty_queue_gives_empty_batch() {
        let mut b = batcher();
        let batch = b.next_batch(Time::from_us(7));
        assert!(batch.is_empty());
        assert_eq!(batch.done_at, Time::from_us(7));
    }

    #[test]
    fn future_stamp_means_idle_not_voids() {
        let mut b = batcher();
        b.enqueue(Time::from_us(30), Bytes(1500), 0);
        let batch = b.next_batch(Time::ZERO);
        assert!(batch.is_empty(), "no leading voids while idle");
        assert_eq!(b.next_stamp(), Some(Time::from_us(30)));
        // Pulled again at the stamp, the packet goes out.
        let batch = b.next_batch(Time::from_us(30));
        assert_eq!(batch.frames.len(), 1);
        assert_eq!(batch.frames[0].start(), Time::from_us(30));
    }

    #[test]
    fn paper_fig9_interleaving() {
        // A VM limited to 2 Gbps on a 10 G link: 1500 B data every 6 us,
        // i.e. every fifth wire slot is data, the rest void.
        let mut b = batcher();
        for i in 0..8u32 {
            b.enqueue(Time::from_us(6 * i as u64), Bytes(1500), i);
        }
        let batch = b.next_batch(Time::ZERO);
        let data = data(&batch);
        assert_eq!(data.len(), 8);
        for (i, &(start, payload)) in data.iter().enumerate() {
            assert_eq!(start, Time::from_us(6 * i as u64), "packet {i}");
            assert_eq!(payload, i as u32);
        }
        // Gaps are filled: 6 us − 1.2 us data = 4.8 us = 6000 B of voids
        // per gap, i.e. one run of 4 MTU voids.
        assert_eq!(batch.frames.len(), 8 + 7, "one void run per gap");
        let voids: Vec<Bytes> = expand(&batch)
            .into_iter()
            .filter(|f| f.2.is_none())
            .map(|f| f.1)
            .collect();
        assert_eq!(voids, vec![Bytes(1500); 7 * 4]);
    }

    #[test]
    fn unordered_stamps_from_two_vms_interleave() {
        let mut b = batcher();
        // VM A stamps first at 0 and 24 us; VM B at 12 us — enqueued out
        // of order.
        b.enqueue(Time::ZERO, Bytes(1500), 100);
        b.enqueue(Time::from_us(24), Bytes(1500), 101);
        b.enqueue(Time::from_us(12), Bytes(1500), 200);
        let batch = b.next_batch(Time::ZERO);
        let order: Vec<u32> = data(&batch).into_iter().map(|(_, p)| p).collect();
        assert_eq!(order, vec![100, 200, 101]);
    }

    #[test]
    fn min_spacing_is_68ns() {
        // Two packets stamped 2 frame times apart: one minimal void in
        // between.
        let mut b = batcher();
        b.enqueue(Time::ZERO, Bytes(84), 0);
        b.enqueue(Time(84 * 800 * 2), Bytes(84), 1);
        let batch = b.next_batch(Time::ZERO);
        assert_eq!(batch.frames.len(), 3);
        assert!(matches!(
            batch.frames[1],
            WireFrame::Void {
                bytes: Bytes(84),
                ..
            }
        ));
        assert_eq!(
            batch.frames[2].start() - batch.frames[0].start(),
            Dur::from_ps(2 * 67_200)
        );
    }

    #[test]
    fn sub_minimum_gap_delays_data() {
        // Stamp 10 ns after the previous frame ends: the 84 B void pushes
        // the data 67.2 ns instead — late, never early.
        let mut b = batcher();
        b.enqueue(Time::ZERO, Bytes(1500), 0);
        let first_end = LINK.tx_time(Bytes(1500));
        let stamp = Time::ZERO + first_end + Dur::from_ns(10);
        b.enqueue(stamp, Bytes(1500), 1);
        let batch = b.next_batch(Time::ZERO);
        assert_eq!(batch.frames.len(), 3);
        let WireFrame::Data { start, .. } = batch.frames[2] else {
            panic!("third frame must be data: {:?}", batch.frames[2]);
        };
        assert!(start >= stamp, "data must not leave early");
        assert!(start.since(stamp) < Dur::from_ns(68));
    }

    #[test]
    fn no_voids_when_queue_drains() {
        let mut b = batcher();
        b.enqueue(Time::ZERO, Bytes(1500), 0);
        let batch = b.next_batch(Time::ZERO);
        assert_eq!(batch.frames.len(), 1);
        assert_eq!(batch.done_at, Time::ZERO + LINK.tx_time(Bytes(1500)));
    }

    #[test]
    fn window_bounds_batch_length() {
        let mut b = batcher();
        // 100 back-to-back MTU packets = 120 us of wire time.
        for i in 0..100u32 {
            b.enqueue(Time::ZERO, Bytes(1500), i);
        }
        let batch = b.next_batch(Time::ZERO);
        assert!(batch.frames.len() >= 41 && batch.frames.len() <= 43);
        assert!(batch.done_at.since(Time::ZERO) <= Dur::from_us(51));
        let batch2 = b.next_batch(batch.done_at);
        assert!(!batch2.is_empty());
        assert_eq!(batch2.frames[0].start(), batch.done_at);
    }

    #[test]
    fn no_early_releases_across_batches() {
        let mut b = batcher();
        for i in 0..50u32 {
            b.enqueue(Time::from_us(3 * i as u64), Bytes(1500), i);
        }
        let mut now = Time::ZERO;
        while b.pending() > 0 {
            let batch = b.next_batch(now);
            for f in &batch.frames {
                assert!(f.start() >= now);
            }
            now = batch.done_at.max(now + Dur::from_us(1));
        }
        assert_eq!(b.early_releases(), 0);
    }

    #[test]
    fn expanded_frames_are_back_to_back_and_on_their_stamps() {
        // One VM's stamp stream, each stamp `gap` after the previous
        // frame's end: back to back, sub-84 B, a few chunks, and longer
        // than a window. Enqueued in a scrambled order (the queue sorts)
        // and pulled as the NIC does, at `done_at` or at the next stamp.
        // With every void run expanded through `VoidChunks`, each batch
        // must be gap-free from its pull instant to `done_at`, and every
        // data frame must leave in `[stamp, stamp + 67.2 ns)`.
        forall(
            "paced batches are back to back with each data frame on its stamp",
            |rng| {
                let n = rng.random_range(1..40usize);
                (0..n)
                    .map(|_| {
                        let gap_ps = match rng.random_range(0..4u32) {
                            0 => 0,
                            1 => rng.random_range(1..67_200u64),
                            2 => rng.random_range(67_200..6_000_000u64),
                            _ => rng.random_range(6_000_000..120_000_000u64),
                        };
                        (gap_ps, rng.random_range(MIN_VOID_BYTES..1501))
                    })
                    .collect::<Vec<(u64, u64)>>()
            },
            |pkts| shrink_vec(pkts, |_| Vec::new()),
            |pkts| {
                let mut stamps = Vec::new();
                let mut t = Time::from_ns(3); // off the picosecond grid
                for &(gap_ps, size) in pkts {
                    t += Dur::from_ps(gap_ps);
                    stamps.push(t);
                    t += LINK.tx_time(Bytes(size));
                }
                let mut b = batcher();
                let n = pkts.len();
                for i in (1..n).step_by(2).chain((0..n).step_by(2)) {
                    b.enqueue(stamps[i], Bytes(pkts[i].1), i as u32);
                }
                let mut now = Time::ZERO;
                let mut sent = 0;
                while b.pending() > 0 {
                    let batch = b.next_batch(now);
                    if batch.is_empty() {
                        now = b.next_stamp().expect("pending").max(now);
                        continue;
                    }
                    let mut cursor = now;
                    for (start, size, payload) in expand(&batch) {
                        if start != cursor {
                            return Err(format!("frame at {start:?}, wire free at {cursor:?}"));
                        }
                        cursor += LINK.tx_time(size);
                        let Some(i) = payload else {
                            if !(MIN_VOID_BYTES..=1500).contains(&size.as_u64()) {
                                return Err(format!("void chunk of {size:?}"));
                            }
                            continue;
                        };
                        let stamp = stamps[i as usize];
                        if i as usize != sent || start < stamp || start - stamp >= Dur(67_200) {
                            return Err(format!(
                                "packet {i} (#{sent} out) stamped {stamp:?} left at {start:?}"
                            ));
                        }
                        sent += 1;
                    }
                    if cursor != batch.done_at {
                        return Err(format!(
                            "frames end at {cursor:?}, done_at {:?}",
                            batch.done_at
                        ));
                    }
                    now = batch.done_at;
                }
                Ok(())
            },
        );
    }

    /// A per-chunk reference batcher: the same pull rules as
    /// [`PacedBatcher::next_batch`], written out plainly over a stably
    /// sorted stamp list, with every void chunk emitted as its own frame
    /// by the chunk rule itself (remaining gap clamped to `[84 B, MTU]`,
    /// cursor advanced by that chunk's serialization time). Returns one
    /// `(frames, done_at)` per pull, frames as `(start, size, payload)`.
    struct PerChunk {
        queue: Vec<(Time, Bytes, u32)>,
    }

    impl PerChunk {
        fn next_batch(&mut self, now: Time) -> (Frames, Time) {
            let mut frames = Vec::new();
            if self.queue.first().is_none_or(|h| h.0 > now) {
                return (frames, now);
            }
            let mut cursor = now;
            let end = now + Dur::from_us(50);
            while cursor < end && !self.queue.is_empty() {
                let head = self.queue[0].0;
                if head <= cursor {
                    let (_, size, p) = self.queue.remove(0);
                    frames.push((cursor, size, Some(p)));
                    cursor += LINK.tx_time(size);
                } else {
                    let gap_end = head.min(end);
                    while cursor < gap_end {
                        let gap = LINK.bytes_in(gap_end - cursor).as_u64();
                        let size = Bytes(gap.clamp(MIN_VOID_BYTES, MTU.as_u64()));
                        frames.push((cursor, size, None));
                        cursor += LINK.tx_time(size);
                    }
                }
            }
            (frames, cursor)
        }
    }

    /// Feed the batcher and the per-chunk reference the same stamp stream
    /// and pull both at the same instants (`done_at`, or the next stamp
    /// after an empty batch), returning the two batch sequences.
    fn lockstep(
        stamps: &[(u64, u64, u32)], // (stamp µs, size B, payload)
    ) -> (Vec<(Frames, Time)>, Vec<Batch<u32>>) {
        let mut reference = PerChunk { queue: Vec::new() };
        let mut co = batcher();
        for &(us, size, p) in stamps {
            reference.queue.push((Time::from_us(us), Bytes(size), p));
            co.enqueue(Time::from_us(us), Bytes(size), p);
        }
        reference.queue.sort_by_key(|f| f.0);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut now = Time::ZERO;
        while !reference.queue.is_empty() || co.pending() > 0 {
            let x = reference.next_batch(now);
            let y = co.next_batch(now);
            assert_eq!(x.1, y.done_at, "done_at diverged at {now:?}");
            now = if x.0.is_empty() {
                reference.queue[0].0.max(now)
            } else {
                x.1
            };
            a.push(x);
            b.push(y);
        }
        (a, b)
    }

    #[test]
    fn coalescing_preserves_the_wire_schedule() {
        // Fig. 9 shape plus a jittered tail: multi-chunk gaps, a sub-84 B
        // round-up, and a window-clipped gap all appear. One void run per
        // gap must leave the data schedule and the void byte count of the
        // per-chunk reference untouched, in fewer frames.
        let mut stamps: Vec<(u64, u64, u32)> = (0..8).map(|i| (6 * i, 1500, i as u32)).collect();
        stamps.push((100, 1500, 100));
        stamps.push((101, 84, 101));
        let (plain, co) = lockstep(&stamps);
        for ((frames, _), y) in plain.iter().zip(&co) {
            let x_data: Frames = frames.iter().filter(|f| f.2.is_some()).copied().collect();
            let y_data: Frames = expand(y).into_iter().filter(|f| f.2.is_some()).collect();
            assert_eq!(x_data, y_data, "data schedule must be untouched");
            let x_voids: Bytes = frames.iter().filter(|f| f.2.is_none()).map(|f| f.1).sum();
            assert_eq!(x_voids, y.void_bytes(), "total void bytes");
            let x_bytes: Bytes = x_data.iter().map(|f| f.1).sum();
            assert_eq!(x_bytes, y.data_bytes());
        }
        let plain_frames = plain.iter().map(|x| x.0.len()).sum::<usize>();
        let co_frames = co.iter().map(|x| x.frames.len()).sum::<usize>();
        assert!(
            co_frames < plain_frames,
            "coalescing must shrink the frame count ({co_frames} vs {plain_frames})"
        );
    }

    #[test]
    fn coalesced_runs_reexpand_to_the_exact_chunk_frames() {
        // Every void run, expanded through VoidChunks with its recorded
        // gap boundary, reproduces the per-chunk reference frames bit for
        // bit — starts, sizes, order, and the post-run cursor.
        let stamps: Vec<(u64, u64, u32)> = vec![
            (0, 1500, 0),
            (6, 1500, 1),
            (30, 300, 2),
            (31, 84, 3),
            (70, 1500, 4),
        ];
        let (plain, co) = lockstep(&stamps);
        for ((frames, _), y) in plain.iter().zip(&co) {
            assert_eq!(&expand(y), frames, "re-expansion must be bit-exact");
        }
    }

    #[test]
    fn drain_total_matches_the_iterator_exactly() {
        // The O(1) full-MTU bulk skip must agree with chunk-by-chunk
        // iteration — total bytes AND final cursor — across gap lengths
        // that hit every regime: sub-minimum, between 84 B and MTU, exact
        // MTU multiples, off-grid picosecond offsets, and multi-window
        // runs. Two link rates exercise different tx-time roundings.
        for link in [Rate::from_gbps(10), Rate::from_gbps(40)] {
            for mtu in [Bytes(1500), Bytes(9000)] {
                for ps in [
                    1u64,
                    17,
                    66_000,
                    67_200,
                    67_201,
                    1_200_000,
                    1_200_001,
                    2_400_000,
                    3_600_007,
                    50_000_000,
                    50_000_001,
                    49_999_999,
                    123_456_789,
                    1_000_000_007,
                ] {
                    let start = Time::from_ns(3); // off-grid cursor
                    let gap_end = start + Dur::from_ps(ps);
                    let it = VoidChunks::new(start, gap_end, link, mtu);
                    let mut total = 0u64;
                    let mut walked = it.clone();
                    for (_, size) in walked.by_ref() {
                        total += size.as_u64();
                    }
                    let (fast_total, fast_cursor) = it.drain_total();
                    assert_eq!(
                        (fast_total.as_u64(), fast_cursor),
                        (total, walked.cursor()),
                        "bulk skip diverged at link={link:?} mtu={mtu:?} gap={ps}ps"
                    );
                }
            }
        }
    }

    /// One step of a NIC's life for the lane differential below.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// Sender `src` stamps a packet `gap_ps` after its previous stamp,
        /// or, with `back`, `gap_ps` after the last pull instant, which
        /// may lie before its previous stamp (a readmitted VM's fresh
        /// buckets).
        Stamp {
            src: usize,
            gap_ps: u64,
            back: bool,
            size: u64,
        },
        /// The NIC pulls a batch.
        Pull,
    }

    /// Pull one batch from both batchers at `now`, demand the same batch
    /// and the same queue state, and move `now` to the next pull instant
    /// (`done_at`, or the next stamp after an empty batch).
    fn pull_both(
        now: &mut Time,
        lanes: &mut PacedBatcher<u32>,
        reference: &mut PacedBatcher<u32>,
    ) -> Result<(), String> {
        let (x, y) = (reference.next_batch(*now), lanes.next_batch(*now));
        if x != y {
            return Err(format!("pull at {now:?}: heap {x:?}, lanes {y:?}"));
        }
        let next = reference.next_stamp();
        if next != lanes.next_stamp() || reference.pending() != lanes.pending() {
            return Err(format!("queues diverge after the pull at {now:?}"));
        }
        *now = match next {
            Some(s) if x.is_empty() => s.max(*now),
            _ => x.done_at,
        };
        Ok(())
    }

    #[test]
    fn sourced_lanes_match_the_reference_heap() {
        // The stamps of 1–6 senders, each non-decreasing except where a
        // sender steps back, interleaved with NIC pulls. Filed by sender
        // on the wheel's lanes, they must give batch for batch, frame for
        // frame, what the reference heap gives fed through `enqueue`.
        forall(
            "enqueue_from on the wheel matches enqueue on the reference heap",
            |rng| {
                let sources = rng.random_range(1..7usize);
                let n = rng.random_range(1..120usize);
                (0..n)
                    .map(|_| {
                        if rng.random_range(0..4u32) == 0 {
                            return Step::Pull;
                        }
                        let gap_ps = match rng.random_range(0..4u32) {
                            0 => 0,
                            1 => rng.random_range(1..67_200u64),
                            2 => rng.random_range(67_200..6_000_000u64),
                            _ => rng.random_range(6_000_000..120_000_000u64),
                        };
                        Step::Stamp {
                            src: rng.random_range(0..sources),
                            gap_ps,
                            back: rng.random_range(0..12u32) == 0,
                            size: rng.random_range(MIN_VOID_BYTES..1501),
                        }
                    })
                    .collect::<Vec<Step>>()
            },
            |steps| shrink_vec(steps, |_| Vec::new()),
            |steps| {
                let window = Dur::from_us(50);
                let mut lanes = PacedBatcher::new(LINK, window, MTU);
                let mut reference =
                    PacedBatcher::with_queue_backend(LINK, window, MTU, QueueBackend::Heap);
                let mut last = [Time::ZERO; 6];
                let mut now = Time::ZERO;
                for (i, &step) in steps.iter().enumerate() {
                    match step {
                        Step::Stamp {
                            src,
                            gap_ps,
                            back,
                            size,
                        } => {
                            let base = if back { now } else { last[src] };
                            last[src] = base + Dur::from_ps(gap_ps);
                            reference.enqueue(last[src], Bytes(size), i as u32);
                            lanes.enqueue_from(src, last[src], Bytes(size), i as u32);
                        }
                        Step::Pull => pull_both(&mut now, &mut lanes, &mut reference)?,
                    }
                }
                while reference.pending() > 0 {
                    pull_both(&mut now, &mut lanes, &mut reference)?;
                }
                match lanes.pending() {
                    0 => Ok(()),
                    n => Err(format!("{n} stamps left on the lanes")),
                }
            },
        );
    }

    #[test]
    fn late_stamps_are_sent_asap_in_order() {
        let mut b = batcher();
        b.enqueue(Time::ZERO, Bytes(1500), 0);
        b.enqueue(Time::from_ns(100), Bytes(1500), 1);
        let batch = b.next_batch(Time::from_us(100));
        assert_eq!(batch.frames.len(), 2);
        assert_eq!(
            data(&batch),
            vec![
                (Time::from_us(100), 0),
                (Time::from_us(100) + LINK.tx_time(Bytes(1500)), 1)
            ]
        );
    }
}
