//! Switch egress-port model: tail-drop FIFO with two 802.1q priority
//! levels, optional DCTCP ECN marking, and optional HULL phantom queues.

use crate::packet::{PathId, Pkt, PktId, PktKind};
use silo_base::{Bytes, Dur, Rate, Time};
use std::collections::VecDeque;

/// HULL's phantom (virtual) queue: a counter drained at `γ · C` that marks
/// packets when it exceeds a threshold, signaling congestion *before* any
/// real queue forms (Alizadeh et al., NSDI 2012).
#[derive(Debug, Clone)]
pub struct PhantomQueue {
    pub bytes: f64,
    pub drain_bps: f64,
    pub thresh: f64,
    pub last: Time,
}

impl PhantomQueue {
    pub fn new(line: Rate, gamma: f64, thresh: Bytes) -> PhantomQueue {
        PhantomQueue {
            bytes: 0.0,
            drain_bps: line.as_bps() as f64 * gamma,
            thresh: thresh.as_f64(),
            last: Time::ZERO,
        }
    }

    /// Account an arrival; returns true if the packet should be CE-marked.
    pub fn on_arrival(&mut self, now: Time, size: Bytes) -> bool {
        let dt = now.since(self.last).as_secs_f64();
        self.bytes = (self.bytes - self.drain_bps / 8.0 * dt).max(0.0);
        self.last = now;
        self.bytes += size.as_f64();
        self.bytes > self.thresh
    }
}

/// A packet sitting in a port FIFO (32 bytes): the packet itself and
/// when it was queued.
#[derive(Debug, Clone, Copy)]
pub struct QueuedPkt {
    pub pkt: Pkt,
    /// When the packet entered this FIFO. Read only by the flight
    /// recorder and telemetry for head-of-line wait — never by the physics.
    pub enq_at: Time,
}

/// Outcome of [`PortState::enqueue_hop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    Accepted {
        /// ECN/phantom marked the queued packet CE.
        mark_ce: bool,
    },
    /// Tail drop: the buffer is full. The drop is already counted.
    Dropped,
}

/// Runtime state of one directed egress port.
#[derive(Debug, Clone)]
pub struct PortState {
    pub rate: Rate,
    pub buffer: Bytes,
    pub prop: Dur,
    /// FIFO per priority level (0 served strictly first).
    pub queues: [VecDeque<QueuedPkt>; 2],
    pub queued_bytes: u64,
    /// Instant the current (or last) transmission ends; the port is idle
    /// whenever `now >= busy_until`.
    pub busy_until: Time,
    /// A `PortFree` wakeup event is in flight for `busy_until` — i.e. the
    /// port is mid-transmission. Exactly one is armed per transmission
    /// (see `Sim::start_tx`); an enqueue must never start service while
    /// one is pending, or same-instant ordering shifts.
    pub wakeup_armed: bool,
    /// Bit `i` set ⇔ `queues[i]` nonempty (dequeue/is_empty without
    /// scanning both VecDeques).
    nonempty: u8,
    /// DCTCP marking threshold; `None` disables ECN.
    pub ecn_k: Option<Bytes>,
    pub phantom: Option<PhantomQueue>,
    // Counters.
    pub drops: u64,
    pub tx_bytes: u64,
    pub tx_packets: u64,
    pub busy_time: Dur,
    /// High-water mark of the queue occupancy (bytes) — compared against
    /// the placement manager's backlog bounds in verification runs.
    pub max_queued: u64,
    /// Instant the high-water mark was reached (diagnostics).
    pub max_at: Time,
}

impl PortState {
    pub fn new(rate: Rate, buffer: Bytes, prop: Dur) -> PortState {
        PortState {
            rate,
            buffer,
            prop,
            queues: [VecDeque::new(), VecDeque::new()],
            queued_bytes: 0,
            busy_until: Time::ZERO,
            wakeup_armed: false,
            nonempty: 0,
            ecn_k: None,
            phantom: None,
            drops: 0,
            tx_bytes: 0,
            tx_packets: 0,
            busy_time: Dur::ZERO,
            max_queued: 0,
            max_at: Time::ZERO,
        }
    }

    /// [`PortState::enqueue_hop`] for a caller with no packet to carry.
    /// **Benchmark-kernel only**: the frozen `benchmark/src/kernels.rs`
    /// calls it with a [`PktId`], which nothing reads any more (ROADMAP's
    /// `benchmark/` deletion item removes both sides).
    pub fn enqueue(&mut self, now: Time, _id: PktId, size: Bytes, prio: u8) -> Enqueue {
        self.enqueue_hop(now, Pkt::new(PktKind::Data, 0, 0, size, prio, PathId(0)))
    }

    /// Try to enqueue; decides tail drop and ECN/phantom marking from the
    /// wire size alone, and sets the CE bit on the entry it queues.
    pub fn enqueue_hop(&mut self, now: Time, mut pkt: Pkt) -> Enqueue {
        let size = pkt.size();
        if self.queued_bytes + size.as_u64() > self.buffer.as_u64() {
            self.drops += 1;
            return Enqueue::Dropped;
        }
        let mut mark_ce = false;
        if let Some(k) = self.ecn_k {
            if self.queued_bytes + size.as_u64() > k.as_u64() {
                mark_ce = true;
            }
        }
        if let Some(pq) = &mut self.phantom {
            if pq.on_arrival(now, size) {
                mark_ce = true;
            }
        }
        if mark_ce {
            pkt.mark_ce();
        }
        self.queued_bytes += size.as_u64();
        if self.queued_bytes > self.max_queued {
            self.max_queued = self.queued_bytes;
            self.max_at = now;
        }
        let prio = (pkt.prio as usize).min(1);
        self.queues[prio].push_back(QueuedPkt { pkt, enq_at: now });
        self.nonempty |= 1 << prio;
        Enqueue::Accepted { mark_ce }
    }

    /// Pop the next packet to transmit (strict priority).
    pub fn dequeue(&mut self) -> Option<QueuedPkt> {
        if self.nonempty == 0 {
            return None;
        }
        let i = self.nonempty.trailing_zeros() as usize;
        let p = self.queues[i].pop_front().expect("mask says nonempty");
        if self.queues[i].is_empty() {
            self.nonempty &= !(1 << i);
        }
        self.queued_bytes -= p.pkt.size().as_u64();
        Some(p)
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nonempty == 0
    }

    /// Current utilization over a window (busy time / window).
    pub fn utilization(&self, window: Dur) -> f64 {
        if window == Dur::ZERO {
            0.0
        } else {
            self.busy_time.as_secs_f64() / window.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Offer one data packet of `size` wire bytes; false on a tail drop.
    fn offer(p: &mut PortState, now: Time, size: u64, prio: u8) -> bool {
        let pkt = Pkt::new(PktKind::Data, 0, 0, Bytes(size), prio, PathId(0));
        matches!(p.enqueue_hop(now, pkt), Enqueue::Accepted { .. })
    }

    #[test]
    fn tail_drop_at_buffer_limit() {
        let mut p = PortState::new(Rate::from_gbps(10), Bytes(3000), Dur::ZERO);
        assert!(offer(&mut p, Time::ZERO, 1500, 0));
        assert!(offer(&mut p, Time::ZERO, 1500, 0));
        assert!(!offer(&mut p, Time::ZERO, 1500, 0));
        assert_eq!(p.drops, 1);
        assert_eq!(p.queued_bytes, 3000);
    }

    #[test]
    fn strict_priority_dequeue() {
        let mut p = PortState::new(Rate::from_gbps(10), Bytes(10_000), Dur::ZERO);
        assert!(offer(&mut p, Time::ZERO, 1000, 1));
        assert!(offer(&mut p, Time::ZERO, 1500, 0));
        let first = p.dequeue().unwrap().pkt;
        assert_eq!(first.prio, 0, "high priority preempts");
        assert_eq!(first.size(), Bytes(1500));
        assert_eq!(p.dequeue().unwrap().pkt.prio, 1);
        assert!(p.dequeue().is_none());
        assert_eq!(p.queued_bytes, 0);
    }

    #[test]
    fn ecn_marks_above_k() {
        let mut p = PortState::new(Rate::from_gbps(10), Bytes(100_000), Dur::ZERO);
        p.ecn_k = Some(Bytes(3000));
        let pkt = Pkt::new(PktKind::Data, 0, 0, Bytes(1500), 0, PathId(0));
        let decided: Vec<Enqueue> = (0..3).map(|_| p.enqueue_hop(Time::ZERO, pkt)).collect();
        let marks: Vec<bool> = (0..3).map(|_| p.dequeue().unwrap().pkt.ce()).collect();
        assert_eq!(marks, vec![false, false, true]);
        let reported = decided
            .iter()
            .map(|&d| d == Enqueue::Accepted { mark_ce: true });
        assert!(reported.eq(marks), "the decision reports the bit it set");
    }

    #[test]
    fn phantom_marks_before_real_queue() {
        // Packets arriving at exactly line rate never build a real queue,
        // but the phantom (drained at 95%) accumulates 5% per packet and
        // eventually marks.
        let line = Rate::from_gbps(10);
        let mut p = PortState::new(line, Bytes::from_mb(1), Dur::ZERO);
        p.phantom = Some(PhantomQueue::new(line, 0.95, Bytes(6_000)));
        let mut now = Time::ZERO;
        let mut marked = 0;
        for _ in 0..200 {
            assert!(offer(&mut p, now, 1500, 0));
            if p.dequeue().unwrap().pkt.ce() {
                marked += 1;
            }
            now += line.tx_time(Bytes(1500));
        }
        assert!(marked > 0, "phantom queue must mark at sustained line rate");
    }

    #[test]
    fn phantom_drains_when_idle() {
        let line = Rate::from_gbps(10);
        let mut pq = PhantomQueue::new(line, 0.95, Bytes(6_000));
        for _ in 0..100 {
            pq.on_arrival(Time::ZERO, Bytes(1500));
        }
        assert!(pq.bytes > 6_000.0);
        // 1 ms of idle drains ~1.19 MB: back to zero.
        assert!(!pq.on_arrival(Time::from_ms(1), Bytes(1500)));
        assert!(pq.bytes <= 1500.0);
    }
}
