//! Per-connection TCP state: NewReno congestion control with DCTCP's
//! fraction-based reduction layered on top.
//!
//! The connection object holds pure protocol state; packet emission and
//! timers live in [`crate::sim`], which drives these methods. Keeping the
//! window logic free of simulator plumbing makes it unit-testable below.

use crate::packet::PathId;
use silo_base::{Dur, EvKey, Time};
use silo_topology::HostId;
use std::collections::VecDeque;

/// Sender-side message record (application message boundaries within the
/// byte stream).
#[derive(Debug, Clone)]
pub struct MsgBound {
    /// Stream byte at which this message ends.
    pub end: u64,
    pub size: u64,
    pub created: Time,
    /// Did an RTO fire while this message was outstanding?
    pub rto_hit: bool,
    /// If set, the receiver app responds with a message of this size,
    /// tagged with the same transaction id.
    pub respond: Option<u64>,
    /// Transaction id for request/response latency accounting.
    pub txn: Option<u64>,
}

/// One in-flight segment, kept for RTT sampling. The same-host backlog
/// holds hundreds of thousands of these, hence 16 bytes: Karn's rule
/// never reads a retransmitted segment's send time, so that slot doubles
/// as the retransmitted flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SentSeg {
    /// Stream byte at which the segment ends.
    pub end: u64,
    /// First-transmission time, or [`SentSeg::RETRANSMITTED`].
    pub sent: Time,
}

impl SentSeg {
    pub const RETRANSMITTED: Time = Time::MAX;
}

const _: () = assert!(std::mem::size_of::<SentSeg>() == 16);

/// Congestion-control numbers of one direction of a connection.
#[derive(Debug, Clone)]
pub struct TcpConn {
    pub id: u32,
    pub tenant: u16,
    pub src_vm: u32,
    pub dst_vm: u32,
    pub src_host: HostId,
    pub dst_host: HostId,
    pub prio: u8,
    pub path: PathId,
    /// Reverse path for ACKs.
    pub rpath: PathId,

    // ---- sender ----
    /// First unacknowledged stream byte.
    pub una: u64,
    /// Next stream byte to send.
    pub nxt: u64,
    /// Total bytes written by the application.
    pub wr_end: u64,
    /// Congestion window, bytes (f64: DCTCP scales fractionally).
    pub cwnd: f64,
    pub ssthresh: f64,
    pub dupacks: u32,
    pub in_recovery: bool,
    /// NewReno recovery point.
    pub recover: u64,
    /// Highest stream byte ever sent (for partial-ack logic).
    pub high_tx: u64,
    pub srtt: Option<Dur>,
    pub rttvar: Dur,
    pub rto_backoff: u32,
    /// Handle of the armed RTO event, `None` when no timer is pending:
    /// re-arming moves the pending event, disarming cancels it.
    pub rto_key: Option<EvKey>,
    /// When the currently armed RTO was set (read only by the flight
    /// recorder for RTO spans — never by the protocol logic).
    pub rto_armed_at: Time,
    /// Latest wire-departure stamp of any sent segment: the RTO clock
    /// starts here, not at the app write — hypervisor pacing delay is not
    /// network RTT (the guest's RTT estimator absorbs it in reality).
    pub last_depart: Time,
    /// A PaceResume event is pending (pacer backpressure).
    pub pace_blocked: bool,
    /// Highest sequence already hole-retransmitted in this recovery
    /// episode (avoid duplicating retransmissions on every dupack).
    pub retx_upto: u64,
    /// Send times of in-flight segments, oldest first.
    pub inflight_meta: VecDeque<SentSeg>,
    pub rto_events: u64,

    // ---- DCTCP ----
    pub alpha: f64,
    pub ce_bytes: u64,
    pub acked_bytes: u64,
    pub dctcp_window_end: u64,

    // ---- receiver ----
    /// Cumulative bytes delivered in order.
    pub delivered: u64,
    /// Out-of-order intervals `(start, end)` sorted by start.
    pub ooo: Vec<(u64, u64)>,

    // ---- application ----
    /// Message boundaries (sender side, popped on completion at receiver).
    pub msgs: VecDeque<MsgBound>,
    /// Index (count) of messages already completed.
    pub msgs_done: u64,
    /// Bytes delivered in total (goodput accounting).
    pub goodput_bytes: u64,
}

pub const MIN_SSTHRESH_SEGS: f64 = 2.0;

impl TcpConn {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: u32,
        tenant: u16,
        src_vm: u32,
        dst_vm: u32,
        src_host: HostId,
        dst_host: HostId,
        prio: u8,
        path: PathId,
        rpath: PathId,
        init_cwnd_bytes: f64,
    ) -> TcpConn {
        TcpConn {
            id,
            tenant,
            src_vm,
            dst_vm,
            src_host,
            dst_host,
            prio,
            path,
            rpath,
            una: 0,
            nxt: 0,
            wr_end: 0,
            cwnd: init_cwnd_bytes,
            ssthresh: f64::INFINITY,
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            high_tx: 0,
            srtt: None,
            rttvar: Dur::ZERO,
            rto_backoff: 0,
            rto_key: None,
            rto_armed_at: Time::ZERO,
            last_depart: Time::ZERO,
            pace_blocked: false,
            retx_upto: 0,
            inflight_meta: VecDeque::new(),
            rto_events: 0,
            alpha: 0.0,
            ce_bytes: 0,
            acked_bytes: 0,
            dctcp_window_end: 0,
            delivered: 0,
            ooo: Vec::new(),
            msgs: VecDeque::new(),
            msgs_done: 0,
            goodput_bytes: 0,
        }
    }

    pub fn flight(&self) -> u64 {
        self.nxt - self.una
    }

    pub fn has_unsent(&self) -> bool {
        self.nxt < self.wr_end
    }

    pub fn active(&self) -> bool {
        self.una < self.wr_end
    }

    /// Bytes the window permits sending right now — fractional. The
    /// window grows in sub-byte steps (congestion avoidance adds
    /// `mss·acked/cwnd`, DCTCP scales by `1 − α/2`), so the credit must
    /// stay `f64` until the final send decision: truncating the window
    /// to whole bytes first would silently discard the accumulated
    /// fraction each time it is read. Callers compare against the
    /// candidate payload (`avail < payload as f64` blocks the send).
    pub fn window_avail(&self) -> f64 {
        (self.cwnd.max(0.0) - self.flight() as f64).max(0.0)
    }

    /// Current RTO (RFC 6298 with a floor and binary backoff).
    pub fn rto(&self, min_rto: Dur) -> Dur {
        let base = match self.srtt {
            Some(srtt) => srtt + (self.rttvar * 4).max(Dur::from_ms(1)),
            None => Dur::from_ms(200),
        };
        base.max(min_rto) * (1u64 << self.rto_backoff.min(6))
    }

    /// Karn's rule: segments ending inside a retransmitted
    /// `[seq, seq + len)` can no longer produce valid RTT samples.
    pub fn mark_retransmitted(&mut self, seq: u64, len: u64) {
        for m in self.inflight_meta.iter_mut() {
            if m.end > seq && m.end <= seq + len {
                m.sent = SentSeg::RETRANSMITTED;
            }
        }
    }

    /// Retire the segments `ack` covers. Returns the RTT of the newest
    /// one never retransmitted, if any (Karn's rule).
    pub fn take_rtt_sample(&mut self, ack: u64, now: Time) -> Option<Dur> {
        let mut sample = None;
        while let Some(&m) = self.inflight_meta.front() {
            if m.end > ack {
                break;
            }
            if m.sent != SentSeg::RETRANSMITTED {
                sample = Some(now - m.sent);
            }
            self.inflight_meta.pop_front();
        }
        sample
    }

    /// RTT sample (Karn-filtered by the caller).
    pub fn on_rtt_sample(&mut self, rtt: Dur) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let diff = if srtt > rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = Dur::from_ps(
                    (self.rttvar.as_ps() as f64 * 0.75 + diff.as_ps() as f64 * 0.25) as u64,
                );
                self.srtt = Some(Dur::from_ps(
                    (srtt.as_ps() as f64 * 0.875 + rtt.as_ps() as f64 * 0.125) as u64,
                ));
            }
        }
    }

    /// Slow start / congestion avoidance growth on a new ack of
    /// `acked` bytes.
    pub fn grow_cwnd(&mut self, acked: u64, mss: f64) {
        if self.in_recovery {
            return;
        }
        if self.cwnd < self.ssthresh {
            self.cwnd += acked as f64;
        } else {
            self.cwnd += mss * (acked as f64 / self.cwnd).min(1.0);
        }
    }

    /// Fast retransmit entry: halve (Reno) and mark recovery.
    pub fn enter_recovery(&mut self, mss: f64) {
        self.ssthresh = (self.flight() as f64 / 2.0).max(MIN_SSTHRESH_SEGS * mss);
        self.cwnd = self.ssthresh + 3.0 * mss;
        self.in_recovery = true;
        self.recover = self.high_tx;
    }

    /// DCTCP end-of-window update; returns true if the window should be
    /// scaled by `(1 − α/2)`.
    pub fn dctcp_window_rollover(&mut self, g: f64, mss: f64) -> bool {
        if self.una < self.dctcp_window_end || self.acked_bytes == 0 {
            return false;
        }
        let f = self.ce_bytes as f64 / self.acked_bytes as f64;
        self.alpha = (1.0 - g) * self.alpha + g * f;
        let marked = self.ce_bytes > 0;
        self.ce_bytes = 0;
        self.acked_bytes = 0;
        self.dctcp_window_end = self.nxt;
        if marked && !self.in_recovery {
            self.cwnd = (self.cwnd * (1.0 - self.alpha / 2.0)).max(MIN_SSTHRESH_SEGS * mss);
            self.ssthresh = self.cwnd;
            return true;
        }
        false
    }

    /// RTO: collapse to one segment.
    pub fn on_rto(&mut self, mss: f64) {
        self.ssthresh = (self.flight() as f64 / 2.0).max(MIN_SSTHRESH_SEGS * mss);
        self.cwnd = mss;
        self.in_recovery = false;
        self.dupacks = 0;
        self.rto_backoff = (self.rto_backoff + 1).min(8);
        self.rto_events += 1;
        // Everything in flight is presumed lost: rewind the send frontier
        // (go-back-N).
        self.nxt = self.una;
        self.retx_upto = 0;
        self.high_tx = self.high_tx.max(self.nxt);
        self.inflight_meta.clear();
        // Mark the oldest incomplete message as RTO-affected.
        for m in self.msgs.iter_mut() {
            if m.end > self.una {
                m.rto_hit = true;
                break;
            }
        }
    }

    /// Receiver-side reassembly: account a segment `[seq, seq+len)`;
    /// returns the *previous* delivered mark so the caller can detect
    /// message completions.
    pub fn receive_segment(&mut self, seq: u64, len: u64) -> u64 {
        let prev = self.delivered;
        let end = seq + len;
        if end <= self.delivered {
            return prev; // duplicate
        }
        if self.ooo.is_empty() && seq <= self.delivered {
            // In order with nothing held back: the common case.
            self.delivered = end;
            return prev;
        }
        // Merge `[start, end)` into the sorted, disjoint OOO set in place.
        // Starts and ends both ascend, so the intervals it overlaps or
        // touches are one contiguous run `lo..hi`.
        let start = seq.max(self.delivered);
        let lo = self.ooo.partition_point(|&(_, e)| e < start);
        let hi = self.ooo.partition_point(|&(s, _)| s <= end);
        if lo == hi {
            self.ooo.insert(lo, (start, end));
        } else {
            self.ooo[lo] = (start.min(self.ooo[lo].0), end.max(self.ooo[hi - 1].1));
            self.ooo.drain(lo + 1..hi);
        }
        // Advance the cumulative mark.
        while let Some(&(s, e)) = self.ooo.first() {
            if s <= self.delivered {
                self.delivered = self.delivered.max(e);
                self.ooo.remove(0);
            } else {
                break;
            }
        }
        prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_base::prop::{self, Rng};

    fn conn() -> TcpConn {
        TcpConn::new(
            0,
            0,
            0,
            1,
            HostId(0),
            HostId(1),
            0,
            PathId(0),
            PathId(0),
            14_400.0,
        )
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut c = conn();
        let mss = 1440.0;
        let start = c.cwnd;
        // Acking a full window in slow start doubles cwnd.
        c.grow_cwnd(start as u64, mss);
        assert!((c.cwnd - 2.0 * start).abs() < 1.0);
    }

    #[test]
    fn congestion_avoidance_adds_one_mss_per_rtt() {
        let mut c = conn();
        let mss = 1440.0;
        c.ssthresh = 10_000.0;
        c.cwnd = 20_000.0;
        let before = c.cwnd;
        // Ack a whole window in MSS chunks.
        let mut acked = 0.0;
        while acked < before {
            c.grow_cwnd(1440, mss);
            acked += 1440.0;
        }
        assert!((c.cwnd - before - mss).abs() < mss * 0.1, "{}", c.cwnd);
    }

    #[test]
    fn recovery_halves_window() {
        let mut c = conn();
        c.una = 0;
        c.nxt = 100_000;
        c.high_tx = 100_000;
        c.cwnd = 100_000.0;
        c.enter_recovery(1440.0);
        assert!(c.in_recovery);
        assert_eq!(c.recover, 100_000);
        assert!((c.ssthresh - 50_000.0).abs() < 1.0);
    }

    #[test]
    fn rto_collapses_to_one_segment_and_rewinds() {
        let mut c = conn();
        c.una = 5_000;
        c.nxt = 50_000;
        c.high_tx = 50_000;
        c.cwnd = 80_000.0;
        c.msgs.push_back(MsgBound {
            end: 60_000,
            size: 60_000,
            created: Time::ZERO,
            rto_hit: false,
            respond: None,
            txn: None,
        });
        c.on_rto(1440.0);
        assert_eq!(c.cwnd, 1440.0);
        assert_eq!(c.nxt, 5_000, "go-back-N");
        assert_eq!(c.rto_events, 1);
        assert!(c.msgs[0].rto_hit);
        assert_eq!(c.rto_backoff, 1);
    }

    #[test]
    fn rto_backoff_doubles_timeout() {
        let mut c = conn();
        c.srtt = Some(Dur::from_ms(1));
        c.rttvar = Dur::from_us(100);
        let r0 = c.rto(Dur::from_ms(10));
        c.rto_backoff = 2;
        let r2 = c.rto(Dur::from_ms(10));
        assert_eq!(r2, r0 * 4);
    }

    #[test]
    fn dctcp_alpha_tracks_marks() {
        let mut c = conn();
        let g = 1.0 / 16.0;
        c.nxt = 10_000;
        c.dctcp_window_end = 0;
        // Window fully marked.
        c.una = 10_000;
        c.ce_bytes = 10_000;
        c.acked_bytes = 10_000;
        let cut = c.dctcp_window_rollover(g, 1440.0);
        assert!(cut);
        assert!((c.alpha - g).abs() < 1e-12);
        // Unmarked window decays alpha.
        c.una = 20_000;
        c.nxt = 20_000;
        c.dctcp_window_end = 15_000;
        c.ce_bytes = 0;
        c.acked_bytes = 10_000;
        let cut2 = c.dctcp_window_rollover(g, 1440.0);
        assert!(!cut2);
        assert!(c.alpha < g);
    }

    #[test]
    fn reassembly_in_order_and_ooo() {
        let mut c = conn();
        assert_eq!(c.receive_segment(0, 1000), 0);
        assert_eq!(c.delivered, 1000);
        // Gap: 2000..3000 held out of order.
        c.receive_segment(2000, 1000);
        assert_eq!(c.delivered, 1000);
        // Fill the gap: everything delivers.
        c.receive_segment(1000, 1000);
        assert_eq!(c.delivered, 3000);
        assert!(c.ooo.is_empty());
        // Duplicate is a no-op.
        c.receive_segment(500, 100);
        assert_eq!(c.delivered, 3000);
    }

    /// `receive_segment` as it was before the in-order fast path and the
    /// in-place merge: push, sort, rebuild, pop. Kept as the oracle.
    fn receive_segment_reference(c: &mut TcpConn, seq: u64, len: u64) -> u64 {
        let prev = c.delivered;
        let end = seq + len;
        if end <= c.delivered {
            return prev;
        }
        c.ooo.push((seq.max(c.delivered), end));
        c.ooo.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(c.ooo.len());
        for &(s, e) in c.ooo.iter() {
            if let Some(last) = merged.last_mut() {
                if s <= last.1 {
                    last.1 = last.1.max(e);
                    continue;
                }
            }
            merged.push((s, e));
        }
        c.ooo = merged;
        while let Some(&(s, e)) = c.ooo.first() {
            if s <= c.delivered {
                c.delivered = c.delivered.max(e);
                c.ooo.remove(0);
            } else {
                break;
            }
        }
        prev
    }

    /// Duplicate, overlapping, touching, empty and out-of-order segments
    /// on a coarse grid (so every edge case is hit often): after every
    /// step the reassembly state and the return value match the oracle.
    #[test]
    fn reassembly_matches_the_reference_on_random_scripts() {
        prop::forall(
            "receive_segment_vs_reference",
            |rng| -> Vec<(u64, u64)> {
                let n = rng.random_range(1..48usize);
                (0..n)
                    .map(|_| (rng.random_range(0..64u64), rng.random_range(0..12u64)))
                    .collect()
            },
            |script| {
                prop::shrink_vec(script, |&(seq, len)| {
                    let mut c = vec![(seq / 2, len), (seq, len / 2)];
                    c.retain(|&x| x != (seq, len));
                    c
                })
            },
            |script| {
                let (mut got, mut want) = (conn(), conn());
                for (i, &(seq, len)) in script.iter().enumerate() {
                    let (g, w) = (
                        got.receive_segment(seq, len),
                        receive_segment_reference(&mut want, seq, len),
                    );
                    if (g, got.delivered, &got.ooo) != (w, want.delivered, &want.ooo) {
                        return Err(format!(
                            "step {i} ({seq}, {len}): returned {g}, delivered {}, ooo {:?}; \
                             reference returned {w}, delivered {}, ooo {:?}",
                            got.delivered, got.ooo, want.delivered, want.ooo
                        ));
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn window_avail_keeps_fractional_credit() {
        let mut c = conn();
        let mss = 1440.0;
        // A window a hair under 2 MSS with 1 MSS in flight must block a
        // full-MSS send…
        c.cwnd = 2.0 * mss - 0.25;
        c.una = 0;
        c.nxt = 1440;
        assert!(c.window_avail() < mss);
        // …and exactly 2 MSS must allow it: the old `cwnd as u64`
        // truncation and the f64 comparison agree at integer boundaries.
        c.cwnd = 2.0 * mss;
        assert!(c.window_avail() >= mss);
        // Fractional growth accumulates instead of being re-floored away:
        // congestion avoidance adds mss²/cwnd per ACK (≈ 144 B here), so
        // 100 ACKs grow the window by several MSS (analytically
        // √(W₀² + 2·mss²·n) − W₀ ≈ 7.3 MSS), every step sub-MSS.
        c.cwnd = 10.0 * mss;
        c.ssthresh = 1.0; // force congestion avoidance
        let before = c.cwnd;
        for _ in 0..100 {
            c.grow_cwnd(1440, mss);
        }
        assert!(
            c.cwnd - before > 7.0 * mss,
            "fractional growth lost: {} -> {}",
            before,
            c.cwnd
        );
        // And the growth is visible through window_avail (no truncation).
        c.nxt = c.una;
        assert!((c.window_avail() - c.cwnd).abs() < 1e-9);
    }

    #[test]
    fn window_avail_never_negative() {
        let mut c = conn();
        c.cwnd = 1440.0;
        c.una = 0;
        c.nxt = 10_000; // flight far above the (collapsed) window
        assert_eq!(c.window_avail(), 0.0);
        c.cwnd = -5.0; // DCTCP arithmetic can transiently undershoot
        assert_eq!(c.window_avail(), 0.0);
    }

    #[test]
    fn karn_skips_retransmitted_segments() {
        let mut c = conn();
        for (end, sent_us) in [(1000, 10), (2000, 20), (3000, 30)] {
            c.inflight_meta.push_back(SentSeg {
                end,
                sent: Time::from_us(sent_us),
            });
        }
        c.mark_retransmitted(1000, 1000);
        assert_eq!(c.inflight_meta[1].sent, SentSeg::RETRANSMITTED);
        // An ack of the first, untouched segment samples it...
        assert_eq!(
            c.take_rtt_sample(1000, Time::from_us(110)),
            Some(Dur::from_us(100))
        );
        // ...one covering only the retransmitted segment yields nothing...
        assert_eq!(c.take_rtt_sample(2000, Time::from_us(120)), None);
        assert_eq!(c.inflight_meta.len(), 1);
        // ...and the untouched segment behind it still samples.
        assert_eq!(
            c.take_rtt_sample(3000, Time::from_us(130)),
            Some(Dur::from_us(100))
        );
        assert!(c.inflight_meta.is_empty());
    }

    #[test]
    fn rtt_estimator_converges() {
        let mut c = conn();
        for _ in 0..50 {
            c.on_rtt_sample(Dur::from_us(200));
        }
        let srtt = c.srtt.unwrap();
        assert!((srtt.as_us_f64() - 200.0).abs() < 1.0);
        assert!(c.rttvar < Dur::from_us(20));
    }
}
