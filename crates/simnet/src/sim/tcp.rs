//! TCP plumbing: segment emission, retransmission and RTO timers at the
//! sender, delivery and ACK processing at the receiver. The window logic
//! itself is `crate::tcp`.

use super::{Ev, Sim};
use crate::config::{DCTCP_G, HEADER, MAX_CWND, PACE_HORIZON};
use crate::metrics::{EvKind, MsgRecord, Violation};
use crate::packet::{Pkt, PktKind};
use crate::tcp::SentSeg;
use silo_base::Bytes;

impl Sim {
    pub(super) fn try_send(&mut self, conn: u32) {
        if self.faults_on && !self.tenant_alive(self.conns[conn as usize].tenant) {
            return;
        }
        loop {
            // Pacer backpressure: a connection already stamped out to the
            // horizon must wait for the wire to catch up, so the VM's
            // other destinations can interleave through the shared
            // buckets.
            if self.cfg.mode.paced() {
                let c = &self.conns[conn as usize];
                let horizon = self.now + PACE_HORIZON;
                if c.has_unsent() && c.last_depart > horizon && !c.pace_blocked {
                    let resume = c.last_depart - PACE_HORIZON;
                    self.conns[conn as usize].pace_blocked = true;
                    self.push(resume, Ev::PaceResume { conn });
                    return;
                }
                if c.pace_blocked {
                    return;
                }
            }
            let c = &mut self.conns[conn as usize];
            if !c.has_unsent() {
                return;
            }
            let remaining = c.wr_end - c.nxt;
            let payload = remaining.min(self.cfg.mss());
            if c.window_avail() < payload as f64 && c.flight() > 0 {
                return;
            }
            let seq = c.nxt;
            c.nxt += payload;
            c.high_tx = c.high_tx.max(c.nxt);
            let end = c.nxt;
            c.inflight_meta.push_back(SentSeg {
                end,
                sent: self.now,
            });
            self.emit_data(conn, seq, payload, false);
        }
    }

    /// Put the data segment `[seq, seq + payload)` of `conn` on its way
    /// and (re-)arm the connection's RTO.
    fn emit_data(&mut self, conn: u32, seq: u64, payload: u64, retx: bool) {
        let c = &self.conns[conn as usize];
        let (src_vm, prio, path) = (c.src_vm, c.prio, c.path);
        let size = Bytes(payload + HEADER.as_u64());
        let pkt = Pkt::new(PktKind::Data, conn, seq, size, prio, path).with_retx(retx);
        self.send_from_vm(src_vm, pkt);
        self.arm_rto(conn);
    }

    /// SACK-equivalent loss recovery: the receiver's reassembly state is
    /// in-process, so the sender can retransmit every missing range
    /// directly (up to `max_segs` segments per trigger) instead of
    /// NewReno's one hole per RTT — matching what a SACK stack achieves.
    fn retransmit_holes(&mut self, conn: u32, max_segs: usize) {
        let holes: Vec<(u64, u64)> = {
            let c = &self.conns[conn as usize];
            let mut holes = Vec::new();
            // Only gaps *below* received out-of-order blocks are presumed
            // lost (later data arrived past them). Data at the send
            // frontier is merely in flight. Each hole is retransmitted
            // once per recovery episode (`retx_upto`); a lost
            // retransmission falls back to the RTO.
            let mut cursor = c.delivered.max(c.una).max(c.retx_upto);
            for &(s, e) in &c.ooo {
                if s > cursor {
                    holes.push((cursor, s));
                }
                cursor = cursor.max(e);
            }
            holes
        };
        let mss = self.cfg.mss();
        // Always re-send the oldest outstanding segment (classic NewReno
        // partial-ack behavior): if its previous retransmission was lost,
        // this is the only way forward short of an RTO.
        self.retransmit_una(conn);
        let mut sent = 1usize;
        'outer: for (s, e) in holes {
            let mut seq = s;
            while seq < e {
                if sent >= max_segs {
                    break 'outer;
                }
                let payload = (e - seq).min(mss);
                self.retransmit_at(conn, seq, payload);
                seq += payload;
                sent += 1;
            }
        }
    }

    fn retransmit_at(&mut self, conn: u32, seq: u64, payload: u64) {
        let c = &mut self.conns[conn as usize];
        c.retx_upto = c.retx_upto.max(seq + payload);
        c.mark_retransmitted(seq, payload);
        self.emit_data(conn, seq, payload, true);
    }

    fn retransmit_una(&mut self, conn: u32) {
        let c = &mut self.conns[conn as usize];
        let payload = (c.wr_end - c.una).min(self.cfg.mss());
        if payload == 0 {
            return;
        }
        let seq = c.una;
        c.mark_retransmitted(seq, payload);
        self.emit_data(conn, seq, payload, true);
    }

    fn arm_rto(&mut self, conn: u32) {
        let (old, at) = {
            let c = &mut self.conns[conn as usize];
            c.rto_armed_at = self.now;
            // Clock from the latest wire departure: time spent queued in
            // the hypervisor pacer must not fire spurious timeouts.
            let base = self.now.max(c.last_depart);
            (c.rto_key, base + c.rto(self.cfg.min_rto))
        };
        // Re-arming supersedes the pending timer: move it in place.
        let key = self.rearm(old, at, Ev::Rto { conn });
        self.conns[conn as usize].rto_key = Some(key);
    }

    pub(super) fn disarm_rto(&mut self, conn: u32) {
        let c = &mut self.conns[conn as usize];
        if let Some(k) = c.rto_key.take() {
            if self.events.cancel(k) {
                self.profile.cancelled[EvKind::Rto as usize] += 1;
            }
        }
    }

    pub(super) fn on_rto(&mut self, conn: u32) {
        {
            // The armed timer just fired: its key left the queue.
            if self.conns[conn as usize].rto_key.take().is_none() {
                // Every supersede cancels or re-arms the pending timer, so
                // a timer whose owner holds no key must never fire. Counted
                // (always 0) and checked by the tests and `sim_profile`.
                self.profile.stale[EvKind::Rto as usize] += 1;
                return;
            }
            let c = &self.conns[conn as usize];
            if c.flight() == 0 {
                return;
            }
            if self.faults_on && !self.tenant_up[c.tenant as usize] {
                return;
            }
        }
        self.metrics.rtos += 1;
        let armed = self.conns[conn as usize].rto_armed_at;
        self.obs.rto(self.now, conn, armed);
        let mss = self.cfg.mss() as f64;
        self.conns[conn as usize].on_rto(mss);
        // Go-back-N: nxt was rewound; try_send re-emits from una.
        self.try_send(conn);
        // If the window was too small to emit (shouldn't happen), keep the
        // timer armed anyway.
        if self.conns[conn as usize].flight() > 0 {
            // arm_rto was called by try_send's first segment already.
        } else {
            self.arm_rto(conn);
        }
    }

    pub(super) fn rx_data(&mut self, pkt: Pkt) {
        let conn = pkt.conn;
        if self.faults_on && !self.tenant_alive(self.conns[conn as usize].tenant) {
            return; // the receiving VM is gone; the packet dies silently
        }
        self.obs.deliver(self.now, &pkt);
        let (completions, dst_vm, src_vm, prio, rpath, tenant, adv) = {
            let c = &mut self.conns[conn as usize];
            let prev = c.receive_segment(pkt.seq, pkt.payload(HEADER));
            let delivered = c.delivered;
            let adv = delivered - prev;
            c.goodput_bytes += adv;
            let mut done = Vec::new();
            while let Some(m) = c.msgs.front() {
                if m.end <= delivered {
                    done.push(c.msgs.pop_front().expect("front exists"));
                    c.msgs_done += 1;
                } else {
                    break;
                }
            }
            (done, c.dst_vm, c.src_vm, c.prio, c.rpath, c.tenant, adv)
        };
        self.obs.goodput(self.now, tenant, adv);
        let same_host = self.conns[conn as usize].src_host == self.conns[conn as usize].dst_host;
        for m in &completions {
            let txn_latency = match (m.respond, m.txn) {
                // A response arriving back at the client closes the txn.
                (None, Some(txn)) => self.txn_starts.remove(&txn).map(|t0| self.now - t0),
                _ => None,
            };
            let latency = self.now - m.created;
            self.metrics.record_message(MsgRecord {
                tenant,
                size: m.size,
                latency,
                rto: m.rto_hit,
                created: m.created,
                txn_latency,
                same_host,
            });
            let bound_opt = self.tenants[tenant as usize].latency_bound(Bytes(m.size));
            self.obs
                .msg_done(self.now, conn, m.created, m.size, bound_opt);
            // Guarantee check: a tenant with a delay guarantee must see
            // every message inside its §4.1 bound; anything late is a
            // violation, attributed to an overlapping fault if one is
            // scheduled. (`delay: None` — all legacy configs — skips.)
            if let Some(bound) = bound_opt {
                if latency > bound {
                    let fault = self.attribute_fault(m.created, self.now);
                    self.metrics.violations.push(Violation {
                        tenant,
                        fault,
                        created: m.created,
                        completed: self.now,
                        latency,
                        bound,
                    });
                }
            }
            if let (None, Some(_txn)) = (m.respond, m.txn) {
                // Client-side completion: release a concurrency slot.
                self.etc_txn_done(dst_vm);
            }
            if let Some(resp) = m.respond {
                // Server side: send the response back.
                let rc = self.conn_for(dst_vm, src_vm);
                self.app_write(rc, resp, None, m.txn);
            }
        }
        // Cumulative ACK echoing this segment's CE mark.
        let acked = self.conns[conn as usize].delivered;
        let ack =
            Pkt::new(PktKind::Ack, conn, acked, self.ack_size, prio, rpath).with_ecn_echo(pkt.ce());
        self.send_from_vm(dst_vm, ack);
    }

    pub(super) fn rx_ack(&mut self, pkt: Pkt) {
        let conn = pkt.conn;
        if self.faults_on && !self.tenant_alive(self.conns[conn as usize].tenant) {
            return;
        }
        self.obs.deliver(self.now, &pkt);
        let ack = pkt.seq;
        let mss = self.cfg.mss() as f64;
        let mut need_retx_partial = false;
        let mut flight_left = 0;
        {
            let c = &mut self.conns[conn as usize];
            if ack > c.una {
                let adv = ack - c.una;
                // DCTCP mark accounting.
                c.acked_bytes += adv;
                if pkt.ecn_echo() {
                    c.ce_bytes += adv;
                }
                if let Some(rtt) = c.take_rtt_sample(ack, self.now) {
                    c.on_rtt_sample(rtt);
                }
                c.una = ack;
                // After an RTO rewinds `nxt` (go-back-N), a late ACK for
                // the original flight can overtake it; acked bytes never
                // need re-sending.
                c.nxt = c.nxt.max(ack);
                c.dupacks = 0;
                c.rto_backoff = 0;
                if c.in_recovery {
                    if ack >= c.recover {
                        c.in_recovery = false;
                        c.cwnd = c.ssthresh;
                        c.retx_upto = 0;
                    } else {
                        // NewReno partial ack: retransmit the next hole.
                        need_retx_partial = true;
                    }
                } else {
                    c.grow_cwnd(adv, mss);
                }
                c.cwnd = c.cwnd.min(MAX_CWND.as_f64());
                if self.cfg.mode.dctcp_sender() {
                    c.dctcp_window_rollover(DCTCP_G, mss);
                }
                flight_left = c.flight();
            } else if c.flight() > 0 {
                c.dupacks += 1;
                if pkt.ecn_echo() {
                    // Marked dupacks still feed DCTCP's estimator.
                    c.ce_bytes += mss as u64;
                    c.acked_bytes += mss as u64;
                }
                if c.dupacks == 3 && !c.in_recovery && c.una >= c.recover {
                    // NewReno re-entry guard: losses within one recovery
                    // window trigger only one halving.
                    c.enter_recovery(mss);
                    need_retx_partial = true;
                } else if c.in_recovery {
                    c.cwnd = (c.cwnd + mss).min(MAX_CWND.as_f64());
                }
                flight_left = c.flight();
            }
        }
        if need_retx_partial {
            self.retransmit_holes(conn, 16);
        }
        if flight_left > 0 {
            self.arm_rto(conn);
        } else {
            self.disarm_rto(conn);
        }
        self.try_send(conn);
        self.app_on_ack(conn);
        // Became idle (fully acked, nothing queued): release its hose
        // share to the tenant's other active pairs.
        if self.cfg.mode.paced() && !self.conns[conn as usize].active() {
            let tenant = self.conns[conn as usize].tenant;
            self.update_tenant_hose(tenant);
        }
    }
}
