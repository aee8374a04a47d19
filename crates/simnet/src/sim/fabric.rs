//! Switch fabric: store-and-forward egress ports and hop-by-hop arrival.

use super::{Ev, Sim};
use crate::packet::{Pkt, PktKind};
use crate::port::Enqueue;
use silo_topology::PortId;

impl Sim {
    pub(super) fn enqueue_port(&mut self, port: PortId, pkt: Pkt) {
        if self.faults_on {
            if let Some(f) = self.port_fault(port) {
                // Black hole: the packet reached a dead port.
                self.metrics.fault_drops[f as usize] += 1;
                self.obs.fault_drop(self.now, port, f, &pkt);
                return;
            }
        }
        let now = self.now;
        let ps = &mut self.ports[port.0 as usize];
        let decision = ps.enqueue_hop(now, pkt);
        let queued = ps.queued_bytes;
        self.obs.port_enqueue(now, port, &pkt, queued, decision);
        if decision == Enqueue::Dropped {
            self.metrics.drops += 1;
            return;
        }
        let ps = &mut self.ports[port.0 as usize];
        // Invariant: `wakeup_armed` ⟺ exactly one PortFree in flight for
        // this port (it doubles as the "transmitting" flag). While one is
        // pending — even if it is due *this* instant — the queue must wait
        // for it: starting inline would dequeue the head a sub-instant
        // early, freeing buffer space before the in-flight wakeup would
        // and flipping same-instant tail-drop decisions at a full port
        // (decision record in DESIGN.md).
        if !ps.wakeup_armed && now >= ps.busy_until {
            self.start_tx(port);
        }
    }

    pub(super) fn start_tx(&mut self, port: PortId) {
        let now = self.now;
        let ps = &mut self.ports[port.0 as usize];
        let Some(q) = ps.dequeue() else {
            return;
        };
        let tx = ps.rate.tx_time(q.pkt.size());
        ps.busy_time += tx;
        ps.tx_bytes += q.pkt.size().as_u64();
        ps.tx_packets += 1;
        let t_free = now + tx;
        let t_arrive = t_free + ps.prop;
        ps.busy_until = t_free;
        ps.wakeup_armed = true;
        let queued = ps.queued_bytes;
        self.obs.wire_start(now, port, &q, tx, queued);
        // The PortFree is always materialized, even when nothing is queued
        // behind this transmission. It rarely fires into a no-op: on the
        // benchmark's Silo cell 3 126 990 of 3 289 241 PortFree dispatches
        // (95.1 %) start the next transmission, 97.8 % under TCP. The
        // cause is the same-host backlog (ROADMAP item 6): 2 674 770 of
        // those starts restart a vswitch loopback port that stays
        // backlogged for the whole run. Eliding the idle tail would also
        // be inexact: the wakeup's queue position is what serializes
        // same-instant enqueues against the end of the transmission, so
        // removing it — or re-creating it later with a fresher sequence
        // number — shifts the within-instant service point and flips
        // drop/occupancy decisions whenever events collide on the
        // tx-time grid (see DESIGN.md).
        let lane = self.port_free_lane(port);
        self.push_lane(lane, t_free, Ev::PortFree(port));
        let next = q.pkt.at_hop(q.pkt.hop + 1);
        let lane = self.port_arrive_lane(port);
        self.push_lane(lane, t_arrive, Ev::Arrive(next));
    }

    pub(super) fn on_port_free(&mut self, port: PortId) {
        // Clear the armed flag unconditionally: even when a fault check
        // below bails out, this event has left the queue and a later
        // enqueue must be able to arm a fresh wakeup.
        self.ports[port.0 as usize].wakeup_armed = false;
        if self.faults_on && self.port_fault(port).is_some() {
            return; // port died mid-transmission; queue already flushed
        }
        let ps = &self.ports[port.0 as usize];
        if self.now >= ps.busy_until && !ps.is_empty() {
            self.start_tx(port);
        }
    }

    pub(super) fn on_arrive(&mut self, pkt: Pkt) {
        if let Some(&port) = self.hops(pkt.path).get(pkt.hop as usize) {
            self.enqueue_port(port, pkt);
        } else {
            // Past the last hop: the flight is over.
            match pkt.kind() {
                PktKind::Data => self.rx_data(pkt),
                PktKind::Ack => self.rx_ack(pkt),
            }
        }
    }
}
