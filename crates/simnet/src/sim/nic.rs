//! Host egress: token-bucket stamping (Fig. 8) and the paced NIC's batch
//! pulls.

use super::{Ev, Sim};
use crate::metrics::EvKind;
use crate::packet::{Pkt, PktKind};
use silo_base::{Bytes, Dur, Time};
use silo_pacer::{Batch, TokenBucket, WireFrame};
use silo_topology::{HostId, PortId};

impl Sim {
    pub(super) fn send_from_vm(&mut self, vm: u32, pkt: Pkt) {
        let first_port = self.hops(pkt.path)[0];
        if self.is_loopback(first_port) {
            // Same-host delivery through the vswitch: serialized at the
            // loopback port, never paced (it does not cross the NIC).
            self.enqueue_port(first_port, pkt);
            return;
        }
        if self.cfg.mode.paced() {
            // Pure ACKs bypass the token buckets (tiny control frames;
            // charging them to `B` would structurally oversubscribe a
            // backlogged tenant by the ~4% ACK ratio). They still ride
            // the batched NIC.
            // Each sender's stamps are non-decreasing (a VM's buckets
            // answer no earlier than their last commit; ACKs go at `now`),
            // so each rides its own lane of the batcher: lane 0 for the
            // host's ACKs, the VM's own lane for its data.
            let (lane, stamp) = if pkt.kind() == PktKind::Ack {
                (0, self.now)
            } else {
                let dst_vm = self.peer_vm(&pkt);
                let lane = self.vms[vm as usize].lane as usize;
                (lane, self.stamp_packet(vm, dst_vm, pkt.size()))
            };
            {
                let c = &mut self.conns[pkt.conn as usize];
                c.last_depart = c.last_depart.max(stamp);
            }
            self.obs.token_wait(self.now, vm, stamp, &pkt);
            let host = self.vms[vm as usize].host.0 as usize;
            self.nics[host]
                .batcher
                .enqueue_from(lane, stamp, pkt.size(), pkt);
            if self.fast_forward(host) {
                // Enqueue-resurrection: arm (or tighten) the pull only if
                // the new stamp moves the next batch start earlier.
                self.ensure_pull(host);
            } else if self.now >= self.nics[host].busy_until {
                let at = self.nics[host]
                    .batcher
                    .next_stamp()
                    .expect("just enqueued")
                    .max(self.now);
                self.arm_nic(host, at);
            }
        } else {
            self.enqueue_port(first_port, pkt);
        }
    }

    /// The VM this packet is addressed to (for hose bucket lookup).
    fn peer_vm(&self, pkt: &Pkt) -> u32 {
        let c = &self.conns[pkt.conn as usize];
        match pkt.kind() {
            PktKind::Data => c.dst_vm,
            PktKind::Ack => c.src_vm,
        }
    }

    /// Fig. 8: stamp through per-destination hose bucket, then `{B, S}`,
    /// then `Bmax`.
    fn stamp_packet(&mut self, vm: u32, dst_vm: u32, size: Bytes) -> Time {
        let (b, s) = {
            let t = &self.tenants[self.vms[vm as usize].tenant as usize];
            (t.b, t.s)
        };
        let now = self.now;
        let v = &mut self.vms[vm as usize];
        let dst_tb = v
            .per_dst
            .entry(dst_vm)
            .or_insert_with(|| TokenBucket::new(b, s));
        let t1 = dst_tb.earliest(now, size);
        let t2 = v.tb_bs.earliest(now, size);
        let t3 = v.tb_max.earliest(now, size);
        let stamp = t1.max(t2).max(t3);
        dst_tb.commit(stamp, size);
        v.tb_bs.commit(stamp, size);
        v.tb_max.commit(stamp, size);
        stamp
    }

    pub(super) fn arm_nic(&mut self, host: usize, at: Time) {
        let at = if self.faults_on {
            self.fault_nic_at(host, at)
        } else {
            at
        };
        let old = self.nics[host].pull.map(|(key, _)| key);
        let key = self.rearm(old, at, Ev::NicPull { host: host as u32 });
        self.nics[host].pull = Some((key, at));
    }

    /// Fast-forward arming: ensure a pull is pending at the earliest
    /// instant the next batch could start, `max(next stamp, busy_until,
    /// now)`. Between pulls the stamp frontier only moves *earlier* (new
    /// enqueues), so the wanted instant only tightens; a pull already
    /// armed there is left alone (re-arming it at the same instant is
    /// event churn with an identical wire schedule; DESIGN.md has the
    /// equivalence argument).
    /// Empty queue: nothing armed, the NIC sleeps until the next enqueue.
    fn ensure_pull(&mut self, host: usize) {
        let Some(s) = self.nics[host].batcher.next_stamp() else {
            return;
        };
        let want = s.max(self.nics[host].busy_until).max(self.now);
        if self.nics[host].pull.is_none_or(|(_, cur)| cur > want) {
            self.arm_nic(host, want);
        }
    }

    /// Eligible for the idle-pacer fast-forward? Per host: a pacer
    /// stall/drift window targeting this host disables it (stall/drift
    /// clamps apply per *armed* pull, so eliding intermediate pulls on a
    /// targeted host would move where the clamp lands), but hosts no
    /// pacer fault ever touches keep the fast path — link faults and
    /// tenant churn don't interact with pull elision (their checks run
    /// on the frames a pull emits, not on the pull's arming).
    #[inline]
    fn fast_forward(&self, host: usize) -> bool {
        !self.nic_fault_targets[host]
    }

    pub(super) fn on_nic_pull(&mut self, host: u32) {
        let h = host as usize;
        // The armed pull just fired: its key left the queue.
        if self.nics[h].pull.take().is_none() {
            // Must never happen (see `on_rto`).
            self.profile.stale[EvKind::NicPull as usize] += 1;
            return;
        }
        if self.faults_on && self.now < self.nic_stall_until[h] {
            // The pacer timer is stalled: defer this pull to the window
            // end (arm_nic re-applies the stall clamp).
            let stall = self.nic_stall_until[h];
            self.arm_nic(h, stall);
            return;
        }
        // Reuse one frame vector for every batch of every host (the pull
        // path is the simulator's hottest allocation site otherwise).
        let mut batch = std::mem::replace(&mut self.batch_scratch, Batch::empty());
        self.nics[h].batcher.next_batch_into(self.now, &mut batch);
        if batch.is_empty() {
            if let Some(s) = self.nics[h].batcher.next_stamp() {
                let at = s.max(self.now);
                self.arm_nic(h, at);
            }
            self.batch_scratch = batch;
            return;
        }
        let link = self.topo.params().host_link;
        let prop = self.topo.params().prop_delay;
        self.nics[h].busy_until = batch.done_at;
        let (data, void) = (batch.data_bytes().as_u64(), batch.void_bytes().as_u64());
        self.metrics.wire_data_bytes += data;
        self.metrics.wire_void_bytes += void;
        self.obs.nic_batch(self.now, data, void);
        // NIC wire accounting on the host's uplink port (utilization).
        let up = PortId::up(self.topo.host_link(HostId(host))).0 as usize;
        self.ports[up].busy_time += batch.done_at - batch.frames[0].start();
        for f in batch.frames.drain(..) {
            let (start, size, pkt) = match f {
                WireFrame::Data {
                    start,
                    size,
                    payload,
                } => (start, size, payload),
                // A void run: dropped by the first-hop switch. Its only
                // effect is the wire time already encoded in the schedule.
                WireFrame::Void { start, gap_end, .. } => {
                    self.obs.nic_void_run(h, start, gap_end);
                    continue;
                }
            };
            // Paced frames skip enqueue_port for the NIC wire (hop 0), so
            // a dead host link is enforced here.
            let eaten = if self.faults_on {
                let first = self.hops(pkt.path)[0];
                self.port_fault(first).map(|fault| (first, fault))
            } else {
                None
            };
            self.obs.nic_frame(self.now, h, start, &pkt, eaten);
            if let Some((_, fault)) = eaten {
                self.metrics.fault_drops[fault as usize] += 1;
                continue;
            }
            // The NIC wire is hop 0.
            let arrive = start + link.tx_time(size) + prop;
            let lane = self.nic_arrive_lane(h);
            self.push_lane(lane, arrive, Ev::Arrive(pkt.at_hop(1)));
        }
        let done = batch.done_at;
        self.batch_scratch = batch;
        if self.faults_on {
            // A pacer clock running slow by `factor` stretches the gap
            // between this batch and the next: what took `done − now` of
            // healthy clock takes `factor×` as long.
            let (until, factor) = self.nic_drift[h];
            if self.now < until && factor > 1.0 && done > self.now {
                let dilated = (done - self.now).as_ps() as f64 * factor;
                self.nic_drift_gate[h] = self.now + Dur::from_ps(dilated as u64);
            }
        }
        if self.fast_forward(h) {
            // Arm directly at the instant the next batch can start: at
            // `done` when data is already due, at the future head stamp
            // (skipping an intermediate empty pull at `done`), or not at
            // all when the queue drained — the next enqueue resurrects
            // the pull.
            self.ensure_pull(h);
        } else {
            self.arm_nic(h, done);
        }
    }
}
