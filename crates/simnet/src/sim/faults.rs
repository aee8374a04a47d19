//! Fault injection: link and port kills, pacer stalls and drift, tenant
//! churn.

use super::{Sim, VmApp};
use crate::config::INIT_CWND;
use crate::faults::FaultKind;
use silo_base::{Dur, Time};
use silo_pacer::TokenBucket;
use silo_topology::PortId;

impl Sim {
    /// Is this tenant currently admitted? (Always true without churn.)
    #[inline]
    pub(super) fn tenant_alive(&self, ti: u16) -> bool {
        !self.faults_on || self.tenant_up[ti as usize]
    }

    /// The fault currently holding this port down, if any. The vswitch
    /// loopback (index past the switch ports) cannot fail.
    #[inline]
    pub(super) fn port_fault(&self, p: PortId) -> Option<u32> {
        self.port_down.get(p.0 as usize).copied().flatten()
    }

    pub(super) fn on_fault_start(&mut self, i: u32) {
        self.fault_active[i as usize] = true;
        self.obs.fault_edge(self.now, i, true);
        match self.cfg.faults.events[i as usize].kind {
            FaultKind::LinkDown { .. } | FaultKind::PortDown { .. } => {
                self.recompute_port_faults();
                self.flush_downed_ports();
            }
            FaultKind::PacerStall { .. } | FaultKind::PacerDrift { .. } => {
                self.recompute_nic_faults();
            }
            FaultKind::TenantDown { tenant } => self.tenant_depart(tenant),
            FaultKind::TenantUp { tenant } => self.tenant_admit(tenant),
        }
    }

    pub(super) fn on_fault_end(&mut self, i: u32) {
        self.fault_active[i as usize] = false;
        self.obs.fault_edge(self.now, i, false);
        match self.cfg.faults.events[i as usize].kind {
            FaultKind::LinkDown { .. } | FaultKind::PortDown { .. } => {
                self.recompute_port_faults();
                // A restored port restarts transmission if traffic queued
                // behind it (possible when another fault flap raced the
                // flush; normally the queue is empty).
                for p in 0..self.port_down.len() {
                    if self.port_down[p].is_none()
                        && self.now >= self.ports[p].busy_until
                        && !self.ports[p].is_empty()
                    {
                        self.start_tx(PortId(p as u32));
                    }
                }
            }
            FaultKind::PacerStall { host } => {
                self.recompute_nic_faults();
                // Wake the pacer: frames stamped during the stall are
                // waiting in the batcher with no pull armed before now.
                let h = host as usize;
                if self.now >= self.nics[h].busy_until {
                    if let Some(s) = self.nics[h].batcher.next_stamp() {
                        let at = s.max(self.now);
                        self.arm_nic(h, at);
                    }
                }
            }
            FaultKind::PacerDrift { .. } => self.recompute_nic_faults(),
            FaultKind::TenantDown { tenant } => self.tenant_admit(tenant),
            FaultKind::TenantUp { .. } => {}
        }
    }

    /// Rebuild the downed-port map from the currently active events
    /// (overlapping faults on one port resolve to the earliest).
    fn recompute_port_faults(&mut self) {
        for p in self.port_down.iter_mut() {
            *p = None;
        }
        for (i, e) in self.cfg.faults.events.iter().enumerate() {
            if !self.fault_active[i] {
                continue;
            }
            match e.kind {
                FaultKind::LinkDown { link } => {
                    let l = silo_topology::LinkId(link);
                    for p in [PortId::up(l), PortId::down(l)] {
                        let slot = &mut self.port_down[p.0 as usize];
                        if slot.is_none() {
                            *slot = Some(i as u32);
                        }
                    }
                }
                FaultKind::PortDown { port } => {
                    let slot = &mut self.port_down[port as usize];
                    if slot.is_none() {
                        *slot = Some(i as u32);
                    }
                }
                _ => {}
            }
        }
    }

    /// A dead port stops transmitting: everything it holds is lost, and
    /// the loss is attributed to the fault that killed the port.
    fn flush_downed_ports(&mut self) {
        let now = self.now;
        for p in 0..self.port_down.len() {
            let Some(f) = self.port_down[p] else { continue };
            while let Some(q) = self.ports[p].dequeue() {
                self.metrics.fault_drops[f as usize] += 1;
                let queued = self.ports[p].queued_bytes;
                self.obs.flush(now, PortId(p as u32), f, &q.pkt, queued);
            }
        }
    }

    /// Rebuild per-host pacer stall/drift state from active events.
    fn recompute_nic_faults(&mut self) {
        for t in self.nic_stall_until.iter_mut() {
            *t = Time::ZERO;
        }
        for d in self.nic_drift.iter_mut() {
            *d = (Time::ZERO, 1.0);
        }
        for (i, e) in self.cfg.faults.events.iter().enumerate() {
            if !self.fault_active[i] {
                continue;
            }
            match e.kind {
                FaultKind::PacerStall { host } => {
                    let until = e.until.expect("validated: stalls have an end");
                    let h = host as usize;
                    self.nic_stall_until[h] = self.nic_stall_until[h].max(until);
                }
                FaultKind::PacerDrift { host, factor } => {
                    let until = e.until.expect("validated: drifts have an end");
                    self.nic_drift[host as usize] = (until, factor);
                }
                _ => {}
            }
        }
    }

    /// Defer a NIC pull timer per the host's active pacer fault: past
    /// the stall horizon, and never before the drift gate (set after
    /// each batch while a slow clock is active).
    pub(super) fn fault_nic_at(&self, host: usize, at: Time) -> Time {
        let (until, _) = self.nic_drift[host];
        let at = if self.now < until {
            at.max(self.nic_drift_gate[host])
        } else {
            at
        };
        at.max(self.nic_stall_until[host])
    }

    /// Tenant departure: the workload generators die (their event chains
    /// are gated), unsent and unfinished data is abandoned, timers are
    /// disarmed. In-flight packets die at the receive gate.
    fn tenant_depart(&mut self, ti: u16) {
        if !self.tenant_up[ti as usize] {
            return;
        }
        self.tenant_up[ti as usize] = false;
        for &ci in &self.tenant_conns[ti as usize].clone() {
            let c = &mut self.conns[ci as usize];
            c.wr_end = c.una; // abandon everything not yet acknowledged
            c.msgs.clear();
            c.inflight_meta.clear();
            self.disarm_rto(ci);
        }
        if self.cfg.mode.paced() {
            self.update_tenant_hose(ti);
        }
    }

    /// Tenant (re-)admission: every connection restarts from a fresh
    /// logical stream at the old send frontier (stale packets and ACKs
    /// from the previous life arrive as duplicates), pacer buckets refill
    /// to the full burst allowance, and the workload starts over — the
    /// engine's view of "the placement layer re-admitted this tenant".
    fn tenant_admit(&mut self, ti: u16) {
        if self.tenant_up[ti as usize] {
            return;
        }
        self.tenant_up[ti as usize] = true;
        let init_cwnd = (INIT_CWND * self.cfg.mss()) as f64;
        for &ci in &self.tenant_conns[ti as usize].clone() {
            let c = &mut self.conns[ci as usize];
            let f = c.nxt.max(c.wr_end).max(c.delivered);
            c.una = f;
            c.nxt = f;
            c.wr_end = f;
            c.delivered = f;
            c.high_tx = f;
            c.recover = 0;
            c.retx_upto = 0;
            c.ooo.clear();
            c.msgs.clear();
            c.inflight_meta.clear();
            c.cwnd = init_cwnd;
            c.ssthresh = f64::INFINITY;
            c.dupacks = 0;
            c.in_recovery = false;
            c.srtt = None;
            c.rttvar = Dur::ZERO;
            c.rto_backoff = 0;
            c.pace_blocked = false;
            c.alpha = 0.0;
            c.ce_bytes = 0;
            c.acked_bytes = 0;
            c.dctcp_window_end = f;
            self.disarm_rto(ci);
        }
        let (b, s, bmax) = {
            let t = &self.tenants[ti as usize];
            (t.b, t.s, t.bmax)
        };
        for &vi in &self.tenant_vms[ti as usize].clone() {
            let v = &mut self.vms[vi as usize];
            v.tb_bs = TokenBucket::new(b, s);
            v.tb_max = TokenBucket::new(bmax, self.cfg.mtu);
            v.per_dst.clear();
            v.app = VmApp::None;
        }
        self.obs
            .tenant_readmit(self.now, &self.tenant_vms[ti as usize]);
        self.init_tenant_apps(ti as usize);
        if self.cfg.mode.paced() {
            self.update_tenant_hose(ti);
        }
    }

    /// The first planned fault whose realized window overlaps a message
    /// lifetime `[created, completed]` — the attribution recorded with a
    /// guarantee violation.
    pub(super) fn attribute_fault(&self, created: Time, completed: Time) -> Option<u32> {
        self.metrics
            .fault_windows
            .iter()
            .find(|w| w.overlaps(created, completed, Dur::ZERO))
            .map(|w| w.fault)
    }
}
