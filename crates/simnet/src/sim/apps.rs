//! Applications: the workload generators that write messages onto
//! connections.

use super::{Ev, Sim, VmApp};
use crate::config::TenantWorkload;
use crate::tcp::MsgBound;
use silo_base::{exponential, Bytes, Dur};
use silo_workload::EtcWorkload;

impl Sim {
    pub(super) fn init_apps(&mut self) {
        // Tenants whose first churn event is an arrival join mid-run
        // (their workload starts from the matching FaultStart instead).
        let deferred = if self.faults_on {
            self.cfg.faults.deferred_tenants()
        } else {
            Vec::new()
        };
        for ti in 0..self.tenants.len() {
            if deferred.contains(&(ti as u16)) {
                self.tenant_up[ti] = false;
                continue;
            }
            self.init_tenant_apps(ti);
        }
        if self.cfg.mode.paced() {
            let epoch = self.cfg.hose_epoch;
            self.push(self.now + epoch, Ev::HoseEpoch);
        }
    }

    /// Start (or restart, on re-admission) one tenant's workload.
    pub(super) fn init_tenant_apps(&mut self, ti: usize) {
        let workload = self.tenants[ti].workload.clone();
        let vms = self.tenant_vms[ti].clone();
        match workload {
            TenantWorkload::Etc { load, concurrency } => {
                let server = vms[0];
                for &client in &vms[1..] {
                    self.vms[client as usize].app = VmApp::EtcClient {
                        server_vm: server,
                        outstanding: 0,
                        cap: concurrency.max(1),
                        pending: 0,
                        wl: EtcWorkload::with_load(load),
                    };
                    // Desynchronized start.
                    let gap = exponential(&mut self.rng, 1e5);
                    self.push(
                        self.now + Dur::from_secs_f64(gap),
                        Ev::EtcArrival { vm: client },
                    );
                }
            }
            TenantWorkload::BulkAllToAll { msg } => {
                // Staggered connection establishment (mean 1 ms):
                // real tenants never synchronize their very first
                // packets to the nanosecond, and a synchronized cold
                // start would transiently exceed the receiver hoses
                // before the pacers' coordination converges.
                for &s in &vms {
                    for &d in &vms {
                        if s != d {
                            let gap = exponential(&mut self.rng, 1e3);
                            self.push(
                                self.now + Dur::from_secs_f64(gap),
                                Ev::BulkStart {
                                    src: s,
                                    dst: d,
                                    msg: msg.as_u64(),
                                },
                            );
                        }
                    }
                }
            }
            TenantWorkload::OldiAllToOne { interval, .. } => {
                let gap = exponential(&mut self.rng, 1.0 / interval.as_secs_f64());
                self.push(
                    self.now + Dur::from_secs_f64(gap),
                    Ev::Oldi { tenant: ti as u16 },
                );
            }
            TenantWorkload::OldiPeriodic { period, .. } => {
                self.push(self.now + period, Ev::Oldi { tenant: ti as u16 });
            }
            TenantWorkload::PoissonPairs {
                pairs, interval, ..
            } => {
                for (pi, _) in pairs.iter().enumerate() {
                    let gap = exponential(&mut self.rng, 1.0 / interval.as_secs_f64());
                    self.push(
                        self.now + Dur::from_secs_f64(gap),
                        Ev::PoissonMsg {
                            tenant: ti as u16,
                            pair: pi as u32,
                        },
                    );
                }
            }
            TenantWorkload::Idle => {}
        }
    }

    /// Application writes `bytes` onto a connection.
    pub(super) fn app_write(
        &mut self,
        conn: u32,
        bytes: u64,
        respond: Option<u64>,
        txn: Option<u64>,
    ) {
        let (was_idle, tenant) = {
            let c = &mut self.conns[conn as usize];
            let was_idle = !c.active();
            c.wr_end += bytes;
            let end = c.wr_end;
            c.msgs.push_back(MsgBound {
                end,
                size: bytes,
                created: self.now,
                rto_hit: false,
                respond,
                txn,
            });
            (was_idle, c.tenant)
        };
        if was_idle && self.cfg.mode.paced() {
            self.update_tenant_hose(tenant);
        }
        self.try_send(conn);
    }

    pub(super) fn on_etc_arrival(&mut self, vm: u32) {
        if self.faults_on && !self.tenant_alive(self.vms[vm as usize].tenant) {
            return; // the arrival chain dies with the tenant
        }
        // Draw the transaction and the next arrival.
        let (gap, req, resp, server, can_start) = {
            let v = &mut self.vms[vm as usize];
            let VmApp::EtcClient {
                server_vm,
                outstanding,
                cap,
                pending,
                wl,
            } = &mut v.app
            else {
                return;
            };
            let r = wl.next_request(&mut self.rng);
            let can = *outstanding < *cap;
            if can {
                *outstanding += 1;
            } else {
                *pending += 1;
            }
            (r.gap, r.request, r.response, *server_vm, can)
        };
        if can_start {
            self.start_etc_txn(vm, server, req, resp);
        }
        self.push(self.now + gap, Ev::EtcArrival { vm });
    }

    fn start_etc_txn(&mut self, client: u32, server: u32, req: Bytes, resp: Bytes) {
        let txn = self.next_txn;
        self.next_txn += 1;
        self.txn_starts.insert(txn, self.now);
        let c = self.conn_for(client, server);
        self.app_write(c, req.as_u64(), Some(resp.as_u64()), Some(txn));
    }

    pub(super) fn on_oldi(&mut self, tenant: u16) {
        if self.faults_on && !self.tenant_alive(tenant) {
            return;
        }
        let (msg, gap) = match &self.tenants[tenant as usize].workload {
            TenantWorkload::OldiAllToOne { msg_mean, interval } => (
                *msg_mean,
                Dur::from_secs_f64(exponential(&mut self.rng, 1.0 / interval.as_secs_f64())),
            ),
            TenantWorkload::OldiPeriodic { msg, period } => (*msg, *period),
            _ => return,
        };
        let vms = self.tenant_vms[tenant as usize].clone();
        let target = vms[0];
        for &s in &vms[1..] {
            // Partition/aggregate responses are similar-sized: each worker
            // returns one fixed-size shard of the answer.
            let c = self.conn_for(s, target);
            self.app_write(c, msg.as_u64().max(1), None, None);
        }
        self.push(self.now + gap, Ev::Oldi { tenant });
    }

    pub(super) fn on_poisson_msg(&mut self, tenant: u16, pair: u32) {
        if self.faults_on && !self.tenant_alive(tenant) {
            return;
        }
        let (pairs, msg_mean, interval) = match &self.tenants[tenant as usize].workload {
            TenantWorkload::PoissonPairs {
                pairs,
                msg_mean,
                interval,
            } => (pairs.clone(), *msg_mean, *interval),
            _ => return,
        };
        let (s, d) = pairs[pair as usize];
        let vms = &self.tenant_vms[tenant as usize];
        let (sv, dv) = (vms[s], vms[d]);
        let size = exponential(&mut self.rng, 1.0 / msg_mean.as_f64()).ceil() as u64;
        let c = self.conn_for(sv, dv);
        self.app_write(c, size.max(1), None, None);
        let gap = exponential(&mut self.rng, 1.0 / interval.as_secs_f64());
        self.push(
            self.now + Dur::from_secs_f64(gap),
            Ev::PoissonMsg { tenant, pair },
        );
    }

    /// Bulk tenants run one message per pair at a time: the next transfer
    /// starts when the previous one is fully acknowledged, so a message's
    /// latency is exactly its transfer time at the achieved bandwidth.
    pub(super) fn app_on_ack(&mut self, conn: u32) {
        let (tenant, backlog) = {
            let c = &self.conns[conn as usize];
            (c.tenant, c.wr_end - c.una)
        };
        if self.faults_on && !self.tenant_alive(tenant) {
            return;
        }
        if let TenantWorkload::BulkAllToAll { msg } = self.tenants[tenant as usize].workload {
            if backlog == 0 {
                self.app_write(conn, msg.as_u64(), None, None);
            }
        }
    }

    pub(super) fn etc_txn_done(&mut self, client_vm: u32) {
        let start_next = {
            let v = &mut self.vms[client_vm as usize];
            if let VmApp::EtcClient {
                outstanding,
                pending,
                ..
            } = &mut v.app
            {
                *outstanding = outstanding.saturating_sub(1);
                if *pending > 0 {
                    *pending -= 1;
                    *outstanding += 1;
                    true
                } else {
                    false
                }
            } else {
                false
            }
        };
        if start_next {
            let (server, req, resp) = {
                let v = &mut self.vms[client_vm as usize];
                let VmApp::EtcClient { server_vm, wl, .. } = &mut v.app else {
                    unreachable!()
                };
                let r = wl.next_request(&mut self.rng);
                (*server_vm, r.request, r.response)
            };
            self.start_etc_txn(client_vm, server, req, resp);
        }
    }
}
