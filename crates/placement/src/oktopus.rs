//! The Oktopus baseline (Ballani et al., SIGCOMM 2011): hose-model
//! *bandwidth-only* admission — no burst absorption, no delay constraint.
//!
//! Oktopus reserves `min(m, N−m)·B` on every link between a tenant's VMs
//! and rejects when a link's reservations would exceed its capacity. The
//! paper's Fig. 5 shows why this is insufficient for delay guarantees:
//! a placement can satisfy every bandwidth reservation yet overflow a
//! switch buffer when VMs burst.

use crate::guarantee::TenantRequest;
use crate::placer::{greedy_place_spread, Placement, Placer, RejectReason, SlotMap, TenantId};
use silo_topology::{HostId, Level, PortId, Topology};
use std::collections::HashMap;

struct TenantRecord {
    hosts: Vec<(HostId, usize)>,
    reservations: Vec<(PortId, f64)>,
}

/// Bandwidth-only hose admission and greedy height-minimizing placement.
pub struct OktopusPlacer {
    topo: Topology,
    slots: SlotMap,
    /// Reserved sustained bandwidth per directed port, bytes/sec.
    reserved: Vec<f64>,
    tenants: HashMap<TenantId, TenantRecord>,
    next_id: u64,
}

impl OktopusPlacer {
    pub fn new(topo: Topology) -> OktopusPlacer {
        let slots = SlotMap::new(&topo);
        let reserved = vec![0.0; topo.num_ports()];
        OktopusPlacer {
            topo,
            slots,
            reserved,
            tenants: HashMap::new(),
            next_id: 0,
        }
    }

    /// Does the candidate's hose reservation fit every port between its
    /// hosts? Leaves the reservations in `out` (meaningless on false).
    fn check_candidate(
        &self,
        cand: &[(HostId, usize)],
        req: &TenantRequest,
        out: &mut Vec<(PortId, f64)>,
    ) -> bool {
        out.clear();
        let n = req.vms;
        for cut in self.topo.cuts(cand) {
            let (p, m) = (cut.port, cut.m);
            if m == 0 || m >= n {
                continue;
            }
            let need = req.guarantee.b.bytes_per_sec() * m.min(n - m) as f64;
            let line = self.topo.port(p).rate.bytes_per_sec();
            if self.reserved[p.0 as usize] + need > line * (1.0 + 1e-9) {
                return false;
            }
            out.push((p, need));
        }
        true
    }

    /// Fraction of a port's capacity reserved (for utilization reports).
    pub fn reserved_fraction(&self, p: PortId) -> f64 {
        self.reserved[p.0 as usize] / self.topo.port(p).rate.bytes_per_sec()
    }

    pub fn num_tenants(&self) -> usize {
        self.tenants.len()
    }
}

impl Placer for OktopusPlacer {
    fn topology(&self) -> &Topology {
        &self.topo
    }

    fn try_place(&mut self, req: &TenantRequest) -> Result<Placement, RejectReason> {
        let n = req.vms;
        let mut cand = Vec::new();
        let mut reservations = Vec::new();
        let found = greedy_place_spread(
            &self.topo,
            &self.slots,
            n,
            Level::CrossPod,
            req.min_fault_domains,
            &mut cand,
            &mut |cand, _| self.check_candidate(cand, req, &mut reservations),
        );
        let Some(level) = found else {
            return Err(if self.slots.total_free() < n {
                RejectReason::InsufficientSlots
            } else {
                RejectReason::NetworkUnsatisfiable
            });
        };
        for (p, r) in &reservations {
            self.reserved[p.0 as usize] += r;
        }
        self.slots.alloc(&self.topo, &cand);
        let id = TenantId(self.next_id);
        self.next_id += 1;
        self.tenants.insert(
            id,
            TenantRecord {
                hosts: cand.clone(),
                reservations,
            },
        );
        Ok(Placement {
            tenant: id,
            hosts: cand,
            span: level,
        })
    }

    fn remove(&mut self, tenant: TenantId) -> bool {
        let Some(rec) = self.tenants.remove(&tenant) else {
            return false;
        };
        for (p, r) in &rec.reservations {
            self.reserved[p.0 as usize] = (self.reserved[p.0 as usize] - r).max(0.0);
        }
        self.slots.release(&self.topo, &rec.hosts);
        true
    }

    fn used_slots(&self) -> usize {
        self.slots.used()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guarantee::Guarantee;
    use silo_base::{Bytes, Dur, Rate};
    use silo_topology::TreeParams;

    fn small_topo() -> Topology {
        Topology::build(TreeParams {
            pods: 1,
            racks_per_pod: 1,
            servers_per_rack: 3,
            vm_slots_per_server: 5,
            host_link: Rate::from_gbps(10),
            tor_oversub: 1.0,
            agg_oversub: 1.0,
            switch_buffer: Bytes::from_kb(300),
            nic_buffer: Bytes::from_kb(64),
            prop_delay: Dur::from_ns(500),
        })
    }

    #[test]
    fn accepts_fig5_tenant_that_silo_would_balance() {
        // Oktopus only checks bandwidth: the dense 5/4 packing is fine by
        // it (hose min(5,4)·1G = 4G <= 10G everywhere).
        let mut p = OktopusPlacer::new(small_topo());
        let req = TenantRequest::new(
            9,
            Guarantee {
                b: Rate::from_gbps(1),
                s: Bytes::from_kb(100),
                bmax: Rate::from_gbps(10),
                delay: Some(Dur::from_ms(1)),
            },
        );
        let placed = p.try_place(&req).unwrap();
        // First-fit packs densely: 5 + 4 on the first two servers.
        assert_eq!(placed.hosts, vec![(HostId(0), 5), (HostId(1), 4)]);
    }

    #[test]
    fn rejects_bandwidth_overload() {
        let mut p = OktopusPlacer::new(small_topo());
        // 10 VMs at 3 Gbps hose: any split has min(m, n-m) >= 4 somewhere
        // ... actually k=5/5: min(5,5)·3G = 15G > 10G on NICs.
        let req = TenantRequest::new(10, Guarantee::bandwidth_only(Rate::from_gbps(3)));
        assert_eq!(p.try_place(&req), Err(RejectReason::NetworkUnsatisfiable));
    }

    #[test]
    fn reservations_accumulate_and_release() {
        let mut p = OktopusPlacer::new(small_topo());
        let req = TenantRequest::new(6, Guarantee::bandwidth_only(Rate::from_gbps(2)));
        let a = p.try_place(&req).unwrap();
        let b = p.try_place(&req).unwrap();
        // Third tenant of the same shape: slots (15 total, 12 used).
        assert!(p.try_place(&req).is_err());
        assert!(p.remove(a.tenant));
        assert!(p.try_place(&req).is_ok());
        assert!(p.remove(b.tenant));
    }

    #[test]
    fn single_server_tenant_reserves_nothing() {
        let mut p = OktopusPlacer::new(small_topo());
        let req = TenantRequest::new(4, Guarantee::bandwidth_only(Rate::from_gbps(10)));
        let placed = p.try_place(&req).unwrap();
        assert_eq!(placed.span, Level::SameHost);
        assert_eq!(p.tenants[&placed.tenant].reservations.len(), 0);
    }
}
