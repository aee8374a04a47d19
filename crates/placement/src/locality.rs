//! The locality-aware baseline: network-oblivious greedy packing.
//!
//! This is the paper's "Locality" strawman (§6.2–6.3): place each tenant's
//! VMs as close together as possible, checking nothing but slot
//! availability. It accepts everything that fits slot-wise — and §6.3 shows
//! how that backfires at high occupancy, when bandwidth-starved outlier
//! tenants drag the whole cloud's throughput down.

use crate::guarantee::TenantRequest;
use crate::placer::{greedy_place_spread, Placement, Placer, RejectReason, SlotMap, TenantId};
use silo_topology::{HostId, Level, Topology};
use std::collections::HashMap;

/// Greedy smallest-subtree packing with no network admission at all.
pub struct LocalityPlacer {
    topo: Topology,
    slots: SlotMap,
    tenants: HashMap<TenantId, Vec<(HostId, usize)>>,
    next_id: u64,
}

impl LocalityPlacer {
    pub fn new(topo: Topology) -> LocalityPlacer {
        let slots = SlotMap::new(&topo);
        LocalityPlacer {
            topo,
            slots,
            tenants: HashMap::new(),
            next_id: 0,
        }
    }

    pub fn num_tenants(&self) -> usize {
        self.tenants.len()
    }
}

impl Placer for LocalityPlacer {
    fn topology(&self) -> &Topology {
        &self.topo
    }

    fn try_place(&mut self, req: &TenantRequest) -> Result<Placement, RejectReason> {
        let mut cand = Vec::new();
        let found = greedy_place_spread(
            &self.topo,
            &self.slots,
            req.vms,
            Level::CrossPod,
            req.min_fault_domains,
            &mut cand,
            &mut |_, _| true,
        );
        let Some(level) = found else {
            return Err(RejectReason::InsufficientSlots);
        };
        self.slots.alloc(&self.topo, &cand);
        let id = TenantId(self.next_id);
        self.next_id += 1;
        self.tenants.insert(id, cand.clone());
        Ok(Placement {
            tenant: id,
            hosts: cand,
            span: level,
        })
    }

    fn remove(&mut self, tenant: TenantId) -> bool {
        let Some(hosts) = self.tenants.remove(&tenant) else {
            return false;
        };
        self.slots.release(&self.topo, &hosts);
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
    use silo_base::Rate;
    use silo_topology::TreeParams;

    #[test]
    fn accepts_anything_with_slots() {
        let topo = Topology::build(TreeParams {
            pods: 1,
            racks_per_pod: 2,
            servers_per_rack: 2,
            vm_slots_per_server: 4,
            ..TreeParams::ns2_paper()
        });
        let mut p = LocalityPlacer::new(topo);
        // Absurd bandwidth demand: locality doesn't care.
        let req = TenantRequest::new(8, Guarantee::bandwidth_only(Rate::from_gbps(100)));
        assert!(p.try_place(&req).is_ok());
        assert!(p.try_place(&req).is_ok());
        // 16 slots exhausted.
        assert_eq!(
            p.try_place(&TenantRequest::new(1, Guarantee::class_b())),
            Err(RejectReason::InsufficientSlots)
        );
        assert_eq!(p.used_slots(), 16);
    }

    #[test]
    fn packs_densely() {
        let topo = Topology::build(TreeParams {
            pods: 2,
            racks_per_pod: 2,
            servers_per_rack: 2,
            vm_slots_per_server: 4,
            ..TreeParams::ns2_paper()
        });
        let mut p = LocalityPlacer::new(topo);
        let placed = p
            .try_place(&TenantRequest::new(8, Guarantee::class_b()))
            .unwrap();
        // 8 VMs over 2 servers = one rack.
        assert_eq!(placed.span, Level::SameRack);
        assert_eq!(placed.hosts.len(), 2);
        // Next tenant starts in the next rack.
        let placed2 = p
            .try_place(&TenantRequest::new(4, Guarantee::class_b()))
            .unwrap();
        assert_eq!(placed2.hosts, vec![(HostId(2), 4)]);
    }
}
