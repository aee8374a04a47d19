//! # silo — a full reproduction of *Silo: Predictable Message Latency in
//! # the Cloud* (SIGCOMM 2015)
//!
//! This umbrella crate re-exports the whole workspace so examples and
//! downstream users need a single dependency:
//!
//! * [`placement`] — the Silo control plane: tenant guarantees, the
//!   network-calculus placement manager and admission service, latency
//!   bounds and the guarantee advisor, plus the Oktopus and Locality
//!   baselines.
//! * [`pacer`] — token-bucket hierarchy and paced IO batching
//!   with void packets.
//! * [`netcalc`] — arrival/service curves and queue bounds.
//! * [`topology`] — multi-rooted tree datacenters.
//! * [`simnet`] — the packet-level simulator (TCP, DCTCP,
//!   HULL, Oktopus, Silo datapaths).
//! * [`flowsim`] — the datacenter-scale flow-level
//!   simulator.
//! * [`workload`] — ETC/memcached, Poisson, OLDI and
//!   shuffle workload generators.
//!
//! See `examples/quickstart.rs` for the five-minute tour and DESIGN.md
//! for the experiment index.

pub use silo_base as base;
pub use silo_flowsim as flowsim;
pub use silo_netcalc as netcalc;
pub use silo_pacer as pacer;
pub use silo_placement as placement;
pub use silo_simnet as simnet;
pub use silo_topology as topology;
pub use silo_workload as workload;

/// The control-plane walk a tenant takes, composed from the crates above:
/// admission through [`placement::SiloPlacer`], the §4.1 latency bound from
/// its [`placement::Guarantee`], and the hose rates the pacer enforces.
#[cfg(test)]
mod tests {
    use crate::base::{Bytes, Dur, Rate};
    use crate::pacer::HoseAllocator;
    use crate::placement::{Guarantee, Placer, SiloPlacer, TenantId, TenantRequest};
    use crate::topology::{Level, Topology, TreeParams};

    fn placer() -> SiloPlacer {
        SiloPlacer::new(Topology::build(TreeParams::testbed()))
    }

    /// Table 2's req1 guarantee over `vms` VMs.
    fn req1(vms: usize) -> TenantRequest {
        TenantRequest::new(
            vms,
            Guarantee {
                b: Rate::from_mbps(210),
                s: Bytes(1500),
                bmax: Rate::from_gbps(1),
                delay: Some(Dur::from_ms(1)),
            },
        )
    }

    #[test]
    fn latency_bound_matches_guarantee_math() {
        let mut p = placer();
        let req = req1(6);
        p.try_place(&req).unwrap();
        let bound = req.guarantee.message_latency_bound(Bytes(1024)).unwrap();
        assert_eq!(
            bound,
            Rate::from_gbps(1).tx_time(Bytes(1024)) + Dur::from_ms(1)
        );
    }

    #[test]
    fn evict_releases_capacity() {
        let mut p = placer();
        let total = p.topology().params().num_vm_slots();
        let mut ids = Vec::new();
        while let Ok(t) = p.try_place(&req1(6)) {
            ids.push(t.tenant);
        }
        assert_eq!(p.used_slots(), total, "testbed fills completely");
        for id in ids {
            assert!(p.remove(id));
        }
        assert_eq!(p.used_slots(), 0);
        assert!(p.try_place(&req1(6)).is_ok());
    }

    #[test]
    fn hose_rates_respect_both_ends() {
        let mut p = placer();
        let req = req1(6);
        p.try_place(&req).unwrap();
        // All-to-one: 5 senders into VM 0 get B/5 each.
        let pairs: Vec<(u32, u32)> = (1..=5).map(|s| (s, 0)).collect();
        let rates = HoseAllocator::new(req.guarantee.b).allocate(&pairs);
        for pair in &pairs {
            let r = rates[pair].as_bps() as f64;
            assert!((r - 210e6 / 5.0).abs() / 42e6 < 0.05);
        }
    }

    #[test]
    fn unknown_tenant_queries_return_none() {
        let mut p = placer();
        assert!(p.placement_of(TenantId(99)).is_none());
        assert!(p.tight_delay_bound(TenantId(99)).is_none());
        // A removed tenant is unknown again.
        let t = p.try_place(&req1(12)).unwrap();
        assert!(p.remove(t.tenant));
        assert!(p.placement_of(t.tenant).is_none());
        assert!(p.tight_delay_bound(t.tenant).is_none());
    }

    #[test]
    fn tight_delay_bound_beats_the_guarantee() {
        let mut p = placer();
        // Twelve VMs outgrow one 6-slot server: the tenant spans the rack,
        // and its longest path is a NIC uplink plus a ToR downlink.
        let wide = p.try_place(&req1(12)).unwrap();
        assert_eq!(wide.span, Level::SameRack);
        let topo = p.topology();
        let path = topo.path_ports(wide.hosts[0].0, wide.hosts[1].0);
        assert_eq!(path.len(), 2);
        let capacity: Dur = path.iter().map(|&q| topo.port(q).queue_capacity()).sum();
        let tight = p
            .tight_delay_bound(wide.tenant)
            .expect("a rack-wide tenant");
        // The tenant's own burst and rate latency come on top of the
        // queues, and the whole must still fit the d it was admitted with.
        assert!(
            capacity < tight && tight <= Dur::from_ms(1),
            "queues {capacity} < tight {tight} <= 1 ms"
        );

        // A single-host placement crosses no network port.
        let narrow = p.try_place(&req1(2)).unwrap();
        assert_eq!(narrow.hosts.len(), 1);
        assert_eq!(p.tight_delay_bound(narrow.tenant), None);
    }
}
