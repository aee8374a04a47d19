//! # Silo — predictable message latency for multi-tenant datacenters
//!
//! This crate is the system facade of the Silo reproduction (SIGCOMM
//! 2015): the piece a cloud controller would embed. It couples the two
//! runtime components the paper describes —
//!
//! 1. the **VM placement manager** (`silo-placement`), which admits
//!    tenants and places their VMs so that every switch queue stays within
//!    its deterministic bound, and
//! 2. the **hypervisor pacer** (`silo-pacer`), which enforces each VM's
//!    `{B, S, Bmax}` on the wire at sub-microsecond granularity —
//!
//! and exposes the tenant-facing arithmetic: given a guarantee, what is
//! the worst-case latency of an `M`-byte message (§4.1)?
//!
//! ```
//! use silo_core::{SiloController, TenantRequest, Guarantee};
//! use silo_topology::{Topology, TreeParams};
//! use silo_base::{Bytes, Dur, Rate};
//!
//! let topo = Topology::build(TreeParams::testbed());
//! let mut silo = SiloController::new(topo);
//!
//! // A latency-sensitive tenant: 6 VMs, 210 Mbps each, 1.5 KB bursts at
//! // 1 Gbps, 1 ms NIC-to-NIC delay (Table 2's "Req 1").
//! let req = TenantRequest::new(6, Guarantee {
//!     b: Rate::from_mbps(210),
//!     s: Bytes(1500),
//!     bmax: Rate::from_gbps(1),
//!     delay: Some(Dur::from_ms(1)),
//! });
//! let tenant = silo.admit(&req).expect("testbed has room");
//!
//! // The tenant can now bound any message's latency itself:
//! let bound = silo.message_latency_bound(tenant.id, Bytes(1024)).unwrap();
//! assert!(bound < Dur::from_ms(2));
//!
//! // And every VM got a concrete pacer configuration.
//! assert_eq!(tenant.pacers.len(), 6);
//! ```

pub mod advisor;

use silo_base::{Bytes, Dur, Rate};
use silo_pacer::HoseAllocator;
use silo_topology::{HostId, Level, Topology};

pub use advisor::{recommend, AdvisorError, WorkloadProfile};
pub use silo_placement::{Guarantee, Placement, Placer, RejectReason, TenantId, TenantRequest};

/// The pacer settings Silo pushes to one VM's hypervisor on admission —
/// the three bucket levels of Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacerConfig {
    pub vm: usize,
    pub host: HostId,
    /// `{B, S}` bucket.
    pub rate: Rate,
    pub burst: Bytes,
    /// `Bmax` cap bucket (capacity of one MTU).
    pub burst_rate: Rate,
    pub mtu: Bytes,
}

/// An admitted tenant: where its VMs landed and how its pacers are set.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmittedTenant {
    pub id: TenantId,
    pub placement: Placement,
    pub guarantee: Guarantee,
    pub pacers: Vec<PacerConfig>,
}

/// The Silo control plane: admission, placement, pacer configuration and
/// latency arithmetic, over one datacenter topology.
pub struct SiloController {
    placer: silo_placement::SiloPlacer,
    tenants: std::collections::HashMap<TenantId, AdmittedTenant>,
    mtu: Bytes,
}

impl SiloController {
    pub fn new(topo: Topology) -> SiloController {
        SiloController {
            placer: silo_placement::SiloPlacer::new(topo),
            tenants: std::collections::HashMap::new(),
            mtu: Bytes(1500),
        }
    }

    pub fn topology(&self) -> &Topology {
        self.placer.topology()
    }

    /// Admit a tenant: place its VMs under constraints C1/C2 and derive
    /// the per-VM pacer configuration.
    pub fn admit(&mut self, req: &TenantRequest) -> Result<AdmittedTenant, RejectReason> {
        let placement = self.placer.try_place(req)?;
        let mut pacers = Vec::with_capacity(req.vms);
        let mut vm = 0usize;
        for &(host, k) in &placement.hosts {
            for _ in 0..k {
                pacers.push(PacerConfig {
                    vm,
                    host,
                    rate: req.guarantee.b,
                    burst: req.guarantee.s,
                    burst_rate: req.guarantee.bmax,
                    mtu: self.mtu,
                });
                vm += 1;
            }
        }
        let admitted = AdmittedTenant {
            id: placement.tenant,
            placement,
            guarantee: req.guarantee,
            pacers,
        };
        self.tenants.insert(admitted.id, admitted.clone());
        Ok(admitted)
    }

    /// Release a tenant's VMs and reservations.
    pub fn evict(&mut self, id: TenantId) -> bool {
        self.tenants.remove(&id);
        self.placer.remove(id)
    }

    pub fn tenant(&self, id: TenantId) -> Option<&AdmittedTenant> {
        self.tenants.get(&id)
    }

    pub fn num_tenants(&self) -> usize {
        self.tenants.len()
    }

    pub fn used_slots(&self) -> usize {
        self.placer.used_slots()
    }

    pub fn occupancy(&self) -> f64 {
        self.used_slots() as f64 / self.topology().params().num_vm_slots() as f64
    }

    /// §4.1: the worst-case latency of an `M`-byte message between two of
    /// the tenant's VMs (burst available). `None` for unknown tenants or
    /// bandwidth-only guarantees.
    pub fn message_latency_bound(&self, id: TenantId, msg: Bytes) -> Option<Dur> {
        self.tenants.get(&id)?.guarantee.message_latency_bound(msg)
    }

    /// The hose-model pairwise rates the pacers enforce for a given set of
    /// active VM pairs of one tenant: each pair's
    /// [`silo_pacer::hose_share`], the rule the EyeQ-style coordination
    /// applies at runtime.
    pub fn hose_rates(
        &self,
        id: TenantId,
        active: &[(u32, u32)],
    ) -> Option<std::collections::HashMap<(u32, u32), Rate>> {
        let t = self.tenants.get(&id)?;
        Some(HoseAllocator::new(t.guarantee.b).allocate(active))
    }

    /// The span level the tenant was placed at (drives its worst-case
    /// path delay).
    pub fn span(&self, id: TenantId) -> Option<Level> {
        self.tenants.get(&id).map(|t| t.placement.span)
    }

    /// A *tighter* packet-delay bound than the static guarantee `d`: the
    /// network-calculus concatenation bound ("pay bursts only once") of
    /// the tenant's own paced traffic across the worst path it actually
    /// spans, with every traversed port modeled as a rate-latency server
    /// whose latency is its full queue capacity (safe against any
    /// co-tenant load admitted under C1).
    ///
    /// Always ≤ the `d` the tenant asked for when the tenant was
    /// admitted with a delay guarantee; `None` for unknown tenants or
    /// degenerate (single-host) placements.
    pub fn tight_delay_bound(&self, id: TenantId) -> Option<Dur> {
        use silo_netcalc::{path_delay_sfa, Curve, ServiceCurve};
        let t = self.tenants.get(&id)?;
        // Worst pair: the two hosts spanning the placement's level.
        let hosts: Vec<HostId> = t.placement.hosts.iter().map(|&(h, _)| h).collect();
        let (mut worst, mut path): (usize, Vec<_>) = (0, Vec::new());
        for (i, &a) in hosts.iter().enumerate() {
            for &b in &hosts[i + 1..] {
                let p = self.topology().path_ports(a, b);
                if p.len() > worst {
                    worst = p.len();
                    path = p;
                }
            }
        }
        if path.is_empty() {
            return None;
        }
        let a = Curve::dual_slope(t.guarantee.b, t.guarantee.s, t.guarantee.bmax, self.mtu);
        let hops: Vec<ServiceCurve> = path
            .iter()
            .map(|&p| {
                let info = self.topology().port(p);
                ServiceCurve::rate_latency(info.rate, info.queue_capacity())
            })
            .collect();
        path_delay_sfa(&a, &hops).map(Dur::from_secs_f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_topology::TreeParams;

    fn controller() -> SiloController {
        SiloController::new(Topology::build(TreeParams::testbed()))
    }

    fn req1() -> TenantRequest {
        TenantRequest::new(
            6,
            Guarantee {
                b: Rate::from_mbps(210),
                s: Bytes(1500),
                bmax: Rate::from_gbps(1),
                delay: Some(Dur::from_ms(1)),
            },
        )
    }

    #[test]
    fn admit_generates_pacer_configs() {
        let mut c = controller();
        let t = c.admit(&req1()).unwrap();
        assert_eq!(t.pacers.len(), 6);
        for p in &t.pacers {
            assert_eq!(p.rate, Rate::from_mbps(210));
            assert_eq!(p.burst, Bytes(1500));
            assert_eq!(p.burst_rate, Rate::from_gbps(1));
        }
        assert_eq!(c.num_tenants(), 1);
        assert_eq!(c.used_slots(), 6);
    }

    #[test]
    fn latency_bound_matches_guarantee_math() {
        let mut c = controller();
        let t = c.admit(&req1()).unwrap();
        let bound = c.message_latency_bound(t.id, Bytes(1024)).unwrap();
        assert_eq!(
            bound,
            Rate::from_gbps(1).tx_time(Bytes(1024)) + Dur::from_ms(1)
        );
    }

    #[test]
    fn evict_releases_capacity() {
        let mut c = controller();
        let total = c.topology().params().num_vm_slots();
        let mut ids = Vec::new();
        while let Ok(t) = c.admit(&req1()) {
            ids.push(t.id);
        }
        assert_eq!(c.used_slots(), total, "testbed fills completely");
        for id in ids {
            assert!(c.evict(id));
        }
        assert_eq!(c.used_slots(), 0);
        assert!(c.admit(&req1()).is_ok());
    }

    #[test]
    fn hose_rates_respect_both_ends() {
        let mut c = controller();
        let t = c.admit(&req1()).unwrap();
        // All-to-one: 5 senders into VM 0 get B/5 each.
        let pairs: Vec<(u32, u32)> = (1..=5).map(|s| (s, 0)).collect();
        let rates = c.hose_rates(t.id, &pairs).unwrap();
        for p in &pairs {
            let r = rates[p].as_bps() as f64;
            assert!((r - 210e6 / 5.0).abs() / 42e6 < 0.05);
        }
    }

    #[test]
    fn unknown_tenant_queries_return_none() {
        let c = controller();
        assert!(c.message_latency_bound(TenantId(99), Bytes(100)).is_none());
        assert!(c.span(TenantId(99)).is_none());
    }

    #[test]
    fn tight_delay_bound_beats_the_guarantee() {
        let mut c = controller();
        let t = c.admit(&req1()).unwrap();
        match c.tight_delay_bound(t.id) {
            Some(tight) => {
                // The SFA bound must respect (and normally beat) the
                // static d the tenant was admitted with.
                assert!(tight <= Dur::from_ms(1), "tight bound {tight}");
            }
            None => {
                // Single-host placement: no network path — also fine.
                assert_eq!(t.placement.hosts.len(), 1);
            }
        }
    }

    #[test]
    fn occupancy_tracks_admissions() {
        let mut c = controller();
        assert_eq!(c.occupancy(), 0.0);
        let _ = c.admit(&req1()).unwrap();
        assert!((c.occupancy() - 6.0 / 30.0).abs() < 1e-12);
    }
}
