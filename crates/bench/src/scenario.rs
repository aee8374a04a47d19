//! Scenario builders: the §6.1 testbed tenants (Table 2), the §6.2
//! ns2-style tenant population (Table 3) placed by each scheme's placer,
//! and the §6.3 flow-level topology.

use rand::rngs::StdRng;
use rand::Rng;
use silo_base::{exponential, Bytes, Dur, Rate};
use silo_placement::{Guarantee, LocalityPlacer, OktopusPlacer, Placer, SiloPlacer, TenantRequest};
use silo_simnet::{TenantSpec, TenantWorkload, TransportMode};
use silo_topology::{HostId, Topology, TreeParams};

/// The §6.3 flow-level topology of Figs. 15–16: 16 pods × 40 racks × 50
/// servers = 32 K servers at `scale` 1, never below 2 × 2 racks.
pub fn flow_topo(scale: f64) -> Topology {
    let pods = ((16.0 * scale).round() as usize).max(2);
    let racks = ((40.0 * scale).round() as usize).max(2);
    Topology::build(TreeParams {
        pods,
        racks_per_pod: racks,
        servers_per_rack: 50,
        vm_slots_per_server: 4,
        host_link: Rate::from_gbps(10),
        tor_oversub: 5.0,
        agg_oversub: 5.0,
        switch_buffer: Bytes::from_kb(312),
        nic_buffer: Bytes::from_kb(64),
        prop_delay: Dur::from_ns(500),
    })
}

/// Which placement algorithm seats the tenants (per §6.2: Silo uses its
/// own, Oktopus its bandwidth-aware one, everything else locality-aware).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacerKind {
    Silo,
    Oktopus,
    Locality,
}

impl PlacerKind {
    pub fn for_mode(mode: TransportMode) -> PlacerKind {
        match mode {
            TransportMode::Silo => PlacerKind::Silo,
            TransportMode::Okto | TransportMode::OktoPlus => PlacerKind::Oktopus,
            _ => PlacerKind::Locality,
        }
    }
}

/// Table 3 classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NsClass {
    /// Delay-sensitive, all-to-one.
    A,
    /// Bandwidth-sensitive, all-to-all.
    B,
}

/// One generated tenant: its guarantee, class and realized placement.
#[derive(Debug, Clone)]
pub struct NsTenant {
    pub class: NsClass,
    pub guarantee: Guarantee,
    pub spec: TenantSpec,
}

/// Build the §6.2 population: tenants drawn 50/50 from Table 3's classes
/// (bandwidth and burst exponential around the class means), placed until
/// `occupancy` of the VM slots are filled or placement starts failing.
///
/// Returns the placed tenants; rejected draws are skipped (the paper
/// sizes the tenant count by occupied slots, not by offered requests).
pub fn build_ns2_population(
    topo: &Topology,
    placer_kind: PlacerKind,
    occupancy: f64,
    load_a: f64,
    load_b: f64,
    rng: &mut StdRng,
) -> Vec<NsTenant> {
    let mut silo = SiloPlacer::new(topo.clone());
    let mut okto = OktopusPlacer::new(topo.clone());
    let mut loc = LocalityPlacer::new(topo.clone());
    let total_slots = topo.params().num_vm_slots();
    let target = (total_slots as f64 * occupancy) as usize;
    let mut out = Vec::new();
    let mut consecutive_rejects = 0;
    let mut used = 0usize;
    while used < target && consecutive_rejects < 50 {
        let class = if rng.random::<f64>() < 0.5 {
            NsClass::A
        } else {
            NsClass::B
        };
        // Tenant sizes: class A is an OLDI aggregation group big enough
        // that a simultaneous burst stresses a shallow port (16–32 VMs);
        // class B a small data-parallel job (8–16 VMs).
        let n = match class {
            // Paper-scale OLDI aggregation groups (mean tenant ≈ 36 VMs):
            // a simultaneous burst of ~35 × 15 KB ≈ 500 KB must be able
            // to overwhelm a 312 KB port — that is the whole point of
            // burst-aware admission.
            NsClass::A => 24 + (rng.random::<u64>() % 25) as usize,
            NsClass::B => 8 + (rng.random::<u64>() % 9) as usize,
        };
        let guarantee = match class {
            NsClass::A => Guarantee {
                b: Rate::from_bps(
                    (exponential(rng, 1.0 / 0.25e9) as u64).clamp(50_000_000, 1_000_000_000),
                ),
                s: Bytes((exponential(rng, 1.0 / 15_000.0) as u64).clamp(1_500, 60_000)),
                bmax: Rate::from_gbps(1),
                delay: Some(Dur::from_us(1000)),
            },
            NsClass::B => {
                let b = Rate::from_bps(
                    (exponential(rng, 1.0 / 2e9) as u64).clamp(250_000_000, 5_000_000_000),
                );
                Guarantee {
                    b,
                    s: Bytes(1500),
                    // Bandwidth-only tenants burst no faster than their
                    // sustained guarantee (Bmax = B, Table 3 has no Bmax
                    // for class B).
                    bmax: b,
                    delay: None,
                }
            }
        };
        let req = TenantRequest::new(n, guarantee);
        let placed = match placer_kind {
            PlacerKind::Silo => silo.try_place(&req),
            PlacerKind::Oktopus => okto.try_place(&req),
            PlacerKind::Locality => loc.try_place(&req),
        };
        let Ok(p) = placed else {
            consecutive_rejects += 1;
            continue;
        };
        consecutive_rejects = 0;
        used += n;
        let workload = match class {
            NsClass::A => {
                // All VMs burst a message to VM 0 at once; the offered
                // aggregate at the receiver averages `load × B`. Each
                // response is sized to ride the burst allowance, which is
                // what the allowance is *for*.
                let msg_mean = Bytes((guarantee.s.as_u64() * 9) / 10);
                let interval_s = (n - 1) as f64 * msg_mean.bits() as f64
                    / (load_a * guarantee.b.as_bps() as f64);
                TenantWorkload::OldiAllToOne {
                    msg_mean,
                    interval: Dur::from_secs_f64(interval_s.max(1e-6)),
                }
            }
            NsClass::B => {
                // Continuously backlogged all-to-all shuffle: completion
                // is dictated purely by achieved bandwidth (§6.2). One
                // message per pair in flight at a time.
                let _ = load_b;
                TenantWorkload::BulkAllToAll {
                    msg: Bytes::from_mb(1),
                }
            }
        };
        out.push(NsTenant {
            class,
            guarantee,
            spec: TenantSpec {
                vm_hosts: p.vm_hosts(),
                b: guarantee.b,
                s: guarantee.s,
                bmax: guarantee.bmax,
                prio: 0,
                // Violation checking stays off in the headline scenarios:
                // outputs must be byte-stable against the goldens. Fault
                // sweeps opt in per-tenant.
                delay: None,
                workload,
            },
        });
    }
    out
}

/// Table 2's testbed requests: tenant A's bandwidth guarantee per
/// requirement level, with tenant B taking the rest of the 10 G links.
#[derive(Debug, Clone, Copy)]
pub struct TestbedReq {
    pub name: &'static str,
    pub a_bw: Rate,
    pub b_bw: Rate,
}

pub const TESTBED_REQS: [TestbedReq; 3] = [
    TestbedReq {
        name: "req1",
        a_bw: Rate(210_000_000),
        b_bw: Rate(3_123_000_000),
    },
    TestbedReq {
        name: "req2",
        a_bw: Rate(315_000_000),
        b_bw: Rate(3_018_000_000),
    },
    TestbedReq {
        name: "req3",
        a_bw: Rate(420_000_000),
        b_bw: Rate(2_913_000_000),
    },
];

/// ETC client load factor that makes tenant A's average offered bandwidth
/// match the paper's measured 210 Mbps (≈ 4.7 k req/s per client against
/// the raw trace's 52.7 k/s).
pub const ETC_TESTBED_LOAD: f64 = 0.09;

/// The §6.1 testbed tenants: A = memcached (15 VMs, 3 per server, VM 0
/// the server), B = netperf all-to-all (15 VMs), per Table 2.
///
/// `burst` overrides tenant A's burst allowance (the paper also tries
/// 3 KB); `with_b` drops tenant B for the "idle" baseline.
pub fn testbed_tenants(req: &TestbedReq, burst: Bytes, with_b: bool, load: f64) -> Vec<TenantSpec> {
    // 5 servers x 6 slots; A gets 3 slots per server, B the other 3.
    let a_hosts: Vec<HostId> = (0..5u32).flat_map(|h| [HostId(h); 3]).collect();
    let b_hosts = a_hosts.clone();
    let mut tenants = vec![TenantSpec {
        vm_hosts: a_hosts,
        b: req.a_bw,
        s: burst,
        bmax: Rate::from_gbps(1),
        prio: 0,
        delay: None,
        workload: TenantWorkload::Etc {
            load,
            concurrency: 4,
        },
    }];
    if with_b {
        tenants.push(TenantSpec {
            vm_hosts: b_hosts,
            b: req.b_bw,
            s: Bytes(1500),
            bmax: req.b_bw,
            prio: 0,
            delay: None,
            workload: TenantWorkload::BulkAllToAll {
                msg: Bytes::from_mb(1),
            },
        });
    }
    tenants
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_placement::RejectReason;

    /// Fig 15's class-A threshold: on an empty §6.3 datacenter, at the
    /// table's scale and the paper's, a class-A tenant of 32 VMs is
    /// admitted and one of 33 is refused on the network, whatever the
    /// free slots. The sum of the senders' 15 KB bursts at one receiver's
    /// downlink is what refuses it (EXPERIMENTS.md, Fig 15).
    #[test]
    fn class_a_is_refused_from_33_vms_on_an_empty_flow_topo() {
        for scale in [0.1, 1.0] {
            let place = |vms| {
                SiloPlacer::new(flow_topo(scale))
                    .try_place(&TenantRequest::new(vms, Guarantee::class_a()))
                    .map(|_| ())
            };
            assert_eq!(place(32), Ok(()), "scale {scale}: 32 VMs");
            assert_eq!(
                place(33),
                Err(RejectReason::NetworkUnsatisfiable),
                "scale {scale}: 33 VMs"
            );
        }
    }
}
