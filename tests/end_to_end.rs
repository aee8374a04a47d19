//! Cross-crate integration tests: the full Silo pipeline from admission
//! through placement, pacing, and packet-level simulation.

use silo::base::{Bytes, Dur, Rate};
use silo::placement::{Guarantee, Placer, RejectReason, SiloPlacer, TenantRequest};
use silo::simnet::{Sim, SimConfig, TenantSpec, TenantWorkload, TransportMode};
use silo::topology::{HostId, Level, Topology, TreeParams};

/// Admission decisions must be honored by the data plane: place a tenant
/// with Silo, run its worst-case workload (simultaneous all-to-one
/// bursts), and verify zero drops and the latency bound.
#[test]
fn admitted_tenant_meets_its_guarantee_end_to_end() {
    let topo = Topology::build(TreeParams {
        pods: 1,
        racks_per_pod: 1,
        servers_per_rack: 8,
        vm_slots_per_server: 4,
        host_link: Rate::from_gbps(10),
        tor_oversub: 1.0,
        agg_oversub: 1.0,
        switch_buffer: Bytes::from_kb(312),
        nic_buffer: Bytes::from_kb(64),
        prop_delay: Dur::from_ns(500),
    });
    let guarantee = Guarantee {
        b: Rate::from_mbps(250),
        s: Bytes::from_kb(15),
        bmax: Rate::from_gbps(1),
        delay: Some(Dur::from_ms(1)),
    };
    let placed = SiloPlacer::new(topo.clone())
        .try_place(&TenantRequest::new(20, guarantee))
        .expect("8x4 slots with light guarantees must fit");
    // The guarantee's §4.1 bound for the burst-sized message.
    let msg = Bytes((guarantee.s.as_u64() * 9) / 10);
    let bound = guarantee.message_latency_bound(msg).unwrap();

    // Drive the placement in the packet simulator with the worst-case
    // *conformant* workload: all 19 workers burst `msg` bytes
    // to VM 0 simultaneously, strictly periodically. Eq. 1's bound only
    // covers traffic inside the `{B, S}` hose arrival curve, so the
    // period must satisfy both conformance conditions:
    //   - receiver hose: 19 x 13.5 KB / period ≤ B = 250 Mbps ⇒ period ≥ 8.2 ms
    //   - per-pair burst refill: period ≥ msg / B = 432 us
    // 16 ms runs the receiver hose at ~50% load. (A Poisson driver at
    // mean 8 ms — the seed's setup — offers 256.5 Mbps > B and also
    // violates the per-pair curve whenever two events land within the
    // refill time, so its tail is legitimately outside eq. 1's promise.)
    let spec = TenantSpec {
        vm_hosts: placed.vm_hosts(),
        b: guarantee.b,
        s: guarantee.s,
        bmax: guarantee.bmax,
        prio: 0,
        delay: None,
        workload: TenantWorkload::OldiPeriodic {
            msg,
            period: Dur::from_ms(16),
        },
    };
    let cfg = SimConfig::new(TransportMode::Silo, Dur::from_ms(200), 11);
    let m = Sim::new(topo, cfg, vec![spec]).run();
    assert_eq!(m.drops, 0, "conformant bursts must never overflow");
    let mut lat = m.latencies_us(0);
    assert!(lat.len() > 100, "bursts completed: {}", lat.len());
    let p999 = lat.p999().unwrap();
    assert!(
        p999 <= bound.as_us_f64() * 1.1,
        "p999 {p999} us must respect the bound {bound} (+10% measurement slack)"
    );
}

/// The three placers agree on slot arithmetic but diverge exactly where
/// the paper says they do.
#[test]
fn placer_divergence_matches_paper_story() {
    use silo::placement::{LocalityPlacer, OktopusPlacer};
    let topo = Topology::build(TreeParams {
        pods: 1,
        racks_per_pod: 1,
        servers_per_rack: 3,
        vm_slots_per_server: 4,
        host_link: Rate::from_gbps(10),
        tor_oversub: 1.0,
        agg_oversub: 1.0,
        switch_buffer: Bytes::from_kb(300),
        nic_buffer: Bytes::from_kb(64),
        prop_delay: Dur::from_ns(500),
    });
    // The Fig. 5 tenant: bandwidth-feasible, burst-infeasible when packed.
    let req = TenantRequest::new(
        9,
        Guarantee {
            b: Rate::from_gbps(1),
            s: Bytes::from_kb(100),
            bmax: Rate::from_gbps(10),
            delay: Some(Dur::from_ms(1)),
        },
    );
    let mut locality = LocalityPlacer::new(topo.clone());
    let mut okto = OktopusPlacer::new(topo.clone());
    let mut silo = SiloPlacer::new(topo);
    // Locality and Oktopus accept with dense packing.
    assert!(locality.try_place(&req).is_ok());
    assert!(okto.try_place(&req).is_ok());
    // Silo refuses: even balanced 3/3/3 needs ~354 KB of buffering.
    assert_eq!(
        silo.try_place(&req),
        Err(RejectReason::NetworkUnsatisfiable)
    );
}

/// Delay guarantees constrain placement height across a real multi-pod
/// topology, and the spans reported are consistent with actual placements.
#[test]
fn delay_guarantee_shapes_placement_span() {
    let topo = Topology::build(TreeParams::ns2_paper());
    let mut placer = SiloPlacer::new(topo);
    // 1 ms: fits a pod (budget ~800 us), not cross-pod (~1.3 ms). Thirty
    // VMs keep the worst-case all-to-one burst (29 x 15 KB draining at
    // Bmax) inside a 312 KB port; much larger class-A tenants are
    // correctly rejected by C1.
    let placed = placer
        .try_place(&TenantRequest::new(30, Guarantee::class_a()))
        .expect("30 light VMs fit one pod");
    assert!(placed.span <= Level::SamePod, "span {:?}", placed.span);
    // No delay guarantee: a paper-scale class-B tenant is admitted (its
    // hose must still fit the 1:5 oversubscribed uplinks — 2 Gbps x 49
    // VMs does; vastly larger ones are correctly refused).
    let placed_b = placer
        .try_place(&TenantRequest::new(49, Guarantee::class_b()))
        .expect("bandwidth-only tenant");
    assert_eq!(placed_b.total_vms(), 49);
    assert!(
        placer
            .try_place(&TenantRequest::new(330, Guarantee::class_b()))
            .is_err(),
        "330 x 2 Gbps hose cannot cross 80 G uplinks"
    );
}

/// Determinism across the whole stack: identical seeds give identical
/// metrics for a mixed multi-tenant run.
#[test]
fn full_stack_determinism() {
    let run = || {
        let topo = Topology::build(TreeParams::testbed());
        let cfg = SimConfig::new(TransportMode::Silo, Dur::from_ms(30), 77);
        let hosts: Vec<HostId> = (0..5u32).flat_map(|h| [HostId(h); 2]).collect();
        let tenants = vec![
            TenantSpec {
                vm_hosts: hosts.clone(),
                b: Rate::from_mbps(500),
                s: Bytes::from_kb(15),
                bmax: Rate::from_gbps(1),
                prio: 0,
                delay: None,
                workload: TenantWorkload::OldiAllToOne {
                    msg_mean: Bytes::from_kb(13),
                    interval: Dur::from_ms(2),
                },
            },
            TenantSpec {
                vm_hosts: hosts,
                b: Rate::from_gbps(2),
                s: Bytes(1500),
                bmax: Rate::from_gbps(2),
                prio: 0,
                delay: None,
                workload: TenantWorkload::BulkAllToAll {
                    msg: Bytes::from_mb(1),
                },
            },
        ];
        Sim::new(topo, cfg, tenants).run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.messages.len(), b.messages.len());
    assert_eq!(a.goodput, b.goodput);
    assert_eq!(a.wire_void_bytes, b.wire_void_bytes);
}
