//! The timer engine's checked invariants.
//!
//! A superseded RTO or NIC pull is moved in place and a disarmed one is
//! removed (slot-generation keys in `silo_base::eventq`), so only the
//! armed timer can ever fire: `profile.stale` counts a timer that fires
//! while its owner holds no key and must stay 0. Both queue backends
//! implement the keys; wheel and reference heap must agree event for
//! event on the scenarios that churn timers hardest.

use silo_base::{Bytes, Dur, QueueBackend, Rate};
use silo_simnet::{EvKind, Metrics, Sim, SimConfig, TenantSpec, TenantWorkload, TransportMode};
use silo_topology::{HostId, Topology, TreeParams};

fn small_topo(servers: usize) -> Topology {
    Topology::build(TreeParams {
        pods: 1,
        racks_per_pod: 1,
        servers_per_rack: servers,
        vm_slots_per_server: 6,
        host_link: Rate::from_gbps(10),
        tor_oversub: 1.0,
        agg_oversub: 1.0,
        switch_buffer: Bytes::from_kb(312),
        nic_buffer: Bytes::from_kb(64),
        prop_delay: Dur::from_ns(500),
    })
}

fn bulk_tenant(hosts: &[u32], msg: Bytes) -> TenantSpec {
    TenantSpec {
        vm_hosts: hosts.iter().map(|&h| HostId(h)).collect(),
        b: Rate::from_gbps(3),
        s: Bytes(1500),
        bmax: Rate::from_gbps(10),
        prio: 0,
        delay: None,
        workload: TenantWorkload::BulkAllToAll { msg },
    }
}

fn incast_tenant(n: u32) -> TenantSpec {
    TenantSpec {
        vm_hosts: (0..n).map(HostId).collect(),
        b: Rate::from_gbps(10),
        s: Bytes(1500),
        bmax: Rate::from_gbps(10),
        prio: 0,
        delay: None,
        workload: TenantWorkload::OldiAllToOne {
            msg_mean: Bytes::from_kb(300),
            interval: Dur::from_ms(2),
        },
    }
}

/// A paced mix that produces long void runs (a 500 Mbps hose on a 10 G
/// link leaves ~95% of each gap void) *and* bulk pressure.
fn paced_mix() -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            vm_hosts: vec![HostId(0), HostId(1)],
            b: Rate::from_mbps(500),
            s: Bytes::from_kb(15),
            bmax: Rate::from_gbps(1),
            prio: 0,
            delay: None,
            workload: TenantWorkload::OldiPeriodic {
                msg: Bytes::from_kb(15),
                period: Dur::from_ms(2),
            },
        },
        TenantSpec {
            prio: 1,
            ..bulk_tenant(&[2, 3], Bytes::from_kb(256))
        },
    ]
}

/// Run the scenario on the wheel and on the reference heap, assert they
/// agree on the full canonical serialization (physics and engine
/// counters) and that nothing fired stale; return the wheel's metrics.
fn wheel_vs_heap(servers: usize, mut cfg: SimConfig, tenants: Vec<TenantSpec>) -> Metrics {
    cfg.queue = QueueBackend::Wheel;
    let wheel = Sim::new(small_topo(servers), cfg.clone(), tenants.clone()).run();
    cfg.queue = QueueBackend::Heap;
    let heap = Sim::new(small_topo(servers), cfg, tenants).run();
    assert_eq!(wheel.canonical_json(), heap.canonical_json());
    assert_eq!(wheel.profile.total_stale(), 0, "only armed timers may fire");
    wheel
}

#[test]
fn cancellation_agrees_across_queue_backends() {
    let (rto, pull) = (EvKind::Rto as usize, EvKind::NicPull as usize);

    // TCP bulk: every segment send re-arms the connection RTO, so the
    // run is almost pure supersede churn.
    let cfg = SimConfig::new(TransportMode::Tcp, Dur::from_ms(50), 5);
    let bulk = vec![bulk_tenant(&[0, 1], Bytes::from_mb(64))];
    let m = wheel_vs_heap(2, cfg, bulk);
    assert!(m.profile.cancelled[rto] > 0, "re-arms must supersede RTOs");

    // TCP incast: drops force real retransmission timeouts, so the
    // disarm/fire/backoff paths all execute.
    let cfg = SimConfig::new(TransportMode::Tcp, Dur::from_ms(50), 2);
    let m = wheel_vs_heap(6, cfg, vec![incast_tenant(6)]);
    assert!(m.rtos > 0, "scenario must exercise fired RTOs");
    assert!(m.profile.fired[rto] > 0);

    // Silo paced: every batch re-arms the NIC pull and datapath sends
    // tighten it mid-window.
    let cfg = SimConfig::new(TransportMode::Silo, Dur::from_ms(40), 9);
    let m = wheel_vs_heap(4, cfg, paced_mix());
    assert!(m.profile.cancelled[pull] > 0, "sends must supersede pulls");
}

#[test]
fn profile_accounting_is_conserved() {
    // scheduled = fired + cancelled + still-pending-at-horizon. The run
    // ends by draining until the horizon, so the pending remainder is
    // whatever sits beyond it; it can only make `scheduled` the largest.
    let cfg = SimConfig::new(TransportMode::Tcp, Dur::from_ms(50), 1);
    let m = Sim::new(
        small_topo(2),
        cfg,
        vec![bulk_tenant(&[0, 1], Bytes::from_mb(64))],
    )
    .run();
    let p = &m.profile;
    assert!(p.total_fired() + p.total_cancelled() <= p.total_scheduled());
    // Fired counts match the engine's own dispatch counter.
    assert_eq!(p.total_fired(), m.events_processed);
}
