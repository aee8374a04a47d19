//! End-to-end behavioral tests of the packet-level simulator: TCP
//! correctness, pacing conformance, contention effects, and the Silo
//! datapath.

use silo_base::{Bytes, Dur, Rate};
use silo_simnet::{Sim, SimConfig, TenantSpec, TenantWorkload, TransportMode};
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

#[test]
fn tcp_bulk_transfer_achieves_line_rate() {
    // One pair of hosts, one bulk tenant: TCP should ramp up and sustain
    // most of the 10 G link over 50 ms.
    let topo = small_topo(2);
    let cfg = SimConfig::new(TransportMode::Tcp, Dur::from_ms(50), 1);
    // One long transfer per direction so stop-and-go message boundaries
    // don't idle the pipe during the measurement.
    let tenants = vec![bulk_tenant(&[0, 1], Bytes::from_mb(64))];
    let m = Sim::new(topo, cfg, tenants).run();
    let gbps = m.goodput[0] as f64 * 8.0 / 50e-3 / 1e9;
    // Each direction has its own wire: expect most of 2 x 10 G in
    // aggregate. (Reno probes until loss, so occasional tail drops at the
    // 312 KB port are expected and correct.)
    assert!(gbps > 12.0, "aggregate goodput only {gbps:.2} Gbps");
}

/// A zero hose epoch used to re-arm `HoseEpoch` at the same instant
/// forever; it is now refused before anything is built.
#[test]
#[should_panic(expected = "invalid SimConfig: hose_epoch")]
fn sim_new_refuses_a_config_that_would_hang() {
    let mut cfg = SimConfig::new(TransportMode::Silo, Dur::from_ms(1), 1);
    cfg.hose_epoch = Dur::ZERO;
    Sim::new(small_topo(2), cfg, vec![bulk_tenant(&[0, 1], Bytes(1500))]);
}

#[test]
fn tcp_incast_causes_drops_and_rtos() {
    // Classic incast: 5 senders on 5 hosts blast one receiver through a
    // 312 KB port. TCP must see drops; with min_rto = 10 ms over a 50 ms
    // run, RTOs show up.
    let topo = small_topo(6);
    let cfg = SimConfig::new(TransportMode::Tcp, Dur::from_ms(50), 2);
    let tenants = vec![TenantSpec {
        vm_hosts: (0..6).map(HostId).collect(),
        b: Rate::from_gbps(10),
        s: Bytes(1500),
        bmax: Rate::from_gbps(10),
        prio: 0,
        delay: None,
        workload: TenantWorkload::OldiAllToOne {
            msg_mean: Bytes::from_kb(300),
            interval: Dur::from_ms(2),
        },
    }];
    let m = Sim::new(topo, cfg, tenants).run();
    assert!(m.drops > 0, "incast through a shallow buffer must drop");
}

#[test]
fn silo_pacing_prevents_burst_drops() {
    // The same aggressive all-to-one workload, but paced to a modest
    // guarantee: no drops, because bursts conform to {B, S, Bmax} and the
    // placement arithmetic (6 senders x 15 KB << 312 KB) absorbs them.
    let topo = small_topo(6);
    let cfg = SimConfig::new(TransportMode::Silo, Dur::from_ms(50), 2);
    let tenants = vec![TenantSpec {
        vm_hosts: (0..6).map(HostId).collect(),
        b: Rate::from_mbps(500),
        s: Bytes::from_kb(15),
        bmax: Rate::from_gbps(1),
        prio: 0,
        delay: None,
        workload: TenantWorkload::OldiAllToOne {
            msg_mean: Bytes::from_kb(15),
            interval: Dur::from_ms(2),
        },
    }];
    let m = Sim::new(topo, cfg, tenants).run();
    assert_eq!(m.drops, 0, "paced bursts must fit the buffer");
    assert!(m.rtos == 0, "no loss, no timeouts");
    // Void packets actually flowed on the host links.
    assert!(m.wire_void_bytes > 0, "pacer must emit voids under load");
    // Messages completed.
    assert!(m.messages.len() > 50, "got {}", m.messages.len());
}

#[test]
fn memcached_alone_has_low_latency() {
    let topo = small_topo(5);
    let cfg = SimConfig::new(TransportMode::Tcp, Dur::from_ms(100), 3);
    let tenants = vec![TenantSpec {
        vm_hosts: (0..5).map(HostId).collect(),
        b: Rate::from_mbps(210),
        s: Bytes(1500),
        bmax: Rate::from_gbps(1),
        prio: 0,
        delay: None,
        workload: TenantWorkload::Etc {
            load: 0.2,
            concurrency: 2,
        },
    }];
    let m = Sim::new(topo, cfg, tenants).run();
    let mut lat = m.txn_latencies_us(0);
    assert!(lat.len() > 100, "transactions completed: {}", lat.len());
    let p99 = lat.p99().unwrap();
    // Unloaded network: tail well under a millisecond.
    assert!(p99 < 1000.0, "p99 {p99} us");
}

#[test]
fn contention_inflates_memcached_tail_and_silo_fixes_it() {
    // The Fig. 1 / Fig. 11 storyline in miniature: memcached shares the
    // rack with an all-to-all bulk tenant.
    let topo = small_topo(5);
    let mk_tenants = |_mode: TransportMode| {
        vec![
            TenantSpec {
                vm_hosts: (0..5).map(HostId).collect(),
                b: Rate::from_mbps(420),
                s: Bytes(3000),
                bmax: Rate::from_gbps(1),
                prio: 0,
                delay: None,
                workload: TenantWorkload::Etc {
                    load: 0.2,
                    concurrency: 2,
                },
            },
            TenantSpec {
                vm_hosts: (0..5).flat_map(|h| [HostId(h), HostId(h)]).collect(),
                b: Rate::from_gbps(2),
                s: Bytes(1500),
                bmax: Rate::from_gbps(2),
                prio: 0,
                delay: None,
                workload: TenantWorkload::BulkAllToAll {
                    msg: Bytes::from_mb(1),
                },
            },
        ]
    };
    let run = |mode| {
        let cfg = SimConfig::new(mode, Dur::from_ms(100), 4);
        Sim::new(small_topo(5), cfg, mk_tenants(mode)).run()
    };
    let _ = &topo;
    let tcp = run(TransportMode::Tcp);
    let silo = run(TransportMode::Silo);
    let mut tcp_lat = tcp.txn_latencies_us(0);
    let mut silo_lat = silo.txn_latencies_us(0);
    assert!(tcp_lat.len() > 50 && silo_lat.len() > 50);
    let tcp_p99 = tcp_lat.p99().unwrap();
    let silo_p99 = silo_lat.p99().unwrap();
    assert!(
        silo_p99 < tcp_p99,
        "Silo p99 {silo_p99} us must beat TCP p99 {tcp_p99} us"
    );
    // And the bulk tenant still moves serious data under Silo.
    assert!(silo.goodput[1] > 0);
}

#[test]
fn dctcp_keeps_queues_shorter_than_tcp() {
    // Two bulk tenants sharing a port: DCTCP's marking keeps the switch
    // queue near K while TCP fills the buffer; fewer drops for DCTCP.
    let run = |mode| {
        let cfg = SimConfig::new(mode, Dur::from_ms(50), 5);
        let tenants = vec![
            bulk_tenant(&[0, 2], Bytes::from_mb(4)),
            bulk_tenant(&[1, 2], Bytes::from_mb(4)),
        ];
        Sim::new(small_topo(3), cfg, tenants).run()
    };
    let tcp = run(TransportMode::Tcp);
    let dctcp = run(TransportMode::Dctcp);
    assert!(
        dctcp.drops < tcp.drops,
        "DCTCP drops {} must be below TCP drops {}",
        dctcp.drops,
        tcp.drops
    );
    // Both keep the shared link busy.
    let tput = |m: &silo_simnet::Metrics| (m.goodput[0] + m.goodput[1]) as f64 * 8.0 / 50e-3;
    assert!(tput(&dctcp) > 5e9, "DCTCP goodput {}", tput(&dctcp));
}

#[test]
fn best_effort_priority_yields_to_guaranteed() {
    // A guaranteed tenant and a best-effort (prio 1) tenant share a
    // bottleneck; the guaranteed tenant's messages see low latency.
    let cfg = SimConfig::new(TransportMode::Silo, Dur::from_ms(50), 6);
    let tenants = vec![
        TenantSpec {
            vm_hosts: vec![HostId(0), HostId(2)],
            b: Rate::from_gbps(1),
            s: Bytes::from_kb(15),
            bmax: Rate::from_gbps(1),
            prio: 0,
            delay: None,
            workload: TenantWorkload::PoissonPairs {
                pairs: vec![(0, 1)],
                msg_mean: Bytes::from_kb(15),
                interval: Dur::from_ms(1),
            },
        },
        TenantSpec {
            vm_hosts: vec![HostId(1), HostId(2)],
            b: Rate::from_gbps(9),
            s: Bytes(1500),
            bmax: Rate::from_gbps(10),
            prio: 1,
            delay: None,
            workload: TenantWorkload::BulkAllToAll {
                msg: Bytes::from_mb(2),
            },
        },
    ];
    let m = Sim::new(small_topo(3), cfg, tenants).run();
    let mut lat = m.latencies_us(0);
    assert!(lat.len() > 20);
    // 15 KB at 1 Gbps is 120 us of transmission; priority keeps the rest
    // small even with a 9 G bulk hog on the same egress port.
    let p99 = lat.p99().unwrap();
    assert!(p99 < 600.0, "guaranteed tenant p99 {p99} us");
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let cfg = SimConfig::new(TransportMode::Silo, Dur::from_ms(20), 9);
        let tenants = vec![TenantSpec {
            vm_hosts: (0..4).map(HostId).collect(),
            b: Rate::from_mbps(500),
            s: Bytes::from_kb(15),
            bmax: Rate::from_gbps(1),
            prio: 0,
            delay: None,
            workload: TenantWorkload::OldiAllToOne {
                msg_mean: Bytes::from_kb(15),
                interval: Dur::from_ms(1),
            },
        }];
        Sim::new(small_topo(4), cfg, tenants).run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.messages.len(), b.messages.len());
    assert_eq!(a.goodput, b.goodput);
    assert_eq!(a.drops, b.drops);
    for (x, y) in a.messages.iter().zip(&b.messages) {
        assert_eq!(x.latency, y.latency);
    }
}
