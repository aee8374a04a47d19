//! The simulation cells several engine suites share.
//!
//! * A one-rack cell (`small_topo`) carrying a paced OLDI tenant and a bulk
//!   all-to-all tenant (`periodic_tenant`, `bulk_tenant`): the audit and
//!   flight-recorder suites.
//! * Four racks of four servers (`racked_topo`, also the `serial_golden`
//!   topology) with rack-straddling tenants (`tenants`) and a two-fault
//!   plan (`faults`): the telemetry and observer-purity suites.

// Each suite uses its own subset of these.
#![allow(dead_code)]

use silo_base::{Bytes, Dur, Rate, Time};
use silo_simnet::{FaultPlan, TenantSpec, TenantWorkload};
use silo_topology::{HostId, Topology, TreeParams};

/// One rack of `servers` servers on 10 Gbps links, no oversubscription.
pub fn small_topo(servers: usize) -> Topology {
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

/// A high-priority OLDI tenant: 15 KB every 2 ms under `{500 Mbps, 15 KB,
/// 1 Gbps}`.
pub fn periodic_tenant(hosts: &[u32]) -> TenantSpec {
    TenantSpec {
        vm_hosts: hosts.iter().map(|&h| HostId(h)).collect(),
        b: Rate::from_mbps(500),
        s: Bytes::from_kb(15),
        bmax: Rate::from_gbps(1),
        prio: 0,
        delay: None,
        workload: TenantWorkload::OldiPeriodic {
            msg: Bytes::from_kb(15),
            period: Dur::from_ms(2),
        },
    }
}

/// A low-priority bulk all-to-all tenant of 256 KB messages.
pub fn bulk_tenant(hosts: &[u32]) -> TenantSpec {
    TenantSpec {
        vm_hosts: hosts.iter().map(|&h| HostId(h)).collect(),
        b: Rate::from_gbps(3),
        s: Bytes(1500),
        bmax: Rate::from_gbps(10),
        prio: 1,
        delay: None,
        workload: TenantWorkload::BulkAllToAll {
            msg: Bytes::from_kb(256),
        },
    }
}

/// Four racks of four servers with an oversubscribed ToR uplink so
/// cross-rack traffic actually queues.
pub fn racked_topo() -> Topology {
    Topology::build(TreeParams {
        pods: 1,
        racks_per_pod: 4,
        servers_per_rack: 4,
        vm_slots_per_server: 6,
        host_link: Rate::from_gbps(10),
        tor_oversub: 2.0,
        agg_oversub: 1.0,
        switch_buffer: Bytes::from_kb(312),
        nic_buffer: Bytes::from_kb(64),
        prop_delay: Dur::from_ns(500),
    })
}

/// Rack-straddling tenants on `racked_topo`; the OLDI group carries a
/// delay guarantee so telemetry's margin series is exercised.
pub fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            delay: Some(Dur::from_ms(1)),
            ..periodic_tenant(&[0, 5, 10])
        },
        bulk_tenant(&[2, 6, 11, 15]),
    ]
}

/// A pacer stall (fault 0) and a ToR link outage (fault 1): the flush,
/// fault-drop and fault-edge paths of every consumer.
pub fn faults() -> FaultPlan {
    FaultPlan::new()
        .pacer_stall(Time::from_ms(4), Time::from_ms(8), 5)
        .link_down(Time::from_ms(10), Some(Time::from_ms(15)), 2)
}
