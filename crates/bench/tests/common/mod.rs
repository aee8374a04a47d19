//! The two-host cell the observation-file suites share: one tenant with a
//! VM on each of two hosts of a 10 Gbps rack, sending Poisson all-to-one
//! messages. The Poisson draws make the schedule seed-sensitive (the
//! seed-change goldens depend on it), and the traffic is light enough
//! that the default trace rings never evict.

// Each suite uses its own subset of these.
#![allow(dead_code)]

pub mod mutate;

use silo_base::{Bytes, Dur, Rate, Time};
use silo_simnet::{
    FaultPlan, Metrics, Sim, SimConfig, TelemetryConfig, TenantSpec, TenantWorkload, TraceConfig,
    TransportMode,
};
use silo_topology::{HostId, Topology, TreeParams};

/// Run the cell for 20 ms under Silo. `delay` is the tenant's delay
/// guarantee (it populates the telemetry's margin series); `trace` and
/// `telemetry` attach those recorders with their defaults.
pub fn run(
    seed: u64,
    faults: FaultPlan,
    delay: Option<Dur>,
    trace: bool,
    telemetry: bool,
) -> Metrics {
    let topo = Topology::build(TreeParams {
        pods: 1,
        racks_per_pod: 1,
        servers_per_rack: 2,
        vm_slots_per_server: 2,
        host_link: Rate::from_gbps(10),
        tor_oversub: 1.0,
        agg_oversub: 1.0,
        switch_buffer: Bytes::from_kb(312),
        nic_buffer: Bytes::from_kb(64),
        prop_delay: Dur::from_ns(500),
    });
    let tenants = vec![TenantSpec {
        vm_hosts: vec![HostId(0), HostId(1)],
        b: Rate::from_mbps(500),
        s: Bytes::from_kb(15),
        bmax: Rate::from_gbps(1),
        prio: 0,
        delay,
        workload: TenantWorkload::OldiAllToOne {
            msg_mean: Bytes::from_kb(15),
            interval: Dur::from_ms(2),
        },
    }];
    let mut cfg = SimConfig::new(TransportMode::Silo, Dur::from_ms(20), seed);
    cfg.faults = faults;
    cfg.trace = trace.then(TraceConfig::default);
    cfg.telemetry = telemetry.then(TelemetryConfig::default);
    Sim::new(topo, cfg, tenants).run()
}

/// A link outage over windows 8–12 of the cell.
pub fn outage() -> FaultPlan {
    FaultPlan::new().link_down(Time::from_ms(8), Some(Time::from_ms(12)), 0)
}

/// The faulted, guaranteed cell's four exports as the binaries write
/// them, under the file names the CLI tests use: the trace JSONL, the
/// Perfetto export with the telemetry's counters spliced in, the
/// telemetry JSONL and the OpenMetrics exposition.
pub fn exports() -> [(&'static str, String); 4] {
    let m = run(7, outage(), Some(Dur::from_ms(1)), true, true);
    let (trace, tel) = (m.trace.expect("traced"), m.telemetry.expect("telemetry"));
    [
        ("t.jsonl", trace.to_jsonl()),
        (
            "t.perfetto.json",
            trace.to_perfetto_with_counters(Some(&tel)),
        ),
        ("w.jsonl", tel.to_jsonl()),
        ("w.openmetrics.txt", tel.to_openmetrics()),
    ]
}
