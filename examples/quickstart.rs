//! Quickstart: admit a tenant with Silo guarantees, see where its VMs
//! and their pacers landed, and bound its message latency — the §4.1
//! tenant-facing arithmetic in a dozen lines.
//!
//! Run with: `cargo run --example quickstart`

use silo::base::{Bytes, Dur, Rate};
use silo::placement::{recommend, Guarantee, Placer, SiloPlacer, TenantRequest, WorkloadProfile};
use silo::topology::{Topology, TreeParams};

fn main() {
    // A small cloud: the paper's 5-server testbed shape.
    let topo = Topology::build(TreeParams::testbed());
    let slots = topo.params().num_vm_slots();
    let mut silo = SiloPlacer::new(topo);

    // Tenant: 6 VMs, each guaranteed 210 Mbps sustained, a 1.5 KB burst
    // at up to 1 Gbps, and 1 ms NIC-to-NIC packet delay (Table 2 req1).
    let req = TenantRequest::new(
        6,
        Guarantee {
            b: Rate::from_mbps(210),
            s: Bytes(1500),
            bmax: Rate::from_gbps(1),
            delay: Some(Dur::from_ms(1)),
        },
    );
    let placed = silo.try_place(&req).expect("an empty testbed has room");
    println!(
        "tenant {:?} admitted, span: {:?}",
        placed.tenant, placed.span
    );
    // Every VM's hypervisor pacer enforces the tenant's guarantee.
    let g = req.guarantee;
    for (vm, host) in placed.vm_hosts().into_iter().enumerate() {
        println!(
            "  VM {vm} on host {host:?}: pace to {} (burst {} at {})",
            g.b, g.s, g.bmax
        );
    }

    // The whole point (§4.1): the tenant can bound its own message
    // latency without trusting anyone else's behavior.
    for size in [Bytes(400), Bytes(1024), Bytes::from_kb(16)] {
        let bound = g.message_latency_bound(size).unwrap();
        println!("a {size} message is delivered within {bound}");
    }

    // A memcached-style request/response transaction bound:
    let rtt = g.message_latency_bound(Bytes(400)).unwrap()
        + g.message_latency_bound(Bytes(1024)).unwrap();
    println!("request(400 B) + response(1 KB) round trip ≤ {rtt}");
    assert!(rtt < Dur::from_ms(3));

    // The static guarantee uses load-independent queue capacities; the
    // network-calculus concatenation bound over the actual placement is
    // tighter still ("pay bursts only once"):
    if let Some(tight) = silo.tight_delay_bound(placed.tenant) {
        println!("tight per-packet delay bound for this placement: {tight}");
        assert!(tight <= Dur::from_ms(1));
    }

    // Don't know your numbers? Ask the advisor (the Cicada role):
    let profile = WorkloadProfile {
        msg_size: Bytes(1024),
        msg_rate: 5_000.0,
        fan_in: 14,
        target_latency: Dur::from_ms(2),
    };
    let g = recommend(&profile, Rate::from_gbps(1)).unwrap();
    println!(
        "advisor for a 1 KB/5k-rps/fan-in-14 service at 2 ms: B={} S={} d={}",
        g.b,
        g.s,
        g.delay.unwrap()
    );

    // Capacity is finite: keep admitting identical tenants until Silo
    // starts saying no.
    let mut extra = 0;
    while silo.try_place(&req).is_ok() {
        extra += 1;
    }
    println!("{extra} more identical tenants fit before admission refuses");
    let occupancy = silo.used_slots() as f64 / slots as f64;
    println!("final occupancy: {:.0}%", occupancy * 100.0);
}
