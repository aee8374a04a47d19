//! An OLDI partition/aggregate tenant (web-search style) under incast:
//! every worker answers the aggregator simultaneously. Demonstrates why
//! the burst allowance exists, how Silo's placement absorbs synchronized
//! bursts, and what happens to the same workload without guarantees.
//!
//! Run with: `cargo run --release --example oldi_fanout`

use silo::base::{Bytes, Dur, Rate};
use silo::placement::{Guarantee, Placer, SiloPlacer, TenantRequest};
use silo::simnet::{Sim, SimConfig, TenantSpec, TenantWorkload, TransportMode};
use silo::topology::{Topology, TreeParams};

fn main() {
    // One rack of ten servers.
    let topo = Topology::build(TreeParams {
        pods: 1,
        racks_per_pod: 1,
        servers_per_rack: 10,
        vm_slots_per_server: 8,
        host_link: Rate::from_gbps(10),
        tor_oversub: 1.0,
        agg_oversub: 1.0,
        switch_buffer: Bytes::from_kb(312),
        nic_buffer: Bytes::from_kb(64),
        prop_delay: Dur::from_ns(500),
    });

    // 25 workers + 1 aggregator, 15 KB answers, 1 ms delay guarantee.
    let guarantee = Guarantee {
        b: Rate::from_mbps(500),
        s: Bytes::from_kb(15),
        bmax: Rate::from_gbps(1),
        delay: Some(Dur::from_ms(1)),
    };
    let req = TenantRequest::new(26, guarantee);

    // Ask Silo's placement manager where these VMs may go: it must spread
    // them so that the synchronized 25 x 15 KB = 375 KB burst (draining
    // at line rate while it arrives) never overflows the 312 KB port
    // toward the aggregator. Try 34 VMs: Silo refuses — that burst
    // genuinely cannot be absorbed.
    let mut placer = SiloPlacer::new(topo.clone());
    let placement = placer.try_place(&req).expect("one rack suffices");
    println!("Silo placement ({:?}):", placement.span);
    for &(h, k) in &placement.hosts {
        println!("  host {:?}: {k} VMs", h);
    }
    let vm_hosts = placement.vm_hosts();

    // Offered load ~30% of the aggregator's hose (Table 1's regime where
    // the burst allowance covers nearly every message).
    let workload = TenantWorkload::OldiAllToOne {
        msg_mean: Bytes::from_kb(13),
        interval: Dur::from_ms(18),
    };
    let bound = guarantee.message_latency_bound(Bytes::from_kb(13)).unwrap();
    println!("\nper-answer latency bound: {bound}");

    for mode in [TransportMode::Silo, TransportMode::Tcp] {
        let cfg = SimConfig::new(mode, Dur::from_ms(300), 7);
        let spec = TenantSpec {
            vm_hosts: vm_hosts.clone(),
            b: guarantee.b,
            s: guarantee.s,
            bmax: guarantee.bmax,
            prio: 0,
            delay: None,
            workload: workload.clone(),
        };
        let m = Sim::new(topo.clone(), cfg, vec![spec]).run();
        let mut lat = m.latencies_us(0);
        let p99 = lat.p99().unwrap_or(f64::NAN);
        println!(
            "{}: {} answers, p50 {:.0} us, p99 {:.0} us, drops {}, RTOs {}{}",
            mode.label(),
            lat.len(),
            lat.median().unwrap_or(f64::NAN),
            p99,
            m.drops,
            m.rtos,
            if mode == TransportMode::Silo && p99 * 1e3 <= bound.as_ns_f64() {
                "  <- within the guarantee"
            } else {
                ""
            }
        );
    }
}
