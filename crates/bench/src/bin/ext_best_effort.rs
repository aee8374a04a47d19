//! §4.4 extension: best-effort tenants behind 802.1q priorities.
//!
//! "Silo relies on rate limiting tenants to give packet delay guarantees.
//! However, this can hurt network utilization ... Silo leverages 802.1q
//! priority forwarding in switches to support best-effort tenants" — they
//! soak up residual capacity at low priority without perturbing
//! guaranteed tenants. This experiment measures exactly that: a
//! guaranteed OLDI tenant's tail latency and a best-effort bulk tenant's
//! throughput, with and without the best-effort tenant present.

use silo_base::{Bytes, Dur, Rate};
use silo_bench::{checked, Args};
use silo_simnet::{SimConfig, TenantSpec, TenantWorkload, TransportMode};
use silo_topology::{HostId, Topology, TreeParams};

fn main() {
    let args = Args::parse_unobserved();
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
    let dur = Dur::from_ms(args.duration_ms.max(200));
    // Provisioned by Table 1's recipe: burst of ~7 messages, bandwidth
    // ≈ 1.8x the offered average — so the guarantee is actually meetable.
    let guaranteed = TenantSpec {
        vm_hosts: (0..8).map(HostId).collect(),
        b: Rate::from_mbps(500),
        s: Bytes::from_kb(35),
        bmax: Rate::from_gbps(1),
        prio: 0,
        delay: None,
        workload: TenantWorkload::OldiAllToOne {
            msg_mean: Bytes(4_500),
            interval: Dur::from_ms(2),
        },
    };
    // The best-effort tenant offers far more than any guarantee could
    // admit: it may only use leftovers (prio 1, generous rate limit).
    let best_effort = TenantSpec {
        vm_hosts: (0..8).map(HostId).collect(),
        b: Rate::from_gbps(9),
        s: Bytes(1500),
        bmax: Rate::from_gbps(10),
        prio: 1,
        delay: None,
        workload: TenantWorkload::BulkAllToAll {
            msg: Bytes::from_mb(1),
        },
    };

    println!("== §4.4: best-effort tenants on residual capacity ==");
    let run = |tenants: Vec<TenantSpec>| {
        let cfg = SimConfig::new(TransportMode::Silo, dur, args.seed);
        checked(topo.clone(), cfg, tenants).run()
    };
    let alone = run(vec![guaranteed.clone()]);
    let mut lat_alone = alone.latencies_us(0);
    let both = run(vec![guaranteed, best_effort]);
    let mut lat_both = both.latencies_us(0);

    println!(
        "guaranteed tenant alone:   p50 {:>6.0} us, p99 {:>6.0} us",
        lat_alone.median().unwrap_or(f64::NAN),
        lat_alone.p99().unwrap_or(f64::NAN)
    );
    println!(
        "with best-effort sharing:  p50 {:>6.0} us, p99 {:>6.0} us",
        lat_both.median().unwrap_or(f64::NAN),
        lat_both.p99().unwrap_or(f64::NAN)
    );
    let util = |m: &silo_simnet::Metrics| {
        let n = m.port_utilization.len().max(1);
        m.port_utilization.iter().sum::<f64>() / n as f64
    };
    println!(
        "network utilization: {:.1}% alone -> {:.1}% with best-effort",
        util(&alone) * 100.0,
        util(&both) * 100.0
    );
    println!(
        "best-effort goodput: {:.2} Gbps over leftover capacity",
        both.goodput[1] as f64 * 8.0 / dur.as_secs_f64() / 1e9
    );
    let p99_a = lat_alone.p99().unwrap_or(0.0);
    let p99_b = lat_both.p99().unwrap_or(0.0);
    assert!(
        p99_b < p99_a * 2.0 && p99_b < 1100.0,
        "strict priority must protect the guaranteed tail: {p99_a} -> {p99_b}"
    );
    println!("\nguaranteed tail preserved while utilization multiplies — the");
    println!("work-conservation Silo recovers without touching its guarantees.");
}
