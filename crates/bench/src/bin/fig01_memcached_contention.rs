//! Figure 1: CDF of memcached request latency with and without competing
//! netperf traffic (plain TCP, no Silo).
//!
//! Five servers under one 10 GbE switch; tenant A runs memcached with the
//! Facebook-ETC workload, tenant B all-to-all netperf. The headline: the
//! tail latency blows up by an order of magnitude under contention.

use silo_base::{Bytes, Dur};
use silo_bench::scenario::{testbed_tenants, ETC_TESTBED_LOAD, TESTBED_REQS};
use silo_bench::{checked, print_cdf, Args};
use silo_simnet::{SimConfig, TransportMode};
use silo_topology::{Topology, TreeParams};

fn main() {
    let args = Args::parse();
    let topo = Topology::build(TreeParams::testbed());
    let dur = Dur::from_ms(args.duration_ms.max(200));
    // The testbed TCP stack's 200 ms min RTO produces Fig. 1's 217 ms
    // spikes at the 99.9th percentile.
    let run = |with_b: bool| {
        let mut cfg = SimConfig::new(TransportMode::Tcp, dur, args.seed);
        cfg.min_rto = Dur::from_ms(200);
        let tenants = testbed_tenants(&TESTBED_REQS[0], Bytes(1500), with_b, ETC_TESTBED_LOAD);
        checked(topo.clone(), cfg, tenants).run()
    };

    let alone = run(false);
    let contended = run(true);

    let mut lat_alone = alone.txn_latencies_us(0);
    let mut lat_cont = contended.txn_latencies_us(0);
    println!("== Fig 1: memcached request latency (us) ==");
    println!(
        "alone:     n={} p50={:.0} p99={:.0} p999={:.0}",
        lat_alone.len(),
        lat_alone.median().unwrap_or(0.0),
        lat_alone.p99().unwrap_or(0.0),
        lat_alone.p999().unwrap_or(0.0)
    );
    println!(
        "contended: n={} p50={:.0} p99={:.0} p999={:.0}",
        lat_cont.len(),
        lat_cont.median().unwrap_or(0.0),
        lat_cont.p99().unwrap_or(0.0),
        lat_cont.p999().unwrap_or(0.0)
    );
    println!("paper: alone p99 = 270 us; contended p99 = 2.3 ms, p999 = 217 ms (RTO)");
    print_cdf("memcached alone", &mut lat_alone, 21);
    print_cdf("memcached with netperf", &mut lat_cont, 21);
}
