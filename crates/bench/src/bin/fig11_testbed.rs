//! Figure 11: the §6.1 testbed experiments — memcached latency CDF (a),
//! 99th/99.9th tails (b), and relative throughput (c) for Silo req1–3 vs
//! TCP and TCP-idle, per Table 2.

use silo_base::{Bytes, Dur, Rate};
use silo_bench::scenario::{testbed_tenants, ETC_TESTBED_LOAD, TESTBED_REQS};
use silo_bench::{checked, print_cdf, Args};
use silo_simnet::{Metrics, SimConfig, TransportMode};
use silo_topology::{Topology, TreeParams};

fn main() {
    let args = Args::parse();
    let topo = Topology::build(TreeParams::testbed());
    let dur = Dur::from_ms(args.duration_ms.max(200));

    let run = |mode: TransportMode, req_idx: usize, with_b: bool| -> Metrics {
        let mut cfg = SimConfig::new(mode, dur, args.seed);
        cfg.min_rto = Dur::from_ms(200); // stock-stack testbed TCP
        let tenants = testbed_tenants(
            &TESTBED_REQS[req_idx],
            Bytes(1500),
            with_b,
            ETC_TESTBED_LOAD,
        );
        checked(topo.clone(), cfg, tenants).run()
    };

    // Baselines for relative throughput: each tenant running alone.
    let a_alone = run(TransportMode::Tcp, 0, false);
    let a_alone_txns = a_alone.tenant_stats(0).messages;
    let b_alone = {
        let mut cfg = SimConfig::new(TransportMode::Tcp, dur, args.seed);
        cfg.min_rto = Dur::from_ms(200);
        let mut tenants = testbed_tenants(&TESTBED_REQS[0], Bytes(1500), true, ETC_TESTBED_LOAD);
        tenants.remove(0); // only netperf
        checked(topo.clone(), cfg, tenants).run()
    };
    let b_alone_goodput = b_alone.goodput[0];

    println!("== Fig 11b: memcached tail latency (us) ==");
    println!("scheme\tp50\tp99\tp99.9\tSilo guarantee: 2010 us");
    let mut cdfs: Vec<(String, silo_base::Summary)> = Vec::new();
    let mut idle = a_alone.txn_latencies_us(0);
    println!(
        "TCP(idle)\t{:.0}\t{:.0}\t{:.0}",
        idle.median().unwrap_or(0.0),
        idle.p99().unwrap_or(0.0),
        idle.p999().unwrap_or(0.0)
    );
    cdfs.push(("TCP (idle)".into(), idle));

    let tcp = run(TransportMode::Tcp, 0, true);
    let mut tcp_lat = tcp.txn_latencies_us(0);
    println!(
        "TCP\t{:.0}\t{:.0}\t{:.0}",
        tcp_lat.median().unwrap_or(0.0),
        tcp_lat.p99().unwrap_or(0.0),
        tcp_lat.p999().unwrap_or(0.0)
    );
    cdfs.push(("TCP".into(), tcp_lat));

    println!("\n== Fig 11c: relative throughput ==");
    println!("scheme\tmemcached(A)\tnetperf(B)");
    println!(
        "TCP\t{:.2}\t{:.2}",
        tcp.tenant_stats(0).messages as f64 / a_alone_txns.max(1) as f64,
        tcp.goodput[1] as f64 / b_alone_goodput.max(1) as f64
    );
    for (i, req) in TESTBED_REQS.iter().enumerate() {
        let m = run(TransportMode::Silo, i, true);
        let mut lat = m.txn_latencies_us(0);
        println!(
            "Silo-{}\tA_txn_rel={:.2}\tB_goodput_rel={:.2}\tlat p50/p99/p999 = {:.0}/{:.0}/{:.0} us",
            req.name,
            m.tenant_stats(0).messages as f64 / a_alone_txns.max(1) as f64,
            m.goodput[1] as f64 / b_alone_goodput.max(1) as f64,
            lat.median().unwrap_or(0.0),
            lat.p99().unwrap_or(0.0),
            lat.p999().unwrap_or(0.0)
        );
        cdfs.push((format!("Silo {}", req.name), lat));
    }
    println!("\npaper: Silo stays within the 2.01 ms guarantee at p99 for all reqs;");
    println!("TCP p99 = 2.3 ms / p999 = 217 ms; netperf keeps 92-99% of its solo rate.");
    println!(
        "guarantee check: A's messages fit {} at Bmax=1G + d=1ms each way",
        Rate::from_gbps(1).tx_time(Bytes(1024)) + Dur::from_ms(1)
    );

    println!("\n== Fig 11a: latency CDFs ==");
    for (name, mut s) in cdfs {
        print_cdf(&name, &mut s, 21);
    }
}
