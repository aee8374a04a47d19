//! §6.1, the 5-host testbed: Figure 1 (memcached request latency with and
//! without competing netperf traffic, plain TCP) and Figure 11 (Silo
//! req1–3 of Table 2 vs TCP and TCP-idle: latency CDF (a), 99th/99.9th
//! tails (b), relative throughput (c)).
//!
//! Five servers under one 10 GbE switch; tenant A runs memcached with the
//! Facebook-ETC workload, tenant B all-to-all netperf. Six cells, each
//! simulated once: TCP with A alone, B alone and both, then Silo with both
//! under each of req1–3. Fig 1 reads the first and third. Fig 1's
//! headline: the tail latency blows up by an order of magnitude under
//! contention.

use silo_base::{Bytes, Dur, Rate};
use silo_bench::scenario::{testbed_tenants, ETC_TESTBED_LOAD, TESTBED_REQS};
use silo_bench::{checked, print_cdf, run_cells, Args};
use silo_simnet::{Metrics, SimConfig, TransportMode};
use silo_topology::{Topology, TreeParams};

/// Which of the two tenants a cell hosts.
#[derive(Clone, Copy, PartialEq)]
enum Tenants {
    Memcached,
    Netperf,
    Both,
}

fn main() {
    let args = Args::parse_unobserved();
    let topo = Topology::build(TreeParams::testbed());
    let dur = Dur::from_ms(args.duration_ms.max(200));
    let cells = [
        (TransportMode::Tcp, 0, Tenants::Memcached),
        (TransportMode::Tcp, 0, Tenants::Netperf),
        (TransportMode::Tcp, 0, Tenants::Both),
        (TransportMode::Silo, 0, Tenants::Both),
        (TransportMode::Silo, 1, Tenants::Both),
        (TransportMode::Silo, 2, Tenants::Both),
    ];
    let runs = run_cells(
        &cells,
        args.effective_threads(cells.len()),
        |_, &(mode, req, who)| {
            let mut cfg = SimConfig::new(mode, dur, args.seed);
            // The testbed TCP stack's 200 ms min RTO produces Fig. 1's
            // 217 ms spikes at the 99.9th percentile.
            cfg.min_rto = Dur::from_ms(200);
            let with_b = who != Tenants::Memcached;
            let mut tenants =
                testbed_tenants(&TESTBED_REQS[req], Bytes(1500), with_b, ETC_TESTBED_LOAD);
            if who == Tenants::Netperf {
                tenants.remove(0);
            }
            checked(topo.clone(), cfg, tenants).run()
        },
    );
    let [a_alone, b_alone, tcp, silo @ ..] = runs.as_slice() else {
        unreachable!("six cells in, six results out")
    };
    fig01(a_alone, tcp);
    fig11(a_alone, b_alone, tcp, silo);
}

fn fig01(alone: &Metrics, contended: &Metrics) {
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

/// `silo` holds the req1–3 cells in Table 2 order. Relative throughput is
/// against each tenant running alone.
fn fig11(a_alone: &Metrics, b_alone: &Metrics, tcp: &Metrics, silo: &[Metrics]) {
    let a_alone_txns = a_alone.tenant_stats(0).messages;
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
    for (req, m) in TESTBED_REQS.iter().zip(silo) {
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
