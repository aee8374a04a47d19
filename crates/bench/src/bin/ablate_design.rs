//! Ablations of Silo's design choices (the knobs DESIGN.md calls out):
//!
//! 1. **Batch window** — the paper picked 50 µs: long enough to amortize
//!    IO, short enough to bound NIC-induced jitter. We sweep it.
//! 2. **Burst allowance** — §6.1 notes raising memcached's burst from
//!    1.5 KB to 3 KB cuts the 99.9th percentile; we sweep S.
//! 3. **Hose coordination epoch** — the fallback coordination period
//!    behind the event-driven updates.

use silo_base::{Bytes, Dur, Rate};
use silo_bench::{checked, Args};
use silo_simnet::{Metrics, SimConfig, TenantSpec, TenantWorkload, TransportMode};
use silo_topology::{HostId, Topology, TreeParams};

fn topo() -> Topology {
    Topology::build(TreeParams {
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
    })
}

fn tenants(burst: Bytes) -> Vec<TenantSpec> {
    let b = Rate::from_mbps(500);
    let msg = Bytes((burst.as_u64() * 9) / 10);
    // Hold offered load at 30% of the hose while the burst size sweeps:
    // 7 senders x msg bits per interval = 0.3 x B.
    let interval = Dur::from_secs_f64(7.0 * msg.bits() as f64 / (0.3 * b.as_bps() as f64));
    vec![
        TenantSpec {
            vm_hosts: (0..8).map(HostId).collect(),
            b,
            s: burst,
            bmax: Rate::from_gbps(1),
            prio: 0,
            delay: None,
            workload: TenantWorkload::OldiAllToOne {
                msg_mean: msg,
                interval,
            },
        },
        TenantSpec {
            vm_hosts: (0..8).map(HostId).collect(),
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
}

fn run(cfg: SimConfig, burst: Bytes) -> Metrics {
    checked(topo(), cfg, tenants(burst)).run()
}

fn main() {
    let args = Args::parse_unobserved();
    let dur = Dur::from_ms(args.duration_ms.max(200));

    println!("== Ablation 1: paced-IO batch window ==");
    println!("window\tOLDI p99 (us)\tvoid Gbps\tdrops");
    for us in [10u64, 50, 200, 1000] {
        let mut cfg = SimConfig::new(TransportMode::Silo, dur, args.seed);
        cfg.batch_window = Dur::from_us(us);
        let m = run(cfg, Bytes::from_kb(15));
        let mut lat = m.latencies_us(0);
        println!(
            "{us}us\t{:.0}\t{:.2}\t{}",
            lat.p99().unwrap_or(f64::NAN),
            m.wire_void_bytes as f64 * 8.0 / dur.as_secs_f64() / 1e9,
            m.drops
        );
    }
    println!("(longer batches add up to one window of jitter; 50us is the knee)");

    println!("\n== Ablation 2: burst allowance S ==");
    println!("S\tOLDI p99 (us)\tp99.9 (us)");
    for kb in [2u64, 5, 15, 30] {
        let cfg = SimConfig::new(TransportMode::Silo, dur, args.seed);
        let m = run(cfg, Bytes::from_kb(kb));
        let mut lat = m.latencies_us(0);
        println!(
            "{kb}KB\t{:.0}\t{:.0}",
            lat.p99().unwrap_or(f64::NAN),
            lat.p999().unwrap_or(f64::NAN)
        );
    }
    println!("(messages sized to ride S: bigger bursts transmit at Bmax end-to-end)");

    println!("\n== Ablation 3: hose coordination epoch ==");
    println!("epoch\tOLDI p99 (us)\tdrops");
    for us in [100u64, 200, 1000, 5000] {
        let mut cfg = SimConfig::new(TransportMode::Silo, dur, args.seed);
        cfg.hose_epoch = Dur::from_us(us);
        let m = run(cfg, Bytes::from_kb(15));
        let mut lat = m.latencies_us(0);
        println!("{us}us\t{:.0}\t{}", lat.p99().unwrap_or(f64::NAN), m.drops);
    }
    println!("(event-driven updates make the periodic epoch a safety net only)");
}
