//! Committed decision golden for the admission service.
//!
//! The other admission suites are differential (incremental ≡ scratch,
//! restored ≡ original). This one pins absolute output: two seeded
//! `silo_workload::churn` streams of 2 000 tenant lifetimes — the
//! benchmark's `--quick` shape on the 32 000-server Fig-15 topology, and
//! a loaded 2-pod topology that also loses ToR and aggregation uplinks —
//! are replayed through [`AdmissionService`], and an FNV-1a hash of every
//! [`Decision`] plus the final `snapshot()` is compared with the
//! constants below. The constants were committed on the code *before*
//! the candidate search was rebuilt; a search change that moves any
//! placement, reject reason, fault outcome or snapshot byte fails here.
//!
//! To re-bless after an *intended* decision change, replace the constant
//! with the `got` value the failure prints.

use silo_base::{Bytes, Dur, Rate};
use silo_placement::{AdmissionService, ChurnEvent, Decision};
use silo_topology::{Topology, TreeParams};
use silo_workload::churn::{self, ChurnConfig, FailureBurst, FlashCrowd};

const FIG15_GOLDEN: (u64, u64) = (0xc534_b2c5_a02d_763b, 0x8017_7442_ffa1_e854);
const TWO_POD_GOLDEN: (u64, u64) = (0x91e4_48e5_b8da_a71b, 0xdc70_ef6d_0956_7ebc);

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Replay `events`; returns (hash of every decision's `Debug` text in
/// order, hash of the final snapshot).
fn replay(topo: Topology, events: &[(f64, ChurnEvent)]) -> (u64, u64) {
    let mut svc = AdmissionService::new(topo);
    let mut h = FNV_OFFSET;
    let mut kinds = [0usize; 6];
    for (_, ev) in events {
        let d = svc.apply(ev);
        kinds[match d {
            Decision::Admitted { .. } => 0,
            Decision::Rejected { .. } => 1,
            Decision::Evicted { .. } => 2,
            Decision::EvictNoop => 3,
            Decision::Fault { .. } => 4,
            Decision::Heal { .. } => 5,
        }] += 1;
        h = fnv1a(h, format!("{d:?}\n").as_bytes());
    }
    assert!(
        kinds[0] > 0 && kinds[2] > 0 && kinds[4] > 0 && kinds[5] > 0,
        "the stream must admit, evict, fail and heal: {kinds:?}"
    );
    svc.placer().verify_scratch_consistency().unwrap();
    (h, fnv1a(FNV_OFFSET, svc.snapshot().as_bytes()))
}

/// The benchmark's `admission_churn --quick` stream: 2 000 lifetimes at
/// 85 % Little's-law load, one 4× flash crowd, three 8-host failure
/// bursts, on 16 pods × 40 racks × 50 servers × 4 slots.
#[test]
fn fig15_quick_stream_decisions_are_pinned() {
    let topo = Topology::build(TreeParams {
        pods: 16,
        racks_per_pod: 40,
        servers_per_rack: 50,
        vm_slots_per_server: 4,
        host_link: Rate::from_gbps(10),
        tor_oversub: 5.0,
        agg_oversub: 5.0,
        switch_buffer: Bytes::from_kb(312),
        nic_buffer: Bytes::from_kb(64),
        prop_delay: Dur::from_ns(500),
    });
    let mut base = ChurnConfig::diurnal(1);
    let slots = (topo.num_hosts() * topo.slots_per_server()) as f64;
    base.arrivals_per_s = 0.85 * slots / (base.mean_lifetime_s * base.mean_vms);
    let mut cfg = base.for_lifetimes(2_000);
    let horizon = cfg.horizon_s;
    cfg = cfg.with_flash_crowd(FlashCrowd {
        at_s: 0.3 * horizon,
        dur_s: 0.1 * horizon,
        multiplier: 4.0,
    });
    for k in 0..3 {
        cfg = cfg.with_failure_burst(FailureBurst {
            at_s: (0.2 + 0.25 * k as f64) * horizon,
            dur_s: 0.1 * horizon,
            hosts: 8,
        });
    }
    let events = churn::generate(&topo, &cfg);
    let got = replay(topo, &events);
    assert_eq!(got, FIG15_GOLDEN, "got {got:#x?}");
}

/// 2 pods × 5 racks × 4 servers × 8 slots, loaded until a third of the
/// admissions are refused (616 for slots, 378 for the network), with
/// host-link bursts from the generator plus two ToR-uplink outages and
/// one aggregation-uplink outage (the generator only fails host links),
/// so rack- and pod-level cuts go through `fail_link`/`restore_link` too:
/// 10 tenants re-placed, 5 downgraded, 2 still degraded after a heal.
#[test]
fn two_pod_stream_decisions_are_pinned() {
    let topo = Topology::build(TreeParams::ns2_scaled(0.1));
    let mut cfg = ChurnConfig::diurnal(0x00de_c1de).for_lifetimes(2_000);
    cfg.mean_lifetime_s = 4.0;
    cfg.mean_vms = 4.0;
    let horizon = cfg.horizon_s;
    let cfg = cfg
        .with_flash_crowd(FlashCrowd {
            at_s: 0.3 * horizon,
            dur_s: 0.1 * horizon,
            multiplier: 4.0,
        })
        .with_failure_burst(FailureBurst {
            at_s: 0.2 * horizon,
            dur_s: 0.1 * horizon,
            hosts: 2,
        })
        .with_failure_burst(FailureBurst {
            at_s: 0.7 * horizon,
            dur_s: 0.1 * horizon,
            hosts: 3,
        });
    let mut events = churn::generate(&topo, &cfg);
    for (link, at, until) in [
        (topo.tor_link(3), 0.45, 0.55),
        (topo.agg_link(1), 0.5, 0.6),
        (topo.tor_link(7), 0.85, 0.9),
    ] {
        events.push((at * horizon, ChurnEvent::FailLink(link)));
        events.push((until * horizon, ChurnEvent::RestoreLink(link)));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let got = replay(topo, &events);
    assert_eq!(got, TWO_POD_GOLDEN, "got {got:#x?}");
}
