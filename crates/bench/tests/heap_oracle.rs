//! Bench-scale wheel-vs-heap cross: the full §6.2 cell pipeline
//! (placement, population build, packet simulation) must produce
//! byte-identical results, engine counters included, on the timer wheel
//! and on the reference `BinaryHeap` — also under an injected ToR outage.
//! The simnet-level suite proves this on the engine's own scenarios; this
//! test proves it end-to-end through the bench harness that generates
//! every figure.

use silo_base::{Bytes, Dur, QueueBackend, Rate, Time};
use silo_bench::ns2::{run_ns2_cell_with, Ns2Cell};
use silo_bench::Args;
use silo_simnet::{FaultPlan, Sim, SimConfig, TenantSpec, TenantWorkload, TransportMode};
use silo_topology::{HostId, Topology, TreeParams};

fn small_args() -> Args {
    Args {
        scale: 0.12,
        seed: 11,
        duration_ms: 10,
        runs: 1,
        occupancy: 0.9,
        threads: 1,
        audit: false,
        trace: None,
        trace_perfetto: None,
        telemetry: None,
        telemetry_openmetrics: None,
    }
}

/// The default queue first, then the oracle it must agree with.
const QUEUES: [QueueBackend; 2] = [QueueBackend::Wheel, QueueBackend::Heap];

#[test]
fn ns2_cells_are_identical_on_wheel_and_heap() {
    let args = small_args();
    // The RTO-heavy schemes (Fig. 12's interesting cells): Silo cancels
    // NicPull re-arms too, TCP is pure RTO churn.
    for mode in [TransportMode::Silo, TransportMode::Tcp] {
        let cell = Ns2Cell {
            mode,
            run: 0,
            seed: args.seed,
        };
        let [wheel, heap] = QUEUES.map(|queue| {
            let (_, m) = run_ns2_cell_with(&cell, &args, |cfg| cfg.queue = queue);
            m.canonical_json()
        });
        assert!(
            wheel.contains("\"messages\":[{"),
            "cell must carry real traffic, or the comparison proves nothing"
        );
        assert_eq!(wheel, heap, "{} diverged from the heap", mode.label());
    }
}

#[test]
fn faulted_run_is_identical_on_wheel_and_heap() {
    // A ToR outage mid-run exercises the fault paths' timer churn (link
    // flaps force RTO storms and pacer stalls) — the queue backend must
    // not move a single byte of it.
    let topo = || {
        Topology::build(TreeParams {
            pods: 1,
            racks_per_pod: 2,
            servers_per_rack: 4,
            vm_slots_per_server: 4,
            host_link: Rate::from_gbps(10),
            tor_oversub: 1.0,
            agg_oversub: 1.0,
            switch_buffer: Bytes::from_kb(312),
            nic_buffer: Bytes::from_kb(64),
            prop_delay: Dur::from_ns(500),
        })
    };
    let tenant = |a: u32, b: u32| TenantSpec {
        vm_hosts: vec![HostId(a), HostId(b)],
        b: Rate::from_mbps(500),
        s: Bytes::from_kb(15),
        bmax: Rate::from_gbps(1),
        prio: 0,
        delay: Some(Dur::from_ms(2)),
        workload: TenantWorkload::OldiPeriodic {
            msg: Bytes::from_kb(15),
            period: Dur::from_ms(2),
        },
    };
    let [wheel, heap] = QUEUES.map(|queue| {
        let t = topo();
        let tor0 = t.tor_link(0).0;
        let mut cfg = SimConfig::new(TransportMode::Silo, Dur::from_ms(60), 7);
        cfg.queue = queue;
        cfg.faults = FaultPlan::new().link_down(Time::from_ms(20), Some(Time::from_ms(30)), tor0);
        let m = Sim::new(t, cfg, vec![tenant(0, 4), tenant(1, 5)]).run();
        assert!(
            !m.violation_windows(0).is_empty() || !m.violation_windows(1).is_empty(),
            "the outage must actually bite, or the comparison proves nothing"
        );
        m.canonical_json()
    });
    assert_eq!(wheel, heap, "faulted run diverged from the heap");
}
