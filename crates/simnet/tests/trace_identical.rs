//! End-to-end tests of the flight-recorder layer: rings stay bounded and
//! balance their accounting. That tracing never perturbs physics is
//! `tests/observer_purity.rs`.

mod common;

use common::{bulk_tenant, periodic_tenant, small_topo};
use silo_base::{Dur, Time};
use silo_simnet::{FaultPlan, Metrics, Sim, SimConfig, TraceConfig, TraceKind, TransportMode};

fn run_cfg(mode: TransportMode, faults: FaultPlan, mutate: impl FnOnce(&mut SimConfig)) -> Metrics {
    let mut cfg = SimConfig::new(mode, Dur::from_ms(40), 7);
    cfg.faults = faults;
    mutate(&mut cfg);
    let tenants = vec![periodic_tenant(&[0, 1]), bulk_tenant(&[2, 3])];
    Sim::new(small_topo(4), cfg, tenants).run()
}

fn run(mode: TransportMode, trace: bool, faults: FaultPlan) -> Metrics {
    run_cfg(mode, faults, |cfg| {
        if trace {
            cfg.trace = Some(TraceConfig::default());
        }
    })
}

#[test]
fn trace_log_stays_out_of_serializations() {
    let on = run(TransportMode::Silo, true, FaultPlan::new());
    assert!(
        !on.canonical_json().contains("trace"),
        "trace must not enter the fingerprint"
    );
    assert!(!on.physics_json().contains("trace"));
}

#[test]
fn rings_are_bounded_and_keep_recent_history() {
    // Tiny rings on a busy run: memory stays bounded (evictions counted,
    // not silently lost) and what survives is the most recent history.
    let tiny = TraceConfig {
        per_host_cap: 64,
        global_cap: 4,
    };
    let m = run_cfg(TransportMode::Silo, FaultPlan::new(), |cfg| {
        cfg.trace = Some(tiny);
    });
    let full = run(TransportMode::Silo, true, FaultPlan::new());
    let log = m.trace.expect("log");
    let hosts = small_topo(4).num_hosts();
    assert!(log.events.len() <= hosts * 64 + 4, "rings must cap memory");
    assert!(log.dropped > 0, "a busy run must evict from tiny rings");
    let full_log = full.trace.expect("log");
    assert_eq!(
        log.dropped + log.events.len() as u64,
        full_log.dropped + full_log.events.len() as u64,
        "evicted + retained must equal the same record stream either way"
    );
    assert!(
        log.dropped > full_log.dropped,
        "tiny rings must evict more than default rings"
    );
    // Eviction drops the oldest: the retained tail is a suffix of the
    // full stream per ring, so every retained seq also exists there.
    let last = log.events.last().expect("nonempty");
    let full_last = full_log.events.last().expect("nonempty");
    assert_eq!(last.seq, full_last.seq, "most recent event must survive");
}

#[test]
fn ring_accounting_balances_under_fault_drops_with_evicting_rings() {
    // Regression for trace-ring accounting under fault drops: force the
    // rings into eviction *before* a mid-run outage starts recording
    // DropFault events, then check `retained + dropped == recorded` on
    // the merged log (the same invariant `TraceSink::finish` asserts, so
    // a miscount would also abort the run itself).
    let tiny = TraceConfig {
        per_host_cap: 32,
        global_cap: 2,
    };
    let faults = FaultPlan::new()
        .link_down(Time::from_ms(10), Some(Time::from_ms(20)), 0)
        .port_down(Time::from_ms(25), Some(Time::from_ms(30)), 0);
    for mode in [TransportMode::Silo, TransportMode::Tcp] {
        let m = run_cfg(mode, faults.clone(), |cfg| {
            cfg.trace = Some(tiny.clone());
        });
        let log = m.trace.as_ref().expect("log");
        assert!(
            log.dropped > 0,
            "{mode:?}: tiny rings must already be evicting"
        );
        assert!(
            log.count(TraceKind::DropFault) > 0,
            "{mode:?}: the outage must drop packets after eviction began"
        );
        assert_eq!(
            log.events.len() as u64 + log.dropped,
            log.recorded,
            "{mode:?}: retained + dropped != recorded under fault drops"
        );
        // The faulted run still perturbs nothing observationally.
        let off = run_cfg(mode, faults.clone(), |_| {});
        assert_eq!(off.canonical_json(), m.canonical_json());
    }
}
