//! Golden tests for `silo-obs diff` on traces: the first-divergence
//! locator must pinpoint *the exact event* where two almost-identical runs
//! part ways — a perturbed fault schedule diverges at the fault marker
//! itself, and a different seed diverges exactly where a by-hand scan says
//! it does. Plus structural validation of the Perfetto export of a
//! faulted run.

mod common;

use silo_base::{Dur, Time};
use silo_bench::obsfile::{check_perfetto, diff, parse, show, ObsFile};
use silo_simnet::{FaultPlan, TraceKind, TraceLog};

fn traced_run(seed: u64, faults: FaultPlan) -> TraceLog {
    let log = common::run(seed, faults, None, true, false)
        .trace
        .expect("traced run");
    assert_eq!(log.dropped, 0, "golden runs must fit the default rings");
    log
}

fn parsed(log: &TraceLog) -> ObsFile {
    parse(&log.to_jsonl()).expect("parse")
}

#[test]
fn identical_runs_have_no_divergence() {
    let a = parsed(&traced_run(7, FaultPlan::new()));
    let b = parsed(&traced_run(7, FaultPlan::new()));
    assert!(diff(&a, &b).expect("comparable").is_none());
}

#[test]
fn perturbed_fault_schedule_diverges_at_the_fault_marker() {
    // Same seed, same physics until t = 10 ms — then run A's link dies
    // 1 µs earlier than run B's. The first divergent event must be the
    // fault marker itself, at exactly 10 ms.
    let t0 = Time::from_ms(10);
    let t1 = Time::from_ms(15);
    let a = parsed(&traced_run(7, FaultPlan::new().link_down(t0, Some(t1), 0)));
    let b = parsed(&traced_run(
        7,
        FaultPlan::new().link_down(t0 + Dur::from_us(1), Some(t1), 0),
    ));
    let d = diff(&a, &b)
        .expect("comparable")
        .expect("schedules must diverge");
    let index = d.index().expect("a row diverges");
    assert!(index > 0, "runs agree before the perturbation");
    let ObsFile::Trace(ta) = &a else {
        panic!("a trace")
    };
    let left = ta.events.get(index).expect("run A has the earlier event");
    assert_eq!(
        left.kind,
        TraceKind::FaultStart,
        "divergence is the fault edge"
    );
    assert_eq!(left.at, t0, "pinpointed at the exact instant");
    // The report names the instant and both states.
    let report = d.report();
    assert!(report.contains("fault_start"));
    assert!(report.contains(&format!("t={} ps", t0.0)));
    assert!(report.contains("left raw:") && report.contains("right raw:"));
}

#[test]
fn seed_change_diverges_exactly_where_a_hand_scan_says() {
    let a = traced_run(7, FaultPlan::new());
    let b = traced_run(8, FaultPlan::new());
    let d = diff(&parsed(&a), &parsed(&b))
        .expect("comparable")
        .expect("different seeds diverge");
    // Recompute the first mismatch by hand against the raw logs.
    let hand = a
        .events
        .iter()
        .zip(b.events.iter())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.events.len().min(b.events.len()));
    assert_eq!(
        d.index(),
        Some(hand),
        "diff must agree with an exhaustive scan"
    );
}

#[test]
fn faulted_perfetto_export_is_structurally_valid() {
    let log = traced_run(7, common::outage());
    assert!(!log.fault_windows.is_empty());
    check_perfetto(&log.to_perfetto(), true, true).expect("valid with tenant tracks + markers");
    // The JSONL round-trips and summarizes cleanly too.
    let s = show(&parsed(&log));
    assert!(s.contains("fault_start"));
    assert!(s.contains("tenant 0:"));
}
