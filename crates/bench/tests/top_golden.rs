//! Golden tests for `silo-obs` on telemetry: the diff must pinpoint *the
//! exact window and series* where two almost-identical runs part ways —
//! a perturbed fault schedule diverges in the window holding the fault
//! edge, and a seed change diverges exactly where a by-hand scan says it
//! does. Plus the `show` renderer's headlines and the OpenMetrics lint
//! against real exports, and the Perfetto counter splice validating
//! alongside the flight recorder's spans.

mod common;

use silo_base::{Dur, Time};
use silo_bench::obsfile::{check_perfetto, diff, openmetrics_lint, parse, show, ObsFile};
use silo_simnet::telemetry::Series;
use silo_simnet::{FaultPlan, Metrics, TelemetryLog};

/// A delay guarantee so the margin series populates.
fn telemetered_run(seed: u64, faults: FaultPlan, trace: bool) -> Metrics {
    common::run(seed, faults, Some(Dur::from_ms(1)), trace, true)
}

fn parsed(seed: u64, faults: FaultPlan) -> ObsFile {
    let m = telemetered_run(seed, faults, false);
    parse(&m.telemetry.expect("telemetered run").to_jsonl()).expect("parse")
}

fn log(f: &ObsFile) -> &TelemetryLog {
    match f {
        ObsFile::Telemetry(t) => t,
        ObsFile::Trace(_) => panic!("a telemetry file"),
    }
}

/// Each row's window and series, in file order.
fn rows(f: &ObsFile) -> Vec<(u64, Series)> {
    log(f).rows().collect()
}

#[test]
fn identical_runs_have_no_divergence() {
    let a = parsed(7, FaultPlan::new());
    let b = parsed(7, FaultPlan::new());
    assert!(diff(&a, &b).expect("comparable").is_none());
}

#[test]
fn perturbed_fault_schedule_diverges_in_the_fault_window() {
    // Same seed, same physics until t = 10 ms — then run A's link dies
    // 200 µs earlier than run B's. The first divergent sample must land
    // in window 9 or 10 (the windows the perturbation straddles), never
    // earlier.
    let t0 = Time::from_ms(10);
    let t1 = Time::from_ms(15);
    let a = parsed(7, FaultPlan::new().link_down(t0, Some(t1), 0));
    let b = parsed(
        7,
        FaultPlan::new().link_down(t0 - Dur::from_us(200), Some(t1), 0),
    );
    let d = diff(&a, &b)
        .expect("comparable")
        .expect("series must diverge");
    let index = d.index().expect("a row diverges");
    assert!(index > 0, "runs agree before the perturbation");
    let rows = rows(&a);
    let (w, _) = *rows.get(index).expect("both files cover the window");
    assert!(
        w == 9 || w == 10,
        "divergence must sit in the perturbed fault's window, got {w}"
    );
    for &(earlier, _) in &rows[..index] {
        assert!(earlier <= w, "no earlier window may differ");
    }
    let report = d.report();
    assert!(report.contains(&format!("window {w}")));
    assert!(report.contains("left raw:"));
}

#[test]
fn seed_change_diverges_exactly_where_a_hand_scan_says() {
    let a = parsed(7, FaultPlan::new());
    let b = parsed(8, FaultPlan::new());
    let d = diff(&a, &b)
        .expect("comparable")
        .expect("different seeds diverge");
    // Each row as the writer spells it, compared by hand.
    let spelled = |f: &ObsFile| -> Vec<String> {
        let t = log(f);
        t.rows().map(|(w, s)| t.row(w, s)).collect()
    };
    let (a, b) = (spelled(&a), spelled(&b));
    let hand = a
        .iter()
        .zip(b.iter())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()));
    assert_eq!(
        d.index(),
        Some(hand),
        "diff must agree with an exhaustive scan"
    );
}

#[test]
fn show_renders_margins_and_fault_flags() {
    let f = parsed(7, common::outage());
    let top = show(&f);
    assert!(top.contains("20 windows x 1.000 ms"), "{top}");
    assert!(
        top.contains("min margin"),
        "guaranteed tenant headline: {top}"
    );
    assert!(
        top.contains("fault[0]"),
        "outage windows must be flagged: {top}"
    );
    // The flagged windows are exactly the grid windows the fault overlaps.
    let fault_rows: Vec<u64> = rows(&f)
        .into_iter()
        .filter(|&(w, s)| s == Series::Global && !log(&f).window_faults[w as usize].is_empty())
        .map(|(w, _)| w)
        .collect();
    assert_eq!(fault_rows, vec![8, 9, 10, 11, 12]);
}

#[test]
fn openmetrics_export_passes_the_lint() {
    let m = telemetered_run(7, FaultPlan::new(), false);
    let om = m.telemetry.expect("telemetered run").to_openmetrics();
    let samples = openmetrics_lint(&om).expect("export must satisfy its own grammar");
    assert!(
        samples > 100,
        "20 windows of series should emit plenty of samples"
    );
}

#[test]
fn perfetto_counter_splice_stays_structurally_valid() {
    let m = telemetered_run(7, common::outage(), true);
    let tel = m.telemetry.as_ref().expect("telemetered run");
    let trace = m.trace.as_ref().expect("traced run");
    let spliced = trace.to_perfetto_with_counters(Some(tel));
    check_perfetto(&spliced, true, true).expect("splice keeps the export valid");
    assert!(spliced.contains("\"ph\":\"C\""), "counter tracks present");
    assert!(spliced.contains("telemetry counters"));
    // Counter events are additive: the splice never rewrites the
    // recorder's own stream.
    let plain = trace.to_perfetto();
    assert!(spliced.len() > plain.len());
}
