//! Observer purity, proven once over every consumer set.
//!
//! The engine reaches its observers (audit, flight recorder, windowed
//! telemetry) only through the observation spine, and every consumer is
//! pure observation. This suite runs all eight subsets of {audit, trace,
//! telemetry} on one racked cell per transport and holds two things:
//!
//! * the physics (`Metrics::canonical_json`) is identical across all
//!   subsets;
//! * each attached consumer's output (trace JSONL, telemetry JSONL, audit
//!   counters) is identical whichever other consumers ride along.
//!
//! A failure names the transport and the subset that broke it.

mod common;

use common::{faults, racked_topo, tenants};
use silo_base::Dur;
use silo_simnet::{
    AuditConfig, FaultPlan, Metrics, Sim, SimConfig, TelemetryConfig, TraceConfig, TraceKind,
    TransportMode,
};

const AUDIT: u8 = 1;
const TRACE: u8 = 2;
const TELEMETRY: u8 = 4;
const CONSUMERS: [(u8, &str); 3] = [(AUDIT, "audit"), (TRACE, "trace"), (TELEMETRY, "telemetry")];

fn label(set: u8) -> String {
    let names: Vec<&str> = CONSUMERS
        .iter()
        .filter(|&&(bit, _)| set & bit != 0)
        .map(|&(_, name)| name)
        .collect();
    format!("{{{}}}", names.join(", "))
}

fn run(mode: TransportMode, plan: &FaultPlan, set: u8) -> Metrics {
    let mut cfg = SimConfig::new(mode, Dur::from_ms(20), 7);
    cfg.faults = plan.clone();
    if set & AUDIT != 0 {
        cfg.audit = Some(AuditConfig::default());
    }
    if set & TRACE != 0 {
        cfg.trace = Some(TraceConfig::default());
    }
    if set & TELEMETRY != 0 {
        cfg.telemetry = Some(TelemetryConfig::default());
    }
    Sim::new(racked_topo(), cfg, tenants()).run()
}

/// What consumer `bit` produced in `m`, as comparable text.
fn output(m: &Metrics, bit: u8) -> String {
    match bit {
        AUDIT => {
            let a = m.audit.as_ref().expect("audited run");
            format!("{} {:?}", a.events_checked, a.counters())
        }
        TRACE => m.trace.as_ref().expect("traced run").to_jsonl(),
        _ => m.telemetry.as_ref().expect("telemetry run").to_jsonl(),
    }
}

/// All eight subsets on one cell; returns the run with every consumer.
fn check_every_subset(mode: TransportMode, plan: FaultPlan) -> Metrics {
    let mut runs: Vec<Metrics> = (0..8).map(|set| run(mode, &plan, set)).collect();
    let physics = runs[0].canonical_json();
    for (set, m) in runs.iter().enumerate() {
        let set = set as u8;
        assert!(
            m.canonical_json() == physics,
            "{mode:?}: consumers {} moved the physics",
            label(set)
        );
        for (bit, name) in CONSUMERS {
            if set & bit == 0 {
                continue;
            }
            // The run with this consumer alone is the reference.
            assert!(
                output(m, bit) == output(&runs[bit as usize], bit),
                "{mode:?}: the {name} output under consumers {} differs from {name} alone",
                label(set)
            );
        }
    }
    runs.pop().expect("eight runs")
}

/// What each consumer must have seen on any of the cells.
fn check_consumers_saw_the_run(mode: TransportMode, m: &Metrics) {
    let log = m.trace.as_ref().expect("traced run");
    assert!(
        log.count(TraceKind::Deliver) > 0,
        "{mode:?}: deliveries must be recorded"
    );
    assert!(
        log.count(TraceKind::MsgDone) > 0,
        "{mode:?}: message completions must be recorded"
    );
    let tel = m.telemetry.as_ref().expect("telemetry run");
    assert_eq!(tel.windows, 20, "20 ms at 1 ms windows");
    assert!(
        tel.tenants
            .iter()
            .any(|s| s.iter().any(|w| w.completions > 0)),
        "{mode:?}: some window must complete messages"
    );
    let audit = m.audit.as_ref().expect("audited run");
    assert!(audit.events_checked > 0, "{mode:?}: audit saw no events");
}

/// The fault plan's two edges each, its outage's drops, and the realized
/// windows the exporters need.
fn check_faults_were_observed(mode: TransportMode, m: &Metrics) {
    assert!(
        m.fault_drops[1] > 0,
        "{mode:?}: the outage must drop packets"
    );
    let log = m.trace.as_ref().expect("traced run");
    assert!(
        log.count(TraceKind::DropFault) > 0,
        "{mode:?}: fault drops must be recorded"
    );
    assert_eq!(log.count(TraceKind::FaultStart), 2, "{mode:?}");
    assert_eq!(log.count(TraceKind::FaultEnd), 2, "{mode:?}");
    assert_eq!(log.fault_windows.len(), 2, "windows ride along for export");
}

#[test]
fn silo_with_faults() {
    let m = check_every_subset(TransportMode::Silo, faults());
    check_consumers_saw_the_run(TransportMode::Silo, &m);
    check_faults_were_observed(TransportMode::Silo, &m);
}

#[test]
fn tcp_with_faults() {
    let m = check_every_subset(TransportMode::Tcp, faults());
    check_consumers_saw_the_run(TransportMode::Tcp, &m);
    check_faults_were_observed(TransportMode::Tcp, &m);
}

#[test]
fn dctcp_without_faults() {
    let m = check_every_subset(TransportMode::Dctcp, FaultPlan::new());
    check_consumers_saw_the_run(TransportMode::Dctcp, &m);
    assert!(m.fault_windows.is_empty());
}
