//! Conservation suite for the windowed telemetry layer
//! (`SimConfig::telemetry`): every series must be *conservative* — the
//! sum over windows equals the end-of-run `Metrics` total bit-exactly, the
//! windowed analogue of the trace rings' `retained + dropped == recorded`.
//! That telemetry never perturbs physics or another observer is
//! `tests/observer_purity.rs`.

mod common;

use common::{faults, racked_topo, tenants};
use silo_base::Dur;
use silo_simnet::{FaultPlan, Metrics, Sim, SimConfig, TelemetryConfig, TransportMode};

fn run(mode: TransportMode, plan: FaultPlan) -> Metrics {
    let mut cfg = SimConfig::new(mode, Dur::from_ms(20), 7);
    cfg.faults = plan;
    cfg.telemetry = Some(TelemetryConfig::default());
    Sim::new(racked_topo(), cfg, tenants()).run()
}

#[test]
fn telemetry_stays_out_of_serializations() {
    let m = run(TransportMode::Silo, FaultPlan::new());
    assert!(
        !m.canonical_json().contains("telemetry"),
        "telemetry must not enter the fingerprint"
    );
    assert!(!m.physics_json().contains("telemetry"));
}

/// Sum-of-windows == end-of-run totals, bit-exactly, for every series
/// with a `Metrics` counterpart — across all transports, with and
/// without faults.
#[test]
fn every_series_conserves_the_end_of_run_totals() {
    for mode in [
        TransportMode::Silo,
        TransportMode::Tcp,
        TransportMode::Dctcp,
    ] {
        for plan in [FaultPlan::new(), faults()] {
            let m = run(mode, plan);
            let log = m.telemetry.as_ref().expect("telemetry log");
            for t in 0..2 {
                assert_eq!(
                    log.sum_goodput(t),
                    m.goodput[t],
                    "goodput drifted: mode={mode:?} tenant={t}"
                );
                assert_eq!(
                    log.sum_completions(t),
                    m.messages.iter().filter(|r| r.tenant == t as u16).count() as u64,
                    "completions drifted: mode={mode:?} tenant={t}"
                );
            }
            assert_eq!(log.sum_drops(), m.drops, "drops drifted: mode={mode:?}");
            assert_eq!(
                log.sum_wire_data(),
                m.wire_data_bytes,
                "wire data drifted: mode={mode:?}"
            );
            assert_eq!(
                log.sum_wire_void(),
                m.wire_void_bytes,
                "wire void drifted: mode={mode:?}"
            );
            assert_eq!(log.sum_rtos(), m.rtos, "rtos drifted: mode={mode:?}");
            assert!(m.goodput.iter().sum::<u64>() > 0, "vacuous run");
            assert!(m.wire_data_bytes > 0 || mode != TransportMode::Silo);
        }
    }
}

/// The margin series actually bites: the guaranteed tenant's windows
/// carry margins, and a ToR outage mid-run produces fault-attributed
/// windows overlapping the realized fault interval.
#[test]
fn margins_and_fault_attribution_populate() {
    let m = run(TransportMode::Silo, faults());
    let log = m.telemetry.as_ref().expect("log");
    assert!(
        log.tenants[0].iter().any(|w| w.margin_min_ps.is_some()),
        "delay-guaranteed tenant must produce margin samples"
    );
    assert!(
        log.tenants[1].iter().all(|w| w.margin_min_ps.is_none()),
        "tenant without a guarantee has no margin"
    );
    // link_down spans [10 ms, 15 ms) → windows 10..=15 at 1 ms (the heal
    // edge lands exactly on the window-15 boundary and stays attributed).
    let tagged: Vec<usize> = (0..log.windows as usize)
        .filter(|&w| !log.window_faults[w].is_empty())
        .collect();
    assert!(
        tagged.contains(&10) && tagged.contains(&14),
        "outage windows must be fault-tagged, got {tagged:?}"
    );
    assert!(
        !tagged.contains(&2),
        "pre-stall window must stay clean, got {tagged:?}"
    );
}

/// Engine self-profile smoke: the loop is timed, sampled dispatch spans
/// land, and the sampled time never exceeds the loop's wall time; the
/// observer worker is timed, and the engine's wait for it is part of the
/// loop.
#[test]
fn self_profile_spans_are_nonzero_and_bounded() {
    let m = run(TransportMode::Silo, FaultPlan::new());
    let p = &m.telemetry.as_ref().expect("log").self_profile;
    assert!(p.wall_ns > 0, "dispatch loop must be timed");
    assert!(p.dispatch_total_ns() > 0, "dispatch spans must accumulate");
    assert!(
        p.dispatch_total_ns() <= p.wall_ns,
        "sampled {} ns exceeds wall {} ns",
        p.dispatch_total_ns(),
        p.wall_ns
    );
    assert!(p.worker_busy_ns > 0, "the observer worker must be timed");
    assert!(
        p.engine_wait_ns <= p.wall_ns,
        "waited {} ns for the worker in a loop of {} ns",
        p.engine_wait_ns,
        p.wall_ns
    );
    let table = p.to_table();
    assert!(table.contains("observer worker: busy"), "{table}");
}

/// Window geometry follows the config: a non-default interval yields
/// ceil(duration/interval) windows and the exports carry it.
#[test]
fn interval_is_configurable() {
    let mut cfg = SimConfig::new(TransportMode::Silo, Dur::from_ms(20), 7);
    cfg.telemetry = Some(TelemetryConfig {
        interval: Dur::from_us(250),
    });
    let m = Sim::new(racked_topo(), cfg, tenants()).run();
    let log = m.telemetry.as_ref().expect("log");
    assert_eq!(log.windows, 80);
    assert_eq!(log.interval, Dur::from_us(250));
    assert!(log.to_jsonl().starts_with(
        "{\"format\":\"silo-telemetry-v1\",\"interval_ps\":250000000,\"windows\":80,"
    ));
    let om = log.to_openmetrics();
    assert!(om.ends_with("# EOF\n"));
    assert!(om.contains("silo_goodput_bytes{tenant=\"0\"}"));
}
