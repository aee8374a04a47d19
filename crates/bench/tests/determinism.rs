//! Cross-thread determinism: the parallel sweep runner must be a pure
//! wall-clock optimization. Pushing the same seeded cells through
//! [`run_ns2_sweep`] on 1, 2 and 8 worker threads has to produce
//! **byte-identical** serialized results — any divergence means state
//! leaked between cells or scheduling order reached the physics.

use silo_bench::ns2::{run_ns2_sweep, Ns2Outcome, ALL_MODES};
use silo_bench::Args;
use silo_simnet::TransportMode;

/// Serialize a whole sweep exactly: every run's canonical metrics JSON
/// plus the placement that produced it, in output order.
fn sweep_fingerprint(outcomes: &[Ns2Outcome]) -> String {
    let mut out = String::new();
    for o in outcomes {
        out.push_str(&format!("mode={}\n", o.mode.label()));
        for (run, m) in o.metrics.iter().enumerate() {
            out.push_str(&format!("run={run} tenants={}\n", o.tenants[run].len()));
            for t in &o.tenants[run] {
                out.push_str(&format!(
                    "  class={:?} vms={} b={} s={} bmax={}\n",
                    t.class,
                    t.spec.vm_hosts.len(),
                    t.guarantee.b.as_bps(),
                    t.guarantee.s.0,
                    t.guarantee.bmax.as_bps(),
                ));
            }
            out.push_str(&m.canonical_json());
            out.push('\n');
        }
    }
    out
}

fn small_args(threads: usize) -> Args {
    Args {
        scale: 0.12,
        seed: 7,
        duration_ms: 10,
        runs: 2,
        occupancy: 0.9,
        threads,
        audit: false,
        trace: None,
        trace_perfetto: None,
        telemetry: None,
        telemetry_openmetrics: None,
    }
}

#[test]
fn sweep_results_are_byte_identical_across_thread_counts() {
    let modes = [TransportMode::Silo, TransportMode::Tcp];
    let serial = sweep_fingerprint(&run_ns2_sweep(&modes, &small_args(1)));
    assert!(
        serial.contains("\"messages\":[{"),
        "fingerprint must cover real traffic, or the test proves nothing"
    );
    for threads in [2, 8] {
        let par = sweep_fingerprint(&run_ns2_sweep(&modes, &small_args(threads)));
        assert_eq!(
            serial, par,
            "sweep results diverged between 1 and {threads} threads"
        );
    }
}

#[test]
fn all_modes_sweep_matches_per_mode_serial_runs() {
    // The sweep over all six schemes at once must equal six single-mode
    // sweeps run back to back: fanning modes together may not perturb any
    // individual scheme's results.
    let args = Args {
        runs: 1,
        duration_ms: 10,
        ..small_args(0)
    };
    let fanned = sweep_fingerprint(&run_ns2_sweep(&ALL_MODES, &args));
    let mut serial = String::new();
    for mode in ALL_MODES {
        serial.push_str(&sweep_fingerprint(&run_ns2_sweep(&[mode], &args)));
    }
    assert_eq!(fanned, serial);
}
