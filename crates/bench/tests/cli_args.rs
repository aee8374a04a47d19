//! The `silo-trace` and `silo-top` command lines: every well-formed
//! invocation exits 0, and a misspelled flag or an extra argument is a
//! usage error (exit 2) rather than a check silently not run.

use silo_base::{Bytes, Dur, Rate, Time};
use silo_simnet::{
    FaultPlan, Sim, SimConfig, TelemetryConfig, TenantSpec, TenantWorkload, TraceConfig,
    TransportMode,
};
use silo_topology::{HostId, Topology, TreeParams};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The trace and telemetry goldens' faulted cell, with its four exports
/// written to a directory of their own.
fn exports() -> PathBuf {
    let topo = Topology::build(TreeParams {
        pods: 1,
        racks_per_pod: 1,
        servers_per_rack: 2,
        vm_slots_per_server: 2,
        host_link: Rate::from_gbps(10),
        tor_oversub: 1.0,
        agg_oversub: 1.0,
        switch_buffer: Bytes::from_kb(312),
        nic_buffer: Bytes::from_kb(64),
        prop_delay: Dur::from_ns(500),
    });
    let tenants = vec![TenantSpec {
        vm_hosts: vec![HostId(0), HostId(1)],
        b: Rate::from_mbps(500),
        s: Bytes::from_kb(15),
        bmax: Rate::from_gbps(1),
        prio: 0,
        delay: Some(Dur::from_ms(1)),
        workload: TenantWorkload::OldiAllToOne {
            msg_mean: Bytes::from_kb(15),
            interval: Dur::from_ms(2),
        },
    }];
    let mut cfg = SimConfig::new(TransportMode::Silo, Dur::from_ms(20), 7);
    cfg.faults = FaultPlan::new().link_down(Time::from_ms(8), Some(Time::from_ms(12)), 0);
    cfg.trace = Some(TraceConfig::default());
    cfg.telemetry = Some(TelemetryConfig::default());
    let m = Sim::new(topo, cfg, tenants).run();
    let (trace, tel) = (m.trace.expect("traced"), m.telemetry.expect("telemetry"));
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_args");
    std::fs::create_dir_all(&dir).expect("create the export directory");
    for (name, text) in [
        ("t.jsonl", trace.to_jsonl()),
        ("t.perfetto.json", trace.to_perfetto()),
        ("w.jsonl", tel.to_jsonl()),
        ("w.openmetrics.txt", tel.to_openmetrics()),
    ] {
        std::fs::write(dir.join(name), text).expect("write an export");
    }
    dir
}

/// Run `bin` with `args` (file names resolved in `dir`); its exit code.
fn exit_code(bin: &str, dir: &Path, args: &[&str]) -> i32 {
    let out = Command::new(bin)
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run the binary");
    let code = out.status.code().expect("exited");
    if code == 2 {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    code
}

#[test]
fn well_formed_invocations_pass_and_malformed_ones_are_usage_errors() {
    let dir = exports();
    let trace = env!("CARGO_BIN_EXE_silo-trace");
    let top = env!("CARGO_BIN_EXE_silo-top");
    let ok: [(&str, &[&str]); 10] = [
        (trace, &["dump", "t.jsonl"]),
        (trace, &["dump", "t.jsonl", "--head", "5"]),
        (trace, &["summarize", "t.jsonl"]),
        (trace, &["diff", "t.jsonl", "t.jsonl"]),
        (trace, &["check-perfetto", "t.perfetto.json"]),
        (
            trace,
            &[
                "check-perfetto",
                "t.perfetto.json",
                "--expect-tenant-tracks",
            ],
        ),
        (
            trace,
            &[
                "check-perfetto",
                "t.perfetto.json",
                "--expect-tenant-tracks",
                "--expect-fault-markers",
            ],
        ),
        (top, &["show", "w.jsonl"]),
        (top, &["diff", "w.jsonl", "w.jsonl"]),
        (top, &["check-openmetrics", "w.openmetrics.txt"]),
    ];
    for (bin, args) in ok {
        assert_eq!(exit_code(bin, &dir, args), 0, "{bin} {args:?}");
    }
    // One misspelled flag and one extra argument per subcommand.
    let usage: [(&str, &[&str]); 14] = [
        (trace, &["dump", "t.jsonl", "--haed", "5"]),
        (trace, &["dump", "t.jsonl", "t.jsonl"]),
        (trace, &["summarize", "t.jsonl", "--verbose"]),
        (trace, &["summarize", "t.jsonl", "t.jsonl"]),
        (trace, &["diff", "t.jsonl", "t.jsonl", "--quiet"]),
        (trace, &["diff", "t.jsonl", "t.jsonl", "t.jsonl"]),
        (
            trace,
            &["check-perfetto", "t.perfetto.json", "--expect-fault-marker"],
        ),
        (
            trace,
            &["check-perfetto", "t.perfetto.json", "t.perfetto.json"],
        ),
        (top, &["show", "w.jsonl", "--all"]),
        (top, &["show", "w.jsonl", "w.jsonl"]),
        (top, &["diff", "w.jsonl", "w.jsonl", "--quiet"]),
        (top, &["diff", "w.jsonl", "w.jsonl", "w.jsonl"]),
        (top, &["check-openmetrics", "w.openmetrics.txt", "--strict"]),
        (
            top,
            &[
                "check-openmetrics",
                "w.openmetrics.txt",
                "w.openmetrics.txt",
            ],
        ),
    ];
    for (bin, args) in usage {
        assert_eq!(exit_code(bin, &dir, args), 2, "{bin} {args:?}");
    }
}
