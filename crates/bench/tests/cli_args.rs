//! The `silo-obs` command line: every well-formed invocation on each file
//! family and export exits 0, and a misspelled flag or an extra argument
//! is a usage error (exit 2) rather than a check silently not run. So is a
//! Perfetto flag on an OpenMetrics file; a diff across the two families
//! exits 2 too. Two files whose rows agree but whose headers do not are a
//! divergence (exit 1). And the experiment binaries' shared writer
//! reports an unwritable output path instead of panicking, a binary
//! that attaches no observer refuses the observer flags (exit 2) instead
//! of ignoring them, and a `--duration-ms` too long for the picosecond
//! clock is refused (exit 2) instead of wrapping to a short cell.

mod common;

use silo_base::Dur;
use silo_bench::{write_observer_outputs, Args};
use silo_simnet::FaultPlan;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The golden cell's four exports, written to a directory of their own:
/// one per test, since the tests run at once.
fn exports(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&dir).expect("create the export directory");
    for (name, text) in common::exports() {
        std::fs::write(dir.join(name), text).expect("write an export");
    }
    dir
}

/// Run `silo-obs` with `args` (file names resolved in `dir`): its exit
/// code and stderr.
fn silo_obs(dir: &Path, args: &[&str]) -> (i32, String) {
    let (code, _, stderr) = silo_obs_out(dir, args);
    (code, stderr)
}

/// The same, with stdout too.
fn silo_obs_out(dir: &Path, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_silo-obs"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run the binary");
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (
        out.status.code().expect("exited"),
        text(&out.stdout),
        text(&out.stderr),
    )
}

#[test]
fn well_formed_invocations_pass_and_malformed_ones_are_usage_errors() {
    let dir = exports("cli_args");
    let ok: [&[&str]; 12] = [
        &["dump", "t.jsonl"],
        &["dump", "t.jsonl", "--head", "5"],
        &["dump", "w.jsonl"],
        &["dump", "w.jsonl", "--head", "5"],
        &["show", "t.jsonl"],
        &["show", "w.jsonl"],
        &["diff", "t.jsonl", "t.jsonl"],
        &["diff", "w.jsonl", "w.jsonl"],
        &["check", "t.perfetto.json"],
        &["check", "t.perfetto.json", "--expect-tenant-tracks"],
        &[
            "check",
            "t.perfetto.json",
            "--expect-tenant-tracks",
            "--expect-fault-markers",
        ],
        &["check", "w.openmetrics.txt"],
    ];
    for args in ok {
        let (code, stderr) = silo_obs(&dir, args);
        assert_eq!(code, 0, "{args:?}: {stderr}");
    }
    // One misspelled flag and one extra argument per subcommand, and the
    // Perfetto-only flags on an OpenMetrics exposition.
    let usage: [&[&str]; 10] = [
        &["dump", "t.jsonl", "--haed", "5"],
        &["dump", "t.jsonl", "t.jsonl"],
        &["show", "w.jsonl", "--all"],
        &["show", "w.jsonl", "w.jsonl"],
        &["diff", "t.jsonl", "t.jsonl", "--quiet"],
        &["diff", "w.jsonl", "w.jsonl", "w.jsonl"],
        &["check", "t.perfetto.json", "--expect-fault-marker"],
        &["check", "t.perfetto.json", "t.perfetto.json"],
        &["check", "w.openmetrics.txt", "--expect-tenant-tracks"],
        &["check", "w.openmetrics.txt", "--expect-fault-markers"],
    ];
    for args in usage {
        let (code, stderr) = silo_obs(&dir, args);
        assert_eq!(code, 2, "{args:?}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    // Two families cannot be compared: exit 2, but not a usage error.
    let (code, stderr) = silo_obs(&dir, &["diff", "t.jsonl", "w.jsonl"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("cannot compare a trace with a telemetry file"));
}

#[test]
fn a_header_that_differs_is_a_divergence() {
    let dir = exports("cli_args_headers");
    // Copy export `from` to `to` with `edits` made to its header line;
    // every row stays as it is.
    let edit = |from: &str, to: &str, edits: &[(&str, &str)]| {
        let text = std::fs::read_to_string(dir.join(from)).expect("read an export");
        let (header, rows) = text.split_once('\n').expect("a header line");
        let header = edits
            .iter()
            .fold(header.to_string(), |h, (a, b)| h.replacen(a, b, 1));
        std::fs::write(dir.join(to), format!("{header}\n{rows}")).expect("write a copy");
    };
    edit(
        "t.jsonl",
        "t7.jsonl",
        &[
            ("\"dropped\":0", "\"dropped\":7"),
            ("\"tenants\":1", "\"tenants\":3"),
        ],
    );
    edit("w.jsonl", "wl.jsonl", &[("\"sw_p1\"", "\"sw_q1\"")]);
    let cases = [
        (["t.jsonl", "t7.jsonl"], "dropped", "0", "7"),
        (
            ["w.jsonl", "wl.jsonl"],
            "port_labels",
            "[\"nic_p0\",\"sw_p1\",",
            "[\"nic_p0\",\"sw_q1\",",
        ),
    ];
    for ([a, b], field, left, right) in cases {
        let (code, stdout, stderr) = silo_obs_out(&dir, &["diff", a, b]);
        assert_eq!(code, 1, "{b}: {stdout}{stderr}");
        let head = format!("first divergent header field: {field}\n  left:  {left}");
        assert!(stdout.starts_with(&head), "{stdout}");
        assert!(stdout.contains(&format!("\n  right: {right}")), "{stdout}");
    }
    // A telemetry geometry that differs is no divergence: exit 2.
    let interval = [("\"interval_ps\":1000000000", "\"interval_ps\":2000000000")];
    edit("w.jsonl", "wg.jsonl", &interval);
    let (code, stderr) = silo_obs(&dir, &["diff", "w.jsonl", "wg.jsonl"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("incomparable geometries"), "{stderr}");
}

#[test]
fn an_unwritable_output_path_is_an_error_not_a_panic() {
    let m = common::run(7, FaultPlan::new(), Some(Dur::from_ms(1)), true, true);
    let bad = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("no-such-dir/out");
    let bad = bad.to_str().expect("a UTF-8 path").to_string();
    let set: [fn(&mut Args, String); 4] = [
        |a, p| a.trace = Some(p),
        |a, p| a.trace_perfetto = Some(p),
        |a, p| a.telemetry = Some(p),
        |a, p| a.telemetry_openmetrics = Some(p),
    ];
    for (i, set) in set.iter().enumerate() {
        let mut args = Args::default();
        set(&mut args, bad.clone());
        let err = write_observer_outputs(&args, &m).expect_err("the directory does not exist");
        assert!(err.starts_with(&format!("{bad}: ")), "export {i}: {err}");
    }
}

#[test]
fn binaries_that_attach_no_observer_refuse_the_observer_flags() {
    let binaries = [
        env!("CARGO_BIN_EXE_sec61_testbed"),
        env!("CARGO_BIN_EXE_sec62_packet"),
        env!("CARGO_BIN_EXE_sec63_flow"),
        env!("CARGO_BIN_EXE_ablate_design"),
        env!("CARGO_BIN_EXE_ext_best_effort"),
        env!("CARGO_BIN_EXE_micro_placement_scale"),
        env!("CARGO_BIN_EXE_tab01_burst_allowance"),
    ];
    let flags: [&[&str]; 5] = [
        &["--audit"],
        &["--trace", "t.jsonl"],
        &["--trace-perfetto", "t.perfetto.json"],
        &["--telemetry", "w.jsonl"],
        &["--telemetry-openmetrics", "w.openmetrics.txt"],
    ];
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_args_unobserved");
    std::fs::create_dir_all(&dir).expect("create the working directory");
    for bin in binaries {
        for args in flags {
            let out = Command::new(bin)
                .current_dir(&dir)
                .args(args)
                .output()
                .expect("run the binary");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
            assert!(
                stderr.starts_with(&format!("error: {}: ", args[0])),
                "{bin} {args:?}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{bin} {args:?} ran anyway");
        }
    }
}

#[test]
fn a_duration_past_the_picosecond_clock_is_refused() {
    // One millisecond past the longest horizon a `u64` of picoseconds
    // holds: it used to wrap to a 0.29 ms cell and run it.
    let out = Command::new(env!("CARGO_BIN_EXE_sim_profile"))
        .args(["--duration-ms", "18446744074", "--scale", "0.05"])
        .output()
        .expect("run the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("error: --duration-ms: "), "{stderr}");
    assert!(out.stdout.is_empty(), "sim_profile ran anyway");
}
