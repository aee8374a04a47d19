//! Committed golden for the `silo-obs` command line: the exact stdout and
//! exit code of `dump --head 50`, `show` and `diff` over the shared cell's
//! trace and telemetry exports, hashed and compared against constants.
//! The diffs are the two self-diffs and the perturbed-fault pairs the
//! trace and telemetry goldens build: a link outage 1 µs later (trace)
//! and 200 µs earlier (telemetry). Every pair's headers agree, so the
//! cases hold whatever `diff` does with a header that differs.
//!
//! A mismatch prints the `got` hash. Only an intended change to what
//! `silo-obs` prints re-blesses a constant.

mod common;

use silo_base::fxhash::FxHasher;
use silo_base::{Dur, Time};
use silo_simnet::FaultPlan;
use std::hash::Hasher;
use std::path::PathBuf;
use std::process::Command;

/// The outage `trace_golden.rs` and `top_golden.rs` shift: link 0 down
/// from `start` to 15 ms.
fn outage_at(start: Time) -> FaultPlan {
    FaultPlan::new().link_down(start, Some(Time::from_ms(15)), 0)
}

/// The shared exports plus the perturbed pairs, written to a directory.
fn files() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("obs_golden");
    std::fs::create_dir_all(&dir).expect("create the file directory");
    let mut files: Vec<(&str, String)> = common::exports().into_iter().collect();
    let t0 = Time::from_ms(10);
    let trace = |at| common::run(7, outage_at(at), None, true, false).trace;
    let tel = |at| common::run(7, outage_at(at), Some(Dur::from_ms(1)), false, true).telemetry;
    files.push(("ta.jsonl", trace(t0).expect("traced").to_jsonl()));
    let later = t0 + Dur::from_us(1);
    files.push(("tb.jsonl", trace(later).expect("traced").to_jsonl()));
    files.push(("wa.jsonl", tel(t0).expect("telemetry").to_jsonl()));
    let earlier = t0 - Dur::from_us(200);
    files.push(("wb.jsonl", tel(earlier).expect("telemetry").to_jsonl()));
    for (name, text) in files {
        std::fs::write(dir.join(name), text).expect("write a file");
    }
    dir
}

const CASES: [(&[&str], u64); 10] = [
    (&["dump", "t.jsonl", "--head", "50"], 0xcc2c_986c_fba9_a4c3),
    (&["dump", "w.jsonl", "--head", "50"], 0xff5e_0b23_e044_0f78),
    (&["show", "t.jsonl"], 0xefb8_84eb_25dd_2524),
    (&["show", "w.jsonl"], 0xf1a6_a665_3b94_229a),
    (&["diff", "t.jsonl", "t.jsonl"], 0x4d3e_025e_9b08_3c44),
    (&["diff", "w.jsonl", "w.jsonl"], 0x9709_892d_e0e9_10d2),
    (&["diff", "ta.jsonl", "tb.jsonl"], 0x14c2_9073_6ea2_002b),
    (&["diff", "tb.jsonl", "ta.jsonl"], 0x4951_236a_0537_4bed),
    (&["diff", "wa.jsonl", "wb.jsonl"], 0x043d_bf6c_af26_c82f),
    (&["diff", "wb.jsonl", "wa.jsonl"], 0x14fd_e094_2226_bfbd),
];

#[test]
fn silo_obs_output_is_unchanged() {
    let dir = files();
    let mut bad = Vec::new();
    for (args, want) in CASES {
        let out = Command::new(env!("CARGO_BIN_EXE_silo-obs"))
            .current_dir(&dir)
            .args(args)
            .output()
            .expect("run the binary");
        let mut h = FxHasher::default();
        h.write(&out.stdout);
        h.write_i32(out.status.code().expect("exited"));
        let got = h.finish();
        if got != want {
            bad.push(format!("{args:?}: got {got:#018x}, want {want:#018x}"));
        }
    }
    assert!(bad.is_empty(), "silo-obs output moved:\n{}", bad.join("\n"));
}
