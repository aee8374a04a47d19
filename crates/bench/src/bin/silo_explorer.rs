//! `silo-explorer` — coverage-guided fault-schedule search.
//!
//! ```text
//! silo-explorer search [--budget N] [--seed S] [--duration-ms D]
//!                      [--corpus-out DIR] [--fail-on-counterexample]
//! silo-explorer replay <plan.json> [--seed S] [--duration-ms D] [--strict]
//!                      [--canonical-out FILE] [--trace-out FILE]
//! silo-explorer minimize <plan.json> [--seed S] [--duration-ms D] [--out FILE]
//! ```
//!
//! `search` runs the frontier loop on the fault-suite cell and prints a
//! deterministic report; with `--corpus-out` every frontier schedule is
//! written as replayable `silo-faultplan-v1` JSON (`frontier_NNN.json`)
//! next to the report. `replay` re-simulates one recorded schedule with
//! the audit layer on and shows how its violations were attributed;
//! `--strict` exits 1 if the schedule breaks an attribution guarantee
//! (the check CI runs over the committed corpus). `minimize` shrinks a
//! failing schedule to a locally-minimal counterexample.
//!
//! Seed and budget default from `SILO_PROP_SEED` / `SILO_PROP_CASES`, the
//! same knobs as the property harness, so one environment replays both.

use silo_base::Dur;
use silo_explorer::{cell_bounds, cell_topo, explore, failure, minimize, replay, ExploreConfig};
use silo_simnet::FaultPlan;

fn usage() -> ! {
    eprintln!(
        "usage: silo-explorer <search|replay|minimize> [options]\n\
         \n\
         search [--budget N] [--seed S] [--duration-ms D]\n\
                [--corpus-out DIR] [--fail-on-counterexample]\n\
         replay <plan.json> [--seed S] [--duration-ms D] [--strict]\n\
                [--canonical-out FILE] [--trace-out FILE]\n\
         minimize <plan.json> [--seed S] [--duration-ms D] [--out FILE]"
    );
    std::process::exit(2);
}

/// The schedule in `path`, if it parses and fits the explorer's cell; a
/// file that does neither is a bad input (exit status 2), not a panic
/// inside `Sim::new`.
fn load_plan(path: &str, dur: Dur) -> FaultPlan {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("silo-explorer: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let plan = FaultPlan::from_json(&text).unwrap_or_else(|e| {
        eprintln!("silo-explorer: {path}: {e}");
        std::process::exit(2);
    });
    if let Err(e) = plan.validate(&cell_bounds(&cell_topo(), dur)) {
        eprintln!("error: {path}: {e}");
        std::process::exit(2);
    }
    plan
}

/// Parse `--key value` / bare-flag options shared by all subcommands,
/// mutating an [`ExploreConfig`] that starts from the environment.
struct Opts {
    cfg: ExploreConfig,
    corpus_out: Option<String>,
    fail_on_cx: bool,
    strict: bool,
    canonical_out: Option<String>,
    trace_out: Option<String>,
    out: Option<String>,
}

fn parse_opts(argv: &[String]) -> Opts {
    let mut o = Opts {
        cfg: ExploreConfig::from_env(),
        corpus_out: None,
        fail_on_cx: false,
        strict: false,
        canonical_out: None,
        trace_out: None,
        out: None,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--fail-on-counterexample" => {
                o.fail_on_cx = true;
                i += 1;
                continue;
            }
            "--strict" => {
                o.strict = true;
                i += 1;
                continue;
            }
            _ => {}
        }
        let Some(val) = argv.get(i + 1) else { usage() };
        match argv[i].as_str() {
            "--budget" => o.cfg.budget = val.parse().expect("--budget takes an integer"),
            "--seed" => o.cfg.seed = val.parse().expect("--seed takes an integer"),
            "--duration-ms" => {
                o.cfg.dur = Dur::from_ms(val.parse().expect("--duration-ms takes an integer"))
            }
            "--corpus-out" => o.corpus_out = Some(val.clone()),
            "--canonical-out" => o.canonical_out = Some(val.clone()),
            "--trace-out" => o.trace_out = Some(val.clone()),
            "--out" => o.out = Some(val.clone()),
            _ => usage(),
        }
        i += 2;
    }
    o
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    match cmd.as_str() {
        "search" => {
            let o = parse_opts(&argv[1..]);
            let report = explore(&o.cfg);
            print!("{}", report.render());
            if let Some(dir) = &o.corpus_out {
                std::fs::create_dir_all(dir).expect("create corpus dir");
                for (i, (plan, _)) in report.frontier.iter().enumerate() {
                    let path = format!("{dir}/frontier_{i:03}.json");
                    std::fs::write(&path, plan.to_json()).expect("write corpus entry");
                }
                for (i, cx) in report.counterexamples.iter().enumerate() {
                    let path = format!("{dir}/counterexample_{i:03}.json");
                    std::fs::write(&path, cx.plan.to_json()).expect("write counterexample");
                }
                std::fs::write(format!("{dir}/report.txt"), report.render()).expect("write report");
                println!(
                    "corpus: {} frontier + {} counterexample schedule(s) -> {dir}/",
                    report.frontier.len(),
                    report.counterexamples.len()
                );
            }
            if o.fail_on_cx && !report.counterexamples.is_empty() {
                eprintln!(
                    "silo-explorer: {} counterexample(s) found",
                    report.counterexamples.len()
                );
                std::process::exit(1);
            }
        }
        "replay" => {
            let path = argv.get(1).unwrap_or_else(|| usage());
            let o = parse_opts(&argv[2..]);
            let plan = load_plan(path, o.cfg.dur);
            let m = replay(&plan, o.cfg.dur, o.cfg.seed);
            let audit = m.audit.as_ref().expect("replay audits");
            println!(
                "{path}: {} fault event(s), {} ms horizon, seed {}",
                plan.events.len(),
                o.cfg.dur.0 / 1_000_000_000,
                o.cfg.seed
            );
            println!("{}", audit.summary());
            let attributed = m.violations.iter().filter(|v| v.fault.is_some()).count();
            println!(
                "guarantee violations: {} ({} attributed to fault windows), token violations: {}",
                m.violations.len(),
                attributed,
                m.token_violations
            );
            for w in &m.fault_windows {
                println!(
                    "  window [{}]: {} from {} ps to {} ps",
                    w.fault, w.label, w.start.0, w.end.0
                );
            }
            if let Some(p) = &o.canonical_out {
                std::fs::write(p, m.canonical_json()).expect("write canonical json");
                println!("canonical metrics -> {p}");
            }
            if let Some(p) = &o.trace_out {
                std::fs::write(p, m.trace.as_ref().unwrap().to_jsonl()).expect("write trace jsonl");
                println!("trace -> {p}");
            }
            match failure(&m) {
                None => println!("attribution clean: every violation is explained."),
                Some(why) => {
                    println!("ATTRIBUTION FAILURE: {why}");
                    if o.strict {
                        std::process::exit(1);
                    }
                }
            }
        }
        "minimize" => {
            let path = argv.get(1).unwrap_or_else(|| usage());
            let o = parse_opts(&argv[2..]);
            let plan = load_plan(path, o.cfg.dur);
            let m = replay(&plan, o.cfg.dur, o.cfg.seed);
            let Some(why) = failure(&m) else {
                println!("{path}: schedule replays clean; nothing to minimize");
                std::process::exit(1);
            };
            let topo = silo_explorer::cell_topo();
            let (shrunk, runs) = minimize(&topo, &plan, why, &o.cfg);
            println!(
                "minimized {} -> {} event(s) in {} accepted step(s) ({} sim runs)",
                plan.events.len(),
                shrunk.input.events.len(),
                shrunk.steps,
                runs
            );
            println!("still fails with: {}", shrunk.why);
            let json = shrunk.input.to_json();
            match &o.out {
                Some(p) => {
                    std::fs::write(p, &json).expect("write minimized plan");
                    println!("minimized plan -> {p}");
                }
                None => print!("{json}"),
            }
        }
        _ => usage(),
    }
}
