//! `silo-top` — inspect and compare windowed telemetry recordings.
//!
//! ```text
//! silo-top show <telemetry.jsonl>             per-tenant margin/goodput tables
//! silo-top diff <a.jsonl> <b.jsonl>           first divergent sample; exit 1 if any
//! silo-top check-openmetrics <metrics.txt>    grammar lint of the exposition
//! ```
//!
//! `diff` is the windowed analogue of `silo-trace diff`: the telemetry
//! JSONL is deterministic (the self-profile never enters it), so two
//! same-seed runs must produce byte-identical files and the first
//! divergent sample names the window and series where they split.

use silo_bench::telemetryfile::{
    openmetrics_lint, parse_telemetry, render_top, telemetry_divergence, TelemetryFile,
};

fn usage() -> ! {
    eprintln!(
        "usage: silo-top <show|diff|check-openmetrics> <file> [file2]\n\
         \n\
         show <telemetry.jsonl>            per-tenant margin/goodput tables\n\
         diff <a.jsonl> <b.jsonl>          report the first divergent sample (exit 1)\n\
         check-openmetrics <metrics.txt>   lint an OpenMetrics exposition"
    );
    std::process::exit(2);
}

/// The file arguments after the subcommand, which must number exactly `n`;
/// a flag or an extra argument is a usage error rather than ignored.
fn files(rest: &[String], n: usize) -> &[String] {
    if rest.len() != n || rest.iter().any(|a| a.starts_with('-')) {
        usage();
    }
    rest
}

fn load(path: &str) -> TelemetryFile {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("silo-top: cannot read {path}: {e}");
        std::process::exit(2);
    });
    parse_telemetry(&text).unwrap_or_else(|e| {
        eprintln!("silo-top: {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    match cmd.as_str() {
        "show" => {
            let path = &files(&argv[1..], 1)[0];
            print!("{}", render_top(&load(path)));
        }
        "diff" => {
            let paths = files(&argv[1..], 2);
            let a = load(&paths[0]);
            let b = load(&paths[1]);
            match telemetry_divergence(&a, &b) {
                Err(e) => {
                    eprintln!("silo-top: {e}");
                    std::process::exit(2);
                }
                Ok(None) => {
                    println!(
                        "identical: {} samples over {} windows",
                        a.rows.len(),
                        a.windows
                    );
                }
                Ok(Some(d)) => {
                    print!("{}", d.report());
                    std::process::exit(1);
                }
            }
        }
        "check-openmetrics" => {
            let path = &files(&argv[1..], 1)[0];
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("silo-top: cannot read {path}: {e}");
                std::process::exit(2);
            });
            match openmetrics_lint(&text) {
                Ok(samples) => println!("{path}: valid OpenMetrics exposition, {samples} samples"),
                Err(e) => {
                    eprintln!("{path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => usage(),
    }
}
