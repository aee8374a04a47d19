//! `silo-obs` — inspect, compare and validate observation files: the
//! flight recorder's trace and the windowed telemetry (JSONL files told
//! apart by their header), and their Perfetto and OpenMetrics exports
//! (told apart by their content). `USAGE` below lists the four
//! subcommands.
//!
//! `diff` is the determinism debugger: two runs of the simulator are
//! identical iff their files are, so the first divergent row names the
//! instant and packet (trace) or the window and series (telemetry) where
//! two schedules split; a header field that differs is reported when every
//! row agrees. It exits 0 on identical files, 1 on a divergence and 2 when
//! the files are of two families or telemetry geometries.

use silo_bench::obsfile::{self, ObsFile};
use std::process::exit;

const USAGE: &str = "\
usage: silo-obs <dump|show|diff|check> <file> [file2] [options]

dump <f.jsonl> [--head N]   header totals and the first N rows (default 20)
show <f.jsonl>              trace summary or telemetry tables
diff <a.jsonl> <b.jsonl>    report the first divergent row (exit 1)
check <export>              validate a Perfetto or OpenMetrics export
    [--expect-tenant-tracks] [--expect-fault-markers]   Perfetto only";

fn usage() -> ! {
    eprintln!("{USAGE}");
    exit(2);
}

/// A subcommand's arguments: its files and the flags it was given.
struct Cmd<'a> {
    files: Vec<&'a str>,
    flags: Vec<&'a str>,
    head: usize,
}

/// Split the arguments after the subcommand into exactly `n` files and
/// flags from `known` (`--head` takes a number). Anything else is a usage
/// error: a misspelled flag must not pass as a check that was never run.
fn split<'a>(rest: &'a [String], n: usize, known: &[&str]) -> Cmd<'a> {
    let mut cmd = Cmd {
        files: Vec::new(),
        flags: Vec::new(),
        head: 20,
    };
    let mut it = rest.iter().map(String::as_str);
    while let Some(a) = it.next() {
        if !a.starts_with('-') {
            cmd.files.push(a);
        } else if !known.contains(&a) {
            usage();
        } else if a == "--head" {
            cmd.head = it
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage());
        } else {
            cmd.flags.push(a);
        }
    }
    if cmd.files.len() != n {
        usage();
    }
    cmd
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("silo-obs: cannot read {path}: {e}");
        exit(2);
    })
}

fn load(path: &str) -> ObsFile {
    obsfile::parse(&read(path)).unwrap_or_else(|e| {
        eprintln!("silo-obs: {path}: {e}");
        exit(2);
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        usage()
    };
    match cmd.as_str() {
        "dump" => {
            let c = split(rest, 1, &["--head"]);
            print!(
                "{}: {}",
                c.files[0],
                obsfile::dump(&load(c.files[0]), c.head)
            );
        }
        "show" => print!("{}", obsfile::show(&load(split(rest, 1, &[]).files[0]))),
        "diff" => {
            let c = split(rest, 2, &[]);
            let (a, b) = (load(c.files[0]), load(c.files[1]));
            match obsfile::diff(&a, &b) {
                Ok(None) => println!("identical: {} rows", a.row_count()),
                Ok(Some(d)) => {
                    print!("{}", d.report());
                    exit(1);
                }
                Err(e) => {
                    eprintln!("silo-obs: {e}");
                    exit(2);
                }
            }
        }
        "check" => {
            let known = ["--expect-tenant-tracks", "--expect-fault-markers"];
            let c = split(rest, 1, &known);
            let (path, text) = (c.files[0], read(c.files[0]));
            let verdict = if obsfile::is_perfetto(&text) {
                let [tracks, markers] = known.map(|f| c.flags.contains(&f));
                obsfile::check_perfetto(&text, tracks, markers)
                    .map(|()| "structurally valid Perfetto trace".to_string())
            } else if c.flags.is_empty() {
                obsfile::openmetrics_lint(&text)
                    .map(|n| format!("valid OpenMetrics exposition, {n} samples"))
            } else {
                usage() // the --expect-* flags name Perfetto tracks
            };
            match verdict {
                Ok(v) => println!("{path}: {v}"),
                Err(e) => {
                    eprintln!("{path}: {e}");
                    exit(1);
                }
            }
        }
        _ => usage(),
    }
}
