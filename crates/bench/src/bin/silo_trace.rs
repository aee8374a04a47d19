//! `silo-trace` — inspect and compare flight-recorder traces.
//!
//! ```text
//! silo-trace dump <trace.jsonl> [--head N]     print events (default 20)
//! silo-trace summarize <trace.jsonl>           per-kind counts + tenant latency
//! silo-trace diff <a.jsonl> <b.jsonl>          first divergent event; exit 1 if any
//! silo-trace check-perfetto <trace.json>       structural validation
//!     [--expect-tenant-tracks] [--expect-fault-markers]
//! ```
//!
//! `diff` is the determinism debugger: two runs of the simulator are
//! identical iff their traces are, so the first divergent event names
//! the exact instant, packet and mechanism where two schedules split.

use silo_bench::tracefile::{check_perfetto, first_divergence, parse_jsonl, summarize, TraceFile};

fn usage() -> ! {
    eprintln!(
        "usage: silo-trace <dump|summarize|diff|check-perfetto> <file> [file2] [options]\n\
         \n\
         dump <trace.jsonl> [--head N]   print the first N events (default 20)\n\
         summarize <trace.jsonl>         per-kind counts and tenant latency quantiles\n\
         diff <a.jsonl> <b.jsonl>        report the first divergent event (exit 1)\n\
         check-perfetto <trace.json>     validate a Perfetto export\n\
             [--expect-tenant-tracks] [--expect-fault-markers]"
    );
    std::process::exit(2);
}

/// The arguments after the subcommand, split into its file arguments,
/// which must number `n`, and its flags, each of which must be in `known`.
/// Anything else is a usage error: a misspelled flag must not pass as a
/// check that was never run.
fn split_args<'a>(rest: &'a [String], n: usize, known: &[&str]) -> (Vec<&'a str>, Vec<&'a str>) {
    let (flags, files): (Vec<&str>, Vec<&str>) = rest
        .iter()
        .map(String::as_str)
        .partition(|a| a.starts_with('-'));
    if files.len() != n || flags.iter().any(|f| !known.contains(f)) {
        usage();
    }
    (files, flags)
}

fn load(path: &str) -> TraceFile {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("silo-trace: cannot read {path}: {e}");
        std::process::exit(2);
    });
    parse_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("silo-trace: {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    match cmd.as_str() {
        "dump" => {
            let path = argv
                .get(1)
                .filter(|p| !p.starts_with('-'))
                .unwrap_or_else(|| usage());
            let mut head = 20usize;
            let mut i = 2;
            while i < argv.len() {
                match argv[i].as_str() {
                    "--head" => {
                        head = argv
                            .get(i + 1)
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage());
                        i += 2;
                    }
                    _ => usage(),
                }
            }
            let f = load(path);
            println!(
                "{path}: {} events, {} dropped, {} tenants",
                f.rows.len(),
                f.dropped,
                f.tenants
            );
            for r in f.rows.iter().take(head) {
                println!(
                    "{:>8}  t={:>15} ps  dur={:>12} ps  {:<12} loc={:<4} conn={:<6} pseq={:<8} {} {}",
                    r.seq,
                    r.t_ps,
                    r.dur_ps,
                    r.kind,
                    r.loc,
                    r.conn,
                    r.pseq,
                    r.pkt,
                    if r.retx { "retx" } else { "" },
                );
            }
            if f.rows.len() > head {
                println!("... {} more (raise --head)", f.rows.len() - head);
            }
        }
        "summarize" => {
            let (files, _) = split_args(&argv[1..], 1, &[]);
            print!("{}", summarize(&load(files[0])));
        }
        "diff" => {
            let (files, _) = split_args(&argv[1..], 2, &[]);
            let a = load(files[0]);
            let b = load(files[1]);
            match first_divergence(&a, &b) {
                None => {
                    println!("identical: {} events", a.rows.len());
                }
                Some(d) => {
                    print!("{}", d.report());
                    std::process::exit(1);
                }
            }
        }
        "check-perfetto" => {
            let (files, flags) = split_args(
                &argv[1..],
                1,
                &["--expect-tenant-tracks", "--expect-fault-markers"],
            );
            let path = files[0];
            let expect_tenants = flags.contains(&"--expect-tenant-tracks");
            let expect_faults = flags.contains(&"--expect-fault-markers");
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("silo-trace: cannot read {path}: {e}");
                std::process::exit(2);
            });
            match check_perfetto(&text, expect_tenants, expect_faults) {
                Ok(()) => println!("{path}: structurally valid Perfetto trace"),
                Err(e) => {
                    eprintln!("{path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => usage(),
    }
}
