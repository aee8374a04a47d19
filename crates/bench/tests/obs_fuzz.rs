//! Every input to the observation-file reader and the export validators
//! is an `Ok` or an `Err`, never a panic. Each case draws one mutation and
//! applies it to each of the golden cell's four real exports: truncation
//! at a random byte, a random bit flip, a deleted or duplicated line, or a
//! header integer replaced by a random value up to 2^53 (the largest
//! integer the JSON reader takes). Whatever the reader then accepts must
//! also `dump`, `show` and `diff` against the unmutated file.

mod common;

use silo_base::prop::{forall, Rng, StdRng};
use silo_bench::obsfile::{
    check_perfetto, diff, dump, is_perfetto, openmetrics_lint, parse, show, ObsFile,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One edit. Positions are taken modulo the length of the file it is
/// applied to, so one case fits every export.
#[derive(Debug, Clone)]
enum Mutation {
    Truncate {
        at: usize,
    },
    FlipBit {
        at: usize,
        bit: u8,
    },
    DeleteLine {
        line: usize,
    },
    DuplicateLine {
        line: usize,
    },
    /// Replace the `nth` JSON integer of the header line (of the whole
    /// text when line 1 has none) with `value`.
    HeaderInt {
        nth: usize,
        value: u64,
    },
}

fn mutation(rng: &mut StdRng) -> Mutation {
    let at = rng.random_range(0..usize::MAX);
    match rng.random_range(0..5u8) {
        0 => Mutation::Truncate { at },
        1 => Mutation::FlipBit {
            at,
            bit: rng.random_range(0..8),
        },
        2 => Mutation::DeleteLine { line: at },
        3 => Mutation::DuplicateLine { line: at },
        // Zero, a small count, or anything up to 2^53.
        _ => Mutation::HeaderInt {
            nth: at,
            value: match rng.random_range(0..3u8) {
                0 => 0,
                1 => rng.random_range(0..65),
                _ => rng.random_range(0..(1u64 << 53) + 1),
            },
        },
    }
}

/// Start and end of every integer that is a JSON value (follows a `:`).
fn integers(s: &str) -> Vec<(usize, usize)> {
    let b = s.as_bytes();
    let mut out = Vec::new();
    for (i, _) in s.match_indices(':') {
        let end = (i + 1..b.len())
            .find(|&j| !b[j].is_ascii_digit())
            .unwrap_or(b.len());
        if end > i + 1 {
            out.push((i + 1, end));
        }
    }
    out
}

fn apply(text: &str, m: &Mutation) -> String {
    let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
    let n = lines.len();
    match *m {
        Mutation::Truncate { at } => {
            let cut = &text.as_bytes()[..at % text.len()];
            return String::from_utf8_lossy(cut).into_owned();
        }
        Mutation::FlipBit { at, bit } => {
            let mut bytes = text.as_bytes().to_vec();
            bytes[at % text.len()] ^= 1 << bit;
            return String::from_utf8_lossy(&bytes).into_owned();
        }
        Mutation::DeleteLine { line } => {
            lines.remove(line % n);
        }
        Mutation::DuplicateLine { line } => lines.insert(line % n, lines[line % n]),
        Mutation::HeaderInt { nth, value } => {
            let header = integers(lines[0]);
            let ints = if header.is_empty() {
                integers(text)
            } else {
                header
            };
            let Some(&(a, b)) = ints.get(nth % ints.len().max(1)) else {
                return text.to_string();
            };
            return format!("{}{value}{}", &text[..a], &text[b..]);
        }
    }
    lines.concat()
}

/// Read `text` every way `silo-obs` would; an `Err` is a fine answer.
fn exercise(text: &str, original: &ObsFile) {
    if let Ok(f) = parse(text) {
        dump(&f, usize::MAX);
        show(&f);
        let _ = diff(&f, original);
        let _ = diff(original, &f);
    }
    if is_perfetto(text) {
        let _ = check_perfetto(text, true, true);
    } else {
        let _ = openmetrics_lint(text);
    }
}

#[test]
fn mutated_exports_are_read_or_refused_never_a_panic() {
    let exports = common::exports();
    // A mutated file is diffed against its family's original: the trace
    // for `t.*`, the telemetry for `w.*`.
    let trace = parse(&exports[0].1).expect("the trace parses");
    let telemetry = parse(&exports[2].1).expect("the telemetry parses");
    forall(
        "observation exports survive one mutation",
        mutation,
        |_| Vec::new(),
        |m| {
            for (name, text) in &exports {
                let mutated = apply(text, m);
                let original = if name.starts_with('t') {
                    &trace
                } else {
                    &telemetry
                };
                catch_unwind(AssertUnwindSafe(|| exercise(&mutated, original)))
                    .map_err(|_| format!("{name} panicked"))?;
            }
            Ok(())
        },
    );
}
