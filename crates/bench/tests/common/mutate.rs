//! One random edit of a text input, for the suites that demand `Ok` or
//! `Err` and never a panic from a parser: truncation at a random byte, a
//! random bit flip, a deleted or duplicated line, or an integer replaced
//! by a random value up to 2^53 (the largest integer the JSON reader
//! takes), which puts ids, counts and geometry out of range.

use silo_base::prop::{Rng, StdRng};

/// One edit. Positions are taken modulo the length of the text it is
/// applied to, so one case fits every input.
#[derive(Debug, Clone)]
pub enum Mutation {
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
    /// Replace the `nth` integer of the header line (of the whole text
    /// when line 1 has none) with `value`.
    Integer {
        nth: usize,
        value: u64,
    },
}

pub fn mutation(rng: &mut StdRng) -> Mutation {
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
        _ => Mutation::Integer {
            nth: at,
            value: match rng.random_range(0..3u8) {
                0 => 0,
                1 => rng.random_range(0..65),
                _ => rng.random_range(0..(1u64 << 53) + 1),
            },
        },
    }
}

/// Start and end of every integer that is a value: a run of digits after
/// a JSON `:` or a space-separated token.
fn integers(s: &str) -> Vec<(usize, usize)> {
    let b = s.as_bytes();
    let mut out = Vec::new();
    for (i, _) in s.match_indices([':', ' ']) {
        let end = (i + 1..b.len())
            .find(|&j| !b[j].is_ascii_digit())
            .unwrap_or(b.len());
        if end > i + 1 {
            out.push((i + 1, end));
        }
    }
    out
}

pub fn apply(text: &str, m: &Mutation) -> String {
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
        Mutation::Integer { nth, value } => {
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
