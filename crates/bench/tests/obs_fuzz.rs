//! Every input to the observation-file reader and the export validators
//! is an `Ok` or an `Err`, never a panic. Each case draws one mutation and
//! applies it to each of the golden cell's four real exports: truncation
//! at a random byte, a random bit flip, a deleted or duplicated line, or a
//! header integer replaced by a random value up to 2^53 (the largest
//! integer the JSON reader takes). Whatever the reader then accepts must
//! also `dump`, `show` and `diff` against the unmutated file, and
//! re-serialize to the accepted text minus its blank lines: the reader
//! takes only what its writer writes.

mod common;

use common::mutate::{apply, mutation};
use silo_base::prop::forall;
use silo_bench::obsfile::{
    check_perfetto, diff, dump, is_perfetto, openmetrics_lint, parse, show, ObsFile,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Read `text` every way `silo-obs` would; an `Err` is a fine answer.
/// `Err` only when a file the reader accepts re-serializes to other text.
fn exercise(text: &str, original: &ObsFile) -> Result<(), String> {
    if let Ok(f) = parse(text) {
        dump(&f, usize::MAX);
        show(&f);
        let _ = diff(&f, original);
        let _ = diff(original, &f);
        let written = match &f {
            ObsFile::Trace(t) => t.to_jsonl(),
            ObsFile::Telemetry(t) => t.to_jsonl(),
        };
        let unblank: String = text.split_inclusive('\n').filter(|l| *l != "\n").collect();
        if written != unblank {
            return Err("accepted a file its writer does not write".into());
        }
    }
    if is_perfetto(text) {
        let _ = check_perfetto(text, true, true);
    } else {
        let _ = openmetrics_lint(text);
    }
    Ok(())
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
                    .map_err(|_| format!("{name} panicked"))?
                    .map_err(|e| format!("{name}: {e}"))?;
            }
            Ok(())
        },
    );
}
