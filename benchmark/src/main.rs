//! The repo's benchmark: one command runs one named workload in one
//! single-threaded process, prints every metric by name and unit, checks
//! the outputs, and exits non-zero on a correctness failure.
//!
//! ```text
//! silo-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                [--quick] [--bless [--force]]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics of an
//! untraced run, the per-layer metrics of a traced one. Everything else
//! goes to standard error and to `benchmark/results/`. README.md explains
//! the workloads, the estimator and the metrics.

mod admission;
mod alloc;
mod golden;
mod host;
mod kernels;
mod metrics;
mod pkt;
mod span;
mod stats;

use metrics::Values;
use span::Recorder;
use std::path::{Path, PathBuf};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PktSilo,
    PktTcp,
    PktSiloObserved,
    AdmissionChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PktSilo,
        Workload::PktTcp,
        Workload::PktSiloObserved,
        Workload::AdmissionChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PktSilo => "pkt_silo",
            Workload::PktTcp => "pkt_tcp",
            Workload::PktSiloObserved => "pkt_silo_observed",
            Workload::AdmissionChurn => "admission_churn",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    pub workload: Workload,
    /// The only workload input.
    pub seed: u64,
    /// Host seconds of timed repetitions an untraced run collects before
    /// it stops (never fewer than [`Budget::MIN_REPS`] repetitions).
    pub seconds: f64,
    /// The traced run: spans, allocation counts and layer kernels. Its
    /// times are never end-to-end numbers.
    pub trace: bool,
    /// Smoke size: one repetition, 3 ms cells, 2 000 lifetimes.
    pub quick: bool,
    pub bless: bool,
    pub force: bool,
}

const USAGE: &str =
    "usage: silo-benchmark --workload <pkt_silo|pkt_tcp|pkt_silo_observed|admission_churn> \
[--seed N] [--seconds S] [--trace 0|1] [--quick] [--bless [--force]]";

impl Opts {
    pub fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            workload: Workload::PktSilo,
            seed: 1,
            seconds: 20.0,
            trace: false,
            quick: false,
            bless: false,
            force: false,
        };
        let mut workload = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or(format!("{flag} needs a value"))
                    .map(String::as_str)
            };
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == v)
                            .ok_or(format!("unknown workload `{v}`"))?,
                    );
                }
                "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    o.trace = match value()? {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                    }
                }
                "--quick" => o.quick = true,
                "--bless" => o.bless = true,
                "--force" => o.force = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        o.workload = workload.ok_or("--workload is required")?;
        Ok(o)
    }
}

/// When the repetition loop stops. An untraced run collects `--seconds`
/// of timed region, so a slow host phase costs repetitions, not the run's
/// deadline; the traced run and the smoke run a fixed count.
pub struct Budget {
    seconds: f64,
    fixed: Option<usize>,
}

impl Budget {
    /// The median of fewer repetitions than this is not worth reporting.
    pub const MIN_REPS: usize = 5;
    const TRACED_ROUNDS: usize = 3;

    pub fn new(opts: &Opts) -> Budget {
        Budget {
            seconds: opts.seconds,
            fixed: if opts.quick {
                Some(1)
            } else if opts.trace {
                Some(Budget::TRACED_ROUNDS)
            } else {
                None
            },
        }
    }

    pub fn done(&self, reps: usize, timed_s: f64) -> bool {
        match self.fixed {
            Some(n) => reps >= n,
            None => reps >= Budget::MIN_REPS && timed_s >= self.seconds,
        }
    }
}

/// Back-to-back set-ups whose median is `setup_s`, after one discarded.
/// A set-up takes 0.6–50 ms; sampled a handful of times it is noise.
pub fn setups(opts: &Opts) -> usize {
    if opts.quick {
        2
    } else {
        20
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub values: Values,
    /// Repetitions run, warm-up included, and how many failed a check.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub fingerprint: Option<golden::Fingerprint>,
    /// Raw host seconds of every repetition, by variant.
    pub rep_times: Vec<(String, Vec<f64>)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.set(name, value);
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Run one workload and apply the golden check. Everything that can be
/// wrong with the environment is an `Err`; everything that can be wrong
/// with the program's output is a failure inside the `Outcome`.
pub fn run(opts: &Opts, rec: &mut Recorder) -> Result<Outcome, String> {
    if cfg!(unoptimized) && !opts.quick {
        return Err(
            "this build is not optimized: measure with `cargo run --release` (only --quick runs unoptimized)"
                .into(),
        );
    }
    let mut out = match pkt::cell(opts.workload, opts.quick) {
        Some(cell) => pkt::run(&cell, opts, rec)?,
        None => admission::run(opts, rec)?,
    };
    // The smoke run is a different (smaller) workload: no golden.
    if !opts.quick {
        let fp = out
            .fingerprint
            .as_ref()
            .expect("every workload fingerprints");
        let name = opts.workload.name();
        if opts.bless {
            golden::bless(&golden::dir(), name, opts.seed, fp, opts.force)?;
        } else if let Err(why) = golden::check(&golden::dir(), name, opts.seed, fp) {
            out.fail(why);
        }
    }
    out.set("peak_rss_mb", host::peak_rss_mb()?);
    Ok(out)
}

fn result_line(opts: &Opts, out: &Outcome) -> Result<String, String> {
    let metrics = if opts.trace {
        out.values.per_layer_json()
    } else {
        out.values.end_to_end_json()?
    };
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.failed == 0,
        out.attempted,
        out.failed
    ))
}

/// The result file: the printed line plus what it was measured on, every
/// value known to this run, and the raw repetition times.
fn result_file(opts: &Opts, host: &host::Host, out: &Outcome, line: &str) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {},\n",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace,
        opts.quick
    ));
    s.push_str(&format!("  \"host\": {},\n", host.to_json()));
    s.push_str(&format!("  \"result\": {line},\n"));
    let failures: Vec<String> = out
        .failures
        .iter()
        .map(|f| format!("\"{}\"", f.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    s.push_str(&format!("  \"failures\": [{}],\n", failures.join(", ")));
    let values: Vec<String> = out
        .values
        .all()
        .map(|(n, v, u)| format!("    \"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    s.push_str(&format!(
        "  \"values\": {{\n{}\n  }},\n",
        values.join(",\n")
    ));
    let reps: Vec<String> = out
        .rep_times
        .iter()
        .map(|(name, ts)| {
            let r = stats::Reps::of(ts);
            let raw: Vec<String> = ts.iter().map(f64::to_string).collect();
            format!(
                "    \"{name}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"n\": {}, \"raw_s\": [{}]}}",
                r.median,
                r.q1,
                r.q3,
                r.min,
                r.n,
                raw.join(", ")
            )
        })
        .collect();
    s.push_str(&format!(
        "  \"repetitions\": {{\n{}\n  }}\n}}\n",
        reps.join(",\n")
    ));
    s
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = Opts::parse(&args).map_err(|e| format!("{e}\n{USAGE}"))?;
    // Fail before measuring, not after, if the host cannot be described.
    let host = host::Host::probe()?;
    host::peak_rss_mb()?;

    let mut rec = Recorder::new(opts.trace);
    rec.enter(opts.workload.name());
    let out = run(&opts, &mut rec)?;
    rec.exit();

    eprintln!(
        "{} seed {} on {} x {} (kernel {})",
        opts.workload.name(),
        opts.seed,
        host.nproc,
        host.cpu_model,
        host.kernel
    );
    for (name, ts) in &out.rep_times {
        let r = stats::Reps::of(ts);
        eprintln!(
            "  {name:<10} median {:.4} s  q1 {:.4}  q3 {:.4}  min {:.4}  n {}",
            r.median, r.q1, r.q3, r.min, r.n
        );
    }
    for (name, value, unit) in out.values.all() {
        eprintln!("  {name:<34} {value:>18.6} {unit}");
    }
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }

    let line = result_line(&opts, &out)?;
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let stem = format!(
        "{}.seed{}{}{}",
        opts.workload.name(),
        opts.seed,
        if opts.trace { ".trace" } else { "" },
        if opts.quick { ".quick" } else { "" }
    );
    write(
        &dir.join(format!("{stem}.json")),
        &result_file(&opts, &host, &out, &line),
    )?;
    if opts.trace {
        write(&dir.join(format!("{stem}.spans.json")), &rec.to_json())?;
    }
    println!("{line}");
    Ok(out.failed == 0)
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("silo-benchmark: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let o = Opts::parse(&args("--workload pkt_tcp --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Workload::PktTcp, 7, 20.0, true)
        );
        let o = Opts::parse(&args("--workload admission_churn")).unwrap();
        assert_eq!(
            (o.seed, o.trace, o.quick, o.bless),
            (1, false, false, false)
        );
    }

    #[test]
    fn bad_arguments_are_errors_not_panics() {
        for bad in [
            "",
            "--workload nope",
            "--workload pkt_silo --seed x",
            "--workload pkt_silo --trace 2",
            "--workload pkt_silo --seconds 0",
            "--workload pkt_silo --seconds",
            "--workload pkt_silo --shout",
        ] {
            assert!(
                Opts::parse(&args(bad)).is_err(),
                "`{bad}` should be refused"
            );
        }
    }

    #[test]
    fn budget_never_stops_under_five_repetitions() {
        let mut o = Opts::parse(&args("--workload pkt_silo --seconds 10")).unwrap();
        let b = Budget::new(&o);
        assert!(!b.done(4, 99.0));
        assert!(!b.done(5, 9.9));
        assert!(b.done(5, 10.0));
        o.trace = true;
        assert!(Budget::new(&o).done(3, 0.0));
        o.quick = true;
        assert!(Budget::new(&o).done(1, 0.0));
    }

    /// The --quick smoke: every workload, untraced and traced, end to
    /// end at smoke size — outputs checked, every declared metric
    /// printed, spans recorded. Returns the traced run's outcome.
    fn smoke(w: Workload) -> Outcome {
        let mut traced = None;
        for trace in [false, true] {
            let opts = Opts {
                workload: w,
                seed: 3,
                seconds: 1.0,
                trace,
                quick: true,
                bless: false,
                force: false,
            };
            let mut rec = Recorder::new(trace);
            rec.enter(w.name());
            let out = run(&opts, &mut rec).unwrap();
            rec.exit();
            assert_eq!(out.failures, Vec::<String>::new());
            assert!(out.attempted >= 2);
            let line = result_line(&opts, &out).unwrap();
            let doc = silo_base::Json::parse(&line).unwrap();
            assert_eq!(
                doc.get("correct").and_then(silo_base::Json::as_bool),
                Some(true)
            );
            let printed = doc.get("metrics").unwrap();
            if trace {
                for p in metrics::PER_LAYER {
                    assert!(printed.get(p.name).is_some(), "{} not printed", p.name);
                }
                let share = out.values.get("est_share.unattributed").unwrap();
                assert!(share < 1.0, "no layer was attributed anything");
                assert!(out.values.get("bench.trace_overhead_ratio").unwrap() > 0.0);
                assert!(rec.spans().len() > 5);
                assert!(silo_base::Json::parse(&rec.to_json()).is_ok());
            } else {
                for e in metrics::END_TO_END {
                    let v = printed.get(e.name).and_then(|m| m.get("value"));
                    let v = v.and_then(silo_base::Json::as_f64).expect(e.name);
                    assert!(v > 0.0, "{} is {v}", e.name);
                }
                assert!(rec.spans().is_empty());
            }
            traced = Some(out);
        }
        traced.expect("the traced run is the last")
    }

    #[test]
    fn smoke_pkt_silo() {
        smoke(Workload::PktSilo);
    }

    #[test]
    fn smoke_pkt_tcp() {
        // The TCP cell bypasses the pacer: every pacer count reads zero.
        let out = smoke(Workload::PktTcp);
        for name in [
            "pacer.wire_data_bytes",
            "pacer.wire_void_bytes",
            "pacer.token_violations",
            "simnet.fired.nic_pull",
            "simnet.fired.hose_epoch",
            "simnet.fired.pace_resume",
        ] {
            assert_eq!(out.values.get(name), Some(0.0), "{name}");
        }
        assert_eq!(out.values.get("est_share.pacer"), None);
    }

    #[test]
    fn smoke_pkt_silo_observed() {
        smoke(Workload::PktSiloObserved);
    }

    #[test]
    fn smoke_admission_churn() {
        smoke(Workload::AdmissionChurn);
    }
}
