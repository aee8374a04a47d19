//! Minimal CLI parsing (no external crates).

use silo_base::{Dur, Time};
use silo_simnet::{PlanBounds, Sim, SimConfig, TenantSpec};
use silo_topology::Topology;

/// Common experiment knobs.
#[derive(Debug, Clone)]
pub struct Args {
    pub scale: f64,
    pub seed: u64,
    pub duration_ms: u64,
    pub runs: usize,
    pub occupancy: f64,
    /// Worker threads for sweep cells; 0 = one per available core.
    pub threads: usize,
    /// Run with the invariant-audit layer enabled (`SimConfig::audit`)
    /// and fail on unattributed violations. Physics are unchanged; only
    /// wall-clock and the audit report differ.
    pub audit: bool,
    /// Record a flight-recorder trace (`SimConfig::trace`) and write the
    /// compact JSONL event stream to this path. Physics are unchanged
    /// (the simnet trace suite asserts byte-identity); only wall-clock
    /// and the exported file differ.
    pub trace: Option<String>,
    /// Also write the Chrome/Perfetto `trace_event` JSON to this path
    /// (open at <https://ui.perfetto.dev>). Implies trace recording.
    pub trace_perfetto: Option<String>,
    /// Record windowed telemetry (`SimConfig::telemetry`, 1 ms windows)
    /// and write the deterministic `silo-telemetry-v1` JSONL to this
    /// path. Physics are unchanged (the simnet telemetry suite asserts
    /// byte-identity); only wall-clock and the exported file differ.
    pub telemetry: Option<String>,
    /// Also write the OpenMetrics text exposition of the telemetry
    /// series to this path. Implies telemetry recording.
    pub telemetry_openmetrics: Option<String>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            scale: 0.25,
            seed: 1,
            duration_ms: 100,
            runs: 3,
            occupancy: 0.9,
            threads: 0,
            audit: false,
            trace: None,
            trace_perfetto: None,
            telemetry: None,
            telemetry_openmetrics: None,
        }
    }
}

/// Largest accepted `--scale` (1 = the paper's sizes).
const MAX_SCALE: f64 = 8.0;

/// Every flag [`Args::try_parse`] accepts, for error messages.
const KNOWN_FLAGS: &str = "--scale --seed --duration-ms --runs --occupancy --threads --audit \
     --trace --trace-perfetto --telemetry --telemetry-openmetrics";

fn number<T: std::str::FromStr>(key: &str, val: &str) -> Result<T, String> {
    val.parse()
        .map_err(|_| format!("{key}: cannot parse {val:?} as a number; known: {KNOWN_FLAGS}"))
}

/// A number in `(0, max]`. Topology sizes are `scale × paper size` and
/// tenant counts `occupancy × slots`, so anything else (NaN and the
/// infinities included) is a panic or an absurd allocation downstream.
fn positive_up_to(key: &str, val: &str, max: f64) -> Result<f64, String> {
    let x: f64 = number(key, val)?;
    if x > 0.0 && x <= max {
        Ok(x)
    } else {
        Err(format!(
            "{key}: {val} is outside (0, {max}]; known: {KNOWN_FLAGS}"
        ))
    }
}

/// Largest accepted `--duration-ms`: the longest horizon whose picosecond
/// count fits in a `u64` (about 213 days). `Dur::from_ms` multiplies
/// unchecked, so a longer one would wrap to a short cell.
const MAX_DURATION_MS: u64 = u64::MAX / Dur::from_ms(1).0;

/// A `--duration-ms` no longer than [`MAX_DURATION_MS`].
fn duration_ms(key: &str, val: &str) -> Result<u64, String> {
    let ms: u64 = number(key, val)?;
    if ms <= MAX_DURATION_MS {
        Ok(ms)
    } else {
        Err(format!(
            "{key}: {val} ms overflows the picosecond clock (at most \
             {MAX_DURATION_MS}); known: {KNOWN_FLAGS}"
        ))
    }
}

/// `Sim::new(topo, cfg, tenants)` if [`SimConfig::validate`] accepts the
/// configuration and [`FaultPlan::validate`](silo_simnet::FaultPlan::validate)
/// its fault plan on this cell; otherwise report the defect the way
/// [`Args::parse`] reports a bad command line (`error: …` naming the field
/// or the fault event, exit status 2) instead of letting `Sim::new` panic.
pub fn checked(topo: Topology, cfg: SimConfig, tenants: Vec<TenantSpec>) -> Sim {
    let plan = cfg.faults.validate(&PlanBounds::of(
        &topo,
        tenants.len(),
        Time::ZERO + cfg.duration,
    ));
    if let Err(e) = cfg.validate().and(plan) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    Sim::new(topo, cfg, tenants)
}

impl Args {
    /// Parse `std::env::args`; on a bad command line print the error and
    /// exit with status 2.
    pub fn parse() -> Args {
        Args::parse_with(Args::try_parse)
    }

    /// [`Args::parse`] for a binary that attaches no observer: an observer
    /// flag is a bad command line too, rather than a flag silently
    /// ignored.
    pub fn parse_unobserved() -> Args {
        Args::parse_with(Args::try_parse_unobserved)
    }

    fn parse_with(parse: fn(&[String]) -> Result<Args, String>) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        parse(&argv).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// [`Args::try_parse`], then an `Err` naming the first observer flag
    /// (`--audit`, `--trace`, `--trace-perfetto`, `--telemetry`,
    /// `--telemetry-openmetrics`) the command line set.
    pub fn try_parse_unobserved(argv: &[String]) -> Result<Args, String> {
        let a = Args::try_parse(argv)?;
        let set = [
            ("--audit", a.audit),
            ("--trace", a.trace.is_some()),
            ("--trace-perfetto", a.trace_perfetto.is_some()),
            ("--telemetry", a.telemetry.is_some()),
            ("--telemetry-openmetrics", a.telemetry_openmetrics.is_some()),
        ];
        match set.iter().find(|(_, on)| *on) {
            Some((flag, _)) => Err(format!("{flag}: this binary attaches no observer")),
            None => Ok(a),
        }
    }

    /// Parse `--key value` pairs and bare switches. An unknown flag, a
    /// missing value, an unparsable number, a `--scale` outside `(0, 8]`,
    /// an `--occupancy` outside `(0, 1]` or a `--duration-ms` whose
    /// horizon overflows the picosecond clock is an `Err` that names the
    /// flag and lists the known ones.
    pub fn try_parse(argv: &[String]) -> Result<Args, String> {
        let mut a = Args::default();
        let mut it = argv.iter();
        while let Some(key) = it.next() {
            let key = key.as_str();
            let mut val = || {
                it.next()
                    .ok_or_else(|| format!("missing value for {key}; known: {KNOWN_FLAGS}"))
            };
            match key {
                "--audit" => a.audit = true,
                "--scale" => a.scale = positive_up_to(key, val()?, MAX_SCALE)?,
                "--seed" => a.seed = number(key, val()?)?,
                "--duration-ms" => a.duration_ms = duration_ms(key, val()?)?,
                "--runs" => a.runs = number(key, val()?)?,
                "--occupancy" => a.occupancy = positive_up_to(key, val()?, 1.0)?,
                "--threads" => a.threads = number(key, val()?)?,
                "--trace" => a.trace = Some(val()?.clone()),
                "--trace-perfetto" => a.trace_perfetto = Some(val()?.clone()),
                "--telemetry" => a.telemetry = Some(val()?.clone()),
                "--telemetry-openmetrics" => a.telemetry_openmetrics = Some(val()?.clone()),
                other => return Err(format!("unknown flag {other}; known: {KNOWN_FLAGS}")),
            }
        }
        Ok(a)
    }

    /// Flight-recorder tracing requested by any flag?
    pub fn trace_requested(&self) -> bool {
        self.trace.is_some() || self.trace_perfetto.is_some()
    }

    /// Windowed telemetry requested by any flag?
    pub fn telemetry_requested(&self) -> bool {
        self.telemetry.is_some() || self.telemetry_openmetrics.is_some()
    }

    /// Threads to use for a sweep of `cells` cells (resolves the `0 =
    /// auto` default).
    pub fn effective_threads(&self, cells: usize) -> usize {
        if self.threads == 0 {
            crate::runner::auto_threads(cells)
        } else {
            self.threads.min(cells.max(1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        Args::try_parse(&argv)
    }

    #[test]
    fn accepts_every_kind_of_flag() {
        let a = parse(&[
            "--scale", "0.1", "--audit", "--runs", "2", "--trace", "t.jsonl",
        ])
        .expect("valid command line");
        assert_eq!(a.scale, 0.1);
        assert!(a.audit);
        assert_eq!(a.runs, 2);
        assert_eq!(a.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(a.seed, Args::default().seed);
    }

    #[test]
    fn an_unobserved_binary_refuses_every_observer_flag() {
        let unobserved = |argv: &[&str]| {
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            Args::try_parse_unobserved(&argv)
        };
        assert!(unobserved(&["--scale", "0.1", "--runs", "2"]).is_ok());
        for argv in [
            &["--audit"][..],
            &["--trace", "t.jsonl"],
            &["--trace-perfetto", "t.json"],
            &["--telemetry", "w.jsonl"],
            &["--telemetry-openmetrics", "w.txt"],
        ] {
            let e = unobserved(argv).expect_err("an observer flag");
            assert!(e.starts_with(&format!("{}: ", argv[0])), "{argv:?}: {e}");
        }
        // A bad command line is still reported as one.
        let e = unobserved(&["--audit", "--bogus"]).expect_err("unknown flag");
        assert!(e.starts_with("unknown flag --bogus"), "{e}");
    }

    #[test]
    fn bad_command_lines_are_errors_that_name_the_flag() {
        for (argv, needle) in [
            (&["--bogus"][..], "unknown flag --bogus"),
            (&["--seed"][..], "missing value for --seed"),
            (&["--runs", "many"][..], "--runs: cannot parse \"many\""),
            (&["--shards", "4"][..], "unknown flag --shards"),
            (&["--no-coalesce"][..], "unknown flag --no-coalesce"),
            (&["--profile"][..], "unknown flag --profile"),
            (&["--scale", "inf"][..], "--scale: inf is outside (0, 8]"),
            (&["--scale", "NaN"][..], "--scale: NaN is outside (0, 8]"),
            (&["--scale", "1e9"][..], "--scale: 1e9 is outside (0, 8]"),
            (&["--scale", "0"][..], "--scale: 0 is outside (0, 8]"),
            (&["--occupancy", "2"][..], "--occupancy: 2 is outside"),
            (&["--occupancy", "NaN"][..], "--occupancy: NaN is outside"),
            (
                &["--duration-ms", "18446744074"][..],
                "--duration-ms: 18446744074 ms overflows",
            ),
            (
                &["--duration-ms", "18446744073709551615"][..],
                "--duration-ms: 18446744073709551615 ms overflows",
            ),
        ] {
            let err = parse(argv).expect_err("must be rejected");
            assert!(err.contains(needle), "{argv:?}: {err}");
            assert!(err.contains(KNOWN_FLAGS), "{argv:?} must list the flags");
        }
    }

    #[test]
    fn the_longest_duration_fits_the_picosecond_clock() {
        let a = parse(&["--duration-ms", "18446744073"]).expect("fits");
        let horizon = Dur::from_ms(a.duration_ms).as_ps();
        assert_eq!(horizon, 18_446_744_073_000_000_000);
        assert!(horizon.checked_add(Dur::from_ms(1).as_ps()).is_none());
    }
}
