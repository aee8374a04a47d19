//! Event-profile smoke: one Silo cell of the §6.2 population on the
//! default engine with the invariant audit and the telemetry recorder
//! attached. Prints the per-event-kind scheduled/fired/stale/cancelled
//! table, the engine self-profile, per-tenant streaming latency
//! histograms and the audit summary, and exits nonzero if no timer was
//! ever cancelled, if any timer fired stale, or if the audit flags the
//! healthy run — the CI check that all three stay live. Wall-clock
//! measurement lives in the repo's `benchmark/` package, not here.
//!
//! `--sample <out>` instead runs the same cell `--runs` times under the
//! SIGPROF sampler ([`sampler`]) and writes the raw profile to `<out>`:
//! where the engine's time goes, function by function, on a host with no
//! `perf`. The sampled runs carry no observer unless the command line
//! asks for one: `--audit`, `--trace <path>` and `--telemetry <path>`
//! attach theirs (the recorder with the repo benchmark's 4 096-event
//! rings), so the observed cell is profiled with the same binary.
//! EXPERIMENTS.md has the build flags and the `addr2line` recipe.

use silo_base::LogHistogram;
use silo_bench::ns2::{run_ns2_cell_with, Ns2Cell};
use silo_bench::Args;
use silo_simnet::metrics::LATENCY_HIST_SUB_BITS;
use silo_simnet::{AuditConfig, TelemetryConfig, TraceConfig, TransportMode};

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler;

/// Run the cell `--runs` times under the sampler (the kernel delivers
/// SIGPROF on its own tick, 4 ms at HZ=250, so one 15 ms cell yields a
/// few hundred samples), with the observers the command line names, and
/// write the dump to `out`. The last run's trace and telemetry go to
/// their paths once the sampler has stopped.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn run_sampled(cell: &Ns2Cell, args: &Args, out: &str) -> Result<(), String> {
    // Events per host ring: what the repo benchmark's `pkt_silo_observed`
    // cell records with (a ring that fills and evicts within the cell,
    // the recorder's steady state).
    const TRACE_RING: usize = 4096;
    if args.runs == 0 {
        return Err("--runs 0 leaves nothing to sample".into());
    }
    sampler::start()?;
    let mut last = None;
    for _ in 0..args.runs {
        let (_, m) = run_ns2_cell_with(cell, args, |cfg| {
            cfg.audit = args.audit.then(AuditConfig::default);
            cfg.trace = args.trace.is_some().then(|| TraceConfig {
                per_host_cap: TRACE_RING,
                ..TraceConfig::default()
            });
            cfg.telemetry = args.telemetry.is_some().then(TelemetryConfig::default);
        });
        last = Some(m);
    }
    let samples = sampler::stop_and_write(std::path::Path::new(out))?;
    let m = last.expect("at least one run");
    println!(
        "Silo/seed{} ({} ms sim) x {}: {} events each, {samples} samples -> {out}",
        args.seed, args.duration_ms, args.runs, m.events_processed
    );
    if let Some(report) = &m.audit {
        println!("{}", report.summary());
    }
    silo_bench::write_observer_outputs(args, &m)
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn run_sampled(_: &Ns2Cell, _: &Args, _: &str) -> Result<(), String> {
    Err("--sample needs Linux on x86-64 (SIGPROF and a frame-pointer walk)".into())
}

fn main() {
    // `--sample <out>` is this binary's own flag; the rest is `Args`.
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let sample = argv.iter().position(|a| a == "--sample").map(|i| {
        if i + 1 >= argv.len() {
            eprintln!("error: missing value for --sample");
            std::process::exit(2);
        }
        argv.remove(i);
        argv.remove(i)
    });
    let args = Args::try_parse(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let cell = Ns2Cell {
        mode: TransportMode::Silo,
        run: 0,
        seed: args.seed,
    };
    if let Some(out) = sample {
        if let Err(e) = run_sampled(&cell, &args, &out) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        return;
    }
    let (_, m) = run_ns2_cell_with(&cell, &args, |cfg| {
        cfg.audit = Some(AuditConfig::default());
        cfg.telemetry = Some(TelemetryConfig::default());
    });
    println!(
        "Silo/seed{} ({} ms sim): {} events, peak queue {}",
        args.seed, args.duration_ms, m.events_processed, m.peak_event_queue
    );
    print!("{}", m.profile.to_table());
    print!(
        "\n{}",
        m.telemetry
            .as_ref()
            .expect("profile runs telemetry")
            .self_profile
            .to_table()
    );
    // Per-tenant latency histograms built from the message records:
    // exact min/max with ≤3.2% quantile error (sub_bits = 5). The
    // noisiest tenants by p99 head the list.
    let mut hists: Vec<LogHistogram> = (0..m.goodput.len())
        .map(|_| LogHistogram::new(LATENCY_HIST_SUB_BITS))
        .collect();
    for r in &m.messages {
        hists[r.tenant as usize].record(r.latency.0);
    }
    println!(
        "\n{} messages over {} tenants (streaming histograms):",
        m.messages_total,
        hists.len()
    );
    let mut order: Vec<usize> = (0..hists.len()).filter(|&t| !hists[t].is_empty()).collect();
    order.sort_by_key(|&t| std::cmp::Reverse(hists[t].quantile(0.99)));
    for &t in order.iter().take(8) {
        let h = &hists[t];
        let q = |p: f64| h.quantile(p).unwrap_or(0) as f64 / 1e6;
        println!(
            "  tenant {t:<3} {:>7} msgs  p50 {:>9.1} us  p90 {:>9.1} us  p99 {:>9.1} us  p99.9 {:>9.1} us  max {:>9.1} us",
            h.count(),
            q(0.50),
            q(0.90),
            q(0.99),
            q(0.999),
            h.max().unwrap_or(0) as f64 / 1e6,
        );
    }
    if order.len() > 8 {
        println!("  ... {} more tenants", order.len() - 8);
    }
    let report = m.audit.as_ref().expect("profile runs audit");
    println!("{}", report.summary());
    if !report.is_clean() {
        eprintln!("FAIL: invariant audit found violations on a healthy run");
        std::process::exit(1);
    }
    let cancelled = m.profile.total_cancelled();
    let stale = m.profile.total_stale();
    if cancelled == 0 {
        eprintln!("FAIL: no timers were cancelled — the cancellation layer is dead");
        std::process::exit(1);
    }
    if stale > 0 {
        eprintln!("FAIL: {stale} timers fired after being superseded or disarmed");
        std::process::exit(1);
    }
    println!("profile smoke OK: {cancelled} cancelled, 0 stale");
}
