//! Simnet engine microbenchmark: event-loop throughput across the queue
//! backends (timer wheel vs reference `BinaryHeap`), the timer-cancellation
//! engine win over the tombstone scheme, and sweep-level parallel speedup —
//! written to `BENCH_simnet.json` in the current directory.
//!
//! Eight phases run the **same** `(mode × seed)` cell grid:
//!
//! 1. `heap/t1`           — reference heap backend, one thread;
//! 2. `wheel_nocancel/t1` — timer wheel, tombstone timers (the
//!    pre-cancellation engine baseline);
//! 3. `coalesce_off/t1`   — default engine with the hot-path event diet
//!    off (per-chunk void frames, eager NIC pulls: the pre-diet engine);
//! 4. `wheel/t1`          — timer wheel + cancelable timers + event diet
//!    (the default engine), one thread;
//! 5. `wheel/tN`          — default engine, one worker per core;
//! 6. `audit/t1`          — default engine with the invariant-audit layer
//!    on (its wall-clock overhead and counters go into the report);
//! 7. `trace/t1`          — default engine with the flight recorder on
//!    (its wall-clock overhead and event counts go into the report);
//! 8. `telemetry/t1`      — default engine with the windowed telemetry
//!    recorder on (1 ms windows; its wall-clock overhead goes into the
//!    report and is asserted under 15%).
//!
//! Physical results are asserted byte-identical across all eight phases
//! (this binary doubles as an end-to-end equivalence check); engine
//! counters are additionally identical wherever the engine config matches.
//!
//! `--profile` instead runs one Silo cell (audit on) and prints the
//! per-event-kind scheduled/fired/stale/cancelled table, per-tenant
//! streaming latency histograms, and the audit summary, failing if the
//! cancellation layer did no work or the audit flags a healthy run — the
//! CI smoke test that both stay live.

use silo_base::QueueBackend;
use silo_bench::ns2::{ns2_cells, run_ns2_cell_with_engine, EngineOpts, Ns2Cell};
use silo_bench::{auto_threads, run_cells_timed, Args, BenchCell, BenchReport};
use silo_simnet::TransportMode;
use std::time::Instant;

struct Phase {
    report: BenchReport,
    /// Full canonical fingerprints (physics + engine counters).
    canonical: Vec<String>,
    /// Physics-only fingerprints (what every engine config must agree on).
    physics: Vec<String>,
    peak_sum: u64,
    /// Summed invariant-audit counters (zeros unless the phase audits).
    audit_events: u64,
    audit_violations: u64,
    audit_unattributed: u64,
    /// Summed flight-recorder counters (zeros unless the phase traces).
    trace_events: u64,
    trace_dropped: u64,
    /// Summed telemetry window counts (zeros unless the phase records).
    telemetry_windows: u64,
    /// Per-tenant latency quantiles of the phase's first cell:
    /// `(tenant, msgs, p50, p90, p99, max)` in ps.
    tenant_latency: Vec<(u16, u64, u64, u64, u64, u64)>,
}

fn run_phase(tag: &str, cells: &[Ns2Cell], args: &Args, eng: EngineOpts, threads: usize) -> Phase {
    let t0 = Instant::now();
    let timed = run_cells_timed(cells, threads, |_, c| {
        run_ns2_cell_with_engine(c, args, eng)
    });
    let total_wall_s = t0.elapsed().as_secs_f64();
    let mut bench_cells = Vec::with_capacity(cells.len());
    let mut canonical = Vec::with_capacity(cells.len());
    let mut physics = Vec::with_capacity(cells.len());
    let mut peak_sum = 0u64;
    let (mut audit_events, mut audit_violations, mut audit_unattributed) = (0u64, 0u64, 0u64);
    let (mut trace_events, mut trace_dropped) = (0u64, 0u64);
    let mut telemetry_windows = 0u64;
    for (cell, t) in cells.iter().zip(&timed) {
        let (_, m) = &t.result;
        bench_cells.push(BenchCell {
            label: format!("{}/{}/seed{}", tag, cell.mode.label(), cell.seed),
            wall_s: t.wall.as_secs_f64(),
            events: m.events_processed,
            peak_event_queue: m.peak_event_queue,
        });
        canonical.push(m.canonical_json());
        physics.push(m.physics_json());
        peak_sum += m.peak_event_queue;
        if let Some(a) = &m.audit {
            audit_events += a.events_checked;
            audit_violations += a.total();
            audit_unattributed += a.unattributed;
        }
        if let Some(t) = &m.trace {
            trace_events += t.events.len() as u64;
            trace_dropped += t.dropped;
        }
        if let Some(tl) = &m.telemetry {
            telemetry_windows += tl.windows;
        }
    }
    // Per-tenant latency quantiles from the phase's first cell (the
    // grid's Silo cell at the base seed) — the streaming histograms are
    // always on, so this is free.
    let m0 = &timed[0].result.1;
    let mut tenant_latency: Vec<(u16, u64, u64, u64, u64, u64)> = (0..m0.latency_hist.len() as u16)
        .filter_map(|t| {
            m0.latency_hist(t).filter(|h| !h.is_empty()).map(|h| {
                (
                    t,
                    h.count(),
                    h.quantile(0.50).unwrap_or(0),
                    h.quantile(0.90).unwrap_or(0),
                    h.quantile(0.99).unwrap_or(0),
                    h.max().unwrap_or(0),
                )
            })
        })
        .collect();
    tenant_latency.sort_by_key(|&(t, _, _, _, p99, _)| (std::cmp::Reverse(p99), t));
    Phase {
        report: BenchReport {
            name: format!("simnet_{}", tag.replace('/', "_")),
            notes: String::new(),
            host_cores: auto_threads(usize::MAX),
            threads,
            total_wall_s,
            cells: bench_cells,
        },
        canonical,
        physics,
        peak_sum,
        audit_events,
        audit_violations,
        audit_unattributed,
        trace_events,
        trace_dropped,
        telemetry_windows,
        tenant_latency,
    }
}

/// `--profile`: one Silo cell on the default engine, profile table to
/// stdout. Exits nonzero when no timer was ever cancelled — that would
/// mean the elision layer is configured out and the engine is silently
/// back to dispatching tombstones.
fn profile_smoke(args: &Args) -> ! {
    let cell = Ns2Cell {
        mode: TransportMode::Silo,
        run: 0,
        seed: args.seed,
    };
    let eng = EngineOpts {
        audit: true,
        telemetry: true,
        ..EngineOpts::default()
    };
    let (_, m) = run_ns2_cell_with_engine(&cell, args, eng);
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
    // Streaming per-tenant latency histograms: always on, fixed memory,
    // exact min/max/mean with ≤3.2% quantile error (sub_bits = 5). The
    // noisiest tenants by p99 head the list.
    println!(
        "\n{} messages over {} tenants (streaming histograms):",
        m.messages_total,
        m.latency_hist.len()
    );
    let mut order: Vec<u16> = (0..m.latency_hist.len() as u16)
        .filter(|&t| m.latency_hist(t).is_some_and(|h| !h.is_empty()))
        .collect();
    order.sort_by_key(|&t| std::cmp::Reverse(m.latency_hist(t).unwrap().quantile(0.99)));
    for &t in order.iter().take(8) {
        let h = m.latency_hist(t).unwrap();
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
        eprintln!("FAIL: {stale} stale dispatches under cancel_timers — tombstones leaked");
        std::process::exit(1);
    }
    println!("profile smoke OK: {cancelled} cancelled, 0 stale");
    std::process::exit(0);
}

fn main() {
    let args = Args::parse();
    if args.profile {
        profile_smoke(&args);
    }
    let modes = [
        TransportMode::Silo,
        TransportMode::Tcp,
        TransportMode::Dctcp,
    ];
    let cells = ns2_cells(&modes, &args);
    let cores = auto_threads(usize::MAX);
    let par_threads = args.effective_threads(cells.len());

    eprintln!(
        "bench_simnet: {} cells ({} modes x {} seeds), {} ms sim time, {} cores",
        cells.len(),
        modes.len(),
        args.runs,
        args.duration_ms,
        cores
    );

    let wheel = EngineOpts::default();
    let heap = EngineOpts {
        queue: QueueBackend::Heap,
        ..wheel
    };
    let nocancel = EngineOpts {
        cancel_timers: false,
        ..wheel
    };
    let nodiet = EngineOpts {
        coalesce: false,
        ..wheel
    };
    let audit_eng = EngineOpts {
        audit: true,
        ..wheel
    };
    let trace_eng = EngineOpts {
        trace: true,
        ..wheel
    };
    let telemetry_eng = EngineOpts {
        telemetry: true,
        ..wheel
    };
    let heap1 = run_phase("heap/t1", &cells, &args, heap, 1);
    let base1 = run_phase("wheel_nocancel/t1", &cells, &args, nocancel, 1);
    let nodiet1 = run_phase("coalesce_off/t1", &cells, &args, nodiet, 1);
    let wheel1 = run_phase("wheel/t1", &cells, &args, wheel, 1);
    let wheeln = run_phase(
        &format!("wheel/t{par_threads}"),
        &cells,
        &args,
        wheel,
        par_threads,
    );
    let audit1 = run_phase("audit/t1", &cells, &args, audit_eng, 1);
    let trace1 = run_phase("trace/t1", &cells, &args, trace_eng, 1);
    let telemetry1 = run_phase("telemetry/t1", &cells, &args, telemetry_eng, 1);

    // Physics must not move under any engine config; full canonical
    // results (engine counters included) must not move across backends or
    // thread counts when the engine config is the same.
    assert_eq!(
        wheel1.physics, base1.physics,
        "timer cancellation changed physical results"
    );
    assert_eq!(
        heap1.physics, wheel1.physics,
        "queue backend changed physical results"
    );
    // The event diet (coalesced voids + elided pulls) is an engine-only
    // change: same physics, strictly fewer dispatched events.
    assert_eq!(
        nodiet1.physics, wheel1.physics,
        "the void-coalesce/fast-forward diet changed physical results"
    );
    assert!(
        wheel1.report.total_events() < nodiet1.report.total_events(),
        "the event diet must shed dispatches ({} vs {})",
        wheel1.report.total_events(),
        nodiet1.report.total_events()
    );
    assert_eq!(
        heap1.canonical, wheel1.canonical,
        "heap and wheel backends diverged on engine counters"
    );
    assert_eq!(
        wheel1.canonical, wheeln.canonical,
        "thread count changed results"
    );
    // The invariant-audit layer is pure observation: same physics, same
    // engine counters, and zero unattributed violations on healthy cells.
    assert_eq!(
        audit1.canonical, wheel1.canonical,
        "audit layer changed physical results"
    );
    assert_eq!(
        audit1.audit_unattributed, 0,
        "healthy ns2 cells reported unattributed audit violations"
    );
    assert!(audit1.audit_events > 0, "audit phase checked no events");
    // The flight recorder is pure observation too: canonical results are
    // byte-identical with tracing on, and the rings actually recorded.
    assert_eq!(
        trace1.canonical, wheel1.canonical,
        "flight recorder changed physical results"
    );
    assert!(trace1.trace_events > 0, "trace phase recorded no events");
    // The windowed telemetry recorder is the third pure observer:
    // canonical results byte-identical with it on, and every cell
    // produced its full window grid.
    assert_eq!(
        telemetry1.canonical, wheel1.canonical,
        "telemetry recorder changed physical results"
    );
    assert_eq!(
        telemetry1.telemetry_windows,
        args.duration_ms * cells.len() as u64,
        "every cell must record one window per simulated millisecond"
    );

    let eps = |p: &Phase| p.report.total_events() as f64 / p.report.cell_wall_s();
    let engine_gain = eps(&wheel1) / eps(&heap1);
    // The diet changes the event population, so its win is measured in
    // *pre-diet event units*: the same simulated workload used to take
    // `nodiet` events — the dieted engine retires it in less wall time,
    // so (pre-diet events)/(dieted wall) over (pre-diet events)/(pre-diet
    // wall) is the events/sec gain, which reduces to the wall ratio. The
    // event cut itself is reported alongside.
    let void_event_cut = nodiet1.report.total_events() as f64 / wheel1.report.total_events() as f64;
    let void_eps_gain = nodiet1.report.cell_wall_s() / wheel1.report.cell_wall_s();
    let silo_void_eps_gain = nodiet1.report.cells[0].wall_s / wheel1.report.cells[0].wall_s;
    // Cancellation changes the event population, so its win is wall-clock
    // per cell against the tombstone engine, not events/sec.
    let cancel_speedup = base1.report.cell_wall_s() / wheel1.report.cell_wall_s();
    let silo_cancel_speedup = base1.report.cells[0].wall_s / wheel1.report.cells[0].wall_s;
    let peak_reduction = 1.0 - wheel1.peak_sum as f64 / base1.peak_sum.max(1) as f64;
    let parallel_speedup = wheel1.report.total_wall_s / wheeln.report.total_wall_s;
    let audit_overhead = audit1.report.cell_wall_s() / wheel1.report.cell_wall_s();
    let trace_overhead = trace1.report.cell_wall_s() / wheel1.report.cell_wall_s();
    let telemetry_overhead = telemetry1.report.cell_wall_s() / wheel1.report.cell_wall_s();
    // A wall-clock ratio of sub-second cells is host noise (it tripped one
    // smoke run in seven at 0.1 s cells), so the bound is enforced only
    // when the baseline took long enough to mean something.
    if wheel1.report.cell_wall_s() >= 1.0 {
        assert!(
            telemetry_overhead < 1.15,
            "telemetry at 1 ms windows must stay under 15% wall overhead ({telemetry_overhead:.3}x)"
        );
    } else {
        println!(
            "telemetry wall overhead {telemetry_overhead:.3}x (not enforced: cells took {:.2} s, under 1 s)",
            wheel1.report.cell_wall_s()
        );
    }

    let notes = format!(
        "timer cancellation {:.2}x wall-clock over tombstones ({:.2}x on {}; \
         peak event-queue occupancy -{:.0}%); event diet (coalesced voids + \
         elided pulls) {:.2}x events/sec in pre-diet units ({:.2}x on the Silo \
         cell; {:.2}x fewer dispatches); wheel-vs-heap events/sec gain {:.2}x; \
         {}-thread sweep speedup {:.2}x over 1 thread on a {}-core host; \
         invariant audit {:.2}x wall-clock, {} events checked, {} violations \
         ({} unattributed); flight recorder {:.2}x wall-clock, {} events retained \
         ({} evicted from rings); windowed telemetry {:.2}x wall-clock at 1 ms \
         windows ({} windows recorded); physics byte-identical across engines, \
         backends, thread counts, diet on/off, audit on/off, \
         trace on/off and telemetry on/off",
        cancel_speedup,
        silo_cancel_speedup,
        wheel1.report.cells[0].label,
        peak_reduction * 100.0,
        void_eps_gain,
        silo_void_eps_gain,
        void_event_cut,
        engine_gain,
        par_threads,
        parallel_speedup,
        cores,
        audit_overhead,
        audit1.audit_events,
        audit1.audit_violations,
        audit1.audit_unattributed,
        trace_overhead,
        trace1.trace_events,
        trace1.trace_dropped,
        telemetry_overhead,
        telemetry1.telemetry_windows
    );

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"name\": \"simnet\",\n");
    out.push_str(&format!(
        "  \"notes\": \"{}\",\n",
        notes.replace('"', "\\\"")
    ));
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    out.push_str(&format!(
        "  \"sim_duration_ms\": {}, \"scale\": {}, \"cells\": {},\n",
        args.duration_ms,
        args.scale,
        cells.len()
    ));
    out.push_str(&format!(
        "  \"cancel_vs_tombstone_speedup\": {cancel_speedup:.3},\n"
    ));
    out.push_str(&format!(
        "  \"cancel_vs_tombstone_speedup_silo_seed{}\": {silo_cancel_speedup:.3},\n",
        args.seed
    ));
    out.push_str(&format!(
        "  \"peak_event_queue_reduction\": {peak_reduction:.3},\n"
    ));
    out.push_str(&format!(
        "  \"void_coalesce_events_per_sec_gain\": {void_eps_gain:.3},\n"
    ));
    out.push_str(&format!(
        "  \"void_coalesce_events_per_sec_gain_silo_seed{}\": {silo_void_eps_gain:.3},\n",
        args.seed
    ));
    out.push_str(&format!(
        "  \"void_coalesce_event_reduction\": {void_event_cut:.3},\n"
    ));
    out.push_str(&format!(
        "  \"wheel_vs_heap_events_per_sec_gain\": {engine_gain:.3},\n"
    ));
    out.push_str(&format!(
        "  \"parallel_speedup_t{par_threads}\": {parallel_speedup:.3},\n"
    ));
    out.push_str(&format!(
        "  \"audit_wall_overhead\": {audit_overhead:.3},\n"
    ));
    out.push_str(&format!(
        "  \"audit_events_checked\": {}, \"audit_violations\": {}, \
         \"audit_unattributed\": {},\n",
        audit1.audit_events, audit1.audit_violations, audit1.audit_unattributed
    ));
    out.push_str(&format!(
        "  \"trace_wall_overhead\": {trace_overhead:.3},\n"
    ));
    out.push_str(&format!(
        "  \"trace_events_retained\": {}, \"trace_events_evicted\": {},\n",
        trace1.trace_events, trace1.trace_dropped
    ));
    out.push_str(&format!(
        "  \"telemetry_wall_overhead\": {telemetry_overhead:.3},\n"
    ));
    out.push_str(&format!(
        "  \"telemetry_windows_recorded\": {},\n",
        telemetry1.telemetry_windows
    ));
    // Per-tenant latency quantiles of the default engine's Silo cell
    // (worst p99 first) — the JSON face of `--profile`'s histogram table.
    out.push_str("  \"tenant_latency_us\": [\n");
    for (i, &(t, msgs, p50, p90, p99, max)) in wheel1.tenant_latency.iter().take(8).enumerate() {
        out.push_str(&format!(
            "    {{\"tenant\": {t}, \"msgs\": {msgs}, \"p50\": {:.1}, \"p90\": {:.1}, \"p99\": {:.1}, \"max\": {:.1}}}{}\n",
            p50 as f64 / 1e6,
            p90 as f64 / 1e6,
            p99 as f64 / 1e6,
            max as f64 / 1e6,
            if i + 1 < wheel1.tenant_latency.len().min(8) { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"phases\": [\n");
    let phases = [
        &heap1,
        &base1,
        &nodiet1,
        &wheel1,
        &wheeln,
        &audit1,
        &trace1,
        &telemetry1,
    ];
    for (i, p) in phases.iter().enumerate() {
        for line in p.report.to_json().trim_end().lines() {
            out.push_str("    ");
            out.push_str(line);
            out.push('\n');
        }
        if i + 1 < phases.len() {
            let last = out.pop();
            debug_assert_eq!(last, Some('\n'));
            out.push_str(",\n");
        }
    }
    out.push_str("  ]\n}\n");

    std::fs::write("BENCH_simnet.json", &out).expect("write BENCH_simnet.json");
    eprintln!("{notes}");
    eprintln!("wrote BENCH_simnet.json");
}
