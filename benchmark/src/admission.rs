//! `admission_churn`: `AdmissionService` on the 32 000-server Fig-15
//! topology, replaying one `silo_workload::churn` stream — 10⁵ tenant
//! lifetimes at ~85 % Little's-law load with one 4× flash crowd and three
//! 8-host failure bursts. No simulator: `placement`, `netcalc` and
//! `topology` do the work, and admits (search), evicts (fold rebuild) and
//! fail/restore (mask rebuild, reclaim sweep) share state, so a gain for
//! one that costs another shows.
//!
//! Closed loop, one client: the next event is applied when the previous
//! returns. `--seed` seeds the churn stream.

use crate::kernels;
use crate::span::Recorder;
use crate::stats::{median, percentile, Reps};
use crate::{alloc, golden, Budget, Opts, Outcome};
use silo_base::{Bytes, Dur, Rate};
use silo_placement::{AdmissionService, ChurnEvent, Decision};
use silo_topology::{Topology, TreeParams};
use silo_workload::churn::{self, ChurnConfig, FailureBurst, FlashCrowd};
use std::time::Instant;

const LIFETIMES: u64 = 100_000;
const QUICK_LIFETIMES: u64 = 2_000;
/// Traced replays group their spans by hundredths of the horizon.
const WINDOWS: usize = 100;

/// 16 pods × 40 racks × 50 servers, 4 VM slots each.
fn fig15_topology() -> Topology {
    Topology::build(TreeParams {
        pods: 16,
        racks_per_pod: 40,
        servers_per_rack: 50,
        vm_slots_per_server: 4,
        host_link: Rate::from_gbps(10),
        tor_oversub: 5.0,
        agg_oversub: 5.0,
        switch_buffer: Bytes::from_kb(312),
        nic_buffer: Bytes::from_kb(64),
        prop_delay: Dur::from_ns(500),
    })
}

fn churn_config(topo: &Topology, seed: u64, lifetimes: u64) -> ChurnConfig {
    let mut base = ChurnConfig::diurnal(seed);
    // Little's law: resident slots ≈ λ · lifetime · VMs per tenant.
    let slots = (topo.num_hosts() * topo.slots_per_server()) as f64;
    base.arrivals_per_s = 0.85 * slots / (base.mean_lifetime_s * base.mean_vms);
    let mut cfg = base.for_lifetimes(lifetimes);
    let horizon = cfg.horizon_s;
    cfg = cfg.with_flash_crowd(FlashCrowd {
        at_s: 0.3 * horizon,
        dur_s: 0.1 * horizon,
        multiplier: 4.0,
    });
    for k in 0..3 {
        cfg = cfg.with_failure_burst(FailureBurst {
            at_s: (0.2 + 0.25 * k as f64) * horizon,
            dur_s: 0.1 * horizon,
            hosts: 8,
        });
    }
    cfg
}

struct Inputs {
    topo: Topology,
    events: Vec<(f64, ChurnEvent)>,
    horizon_s: f64,
}

struct SetUp {
    topology_s: f64,
    generate_s: f64,
    total_s: f64,
}

/// One full set-up: topology + `churn::generate` + `AdmissionService::new`.
fn set_up(seed: u64, lifetimes: u64, rec: &mut Recorder) -> (Inputs, SetUp) {
    let t0 = Instant::now();
    rec.enter("Topology::build");
    let topo = fig15_topology();
    rec.exit();
    let t1 = Instant::now();
    rec.enter("churn::generate");
    let cfg = churn_config(&topo, seed, lifetimes);
    let events = churn::generate(&topo, &cfg);
    rec.exit();
    let t2 = Instant::now();
    rec.enter("AdmissionService::new");
    let svc = AdmissionService::new(topo.clone());
    rec.exit();
    let t3 = Instant::now();
    drop(svc);
    (
        Inputs {
            topo,
            events,
            horizon_s: cfg.horizon_s,
        },
        SetUp {
            topology_s: (t1 - t0).as_secs_f64(),
            generate_s: (t2 - t1).as_secs_f64(),
            total_s: (t3 - t0).as_secs_f64(),
        },
    )
}

/// Host nanoseconds and calls of one event kind in a traced replay.
#[derive(Default, Clone, Copy)]
struct Busy {
    ns: u64,
    calls: u64,
}

struct Replay {
    svc: AdmissionService,
    run_s: f64,
    /// Host ns around each `apply(Admit)`, ascending.
    admit_ns: Vec<u64>,
    admitted: u64,
    /// Evict and fail/restore time: only a traced replay times them.
    evict: Busy,
    fault: Busy,
    allocs: (u64, u64),
}

/// The timed region of an untraced repetition: the whole replay loop,
/// with a clock read around each `apply(Admit)` and nowhere else.
fn replay_plain(inputs: &Inputs) -> Replay {
    let mut svc = AdmissionService::new(inputs.topo.clone());
    let mut admit_ns = Vec::with_capacity(inputs.events.len());
    let mut admitted = 0u64;
    let t0 = Instant::now();
    for (_, ev) in &inputs.events {
        if let ChurnEvent::Admit(_) = ev {
            let t = Instant::now();
            let decision = svc.apply(ev);
            admit_ns.push(t.elapsed().as_nanos() as u64);
            admitted += u64::from(matches!(decision, Decision::Admitted { .. }));
        } else {
            svc.apply(ev);
        }
    }
    let run_s = t0.elapsed().as_secs_f64();
    admit_ns.sort_unstable();
    Replay {
        svc,
        run_s,
        admit_ns,
        admitted,
        evict: Busy::default(),
        fault: Busy::default(),
        allocs: (0, 0),
    }
}

/// The same replay with a clock read around every `apply`, one span per
/// hundredth of the horizon and, inside it, one aggregate span per event
/// kind that occurred. The allocator counts inside the loop.
fn replay_traced(inputs: &Inputs, rec: &mut Recorder) -> Replay {
    const KINDS: [&str; 4] = [
        "apply(Admit)",
        "apply(Evict)",
        "apply(FailLink)",
        "apply(RestoreLink)",
    ];
    let mut svc = AdmissionService::new(inputs.topo.clone());
    let mut admit_ns = Vec::with_capacity(inputs.events.len());
    let mut admitted = 0u64;
    let mut total = [Busy::default(); 4];
    let window_of = |at: f64| ((at / inputs.horizon_s * WINDOWS as f64) as usize).min(WINDOWS - 1);

    rec.enter("replay");
    let t0 = Instant::now();
    let (_, count, bytes) = alloc::counted(|| {
        let mut i = 0;
        while i < inputs.events.len() {
            let w = window_of(inputs.events[i].0);
            let mut busy = [Busy::default(); 4];
            rec.enter("window");
            while i < inputs.events.len() && window_of(inputs.events[i].0) == w {
                let ev = &inputs.events[i].1;
                let kind = match ev {
                    ChurnEvent::Admit(_) => 0,
                    ChurnEvent::Evict(_) => 1,
                    ChurnEvent::FailLink(_) => 2,
                    ChurnEvent::RestoreLink(_) => 3,
                };
                let t = Instant::now();
                let decision = svc.apply(ev);
                let ns = t.elapsed().as_nanos() as u64;
                busy[kind].ns += ns;
                busy[kind].calls += 1;
                if kind == 0 {
                    admit_ns.push(ns);
                    admitted += u64::from(matches!(decision, Decision::Admitted { .. }));
                }
                i += 1;
            }
            for (k, b) in busy.iter().enumerate() {
                rec.aggregate(KINDS[k], b.ns, b.calls);
                total[k].ns += b.ns;
                total[k].calls += b.calls;
            }
            rec.exit();
        }
    });
    let run_s = t0.elapsed().as_secs_f64();
    rec.exit();
    admit_ns.sort_unstable();
    Replay {
        svc,
        run_s,
        admit_ns,
        admitted,
        evict: total[1],
        fault: Busy {
            ns: total[2].ns + total[3].ns,
            calls: total[2].calls + total[3].calls,
        },
        allocs: (count, bytes),
    }
}

/// Host seconds of the untimed checks after one repetition.
struct Checks {
    snapshot_s: f64,
    restore_s: f64,
    verify_s: f64,
    fingerprint_s: f64,
}

/// After each repetition, untimed: the output equals the reference, the
/// incremental state equals a from-scratch recomputation, and snapshot →
/// restore → snapshot is byte-exact. Also returns the output text
/// (snapshot plus `ServiceStats`, 14 MB): the warm-up's is the reference,
/// every other is dropped by the caller.
fn check(
    svc: &AdmissionService,
    reference: Option<&str>,
    rec: &mut Recorder,
) -> (Checks, String, Vec<String>) {
    let mut failures = Vec::new();
    rec.enter("snapshot");
    let t = Instant::now();
    let snap = svc.snapshot();
    let snapshot_s = t.elapsed().as_secs_f64();
    rec.exit();

    rec.enter("fingerprint");
    let t = Instant::now();
    let text = format!("{snap}\n{:?}\n", svc.stats());
    if let Some(at) = reference.and_then(|r| golden::first_diff(r.as_bytes(), text.as_bytes())) {
        failures.push(format!(
            "snapshot and stats differ from the warm-up repetition at byte {at}"
        ));
    }
    let fingerprint_s = t.elapsed().as_secs_f64();
    rec.exit();

    rec.enter("verify_scratch_consistency");
    let t = Instant::now();
    if let Err(e) = svc.placer().verify_scratch_consistency() {
        failures.push(format!("incremental state diverged from scratch: {e}"));
    }
    let verify_s = t.elapsed().as_secs_f64();
    rec.exit();

    rec.enter("restore");
    let t = Instant::now();
    let restored = AdmissionService::restore(&snap);
    let restore_s = t.elapsed().as_secs_f64();
    rec.exit();
    match restored {
        Err(e) => failures.push(format!("snapshot does not restore: {e}")),
        Ok(r) => {
            if let Some(at) = golden::first_diff(snap.as_bytes(), r.snapshot().as_bytes()) {
                failures.push(format!(
                    "snapshot -> restore -> snapshot is not byte-exact (first difference at byte {at})"
                ));
            }
        }
    }
    (
        Checks {
            snapshot_s,
            restore_s,
            verify_s,
            fingerprint_s,
        },
        text,
        failures,
    )
}

pub fn run(opts: &Opts, rec: &mut Recorder) -> Result<Outcome, String> {
    let lifetimes = if opts.quick {
        QUICK_LIFETIMES
    } else {
        LIFETIMES
    };
    let mut out = Outcome::default();
    let mut off = Recorder::new(false);

    rec.enter("set-up");
    let (inputs, _) = set_up(opts.seed, lifetimes, rec);
    rec.exit();
    let setups: Vec<SetUp> = (0..crate::setups(opts))
        .map(|_| set_up(opts.seed, lifetimes, &mut off).1)
        .collect();
    let stage = |f: fn(&SetUp) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    out.set("setup_s", stage(|s| s.total_s));
    out.set("topology.build_s", stage(|s| s.topology_s));
    out.set("workload.churn_generate_s", stage(|s| s.generate_s));
    out.set("workload.churn_events", inputs.events.len() as f64);
    let admits = inputs
        .events
        .iter()
        .filter(|(_, e)| matches!(e, ChurnEvent::Admit(_)))
        .count();
    if admits == 0 {
        return Err("the churn stream holds no Admit event".into());
    }

    // Warm-up repetition: discarded as a time, kept as the reference.
    rec.enter("warm-up");
    let warm = replay_plain(&inputs);
    rec.exit();
    out.attempted += 1;
    let (_, reference, failures) = check(&warm.svc, None, &mut off);
    for f in failures {
        out.fail(format!("warm-up: {f}"));
    }
    // Counts are read from the warm-up's service, which is then dropped
    // so that peak memory is one repetition's. The bound memo's counts
    // are those of the check just run: replaying the stream leaves the
    // memo untouched, since admissions compute their bounds directly.
    let stats = warm.svc.stats();
    let (hits, misses) = warm.svc.placer().bound_cache_stats();
    let resident = warm.svc.live_tenants();
    let mask_rebuilds = warm.svc.placer().mask_rebuilds();
    let admitted = warm.admitted;
    drop(warm);

    let budget = Budget::new(opts);
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut checks: Vec<Checks> = Vec::new();
    // Per-repetition admit latency, µs: p50, mean, p99, p99.9.
    let mut lat: [Vec<f64>; 4] = Default::default();
    let mut admit_busy_s = Vec::new();
    let mut traced: Option<Replay> = None;
    let mut rounds = 0;
    while !budget.done(rounds, plain_s.iter().sum()) {
        let r = replay_plain(&inputs);
        out.attempted += 1;
        plain_s.push(r.run_s);
        let us = |ns: u64| ns as f64 / 1e3;
        let sum_ns: u64 = r.admit_ns.iter().sum();
        lat[0].push(us(percentile(&r.admit_ns, 0.50)));
        lat[1].push(us(sum_ns) / r.admit_ns.len() as f64);
        lat[2].push(us(percentile(&r.admit_ns, 0.99)));
        lat[3].push(us(percentile(&r.admit_ns, 0.999)));
        admit_busy_s.push(sum_ns as f64 / 1e9);
        if r.admitted != admitted {
            out.fail(format!("repetition {}: admitted count changed", rounds + 1));
        }
        let (c, _, failures) = check(&r.svc, Some(&reference), &mut off);
        for f in failures {
            out.fail(format!("repetition {}: {f}", rounds + 1));
        }
        checks.push(c);
        drop(r);

        if opts.trace {
            let r = replay_traced(&inputs, rec);
            out.attempted += 1;
            traced_s.push(r.run_s);
            let (c, _, failures) = check(&r.svc, Some(&reference), rec);
            for f in failures {
                out.fail(format!("traced repetition {}: {f}", rounds + 1));
            }
            checks.push(c);
            traced = Some(r);
        }
        rounds += 1;
    }

    let plain = Reps::of(&plain_s);
    let check_median = |f: fn(&Checks) -> f64| median(&checks.iter().map(f).collect::<Vec<_>>());
    out.set("run_s", plain.median);
    out.set("bench.run_s", plain.median);
    out.set("bench.reps", plain.n as f64);
    out.set("ok_frac", admitted as f64 / admits as f64);
    out.set("placement.admit_us.p50", median(&lat[0]));
    out.set("placement.admit_us.mean", median(&lat[1]));
    out.set("placement.admit_us.p99", median(&lat[2]));
    out.set("placement.admit_us.p999", median(&lat[3]));
    out.set(
        "placement.admissions_per_sec",
        admits as f64 / median(&admit_busy_s),
    );
    out.set("placement.admits", stats.admitted as f64);
    out.set("placement.rejects", stats.rejected as f64);
    out.set("placement.evicts", stats.evicted as f64);
    out.set("placement.evict_noops", stats.evict_noops as f64);
    out.set("placement.faults", (stats.faults + stats.heals) as f64);
    out.set("placement.resident_tenants", resident as f64);
    out.set("placement.mask_rebuilds", mask_rebuilds as f64);
    out.set("placement.snapshot_s", check_median(|c| c.snapshot_s));
    out.set("placement.restore_s", check_median(|c| c.restore_s));
    out.set("placement.verify_s", check_median(|c| c.verify_s));
    out.set("placement.snapshot_bytes", reference.len() as f64);
    out.set("metrics.fingerprint_s", check_median(|c| c.fingerprint_s));
    out.set("netcalc.bound_cache.hits", hits as f64);
    out.set("netcalc.bound_cache.misses", misses as f64);
    out.set(
        "netcalc.bound_cache.hit_ratio",
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    );

    if let Some(t) = traced {
        let events = inputs.events.len() as f64;
        let per_call = |b: Busy| {
            if b.calls == 0 {
                0.0
            } else {
                b.ns as f64 / b.calls as f64
            }
        };
        let traced_median = median(&traced_s);
        out.set("bench.trace_overhead_ratio", traced_median / plain.median);
        out.set("alloc.count_per_kop", t.allocs.0 as f64 * 1e3 / events);
        out.set("alloc.bytes_per_op", t.allocs.1 as f64 / events);
        out.set("placement.evict_us.mean", per_call(t.evict) / 1e3);
        out.set(
            "placement.evictions_per_sec",
            if t.evict.ns == 0 {
                0.0
            } else {
                t.evict.calls as f64 * 1e9 / t.evict.ns as f64
            },
        );
        out.set("placement.fault_ms.mean", per_call(t.fault) / 1e6);

        // Every `apply` of the last traced replay was timed, so the
        // service's share is measured, not estimated; what is left is the
        // replay loop and its clock reads. How much of the service's
        // share is netcalc cannot be seen from outside: the kernel prices
        // one `backlog_bound`, but an admit does not report how many it
        // made (the bound memo serves probes, not admissions).
        rec.enter("layer kernels");
        let calls = if opts.quick { 2_000 } else { 100_000 };
        out.set(
            "netcalc.ns_per_backlog_bound",
            kernels::netcalc_ns_per_backlog_bound(calls),
        );
        rec.exit();
        let admit_ns: u64 = t.admit_ns.iter().sum();
        let busy_share = (admit_ns + t.evict.ns + t.fault.ns) as f64 / (t.run_s * 1e9);
        out.set("est_share.placement", busy_share);
        out.set("est_share.unattributed", 1.0 - busy_share);
    }

    out.fingerprint = Some(golden::Fingerprint::of(reference.as_bytes()));
    out.rep_times.push(("plain".to_string(), plain_s));
    if opts.trace {
        out.rep_times.push(("traced".to_string(), traced_s));
    }
    Ok(out)
}
