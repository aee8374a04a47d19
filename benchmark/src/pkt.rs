//! The packet-level workloads: the §6.2 cell every fig12–14/tab04 binary
//! runs (`ns2_scaled(0.25)`, occupancy 0.9, class loads 0.4/0.9), driven
//! through `Sim::new` → `Sim::run` and nothing else.
//!
//! `--seed` is `SimConfig::seed`: arrival times, message sizes and
//! tie-breaks. The tenant population is pinned ([`POPULATION_SEED`]),
//! because the population sets the size of the cell: drawn per seed it
//! moved the cell between 4.2 M and 8.7 M events (1.2–3.6 s) over seeds
//! 1–12, which no regression bound survives, while under a pinned
//! population the event count moves by under one percent and what is
//! left is the host's noise.

use crate::kernels::{self, QueueMix};
use crate::span::Recorder;
use crate::stats::{median, percentile_index, Reps};
use crate::{alloc, golden, Budget, Opts, Outcome, Workload};
use silo_base::{seeded_rng, Dur};
use silo_bench::ns2::{ns2_topology, Ns2Outcome};
use silo_bench::scenario::{build_ns2_population, NsTenant, PlacerKind};
use silo_simnet::{
    AuditConfig, EvKind, Metrics, Sim, SimConfig, TelemetryConfig, TenantSpec, TraceConfig,
    TransportMode,
};
use silo_topology::Topology;
use std::time::Instant;

const SCALE: f64 = 0.25;
const OCCUPANCY: f64 = 0.9;
const LOAD_A: f64 = 0.4;
const LOAD_B: f64 = 0.9;
pub const POPULATION_SEED: u64 = 1;

/// Flight-recorder events retained per host. The default (65 536) keeps
/// the whole cell: 850 MB at peak, every repetition faulting it in anew.
/// On this host that was half the repetition in the kernel (sys 14.6 s
/// of 29.7 s) and repetitions of 2.3–11 s, so the run measured the
/// hypervisor's page faults. A recorder's steady state is a full ring
/// that evicts; 4 096 events per host (29 MB) reaches it within the cell
/// and leaves the hooks, the metadata and the ring as the cost.
const TRACE_RING: usize = 4096;

pub struct Cell {
    mode: TransportMode,
    sim_ms: u64,
    /// The timed region runs with audit, trace and telemetry attached.
    observed: bool,
}

/// The cell a packet workload runs; `None` for `admission_churn`.
pub fn cell(w: Workload, quick: bool) -> Option<Cell> {
    let (mode, sim_ms, observed) = match w {
        Workload::PktSilo => (TransportMode::Silo, 15, false),
        Workload::PktTcp => (TransportMode::Tcp, 15, false),
        Workload::PktSiloObserved => (TransportMode::Silo, 15, true),
        Workload::AdmissionChurn => return None,
    };
    Some(Cell {
        mode,
        // 3 ms is the shortest cell in which the TCP population completes
        // a cross-host message; without one, ok_frac has no denominator.
        sim_ms: if quick { 3 } else { sim_ms },
        observed,
    })
}

#[derive(Clone, Copy, PartialEq)]
struct Observers {
    audit: bool,
    trace: bool,
    telemetry: bool,
}

impl Observers {
    const NONE: Observers = Observers {
        audit: false,
        trace: false,
        telemetry: false,
    };
    const ALL: Observers = Observers {
        audit: true,
        trace: true,
        telemetry: true,
    };
}

fn sim_config(cell: &Cell, seed: u64, obs: Observers) -> SimConfig {
    let mut cfg = SimConfig::new(cell.mode, Dur::from_ms(cell.sim_ms), seed);
    cfg.audit = obs.audit.then(AuditConfig::default);
    cfg.trace = obs.trace.then(|| TraceConfig {
        per_host_cap: TRACE_RING,
        ..TraceConfig::default()
    });
    cfg.telemetry = obs.telemetry.then(TelemetryConfig::default);
    cfg
}

struct Inputs {
    topo: Topology,
    tenants: Vec<NsTenant>,
    specs: Vec<TenantSpec>,
}

/// Host seconds of one set-up, by stage.
struct SetUp {
    topology_s: f64,
    population_s: f64,
    new_s: f64,
    total_s: f64,
}

/// One full set-up: `Topology::build` + `build_ns2_population` +
/// `Sim::new` (with the workload's own observers). The `Sim` is dropped;
/// every repetition builds a fresh one from the inputs.
fn set_up(cell: &Cell, cfg: &SimConfig, rec: &mut Recorder) -> (Inputs, SetUp) {
    let t0 = Instant::now();
    rec.enter("Topology::build");
    let topo = ns2_topology(SCALE);
    rec.exit();
    let t1 = Instant::now();
    rec.enter("build_ns2_population");
    let mut rng = seeded_rng(POPULATION_SEED);
    let tenants = build_ns2_population(
        &topo,
        PlacerKind::for_mode(cell.mode),
        OCCUPANCY,
        LOAD_A,
        LOAD_B,
        &mut rng,
    );
    let specs: Vec<TenantSpec> = tenants.iter().map(|t| t.spec.clone()).collect();
    rec.exit();
    let t2 = Instant::now();
    rec.enter("Sim::new");
    let sim = Sim::new(topo.clone(), cfg.clone(), specs.clone());
    rec.exit();
    let t3 = Instant::now();
    drop(sim);
    (
        Inputs {
            topo,
            tenants,
            specs,
        },
        SetUp {
            topology_s: (t1 - t0).as_secs_f64(),
            population_s: (t2 - t1).as_secs_f64(),
            new_s: (t3 - t2).as_secs_f64(),
            total_s: (t3 - t0).as_secs_f64(),
        },
    )
}

struct Rep {
    run_s: f64,
    metrics: Metrics,
    /// Allocation calls and bytes inside `Sim::run` (traced reps only).
    allocs: Option<(u64, u64)>,
}

/// One repetition on fresh state: `Sim::new` untimed, `Sim::run` timed.
fn rep(inputs: &Inputs, cfg: &SimConfig, rec: &mut Recorder) -> Rep {
    rec.enter("Sim::new");
    let sim = Sim::new(inputs.topo.clone(), cfg.clone(), inputs.specs.clone());
    rec.exit();
    rec.enter("Sim::run");
    let t = Instant::now();
    let (metrics, allocs) = if rec.enabled() {
        let (m, count, bytes) = alloc::counted(|| sim.run());
        (m, Some((count, bytes)))
    } else {
        (sim.run(), None)
    };
    let run_s = t.elapsed().as_secs_f64();
    rec.exit();
    Rep {
        run_s,
        metrics,
        allocs,
    }
}

/// The warm-up repetition's output, which every later one must equal.
struct Reference {
    physics: String,
    metrics: Metrics,
}

/// Check one repetition against the reference; returns the host seconds
/// the check took and what failed.
fn check(reference: &Reference, m: &Metrics, rec: &mut Recorder) -> (f64, Vec<String>) {
    rec.enter("fingerprint");
    let t = Instant::now();
    let physics = m.physics_json();
    let diff = golden::first_diff(reference.physics.as_bytes(), physics.as_bytes());
    let secs = t.elapsed().as_secs_f64();
    rec.exit();
    let mut failures = Vec::new();
    if let Some(at) = diff {
        failures.push(format!(
            "physics_json differs from the warm-up repetition at byte {at}"
        ));
    }
    // Engine counters are not physics, but the same engine on the same
    // inputs must repeat them: the count-type layer metrics rest on it.
    if m.events_processed != reference.metrics.events_processed
        || m.profile != reference.metrics.profile
    {
        failures.push(format!(
            "engine counters differ between repetitions ({} vs {} events)",
            m.events_processed, reference.metrics.events_processed
        ));
    }
    if m.token_violations != 0 {
        failures.push(format!("{} token-bucket violations", m.token_violations));
    }
    if let Some(a) = &m.audit {
        if a.unattributed != 0 {
            failures.push(format!("{} unattributed audit violations", a.unattributed));
        }
    }
    (secs, failures)
}

/// How the completed cross-host messages fared against the §4.1 estimate
/// (simulated time, so exact for a seed).
struct MessageStats {
    completed: u64,
    late: u64,
    ok_frac: f64,
    p99_norm: f64,
}

fn message_stats(cell: &Cell, inputs: &Inputs, m: &Metrics) -> Result<MessageStats, String> {
    let estimates = Ns2Outcome {
        mode: cell.mode,
        tenants: vec![inputs.tenants.clone()],
        metrics: Vec::new(),
    };
    let mut norm: Vec<f64> = m
        .messages
        .iter()
        .filter(|msg| !msg.same_host)
        .map(|msg| msg.latency.as_us_f64() / estimates.estimate_us(0, msg.tenant, msg.size))
        .collect();
    if norm.is_empty() {
        return Err("no cross-host message completed: ok_frac is undefined".into());
    }
    norm.sort_by(f64::total_cmp);
    let late = norm.iter().filter(|&&x| x > 1.0).count() as u64;
    let completed = norm.len() as u64;
    Ok(MessageStats {
        completed,
        late,
        ok_frac: (completed - late) as f64 / completed as f64,
        p99_norm: norm[percentile_index(norm.len(), 0.99)],
    })
}

/// One way of running the timed region. The untraced run has one; the
/// traced run interleaves several per round so that ratios between them
/// see the same host phases.
struct Variant {
    name: &'static str,
    obs: Observers,
    traced: bool,
}

/// The observers the workload's own timed region runs with.
fn own_observers(cell: &Cell) -> Observers {
    if cell.observed {
        Observers::ALL
    } else {
        Observers::NONE
    }
}

fn variants(cell: &Cell, traced_run: bool) -> Vec<Variant> {
    let own = own_observers(cell);
    let v = |name, obs, traced| Variant { name, obs, traced };
    let mut out = Vec::new();
    if traced_run && cell.observed {
        let one = |audit, trace, telemetry| Observers {
            audit,
            trace,
            telemetry,
        };
        out.push(v("off", Observers::NONE, false));
        out.push(v("audit", one(true, false, false), false));
        out.push(v("trace", one(false, true, false), false));
        out.push(v("telemetry", one(false, false, true), false));
    }
    out.push(v("plain", own, false));
    if traced_run {
        out.push(v("traced", own, true));
    }
    out
}

/// What the observers recorded, kept from the last observed repetition
/// (its `Metrics`, with the whole trace log, is dropped at once so that
/// peak memory is one repetition's, not the run's).
#[derive(Default, Clone, Copy, PartialEq, Debug)]
struct Observed {
    audit_events: u64,
    audit_violations: u64,
    trace_retained: u64,
    trace_evicted: u64,
    telemetry_windows: u64,
}

impl Observed {
    fn of(m: &Metrics) -> Observed {
        Observed {
            audit_events: m.audit.as_ref().map_or(0, |a| a.events_checked),
            audit_violations: m.audit.as_ref().map_or(0, |a| a.total()),
            trace_retained: m.trace.as_ref().map_or(0, |t| t.events.len() as u64),
            trace_evicted: m.trace.as_ref().map_or(0, |t| t.dropped),
            telemetry_windows: m.telemetry.as_ref().map_or(0, |t| t.windows),
        }
    }
}

pub fn run(cell: &Cell, opts: &Opts, rec: &mut Recorder) -> Result<Outcome, String> {
    let variants = variants(cell, opts.trace);
    let plain_i = variants
        .iter()
        .position(|v| v.name == "plain")
        .expect("every run has the plain variant");
    let own_cfg = sim_config(cell, opts.seed, own_observers(cell));
    let mut out = Outcome::default();
    let mut off = Recorder::new(false);

    // Set-up, timed on its own: one discarded, then twenty back to back.
    // The traced run records the discarded one's stages as spans.
    rec.enter("set-up");
    let (inputs, _) = set_up(cell, &own_cfg, rec);
    rec.exit();
    let setups: Vec<SetUp> = (0..crate::setups(opts))
        .map(|_| set_up(cell, &own_cfg, &mut off).1)
        .collect();
    let stage = |f: fn(&SetUp) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    out.set("setup_s", stage(|s| s.total_s));
    out.set("topology.build_s", stage(|s| s.topology_s));
    out.set("scenario.population_s", stage(|s| s.population_s));
    out.set("simnet.new_s", stage(|s| s.new_s));

    // Warm-up repetition, observers off: discarded as a time, kept as the
    // output every timed repetition must reproduce. For the observed
    // workload this is the observer-purity check, on any seed.
    rec.enter("warm-up");
    let warm = rep(&inputs, &sim_config(cell, opts.seed, Observers::NONE), rec);
    rec.exit();
    out.attempted += 1;
    out.set("simnet.cold_run_s", warm.run_s);
    let reference = Reference {
        physics: warm.metrics.physics_json(),
        metrics: warm.metrics,
    };
    if reference.metrics.token_violations != 0 {
        out.fail(format!(
            "warm-up: {} token-bucket violations",
            reference.metrics.token_violations
        ));
    }

    let budget = Budget::new(opts);
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    let mut fingerprint_s = Vec::new();
    let mut observed: Option<Observed> = None;
    let mut allocs = (0u64, 0u64);
    let mut timed_s = 0.0;
    let mut rounds = 0;
    while !budget.done(rounds, timed_s) {
        for (vi, v) in variants.iter().enumerate() {
            let cfg = sim_config(cell, opts.seed, v.obs);
            let spans = if v.traced { &mut *rec } else { &mut off };
            let r = rep(&inputs, &cfg, spans);
            out.attempted += 1;
            times[vi].push(r.run_s);
            if vi == plain_i {
                timed_s += r.run_s;
            }
            if let Some(a) = r.allocs {
                allocs = a;
            }
            let (secs, failures) = check(&reference, &r.metrics, spans);
            fingerprint_s.push(secs);
            for f in failures {
                out.fail(format!("{} repetition {}: {f}", v.name, rounds + 1));
            }
            if v.obs == Observers::ALL {
                let now = Observed::of(&r.metrics);
                if observed.is_some_and(|before| before != now) {
                    out.fail(format!(
                        "{} repetition {}: observer counts differ",
                        v.name,
                        rounds + 1
                    ));
                }
                observed = Some(now);
            }
        }
        rounds += 1;
    }

    let time_of = |name: &str| {
        variants
            .iter()
            .position(|v| v.name == name)
            .map(|i| median(&times[i]))
    };
    let plain = Reps::of(&times[plain_i]);
    let m = &reference.metrics;
    let events = m.events_processed as f64;
    let msgs = message_stats(cell, &inputs, m)?;
    let p = &m.profile;
    let fired = |k: EvKind| p.fired[k as usize] as f64;

    out.set("run_s", plain.median);
    out.set("bench.run_s", plain.median);
    out.set("bench.reps", plain.n as f64);
    out.set("ok_frac", msgs.ok_frac);
    out.set("metrics.fingerprint_s", median(&fingerprint_s));

    out.set("eventq.scheduled", p.total_scheduled() as f64);
    out.set("eventq.fired", p.total_fired() as f64);
    out.set("eventq.cancelled", p.total_cancelled() as f64);
    out.set("eventq.stale", p.total_stale() as f64);
    out.set("eventq.peak_len", m.peak_event_queue as f64);
    out.set("simnet.events", events);
    out.set("simnet.ns_per_event", plain.median * 1e9 / events);
    out.set("simnet.events_per_sec", events / plain.median);
    out.set(
        "simnet.sim_ms_per_wall_s",
        cell.sim_ms as f64 / plain.median,
    );
    out.set("simnet.fired.arrive", fired(EvKind::Arrive));
    out.set("simnet.fired.port_free", fired(EvKind::PortFree));
    out.set("simnet.fired.nic_pull", fired(EvKind::NicPull));
    out.set("simnet.fired.rto", fired(EvKind::Rto));
    out.set("simnet.fired.hose_epoch", fired(EvKind::HoseEpoch));
    out.set("simnet.fired.pace_resume", fired(EvKind::PaceResume));
    out.set(
        "simnet.fired.apps",
        fired(EvKind::EtcArrival)
            + fired(EvKind::Oldi)
            + fired(EvKind::PoissonMsg)
            + fired(EvKind::BulkStart),
    );
    out.set("simnet.msgs_completed", msgs.completed as f64);
    out.set("simnet.late_msgs", msgs.late as f64);
    out.set("simnet.msg_p99_norm", msgs.p99_norm);
    out.set("port.drops", m.drops as f64);
    out.set(
        "port.max_queue_bytes",
        m.port_max_queue.iter().copied().max().unwrap_or(0) as f64,
    );
    out.set("tcp.rtos", m.rtos as f64);
    out.set("pacer.wire_data_bytes", m.wire_data_bytes as f64);
    out.set("pacer.wire_void_bytes", m.wire_void_bytes as f64);
    out.set("pacer.token_violations", m.token_violations as f64);
    if let Some(o) = observed {
        out.set("audit.events_checked", o.audit_events as f64);
        out.set("audit.violations", o.audit_violations as f64);
        out.set("trace.events_retained", o.trace_retained as f64);
        out.set("trace.events_evicted", o.trace_evicted as f64);
        out.set("telemetry.windows", o.telemetry_windows as f64);
    }

    if opts.trace {
        let traced = time_of("traced").expect("traced variant");
        out.set("bench.trace_overhead_ratio", traced / plain.median);
        out.set("alloc.count_per_kop", allocs.0 as f64 * 1e3 / events);
        out.set("alloc.bytes_per_op", allocs.1 as f64 / events);
        if let Some(off_s) = time_of("off") {
            for (metric, name) in [
                ("audit.overhead_ratio", "audit"),
                ("trace.overhead_ratio", "trace"),
                ("telemetry.overhead_ratio", "telemetry"),
                ("observers.overhead_ratio", "plain"),
            ] {
                out.set(metric, time_of(name).expect("observer variant") / off_s);
            }
        }
        rec.enter("layer kernels");
        layer_estimates(cell, &own_cfg, m, plain.median, opts.quick, &mut out);
        rec.exit();
    }

    out.fingerprint = Some(golden::Fingerprint::of(reference.physics.as_bytes()));
    out.rep_times = variants
        .iter()
        .map(|v| v.name.to_string())
        .zip(times)
        .collect();
    Ok(out)
}

/// Price each layer with its kernel and the run's own operation counts.
///
/// Operation counts come from `Metrics`: queue calls from the event
/// profile, port packets from `PortFree` dispatches, TCP segments from
/// delivered bytes over the MSS (each also costs an ack, hence two arena
/// packets per segment), pacer packets from wire data bytes over the MTU.
/// `HoseAllocator` is timed but left out of the pacer's share: `Sim`
/// divides hoses in its own code, which no kernel reaches.
fn layer_estimates(
    cell: &Cell,
    cfg: &SimConfig,
    m: &Metrics,
    run_s: f64,
    quick: bool,
    out: &mut Outcome,
) {
    let ops: u64 = if quick { 20_000 } else { 400_000 };
    let p = &m.profile;
    let mix = QueueMix {
        peak_len: m.peak_event_queue,
        scheduled: p.total_scheduled(),
        cancelled: p.total_cancelled(),
    };
    let eventq = kernels::eventq_ns_per_op(&mix, ops);
    let port = kernels::port_ns_per_pkt(ops);
    let tcp = kernels::tcp_ns_per_segment(ops);
    let packet = kernels::packet_ns_per_alloc_free(ops);
    let stats = kernels::stats_ns_per_record(ops);
    out.set("eventq.ns_per_op", eventq);
    out.set("port.ns_per_pkt", port);
    out.set("tcp.ns_per_segment", tcp);
    out.set("packet.ns_per_alloc_free", packet);
    out.set("stats.ns_per_record", stats);

    let run_ns = run_s * 1e9;
    let queue_ops =
        (p.total_scheduled() + p.total_cancelled() + p.total_fired() + p.total_stale()) as f64;
    let segments = m.goodput.iter().sum::<u64>() as f64 / cfg.mss() as f64;
    let mut shares = vec![
        ("est_share.eventq", eventq * queue_ops),
        (
            "est_share.port",
            port * p.fired[EvKind::PortFree as usize] as f64,
        ),
        ("est_share.tcp", tcp * segments),
        ("est_share.packet", packet * 2.0 * segments),
        ("est_share.stats", stats * m.messages_total as f64),
    ];
    if cell.mode.paced() {
        let stamp = kernels::pacer_ns_per_stamp(ops);
        let batched = kernels::pacer_ns_per_batched_pkt(ops);
        out.set("pacer.ns_per_stamp", stamp);
        out.set("pacer.ns_per_batched_pkt", batched);
        out.set(
            "pacer.ns_per_hose_alloc",
            kernels::pacer_ns_per_hose_alloc(ops / 400),
        );
        let paced_pkts = m.wire_data_bytes as f64 / cfg.mtu.as_f64();
        shares.push(("est_share.pacer", (stamp + batched) * paced_pkts));
    }
    let mut known = 0.0;
    for (name, ns) in shares {
        out.set(name, ns / run_ns);
        known += ns / run_ns;
    }
    out.set("est_share.unattributed", 1.0 - known);
}
