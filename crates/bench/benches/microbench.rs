//! Microbenchmarks for the performance-sensitive substrates: placement
//! admission at datacenter scale (§5's 1.15 s budget), the pacer datapath,
//! network-calculus curve operations, max-min waterfilling, and the
//! discrete-event queue (timer wheel vs. reference binary heap).
//!
//! Self-contained harness (`harness = false`): each benchmark reports the
//! median ns/iteration over several samples. `--quick` cuts sample counts
//! for CI. The event-queue benches double as machine-independent
//! regression gates (ratios, enforced with `--enforce`): the timer wheel
//! against the reference heap, cancellation against tombstones, per-port
//! lanes against plain pushes, and in-place re-arm against cancel + push.

use silo_base::{seeded_rng, Bytes, Dur, EventQueue, Rate, Time};
use silo_flowsim::{waterfill, Allocator};
use silo_netcalc::{backlog_bound, Curve, ServiceCurve};
use silo_pacer::{Batch, BucketChain, PacedBatcher, TokenBucket};
use silo_placement::{Guarantee, Placer, SiloPlacer, TenantRequest};
use silo_topology::{HostId, Topology, TreeParams};
use std::time::Instant;

struct Harness {
    quick: bool,
    enforce: bool,
    results: Vec<(String, f64)>,
}

impl Harness {
    /// Time `f` and record the median ns per iteration.
    fn bench<F: FnMut()>(&mut self, name: &str, mut f: F) -> f64 {
        let samples = if self.quick { 3 } else { 10 };
        // Calibrate the per-sample iteration count to ~20 ms (2 ms quick).
        let budget_ns = if self.quick { 2e6 } else { 2e7 };
        let t0 = Instant::now();
        f();
        let once = t0.elapsed().as_nanos().max(1) as f64;
        let iters = ((budget_ns / once) as usize).clamp(1, 1_000_000);
        let mut meds: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            meds.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        meds.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = meds[meds.len() / 2];
        println!("{name:<44} {med:>12.1} ns/iter  ({iters} iters x {samples} samples)");
        self.results.push((name.to_string(), med));
        med
    }
}

fn placement_topo(hosts_scale: usize) -> Topology {
    Topology::build(TreeParams {
        pods: hosts_scale,
        racks_per_pod: 25,
        servers_per_rack: 40,
        vm_slots_per_server: 8,
        host_link: Rate::from_gbps(10),
        tor_oversub: 5.0,
        agg_oversub: 5.0,
        switch_buffer: Bytes::from_kb(312),
        nic_buffer: Bytes::from_kb(64),
        prop_delay: Dur::from_ns(500),
    })
}

fn bench_placement(h: &mut Harness) {
    // 25 racks x 40 servers per pod; quick mode shrinks the datacenter so
    // CI finishes in seconds.
    let topo = placement_topo(if h.quick { 2 } else { 10 });
    let mut placer = SiloPlacer::new(topo);
    // Pre-fill to ~50% with tenant shapes admission accepts (large
    // class-A tenants are *correctly* rejected by C1, but every rejection
    // scans the whole datacenter — that cost belongs in the measured
    // loop, not the setup).
    let mut rng = seeded_rng(1);
    let mut filled = 0usize;
    let total = placer.topology().params().num_vm_slots();
    let mut toggle = false;
    while filled < total / 2 {
        toggle = !toggle;
        let (n, g) = if toggle {
            (
                (silo_base::exponential(&mut rng, 1.0 / 12.0) as usize).clamp(2, 24),
                Guarantee::class_a(),
            )
        } else {
            (
                (silo_base::exponential(&mut rng, 1.0 / 30.0) as usize).clamp(2, 60),
                Guarantee::class_b(),
            )
        };
        if placer.try_place(&TenantRequest::new(n, g)).is_ok() {
            filled += n;
        }
    }
    h.bench("placement/admit_49vm_tenant", || {
        let req = TenantRequest::new(49, Guarantee::class_a());
        if let Ok(p) = placer.try_place(&req) {
            placer.remove(p.tenant);
        }
    });
}

fn bench_pacer(h: &mut Harness) {
    let mut chain = BucketChain::new(vec![
        TokenBucket::new(Rate::from_gbps(1), Bytes::from_kb(15)),
        TokenBucket::new(Rate::from_gbps(10), Bytes(1500)),
    ]);
    let mut now = Time::ZERO;
    h.bench("pacer/stamp_packet", || {
        now = chain.stamp(now, Bytes(1500));
    });

    h.bench("pacer/batch_assembly_50us", || {
        let mut batcher: PacedBatcher<u32> =
            PacedBatcher::new(Rate::from_gbps(10), Dur::from_us(50), Bytes(1500));
        // 2 Gbps pacing: 8 data packets + voids per 50 us batch.
        for i in 0..8u32 {
            batcher.enqueue(Time::from_us(6 * i as u64), Bytes(1500), i);
        }
        batcher.next_batch(Time::ZERO);
    });
}

fn bench_netcalc(h: &mut Harness) {
    let a = Curve::dual_slope(
        Rate::from_gbps(1),
        Bytes::from_kb(100),
        Rate::from_gbps(10),
        Bytes(1500),
    );
    let svc = ServiceCurve::constant_rate(Rate::from_gbps(10));
    h.bench("netcalc/add_dual_slope", || {
        std::hint::black_box(a.add(std::hint::black_box(&a)));
    });
    let agg = a.scale(6.0);
    h.bench("netcalc/backlog_bound", || {
        std::hint::black_box(backlog_bound(std::hint::black_box(&agg), &svc));
    });
}

fn bench_waterfill(h: &mut Harness) {
    let topo = Topology::build(TreeParams::ns2_paper());
    let mut rng = seeded_rng(7);
    let flows: Vec<silo_flowsim::AllocFlow> = (0..1000)
        .map(|_| {
            let s = HostId((silo_base::exponential(&mut rng, 1.0) * 100.0) as u32 % 400);
            let d = HostId((silo_base::exponential(&mut rng, 1.0) * 173.0) as u32 % 400);
            silo_flowsim::AllocFlow {
                path: topo.path_ports(s, d),
                src_hose: Rate::from_gbps(1),
                out_deg: 1,
                dst_hose: Rate::from_gbps(1),
                in_deg: 1,
            }
        })
        .collect();
    h.bench("flowsim/waterfill_1000_flows", || {
        std::hint::black_box(waterfill(&topo, std::hint::black_box(&flows)));
    });
    let _ = Allocator::FairShare;
}

/// The simulator's event pattern in miniature: a rolling window of
/// mixed-horizon timers (packet tx ~us, RTOs ~ms), pushed and popped in
/// monotone time order. Returns ns/op for the given queue.
fn churn_queue(q: &mut EventQueue<u64>, ops: usize) -> f64 {
    let mut rng = seeded_rng(99);
    use rand::Rng;
    let mut now = 0u64;
    // Warm the queue to a realistic standing depth.
    for i in 0..4096u64 {
        let dt = if i % 7 == 0 { 1_000_000_000 } else { 1_200_000 };
        q.push(Time(now + rng.random_range(0..dt)), i);
    }
    let t0 = Instant::now();
    for i in 0..ops {
        let (t, _) = q.pop().expect("queue stays warm");
        now = t.as_ps();
        let dt = if i % 7 == 0 { 1_000_000_000 } else { 1_200_000 };
        q.push(Time(now + rng.random_range(0..dt)), i as u64);
    }
    t0.elapsed().as_nanos() as f64 / ops as f64
}

fn bench_eventq(h: &mut Harness) -> (f64, f64) {
    let ops = if h.quick { 200_000 } else { 2_000_000 };
    let mut wheel = EventQueue::new();
    let wheel_ns = churn_queue(&mut wheel, ops);
    println!(
        "{:<44} {wheel_ns:>12.1} ns/op   ({ops} ops)",
        "eventq/wheel_churn_4096"
    );
    h.results.push(("eventq/wheel_churn_4096".into(), wheel_ns));
    let mut heap = EventQueue::reference_heap();
    let heap_ns = churn_queue(&mut heap, ops);
    println!(
        "{:<44} {heap_ns:>12.1} ns/op   ({ops} ops)",
        "eventq/heap_churn_4096"
    );
    h.results.push(("eventq/heap_churn_4096".into(), heap_ns));
    (wheel_ns, heap_ns)
}

/// How [`rearm_churn`] supersedes a pending timer. `Tombstone` leaves the
/// dead timer buried until it surfaces and is skipped, so the standing
/// population grows to the full horizon (~8 k dead entries); `Cancel`
/// removes it at re-arm time (`cancel` + `push_cancelable`) and the queue
/// holds only the 64 live ones; `InPlace` does the same through
/// `EventQueue::rearm`, which overwrites the timer where it lies whenever
/// the new expiry files into the same wheel slot.
#[derive(Clone, Copy, PartialEq)]
enum Supersede {
    Tombstone,
    Cancel,
    InPlace,
}

/// The simulator's RTO pattern in miniature: 64 connections each re-arm a
/// 10 ms timer every segment (~1.2 µs), so a timer is superseded ~8000
/// times before it would fire. Returns ns per re-arm.
fn rearm_churn(q: &mut EventQueue<u64>, ops: usize, mode: Supersede) -> f64 {
    const CONNS: usize = 64;
    const REARM_PS: u64 = 1_200_000; // one MTU tx at 10 GbE
    const RTO_PS: u64 = 10_000_000_000; // 10 ms min RTO
    let mut keys = [None; CONNS];
    let mut now = 0u64;
    let t0 = Instant::now();
    for i in 0..ops {
        let c = i % CONNS;
        now += REARM_PS;
        let at = Time(now + RTO_PS);
        match (mode, keys[c]) {
            (Supersede::Tombstone, _) => q.push(at, c as u64),
            (Supersede::InPlace, Some(k)) => keys[c] = Some(q.rearm(k, at, c as u64).0),
            (_, old) => {
                if let Some(k) = old {
                    q.cancel(k);
                }
                keys[c] = Some(q.push_cancelable(at, c as u64));
            }
        }
        // Drain everything due (tombstones dominate in the no-cancel run).
        while q.peek_time().is_some_and(|t| t.as_ps() <= now) {
            q.pop();
        }
    }
    t0.elapsed().as_nanos() as f64 / ops as f64
}

/// Silo's void-dominated NIC drain in miniature: two MTU packets per
/// 50 µs window (~480 Mbps of a 10 GbE link) leave ~95% of each batch
/// void, so the per-chunk batcher materializes ~40 MTU void frames per
/// window where the coalescing one emits a single run per gap. The timed
/// loop includes the consumer walk over the emitted frames — the
/// per-frame engine touch is exactly what coalescing dies to avoid.
/// Returns (ns per window, total frames emitted).
fn void_drain(windows: usize, coalesce: bool) -> (f64, u64) {
    let mut b: PacedBatcher<u32> =
        PacedBatcher::new(Rate::from_gbps(10), Dur::from_us(50), Bytes(1500));
    b.coalesce_voids(coalesce);
    for i in 0..windows as u64 {
        b.enqueue(Time::from_us(50 * i + 11), Bytes(1500), i as u32);
        b.enqueue(Time::from_us(50 * i + 37), Bytes(1500), i as u32);
    }
    let mut out = Batch::empty();
    let mut now = Time::ZERO;
    let mut frames = 0u64;
    let t0 = Instant::now();
    while b.pending() > 0 {
        b.next_batch_into(now, &mut out);
        for f in &out.frames {
            frames += 1;
            std::hint::black_box((f.start, f.size));
        }
        now = if out.is_empty() {
            b.next_stamp().expect("pending").max(now)
        } else {
            out.done_at
        };
    }
    (t0.elapsed().as_nanos() as f64 / windows as f64, frames)
}

fn bench_void_coalesce(h: &mut Harness) -> (f64, f64) {
    let windows = if h.quick { 20_000 } else { 200_000 };
    let (plain_ns, plain_frames) = void_drain(windows, false);
    println!(
        "{:<44} {plain_ns:>12.1} ns/win   ({windows} windows, {plain_frames} frames)",
        "pacer/void_drain_per_chunk"
    );
    h.results
        .push(("pacer/void_drain_per_chunk".into(), plain_ns));
    let (co_ns, co_frames) = void_drain(windows, true);
    println!(
        "{:<44} {co_ns:>12.1} ns/win   ({windows} windows, {co_frames} frames)",
        "pacer/void_drain_coalesced"
    );
    h.results.push(("pacer/void_drain_coalesced".into(), co_ns));
    assert!(
        plain_frames > 2 * co_frames,
        "coalescing must shrink the frame population ({plain_frames} vs {co_frames})"
    );
    (plain_ns, co_ns)
}

/// A queue item the size of the simulator's event (40 bytes).
type SimSized = (u64, [u64; 4]);

/// The simulator's per-hop pattern in miniature, at the populations a
/// `pkt_silo` cell holds (≈200 non-empty lanes, ≈1 400 lane entries, over
/// a wheel of timers): 64 egress ports transmitting back to back, each
/// start pushing its `PortFree` one frame time ahead and the frame's
/// `Arrive` one propagation delay after that; 64 paced NICs whose 50 µs
/// pull (a timer, filed through the wheel either way) pushes a batch of
/// 20 frame arrivals; and 64 standing 10 ms timers. Each source's event
/// stream is monotone, so `lanes = true` appends it to that source's FIFO
/// (`push_lane`); `lanes = false` files every event through the wheel.
/// Returns ns per event (one push plus one pop).
fn port_churn(q: &mut EventQueue<SimSized>, events: usize, lanes: bool) -> f64 {
    const PORTS: u64 = 64;
    const NICS: u64 = 64;
    const PROP_PS: u64 = 500_000;
    const FRAME_PS: u64 = 1_200_000; // one MTU at 10 GbE
    const WINDOW_PS: u64 = 50_000_000;
    const ARRIVE: u64 = 1 << 32;
    const PULL: u64 = 1 << 33;
    const TIMER: u64 = 1 << 34;
    let mut rng = seeded_rng(7);
    use rand::Rng;
    let push = |q: &mut EventQueue<SimSized>, lane: u64, t: u64, item: u64| {
        if lanes {
            q.push_lane(lane as usize, Time(t), (item, [t; 4]));
        } else {
            q.push(Time(t), (item, [t; 4]));
        }
    };
    for c in 0..64u64 {
        q.push(Time(10_000_000_000 + c * 1_000_000_000), (TIMER, [0; 4]));
    }
    for p in 0..PORTS {
        push(q, p, rng.random_range(0..FRAME_PS), p);
    }
    for n in 0..NICS {
        q.push(Time(rng.random_range(0..WINDOW_PS)), (PULL | n, [0; 4]));
    }
    let t0 = Instant::now();
    for _ in 0..events {
        let (t, (item, _)) = q.pop().expect("ports never go idle");
        let t = t.as_ps();
        if item < PORTS {
            // PortFree: the port starts its next frame (64 B .. 1500 B).
            let t_free = t + rng.random_range(51_200..FRAME_PS);
            push(q, item, t_free, item);
            push(q, PORTS + item, t_free + PROP_PS, ARRIVE | item);
        } else if item & PULL != 0 {
            // NicPull: a paced batch, every other wire slot a data frame.
            let nic = item & !PULL;
            for i in 0..20 {
                let arrive = t + 2 * i * FRAME_PS + FRAME_PS + PROP_PS;
                push(q, 2 * PORTS + nic, arrive, ARRIVE | nic);
            }
            q.push(Time(t + WINDOW_PS), (item, [0; 4]));
        }
    }
    t0.elapsed().as_nanos() as f64 / events as f64
}

/// Alternate two variants of one loop for a few rounds and keep each
/// one's fastest round: a ratio of single runs on a shared host mostly
/// measures which run the host slowed down.
fn best_of_alternating(mut run: impl FnMut(usize) -> f64) -> [f64; 2] {
    let mut best = [f64::INFINITY; 2];
    for _ in 0..5 {
        for (variant, b) in best.iter_mut().enumerate() {
            *b = b.min(run(variant));
        }
    }
    best
}

fn bench_lane_merge(h: &mut Harness) -> (f64, f64) {
    let events = if h.quick { 400_000 } else { 4_000_000 };
    let mut pushed = [0; 2];
    let [plain_ns, lane_ns] = best_of_alternating(|lanes| {
        let mut q = EventQueue::new();
        let ns = port_churn(&mut q, events, lanes == 1);
        pushed[lanes] = q.pushed();
        ns
    });
    assert_eq!(pushed[0], pushed[1], "both variants run the same schedule");
    for (name, ns) in [
        ("eventq/lane_merge_plain_push", plain_ns),
        ("eventq/lane_merge", lane_ns),
    ] {
        println!("{name:<44} {ns:>12.1} ns/ev   ({events} events, best of 5)");
        h.results.push((name.into(), ns));
    }
    (plain_ns, lane_ns)
}

fn bench_timer_cancel(h: &mut Harness) -> (f64, f64, f64) {
    let ops = if h.quick { 200_000 } else { 2_000_000 };
    let mut tomb = EventQueue::new();
    let tomb_ns = rearm_churn(&mut tomb, ops, Supersede::Tombstone);
    println!(
        "{:<44} {tomb_ns:>12.1} ns/op   ({ops} ops, peak {} entries)",
        "eventq/rearm_tombstone",
        tomb.peak_len()
    );
    h.results.push(("eventq/rearm_tombstone".into(), tomb_ns));
    let mut peak = [0; 2];
    let [canc_ns, inpl_ns] = best_of_alternating(|v| {
        let mut q = EventQueue::new();
        let mode = [Supersede::Cancel, Supersede::InPlace][v];
        let ns = rearm_churn(&mut q, ops, mode);
        peak[v] = q.peak_len();
        ns
    });
    for (name, ns, peak) in [
        ("eventq/rearm_cancel", canc_ns, peak[0]),
        ("eventq/rearm_in_place", inpl_ns, peak[1]),
    ] {
        println!("{name:<44} {ns:>12.1} ns/op   ({ops} ops, peak {peak} entries, best of 5)");
        h.results.push((name.into(), ns));
    }
    (tomb_ns, canc_ns, inpl_ns)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Cargo's bench runner passes --bench through; ignore it.
    let quick = argv.iter().any(|a| a == "--quick");
    let enforce = argv.iter().any(|a| a == "--enforce");
    let mut h = Harness {
        quick,
        enforce,
        results: Vec::new(),
    };
    println!("== silo microbench (quick={quick}) ==");
    bench_placement(&mut h);
    bench_pacer(&mut h);
    bench_netcalc(&mut h);
    bench_waterfill(&mut h);
    let (wheel_ns, heap_ns) = bench_eventq(&mut h);
    let (tomb_ns, canc_ns, inpl_ns) = bench_timer_cancel(&mut h);
    let (plain_push_ns, lane_ns) = bench_lane_merge(&mut h);
    let (plain_ns, co_ns) = bench_void_coalesce(&mut h);
    // Machine-independent regression gates (ratios, so CI hardware
    // variance doesn't matter):
    // 1. The timer wheel must beat the reference heap on the simulator's
    //    event pattern: it is the default backend only because it is
    //    faster (ratio ~0.8 on this churn of 8-byte entries; 3.7x
    //    events/sec on the simnet grid, whose entries are 100+ bytes), so
    //    a wheel that merely ties has lost its reason to exist.
    let ratio = wheel_ns / heap_ns;
    println!("eventq wheel/heap ratio: {ratio:.2} (gate: < 1.0)");
    // 2. Cancellation must beat the tombstone scheme by >= 1.3x on the
    //    RTO re-arm pattern — the win the simulator's cancel_timers
    //    default is predicated on.
    let cancel_gain = tomb_ns / canc_ns;
    println!("eventq tombstone/cancel re-arm gain: {cancel_gain:.2}x (gate: >= 1.3)");
    // 3. Coalesced void emission must beat per-chunk emission by >= 2x on
    //    a void-dominated Silo drain (emission + consumer walk) — the win
    //    the simnet `coalesce_voids` default is predicated on.
    let void_gain = plain_ns / co_ns;
    println!("pacer per-chunk/coalesced void-drain gain: {void_gain:.2}x (gate: >= 2.0)");
    // 4. The per-hop fast path's two mechanisms. An in-place re-arm must
    //    beat cancel + push by >= 1.15x (measured 1.22-1.56x). Per-port
    //    lanes are gated from the other side: with every structure
    //    resident in L1 the lane merge runs at 0.84-1.14x the 1 ns-tick
    //    wheel, while in the simulator it is worth 14-16 % of a whole
    //    `pkt_silo` / `pkt_tcp` run (interleaved A/B in DESIGN.md), which
    //    this in-cache loop does not reproduce. So the gate only catches
    //    the lane path itself getting slower: >= 0.7x.
    let lane_gain = plain_push_ns / lane_ns;
    println!("eventq plain-push/lane per-port ratio: {lane_gain:.2}x (gate: >= 0.7)");
    let rearm_gain = canc_ns / inpl_ns;
    println!("eventq cancel+push/rearm gain: {rearm_gain:.2}x (gate: >= 1.15)");
    if h.enforce {
        if lane_gain < 0.7 {
            eprintln!("REGRESSION: lanes at {lane_gain:.2}x of plain pushes (need 0.7x)");
            std::process::exit(1);
        }
        if rearm_gain < 1.15 {
            eprintln!("REGRESSION: rearm only {rearm_gain:.2}x over cancel + push (need 1.15x)");
            std::process::exit(1);
        }
        if ratio >= 1.0 {
            eprintln!("REGRESSION: timer wheel no faster than the reference heap ({ratio:.2}x)");
            std::process::exit(1);
        }
        if cancel_gain < 1.3 {
            eprintln!(
                "REGRESSION: timer cancellation only {cancel_gain:.2}x over tombstones (need 1.3x)"
            );
            std::process::exit(1);
        }
        if void_gain < 2.0 {
            eprintln!(
                "REGRESSION: void coalescing only {void_gain:.2}x over per-chunk emission (need 2x)"
            );
            std::process::exit(1);
        }
    }
}
