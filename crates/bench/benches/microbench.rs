//! Microbenchmarks for the performance-sensitive substrates: placement
//! admission at datacenter scale (§5's 1.15 s budget), the pacer datapath,
//! network-calculus curve operations, max-min waterfilling, and the
//! discrete-event queue (timer wheel vs. reference binary heap).
//!
//! Self-contained harness (`harness = false`): each benchmark reports the
//! median ns/iteration over several samples. `--quick` cuts sample counts
//! for CI. The event-queue benches double as machine-independent
//! regression gates (ratios, enforced with `--enforce`): the timer wheel
//! against the reference heap, in-place re-arm against cancel + push, and
//! the batcher's O(1) void-run reduction against walking its chunks.

use silo_base::{seeded_rng, Bytes, Dur, EventQueue, Rate, Time};
use silo_flowsim::waterfill;
use silo_netcalc::{backlog_bound, Curve, ServiceCurve};
use silo_pacer::{Batch, BucketChain, PacedBatcher, TokenBucket, VoidChunks, WireFrame};
use silo_placement::{Guarantee, Placer, SiloPlacer, TenantRequest};
use silo_topology::{HostId, PortId, Topology, TreeParams};
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
    let paths: Vec<Vec<PortId>> = (0..1000)
        .map(|_| {
            let s = HostId((silo_base::exponential(&mut rng, 1.0) * 100.0) as u32 % 400);
            let d = HostId((silo_base::exponential(&mut rng, 1.0) * 173.0) as u32 % 400);
            topo.path_ports(s, d)
        })
        .collect();
    let paths: Vec<&[PortId]> = paths.iter().map(Vec::as_slice).collect();
    h.bench("flowsim/waterfill_1000_flows", || {
        std::hint::black_box(waterfill(&topo, std::hint::black_box(&paths)));
    });
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

/// The simulator's RTO pattern in miniature: 64 connections each re-arm a
/// 10 ms timer every segment (~1.2 µs), so a timer is superseded ~8000
/// times before it would fire and the queue holds only the 64 live ones.
/// `in_place` supersedes through `EventQueue::rearm`, which overwrites the
/// timer where it lies whenever the new expiry files into the same wheel
/// slot; otherwise through `cancel` + `push_cancelable`. Returns ns per
/// re-arm.
fn rearm_churn(q: &mut EventQueue<u64>, ops: usize, in_place: bool) -> f64 {
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
        keys[c] = Some(match keys[c] {
            Some(k) if in_place => q.rearm(k, at, c as u64).0,
            old => {
                if let Some(k) = old {
                    q.cancel(k);
                }
                q.push_cancelable(at, c as u64)
            }
        });
        while q.peek_time().is_some_and(|t| t.as_ps() <= now) {
            q.pop();
        }
    }
    t0.elapsed().as_nanos() as f64 / ops as f64
}

const VOID_LINK: Rate = Rate(10_000_000_000);
const VOID_MTU: Bytes = Bytes(1500);

/// The void runs of Silo's void-dominated NIC drain in miniature: two MTU
/// packets per 50 µs window (~480 Mbps of a 10 GbE link) leave ~95% of
/// each batch void, about 40 MTU chunks per window. Returns each run's
/// `(start, gap_end)`.
fn void_gaps(windows: usize) -> Vec<(Time, Time)> {
    let mut b: PacedBatcher<u32> = PacedBatcher::new(VOID_LINK, Dur::from_us(50), VOID_MTU);
    for i in 0..windows as u64 {
        b.enqueue(Time::from_us(50 * i + 11), Bytes(1500), i as u32);
        b.enqueue(Time::from_us(50 * i + 37), Bytes(1500), i as u32);
    }
    let mut out = Batch::empty();
    let mut now = Time::ZERO;
    let mut gaps = Vec::new();
    while b.pending() > 0 {
        b.next_batch_into(now, &mut out);
        for f in &out.frames {
            if let WireFrame::Void { start, gap_end, .. } = *f {
                gaps.push((start, gap_end));
            }
        }
        now = if out.is_empty() {
            b.next_stamp().expect("pending").max(now)
        } else {
            out.done_at
        };
    }
    gaps
}

/// Reduce every gap to its (total bytes, final cursor), as the batcher
/// does per run: with `VoidChunks::drain_total`'s O(1) full-MTU skip, or
/// by walking the `VoidChunks` iterator chunk by chunk. Returns (ns per
/// window, sum of bytes and cursors, which both ways must agree on).
fn void_runs(gaps: &[(Time, Time)], windows: usize, skip: bool) -> (f64, u64) {
    let mut check = 0u64;
    let t0 = Instant::now();
    for &(start, gap_end) in gaps {
        let chunks = VoidChunks::new(start, gap_end, VOID_LINK, VOID_MTU);
        let (bytes, cursor) = if skip {
            chunks.drain_total()
        } else {
            let mut walk = chunks;
            let bytes = walk.by_ref().map(|(_, size)| size).sum::<Bytes>();
            (bytes, walk.cursor())
        };
        check = check.wrapping_add(std::hint::black_box(bytes.as_u64() ^ cursor.as_ps()));
    }
    (t0.elapsed().as_nanos() as f64 / windows as f64, check)
}

fn bench_void_runs(h: &mut Harness) -> (f64, f64) {
    let windows = if h.quick { 20_000 } else { 200_000 };
    let gaps = void_gaps(windows);
    let mut check = [0; 2];
    let [walk_ns, skip_ns] = best_of_alternating(|v| {
        let (ns, c) = void_runs(&gaps, windows, v == 1);
        check[v] = c;
        ns
    });
    assert_eq!(
        check[0], check[1],
        "drain_total must agree with the iterator"
    );
    for (name, ns) in [
        ("pacer/void_runs_iterated", walk_ns),
        ("pacer/void_runs_drain_total", skip_ns),
    ] {
        println!(
            "{name:<44} {ns:>12.1} ns/win   ({windows} windows, {} runs, best of 5)",
            gaps.len()
        );
        h.results.push((name.into(), ns));
    }
    (walk_ns, skip_ns)
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

fn bench_timer_rearm(h: &mut Harness) -> (f64, f64) {
    let ops = if h.quick { 200_000 } else { 2_000_000 };
    let mut peak = [0; 2];
    let [canc_ns, inpl_ns] = best_of_alternating(|v| {
        let mut q = EventQueue::new();
        let ns = rearm_churn(&mut q, ops, v == 1);
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
    (canc_ns, inpl_ns)
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
    let (canc_ns, inpl_ns) = bench_timer_rearm(&mut h);
    let (walk_ns, skip_ns) = bench_void_runs(&mut h);
    // Machine-independent regression gates (ratios, so CI hardware
    // variance doesn't matter):
    // 1. The timer wheel must beat the reference heap on the simulator's
    //    event pattern (measured 0.42-0.58): it is the default backend
    //    only because it is faster, so a wheel that merely ties has lost
    //    its reason to exist.
    let ratio = wheel_ns / heap_ns;
    println!("eventq wheel/heap ratio: {ratio:.2} (gate: < 1.0)");
    // 2. `VoidChunks::drain_total` must reduce a void-dominated Silo
    //    drain's runs >= 2x faster than walking their chunks: the batcher
    //    emits one frame per gap, which only pays while sizing the run
    //    skips its full-MTU chunks.
    let void_gain = walk_ns / skip_ns;
    println!("pacer iterated/drain_total void-run gain: {void_gain:.2}x (gate: >= 2.0)");
    // 3. An in-place re-arm must beat cancel + push by >= 1.15x (measured
    //    1.22-1.56x): every RTO and NIC-pull supersede in `Sim` goes
    //    through `EventQueue::rearm`.
    let rearm_gain = canc_ns / inpl_ns;
    println!("eventq cancel+push/rearm gain: {rearm_gain:.2}x (gate: >= 1.15)");
    if h.enforce {
        if rearm_gain < 1.15 {
            eprintln!("REGRESSION: rearm only {rearm_gain:.2}x over cancel + push (need 1.15x)");
            std::process::exit(1);
        }
        if ratio >= 1.0 {
            eprintln!("REGRESSION: timer wheel no faster than the reference heap ({ratio:.2}x)");
            std::process::exit(1);
        }
        if void_gain < 2.0 {
            eprintln!(
                "REGRESSION: drain_total only {void_gain:.2}x over walking the void chunks (need 2x)"
            );
            std::process::exit(1);
        }
    }
}
