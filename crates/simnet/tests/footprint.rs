//! What `Sim::new` asks the allocator for, and what `Sim::run` holds at
//! its peak, per host.
//!
//! The engine's structures grow from what the run puts into them
//! (DESIGN.md, "memory follows traffic"). A speculative reservation made
//! for every host or port — a pacer stamp queue pre-sized for 256
//! frames once cost 282 KiB a host, in TCP mode too, where the pacer
//! never runs — shows up here long before it shows up as peak RSS. So
//! does a structure that keeps what one burst grew it to for the rest of
//! the run, which only the run-phase peak sees.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use silo_base::{Bytes, Dur, Rate};
use silo_simnet::{Sim, SimConfig, TenantSpec, TenantWorkload, TransportMode};
use silo_topology::{HostId, Topology, TreeParams};

struct Counting;

thread_local! {
    // Only the measuring thread counts, so the test harness's own threads
    // (and a test running beside this one) never leak into the figure.
    // Const-initialised `Cell`s of plain integers: reading them never
    // allocates and they have no destructor.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Bytes requested (`alloc` sizes plus `realloc` new sizes).
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
    /// Bytes live now, relative to when counting was last reset.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// High-water mark of `LIVE`.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocator call on an armed thread: `requested` bytes asked
/// for, and `delta` bytes more (or fewer) live afterwards.
fn note(requested: usize, delta: i64) {
    if ARMED.with(Cell::get) {
        REQUESTED.with(|r| r.set(r.get() + requested as u64));
        let live = LIVE.with(|l| {
            l.set(l.get() + delta);
            l.get()
        });
        PEAK.with(|p| p.set(p.get().max(live)));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the const-initialised
// thread-local counters touch no allocator state and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size() as i64);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` with counting armed on this thread, from zeroed counters.
/// Returns `f`'s value, the bytes it requested and the peak of the bytes
/// it held live at once (what it freed of earlier allocations counts
/// against that, so the peak is never below zero).
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    REQUESTED.with(|r| r.set(0));
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, REQUESTED.with(Cell::get), PEAK.with(Cell::get))
}

/// The shape of the benchmark's population on `ns2_scaled(0.25)`: 90 %
/// of the slots in tenants of 24 VMs (the mean of its 8–48), each spread
/// over 24 neighbouring hosts.
fn population(hosts: usize, slots: usize) -> Vec<TenantSpec> {
    const VMS: usize = 24;
    (0..hosts * slots * 9 / 10 / VMS)
        .map(|i| TenantSpec {
            vm_hosts: (0..VMS)
                .map(|k| HostId(((i * VMS + k) % hosts) as u32))
                .collect(),
            b: Rate::from_mbps(500),
            s: Bytes::from_kb(15),
            bmax: Rate::from_gbps(1),
            prio: 0,
            delay: None,
            workload: TenantWorkload::OldiAllToOne {
                msg_mean: Bytes::from_kb(15),
                interval: Dur::from_us(500),
            },
        })
        .collect()
}

/// Limit per host: the cell needs about 15 KiB.
const PER_HOST_LIMIT: u64 = 32 * 1024;

#[test]
fn sim_new_requests_little_per_host_in_every_mode() {
    let params = TreeParams::ns2_scaled(0.25);
    let topo = Topology::build(params);
    let hosts = topo.num_hosts() as u64;
    let specs = population(topo.num_hosts(), params.vm_slots_per_server);
    for mode in [TransportMode::Silo, TransportMode::Tcp] {
        let cfg = SimConfig::new(mode, Dur::from_ms(15), 1);
        let (topo, specs) = (topo.clone(), specs.clone());
        let (sim, bytes, _) = counted(|| Sim::new(topo, cfg, specs));
        drop(sim);
        let per_host = bytes / hosts;
        assert!(
            per_host < PER_HOST_LIMIT,
            "{mode:?}: Sim::new requested {bytes} B for {hosts} hosts \
             ({per_host} B a host, limit {PER_HOST_LIMIT}): a per-host or \
             per-port reservation is back"
        );
    }
}

/// The run-phase cell: the benchmark's 15 simulated ms of Silo.
const RUN_MS: u64 = 15;

/// Limit per host on the bytes `Sim::run` holds live at once: the cell
/// peaks at 48.9 KB a host, with the paced stamps on their senders' lanes
/// and the wheel freeing the slot vectors big cascades grew. Stamps filed
/// through the wheel instead peak at 105 KB, and pooling every drained
/// slot vector at 62 KB.
const RUN_PER_HOST_LIMIT: i64 = 56 * 1024;

#[test]
fn sim_run_holds_little_live_memory_per_host() {
    let params = TreeParams::ns2_scaled(0.25);
    let topo = Topology::build(params);
    let hosts = topo.num_hosts() as i64;
    let specs = population(topo.num_hosts(), params.vm_slots_per_server);
    let cfg = SimConfig::new(TransportMode::Silo, Dur::from_ms(RUN_MS), 1);
    let sim = Sim::new(topo, cfg, specs);
    let (metrics, _, peak) = counted(|| sim.run());
    assert!(metrics.wire_data_bytes > 0, "the cell sent nothing");
    let per_host = peak / hosts;
    assert!(
        per_host < RUN_PER_HOST_LIMIT,
        "Sim::run held {peak} B live at its peak for {hosts} hosts \
         ({per_host} B a host, limit {RUN_PER_HOST_LIMIT}): a per-host \
         structure is holding on to what a burst grew it to"
    );
}
