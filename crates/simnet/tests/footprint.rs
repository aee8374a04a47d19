//! What `Sim::new` asks the allocator for, per host.
//!
//! The engine's structures grow from what the run puts into them
//! (DESIGN.md, "memory follows traffic"). A speculative reservation made
//! for every host or port — a pacer stamp queue pre-sized for 256
//! frames once cost 282 KiB a host, in TCP mode too, where the pacer
//! never runs — shows up here long before it shows up as peak RSS.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use silo_base::{Bytes, Dur, Rate};
use silo_simnet::{Sim, SimConfig, TenantSpec, TenantWorkload, TransportMode};
use silo_topology::{HostId, Topology, TreeParams};

struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Only the measuring thread counts, so the test harness's own threads
    // never leak into the figure.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn note(bytes: usize) {
    if ARMED.with(Cell::get) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter and the
// const-initialised thread-local flag touch no allocator state and never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes requested while `f` ran on this thread.
fn requested<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, BYTES.load(Ordering::Relaxed) - before)
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
        let (sim, bytes) = requested(|| Sim::new(topo, cfg, specs));
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
