//! The §6.2 packet-level comparison run that `sec62_packet` prints as
//! Figs. 12–14 and Table 4: one tenant population per scheme, simulated
//! under that scheme's datapath, with per-message latency estimates for
//! normalization.

use crate::args::{checked, Args};
use crate::scenario::{build_ns2_population, NsClass, NsTenant, PlacerKind};
use silo_base::{seeded_rng, Bytes, Dur};
use silo_simnet::{Metrics, SimConfig, TransportMode};
use silo_topology::{Topology, TreeParams};

/// Result of one scheme's run(s): the placed tenants of the *last* run
/// and message metrics concatenated over all runs (tenant ids offset per
/// run so per-tenant statistics stay separable).
pub struct Ns2Outcome {
    pub mode: TransportMode,
    /// Per-run tenant metadata, parallel to each run's metrics tenant ids.
    pub tenants: Vec<Vec<NsTenant>>,
    pub metrics: Vec<Metrics>,
}

impl Ns2Outcome {
    pub fn tenant_meta(&self, run: usize, tenant: u16) -> &NsTenant {
        &self.tenants[run][tenant as usize]
    }

    /// §4.1 latency estimate for a message of `size` bytes from a tenant.
    ///
    /// Class A: `M/Bmax + d` (M ≤ S) else `S/Bmax + (M−S)/B + d`.
    /// Class B (no delay guarantee): `M` at the guaranteed hose share
    /// `B/(n−1)` of its all-to-all pattern.
    pub fn estimate_us(&self, run: usize, tenant: u16, size: u64) -> f64 {
        let t = self.tenant_meta(run, tenant);
        match t.class {
            NsClass::A => t
                .guarantee
                .message_latency_bound(Bytes(size))
                .expect("class A has a delay guarantee")
                .as_us_f64(),
            NsClass::B => {
                let n = t.spec.vm_hosts.len() as f64;
                let share = t.guarantee.b.as_bps() as f64 / (n - 1.0).max(1.0);
                size as f64 * 8.0 / share * 1e6
            }
        }
    }
}

/// Build the ns2-scale topology at the requested scale factor.
pub fn ns2_topology(scale: f64) -> Topology {
    Topology::build(TreeParams::ns2_scaled(scale))
}

/// One independent simulation cell of a §6.2 sweep: a scheme and a seed.
/// Cells are self-contained — each builds its own topology, population and
/// `Sim` — so the runner can execute them in any order on any number of
/// threads without changing results.
#[derive(Debug, Clone, Copy)]
pub struct Ns2Cell {
    pub mode: TransportMode,
    pub run: usize,
    pub seed: u64,
}

/// The `(mode × run)` cell grid for a sweep, in fixed output order.
pub fn ns2_cells(modes: &[TransportMode], args: &Args) -> Vec<Ns2Cell> {
    modes
        .iter()
        .flat_map(|&mode| {
            (0..args.runs).map(move |run| Ns2Cell {
                mode,
                run,
                seed: args.seed + run as u64 * 1_000,
            })
        })
        .collect()
}

/// Execute one cell: place a population and run the packet simulator.
pub fn run_ns2_cell(cell: &Ns2Cell, args: &Args) -> (Vec<NsTenant>, Metrics) {
    run_ns2_cell_with(cell, args, |_| {})
}

/// [`run_ns2_cell`] after `configure` has adjusted the cell's
/// [`SimConfig`]: `sim_profile` attaches observers, the wheel-vs-heap
/// test selects the reference queue.
pub fn run_ns2_cell_with(
    cell: &Ns2Cell,
    args: &Args,
    configure: impl FnOnce(&mut SimConfig),
) -> (Vec<NsTenant>, Metrics) {
    let topo = ns2_topology(args.scale);
    let mut rng = seeded_rng(cell.seed);
    // Class A offers half its hose on average (bursty OLDI); class B
    // is near-backlogged (large transfers limited by bandwidth).
    let tenants = build_ns2_population(
        &topo,
        PlacerKind::for_mode(cell.mode),
        args.occupancy,
        0.4,
        0.9,
        &mut rng,
    );
    // (Oktopus's no-burst semantics are applied by Sim::new itself.)
    let mut cfg = SimConfig::new(cell.mode, Dur::from_ms(args.duration_ms), cell.seed);
    configure(&mut cfg);
    let specs = tenants.iter().map(|t| t.spec.clone()).collect();
    let m = checked(topo, cfg, specs).run();
    (tenants, m)
}

/// Run several schemes' sweeps at once, fanned across worker threads
/// (`args.threads`, 0 = one per core). Outcomes come back in `modes`
/// order with runs in seed order — bit-identical to the serial loop this
/// replaces, at any thread count.
pub fn run_ns2_sweep(modes: &[TransportMode], args: &Args) -> Vec<Ns2Outcome> {
    let cells = ns2_cells(modes, args);
    let threads = args.effective_threads(cells.len());
    let results = crate::runner::run_cells(&cells, threads, |_, cell| run_ns2_cell(cell, args));
    let mut outcomes: Vec<Ns2Outcome> = modes
        .iter()
        .map(|&mode| Ns2Outcome {
            mode,
            tenants: Vec::with_capacity(args.runs),
            metrics: Vec::with_capacity(args.runs),
        })
        .collect();
    for (cell, (tenants, metrics)) in cells.iter().zip(results) {
        let slot = modes
            .iter()
            .position(|&m| m == cell.mode)
            .expect("cell mode");
        outcomes[slot].tenants.push(tenants);
        outcomes[slot].metrics.push(metrics);
    }
    outcomes
}

/// All six schemes of Fig. 12.
pub const ALL_MODES: [TransportMode; 6] = [
    TransportMode::Silo,
    TransportMode::Tcp,
    TransportMode::Dctcp,
    TransportMode::Hull,
    TransportMode::Okto,
    TransportMode::OktoPlus,
];
