//! The time-stepped flow-level simulation driving Figs. 15–16.

use crate::alloc::{waterfill, Allocator};
use rand::rngs::StdRng;
use rand::Rng;
use silo_base::{exponential, seeded_rng, Dur, Rate, Time};
use silo_pacer::hose_share;
use silo_placement::{Guarantee, Placer, TenantId, TenantRequest};
use silo_topology::{HostId, PortId};
use silo_workload::{all_to_one, permutation_x};

/// Fraction of class-A (delay-sensitive, all-to-one) tenants; the rest
/// are class B. Each class's guarantee is Table 3's
/// ([`Guarantee::class_a`], [`Guarantee::class_b`]).
const CLASS_A_FRAC: f64 = 0.5;

/// Quantized time step.
const STEP: Dur = Dur::from_secs(1);

/// Simulation parameters. The job model is §6.3's: "each tenant runs a
/// job that transfers a given amount of data between its VMs; each job
/// also has a minimum compute time".
#[derive(Debug, Clone)]
pub struct FlowSimConfig {
    /// Total simulated time (including warmup).
    pub duration: Dur,
    /// Statistics are collected only after this point.
    pub warmup: Dur,
    /// Target datacenter occupancy in (0, 1]; sets the arrival rate.
    pub occupancy: f64,
    /// Mean tenant size (exponential, as in Oktopus), clamped to
    /// `[2, max_vms]`.
    pub mean_vms: f64,
    pub max_vms: usize,
    /// Mean compute time per job (exponential).
    pub mean_compute: Dur,
    /// Mean *nominal* transfer time per job at full guaranteed rate
    /// (exponential); flow byte counts derive from it.
    pub mean_transfer: Dur,
    /// Class-B traffic pattern: `Some(x)` = Permutation-x, `None` =
    /// all-to-all.
    pub class_b_x: Option<f64>,
    pub seed: u64,
}

impl Default for FlowSimConfig {
    fn default() -> FlowSimConfig {
        FlowSimConfig {
            duration: Dur::from_secs(4_000),
            warmup: Dur::from_secs(1_000),
            occupancy: 0.75,
            mean_vms: 49.0,
            max_vms: 200,
            // Jobs are network-dominated (§2.2: messaging is a large
            // fraction of job time): starving a tenant's flows stretches
            // its slot residency, which is the mechanism behind Fig. 15b.
            mean_compute: Dur::from_secs(100),
            mean_transfer: Dur::from_secs(300),
            class_b_x: Some(1.0),
            seed: 1,
        }
    }
}

struct Flow {
    /// Directed ports from the source VM's host to the destination's;
    /// empty for a same-host flow.
    path: Vec<PortId>,
    src_vm: usize,
    dst_vm: usize,
    remaining: f64,
}

struct Job {
    tenant: TenantId,
    /// Every VM's hose guarantee.
    b: Rate,
    vms: usize,
    flows: Vec<Flow>,
    compute_done_at: Time,
    arrived: Time,
    /// The job's duration at its guaranteed rates, the denominator of its
    /// stretch.
    nominal: Dur,
}

/// Results of a run.
#[derive(Debug, Clone, Default)]
pub struct FlowSimReport {
    pub offered_a: usize,
    pub offered_b: usize,
    pub admitted_a: usize,
    pub admitted_b: usize,
    pub completed: usize,
    /// Carried bits / capacity over all directed links, post-warmup.
    pub utilization: f64,
    /// Mean job stretch (actual / nominal duration) of completed jobs.
    pub mean_stretch: f64,
    /// Mean datacenter slot occupancy observed post-warmup.
    pub mean_occupancy: f64,
}

impl FlowSimReport {
    pub fn admitted_frac(&self) -> f64 {
        let off = self.offered_a + self.offered_b;
        if off == 0 {
            1.0
        } else {
            (self.admitted_a + self.admitted_b) as f64 / off as f64
        }
    }
    pub fn admitted_frac_a(&self) -> f64 {
        if self.offered_a == 0 {
            1.0
        } else {
            self.admitted_a as f64 / self.offered_a as f64
        }
    }
    pub fn admitted_frac_b(&self) -> f64 {
        if self.offered_b == 0 {
            1.0
        } else {
            self.admitted_b as f64 / self.offered_b as f64
        }
    }
}

/// Per-VM out- and in-degrees of a job's `(src, dst)` VM pairs over its
/// `n` VMs: the denominators of each flow's hose share.
fn degrees(n: usize, pairs: impl Iterator<Item = (usize, usize)>) -> (Vec<usize>, Vec<usize>) {
    let mut out_deg = vec![0; n];
    let mut in_deg = vec![0; n];
    for (s, d) in pairs {
        out_deg[s] += 1;
        in_deg[d] += 1;
    }
    (out_deg, in_deg)
}

/// The simulator, generic over the placement algorithm.
pub struct FlowSim<P: Placer> {
    placer: P,
    alloc: Allocator,
    cfg: FlowSimConfig,
    rng: StdRng,
    now: Time,
    jobs: Vec<Job>,
    report: FlowSimReport,
    stretch_sum: f64,
    stretch_n: usize,
    carried_bits: f64,
    occupancy_samples: (f64, usize),
}

impl<P: Placer> FlowSim<P> {
    pub fn new(placer: P, alloc: Allocator, cfg: FlowSimConfig) -> FlowSim<P> {
        let rng = seeded_rng(cfg.seed);
        FlowSim {
            placer,
            alloc,
            cfg,
            rng,
            now: Time::ZERO,
            jobs: Vec::new(),
            report: FlowSimReport::default(),
            stretch_sum: 0.0,
            stretch_n: 0,
            carried_bits: 0.0,
            occupancy_samples: (0.0, 0),
        }
    }

    /// Poisson tenant arrival rate that hits the target occupancy given
    /// the nominal job duration.
    fn arrival_rate(&self) -> f64 {
        let total_slots = self.placer.topology().params().num_vm_slots() as f64;
        let mean_dur = self
            .cfg
            .mean_compute
            .as_secs_f64()
            .max(self.cfg.mean_transfer.as_secs_f64());
        self.cfg.occupancy * total_slots / (self.cfg.mean_vms * mean_dur)
    }

    /// Statistics are collected from the end of warm-up on.
    fn measuring(&self) -> bool {
        self.now.as_secs_f64() >= self.cfg.warmup.as_secs_f64()
    }

    fn draw_tenant(&mut self) -> (TenantRequest, bool) {
        let n = exponential(&mut self.rng, 1.0 / self.cfg.mean_vms).round() as usize;
        let n = n.clamp(2, self.cfg.max_vms);
        let class_a = self.rng.random::<f64>() < CLASS_A_FRAC;
        let g = if class_a {
            Guarantee::class_a()
        } else {
            Guarantee::class_b()
        };
        (TenantRequest::new(n, g), class_a)
    }

    fn spawn_job(
        &mut self,
        req: &TenantRequest,
        class_a: bool,
        tenant: TenantId,
        vm_hosts: Vec<HostId>,
    ) {
        let n = vm_hosts.len();
        let b = req.guarantee.b;
        let t_net = exponential(&mut self.rng, 1.0 / self.cfg.mean_transfer.as_secs_f64());
        let pairs = if class_a {
            all_to_one(n, 0)
        } else {
            match self.cfg.class_b_x {
                Some(x) => permutation_x(n, x, &mut self.rng),
                None => silo_workload::all_to_all(n),
            }
        };
        // Per-flow bytes sized so the whole transfer takes ~t_net at the
        // guaranteed hose rates.
        let (out_deg, in_deg) = degrees(n, pairs.iter().copied());
        let topo = self.placer.topology();
        let flows: Vec<Flow> = pairs
            .iter()
            .map(|&(s, d)| Flow {
                path: topo.path_ports(vm_hosts[s], vm_hosts[d]),
                src_vm: s,
                dst_vm: d,
                remaining: hose_share(b, out_deg[s], in_deg[d]) * t_net / 8.0,
            })
            .collect();
        let compute = exponential(&mut self.rng, 1.0 / self.cfg.mean_compute.as_secs_f64());
        self.jobs.push(Job {
            tenant,
            b,
            vms: n,
            flows,
            compute_done_at: self.now + Dur::from_secs_f64(compute),
            arrived: self.now,
            nominal: Dur::from_secs_f64(compute.max(t_net)),
        });
    }

    /// One step of flow progress: give every unfinished flow its rate,
    /// drain it by one step at that rate, and count the bits it carries
    /// over its links once warm-up is over.
    fn drain_step(&mut self) {
        let measuring = self.measuring();
        let dt = STEP.as_secs_f64();
        let topo = self.placer.topology();
        let fair = match self.alloc {
            Allocator::Guaranteed => Vec::new(),
            Allocator::FairShare => {
                let paths: Vec<&[PortId]> = self
                    .jobs
                    .iter()
                    .flat_map(|j| &j.flows)
                    .filter(|f| f.remaining > 0.0)
                    .map(|f| f.path.as_slice())
                    .collect();
                waterfill(topo, &paths)
            }
        };
        let mut fair = fair.into_iter();
        for job in &mut self.jobs {
            // A guaranteed flow's hose share splits over its endpoints'
            // unfinished flows.
            let degs = (self.alloc == Allocator::Guaranteed).then(|| {
                degrees(
                    job.vms,
                    job.flows
                        .iter()
                        .filter(|f| f.remaining > 0.0)
                        .map(|f| (f.src_vm, f.dst_vm)),
                )
            });
            for f in job.flows.iter_mut().filter(|f| f.remaining > 0.0) {
                let r = match &degs {
                    Some((out_deg, in_deg)) => {
                        hose_share(job.b, out_deg[f.src_vm], in_deg[f.dst_vm])
                    }
                    None => fair.next().expect("one waterfill rate per unfinished flow"),
                };
                if r.is_infinite() {
                    // A same-host flow under `FairShare`: it crosses no
                    // link, so it finishes at once and carries no bits.
                    f.remaining = 0.0;
                    continue;
                }
                if measuring {
                    self.carried_bits += r * dt * f.path.len() as f64;
                }
                f.remaining = (f.remaining - r * dt / 8.0).max(0.0);
            }
        }
    }

    /// Run the simulation and report.
    pub fn run(mut self) -> FlowSimReport {
        let rate = self.arrival_rate();
        let mut next_arrival = Time::ZERO + Dur::from_secs_f64(exponential(&mut self.rng, rate));
        let horizon = Time::ZERO + self.cfg.duration;
        while self.now < horizon {
            // 1. Admit arrivals due this step.
            while next_arrival <= self.now + STEP {
                let (req, class_a) = self.draw_tenant();
                let measuring = self.measuring();
                if measuring {
                    if class_a {
                        self.report.offered_a += 1;
                    } else {
                        self.report.offered_b += 1;
                    }
                }
                if let Ok(p) = self.placer.try_place(&req) {
                    if measuring {
                        if class_a {
                            self.report.admitted_a += 1;
                        } else {
                            self.report.admitted_b += 1;
                        }
                    }
                    let vm_hosts = p
                        .hosts
                        .iter()
                        .flat_map(|&(h, k)| std::iter::repeat_n(h, k))
                        .collect();
                    self.spawn_job(&req, class_a, p.tenant, vm_hosts);
                }
                next_arrival += Dur::from_secs_f64(exponential(&mut self.rng, rate));
            }
            // 2. Allocate rates and drain flows.
            self.drain_step();
            self.now += STEP;
            // 3. Complete jobs.
            let measuring = self.measuring();
            let mut i = 0;
            while i < self.jobs.len() {
                let done = self.jobs[i].compute_done_at <= self.now
                    && self.jobs[i].flows.iter().all(|f| f.remaining <= 0.0);
                if done {
                    let job = self.jobs.swap_remove(i);
                    self.placer.remove(job.tenant);
                    if measuring {
                        self.report.completed += 1;
                        let actual = (self.now - job.arrived).as_secs_f64();
                        self.stretch_sum += actual / job.nominal.as_secs_f64().max(1.0);
                        self.stretch_n += 1;
                    }
                } else {
                    i += 1;
                }
            }
            // 4. Occupancy sample.
            if measuring {
                let occ = self.placer.used_slots() as f64
                    / self.placer.topology().params().num_vm_slots() as f64;
                self.occupancy_samples.0 += occ;
                self.occupancy_samples.1 += 1;
            }
        }
        // Utilization: carried bits over total capacity-time.
        let topo = self.placer.topology();
        let mut cap_bits = 0.0;
        for i in 0..topo.num_ports() {
            cap_bits += topo.port(PortId(i as u32)).rate.as_bps() as f64;
        }
        let meas_time = (self.cfg.duration - self.cfg.warmup).as_secs_f64();
        self.report.utilization = self.carried_bits / (cap_bits * meas_time);
        self.report.mean_stretch = if self.stretch_n > 0 {
            self.stretch_sum / self.stretch_n as f64
        } else {
            0.0
        };
        self.report.mean_occupancy = if self.occupancy_samples.1 > 0 {
            self.occupancy_samples.0 / self.occupancy_samples.1 as f64
        } else {
            0.0
        };
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_base::Bytes;
    use silo_placement::{LocalityPlacer, OktopusPlacer, SiloPlacer};
    use silo_topology::{Topology, TreeParams};

    fn topo(servers_per_rack: usize) -> Topology {
        Topology::build(TreeParams {
            pods: 2,
            racks_per_pod: 2,
            servers_per_rack,
            vm_slots_per_server: 4,
            host_link: Rate::from_gbps(10),
            tor_oversub: 5.0,
            agg_oversub: 5.0,
            switch_buffer: Bytes::from_kb(312),
            nic_buffer: Bytes::from_kb(64),
            prop_delay: Dur::from_ns(500),
        })
    }

    fn quick_cfg(occupancy: f64, seed: u64) -> FlowSimConfig {
        FlowSimConfig {
            duration: Dur::from_secs(600),
            warmup: Dur::from_secs(150),
            occupancy,
            mean_vms: 8.0,
            max_vms: 24,
            mean_compute: Dur::from_secs(60),
            mean_transfer: Dur::from_secs(50),
            class_b_x: Some(1.0),
            seed,
        }
    }

    #[test]
    fn locality_admits_everything_at_low_occupancy() {
        let sim = FlowSim::new(
            LocalityPlacer::new(topo(10)),
            Allocator::FairShare,
            quick_cfg(0.3, 1),
        );
        let r = sim.run();
        assert!(r.offered_a + r.offered_b > 20);
        assert!(r.admitted_frac() > 0.99, "{}", r.admitted_frac());
    }

    #[test]
    fn silo_rejects_some_at_high_occupancy() {
        let sim = FlowSim::new(
            SiloPlacer::new(topo(10)),
            Allocator::Guaranteed,
            quick_cfg(0.9, 2),
        );
        let r = sim.run();
        assert!(r.offered_a + r.offered_b > 50);
        let frac = r.admitted_frac();
        assert!(frac < 1.0, "Silo should reject something at 90%");
        assert!(frac > 0.5, "but not most things: {frac}");
    }

    #[test]
    fn oktopus_admits_no_less_than_silo() {
        let run = |kind: u8| {
            let cfg = quick_cfg(0.9, 3);
            match kind {
                0 => FlowSim::new(SiloPlacer::new(topo(10)), Allocator::Guaranteed, cfg).run(),
                _ => FlowSim::new(OktopusPlacer::new(topo(10)), Allocator::Guaranteed, cfg).run(),
            }
        };
        let silo = run(0);
        let okto = run(1);
        assert!(
            okto.admitted_frac() >= silo.admitted_frac() - 0.02,
            "okto {} vs silo {}",
            okto.admitted_frac(),
            silo.admitted_frac()
        );
    }

    #[test]
    fn utilization_grows_with_occupancy() {
        let run = |occ: f64| {
            FlowSim::new(
                SiloPlacer::new(topo(10)),
                Allocator::Guaranteed,
                quick_cfg(occ, 4),
            )
            .run()
        };
        let low = run(0.2);
        let high = run(0.8);
        assert!(
            high.utilization > low.utilization,
            "{} vs {}",
            high.utilization,
            low.utilization
        );
    }

    #[test]
    fn a_job_wider_than_256_vms_runs_at_its_hose_rates() {
        // One 300-VM class-B all-to-all job alone on a 304-slot fabric; the
        // arrival rate is too low for any other tenant to arrive. Every
        // flow runs at its hose share, so the job ends within a step of
        // its nominal time. A degree table that folds VMs 255..300 into
        // one slot stretches this job 29-fold.
        let cfg = FlowSimConfig {
            duration: Dur::from_secs(100),
            warmup: Dur::ZERO,
            max_vms: 300,
            mean_compute: Dur::from_ms(1),
            mean_transfer: Dur::from_secs(20),
            ..quick_cfg(1e-9, 6)
        };
        let mut sim = FlowSim::new(LocalityPlacer::new(topo(19)), Allocator::Guaranteed, cfg);
        let req = TenantRequest::new(300, Guarantee::class_b());
        let p = sim.placer.try_place(&req).expect("300 VMs fit 304 slots");
        let vm_hosts = p
            .hosts
            .iter()
            .flat_map(|&(h, k)| std::iter::repeat_n(h, k))
            .collect();
        sim.spawn_job(&req, false, p.tenant, vm_hosts);
        let nominal = sim.jobs[0].nominal.as_secs_f64();
        let r = sim.run();
        assert_eq!((r.offered_a, r.offered_b, r.completed), (0, 0, 1));
        assert!(
            r.mean_stretch < 1.0 + 1.0 / nominal.max(1.0) + 1e-9,
            "stretch {} over a nominal {nominal} s",
            r.mean_stretch
        );
    }

    /// Every report field of two 90 %-occupancy cells, one per allocator,
    /// pinned to the bit: any change to admission order, rate allocation,
    /// draining or accounting moves at least one of them.
    #[test]
    fn quick_cells_report_pinned_values() {
        let fields = |r: FlowSimReport| {
            (
                [
                    r.offered_a,
                    r.offered_b,
                    r.admitted_a,
                    r.admitted_b,
                    r.completed,
                ],
                [
                    r.utilization.to_bits(),
                    r.mean_stretch.to_bits(),
                    r.mean_occupancy.to_bits(),
                ],
            )
        };
        let silo = FlowSim::new(
            SiloPlacer::new(topo(10)),
            Allocator::Guaranteed,
            quick_cfg(0.9, 1),
        );
        assert_eq!(
            fields(silo.run()),
            (
                [77, 65, 69, 57, 121],
                [0x3fa20255f750c6da, 0x3ff03631ed01e236, 0x3fe7388923889239]
            )
        );
        let locality = FlowSim::new(
            LocalityPlacer::new(topo(10)),
            Allocator::FairShare,
            quick_cfg(0.9, 1),
        );
        assert_eq!(
            fields(locality.run()),
            (
                [86, 60, 64, 47, 116],
                [0x3faedd0cfe01213a, 0x3fe86e35d1d1494b, 0x3fea2d11d2d11d20]
            )
        );
    }

    #[test]
    fn jobs_complete_and_release_slots() {
        let sim = FlowSim::new(
            SiloPlacer::new(topo(6)),
            Allocator::Guaranteed,
            quick_cfg(0.5, 5),
        );
        let r = sim.run();
        assert!(r.completed > 10, "completed {}", r.completed);
        assert!(r.mean_occupancy > 0.1 && r.mean_occupancy < 0.95);
        assert!(r.mean_stretch >= 0.9, "stretch {}", r.mean_stretch);
    }
}
