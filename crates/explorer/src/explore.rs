//! The frontier loop: mutate, simulate, keep what's novel, minimize what
//! breaks.

use crate::cell::{cell_bounds, cell_topo, run_plan, seed_plans};
use crate::signature::Signature;
use rand::rngs::StdRng;
use rand::SeedableRng;
use silo_base::prop::{shrink_failure, Shrunk};
use silo_base::{env, prop, Dur, FxHashSet, Time};
use silo_simnet::{FaultPlan, Metrics};
use silo_topology::Topology;

/// How long after a fault window closes a guarantee miss still counts as
/// a legitimate post-restoration *aftershock* (residual queue drain).
/// Misses outside every window even with this slack are counterexamples.
pub const RECOVERY_SLACK: Dur = Dur(10_000_000_000); // 10 ms

/// Knobs for one search. Defaults come from the same environment
/// variables as the property harness (`SILO_PROP_SEED`,
/// `SILO_PROP_CASES`), so one knob replays both.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Schedules to evaluate, seeds included (minimization runs extra
    /// sims, reported separately).
    pub budget: usize,
    /// Seeds the mutation RNG and every simulation.
    pub seed: u64,
    /// Horizon of each simulated run.
    pub dur: Dur,
    /// Cap on accepted shrink steps per counterexample.
    pub max_shrink_steps: usize,
}

impl ExploreConfig {
    pub fn from_env() -> ExploreConfig {
        ExploreConfig {
            budget: env::parse_or(prop::CASES_VAR, 256),
            seed: env::parse_or(prop::SEED_VAR, 0x5110_F417),
            dur: Dur::from_ms(60),
            max_shrink_steps: 200,
        }
    }
}

/// A schedule that broke an attribution guarantee, minimized.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The schedule as first found.
    pub original: FaultPlan,
    /// The minimized schedule (still failing; no shrink of it fails).
    pub plan: FaultPlan,
    /// What the minimized schedule breaks.
    pub why: String,
    /// Accepted shrink steps from `original` to `plan`.
    pub shrink_steps: usize,
    /// Evaluation index (0-based) at which `original` was found.
    pub found_at: usize,
}

/// Everything one search produced. [`ExploreReport::render`] is
/// byte-deterministic for a pinned config.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    pub evaluated: usize,
    /// Extra simulations spent minimizing counterexamples.
    pub shrink_runs: usize,
    /// Interesting schedules in discovery order, each with the signature
    /// that earned its slot.
    pub frontier: Vec<(FaultPlan, Signature)>,
    pub counterexamples: Vec<Counterexample>,
}

impl ExploreReport {
    /// Deterministic text report: same config, same bytes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== silo-explorer report ==\n");
        out.push_str(&format!(
            "schedules evaluated: {} (+{} during minimization)\n",
            self.evaluated, self.shrink_runs
        ));
        out.push_str(&format!(
            "frontier: {} distinct signatures\n",
            self.frontier.len()
        ));
        for (i, (plan, sig)) in self.frontier.iter().enumerate() {
            out.push_str(&format!(
                "  [{i:03}] {} fault(s), divergence {:?}, audit {:?}, guarantee {:?}\n",
                plan.events.len(),
                sig.divergence,
                sig.audit,
                sig.guarantee,
            ));
        }
        out.push_str(&format!(
            "counterexamples: {}\n",
            self.counterexamples.len()
        ));
        for (i, cx) in self.counterexamples.iter().enumerate() {
            out.push_str(&format!(
                "  [{i}] found at eval {}: {} ({} -> {} events after {} shrink steps)\n",
                cx.found_at,
                cx.why,
                cx.original.events.len(),
                cx.plan.events.len(),
                cx.shrink_steps,
            ));
            out.push_str(&cx.plan.to_json());
        }
        out
    }
}

/// The counterexample predicate: does this run break an attribution
/// guarantee? Returns what broke, or `None` for a well-explained run.
///
/// Ordered strongest-first so minimization converges on the same class
/// of failure it started from whenever possible.
pub fn failure(m: &Metrics) -> Option<String> {
    if let Some(a) = &m.audit {
        if a.unattributed > 0 {
            return Some(format!(
                "{} audit violation(s) no injected fault explains",
                a.unattributed
            ));
        }
        if a.early_releases > 0 {
            return Some(format!(
                "{} frame(s) released before their pacer stamp",
                a.early_releases
            ));
        }
    }
    if m.token_violations > 0 {
        return Some(format!(
            "{} token-bucket conservation violation(s)",
            m.token_violations
        ));
    }
    for v in m.violations.iter().filter(|v| v.fault.is_none()) {
        // Unattributed guarantee miss: fine iff it is an aftershock —
        // the message started while some realized window (stretched by
        // RECOVERY_SLACK) was still draining.
        let explained = m
            .fault_windows
            .iter()
            .any(|w| w.overlaps(v.created, v.completed, RECOVERY_SLACK));
        if !explained {
            return Some(format!(
                "guarantee miss on tenant {} (created {} ps) with no fault active or draining",
                v.tenant, v.created.0
            ));
        }
    }
    None
}

/// Minimize a failing schedule: fewest faults, then shortest windows,
/// then earliest strike ([`FaultPlan::shrink_candidates`] order), re-running
/// the cell to confirm each candidate still fails. Returns the shrunk
/// plan and the number of simulations spent.
pub fn minimize(
    topo: &Topology,
    plan: &FaultPlan,
    first_why: String,
    cfg: &ExploreConfig,
) -> (Shrunk<FaultPlan>, usize) {
    let bounds = cell_bounds(topo, cfg.dur);
    let mut runs = 0usize;
    let shrunk = shrink_failure(
        plan.clone(),
        first_why,
        |p| p.shrink_candidates(),
        |cand| {
            runs += 1;
            failure(&run_plan(
                topo,
                &cand.sanitize(&bounds),
                cfg.dur,
                cfg.seed,
                true,
            ))
        },
        cfg.max_shrink_steps,
    );
    (shrunk, runs)
}

/// Re-run one recorded schedule exactly as the explorer evaluated it:
/// same cell, observers on. The result's `canonical_json` and trace are
/// byte-identical to the original evaluation for the same `dur`/`seed`.
pub fn replay(plan: &FaultPlan, dur: Dur, seed: u64) -> Metrics {
    run_plan(&cell_topo(), plan, dur, seed, true)
}

/// Run one coverage-guided search. Deterministic: the frontier, the
/// counterexamples and [`ExploreReport::render`] depend only on `cfg`.
pub fn explore(cfg: &ExploreConfig) -> ExploreReport {
    let topo = cell_topo();
    let bounds = cell_bounds(&topo, cfg.dur);
    let dur_ms = cfg.dur.0 / Time::from_ms(1).0;

    // The no-fault baseline anchors trace divergence. It is also
    // evaluation #0: a baseline that *itself* fails is the strongest
    // counterexample there is (empty plan, nothing to shrink).
    let mut report = ExploreReport::default();
    let mut seen: FxHashSet<Signature> = FxHashSet::default();
    let baseline = run_plan(&topo, &FaultPlan::new(), cfg.dur, cfg.seed, true);
    let baseline_trace = baseline.trace.clone().expect("observers on");
    report.evaluated = 1;
    let sig = Signature::of(&baseline, &baseline_trace);
    seen.insert(sig);
    report.frontier.push((FaultPlan::new(), sig));
    if let Some(why) = failure(&baseline) {
        report.counterexamples.push(Counterexample {
            original: FaultPlan::new(),
            plan: FaultPlan::new(),
            why,
            shrink_steps: 0,
            found_at: 0,
        });
    }

    // Seed the frontier with the fault suite's hand-written schedules,
    // then mutate round-robin over whatever is interesting so far.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED_F417_0000_0001);
    let mut pending: Vec<FaultPlan> = seed_plans(&topo, dur_ms)
        .into_iter()
        .skip(1) // the baseline is already in
        .map(|(_, p)| p.sanitize(&bounds))
        .collect();
    let mut next_parent = 0usize;
    while report.evaluated < cfg.budget {
        let plan = match pending.pop() {
            Some(p) => p,
            None => {
                let parent = &report.frontier[next_parent % report.frontier.len()].0;
                next_parent += 1;
                parent.mutate(&mut rng, &bounds)
            }
        };
        let m = run_plan(&topo, &plan, cfg.dur, cfg.seed, true);
        let found_at = report.evaluated;
        report.evaluated += 1;
        let sig = Signature::of(&m, &baseline_trace);
        if seen.insert(sig) {
            report.frontier.push((plan.clone(), sig));
        }
        if let Some(why) = failure(&m) {
            let (shrunk, runs) = minimize(&topo, &plan, why, cfg);
            report.shrink_runs += runs;
            report.counterexamples.push(Counterexample {
                original: plan,
                plan: shrunk.input,
                why: shrunk.why,
                shrink_steps: shrunk.steps,
                found_at,
            });
        }
    }
    report
}
