//! `crash-campaign`: the faultgrid passes through
//! `ehs_sim::faultinject::run_campaign`, every campaign checked for crash
//! consistency (or, for the mutation campaigns, for detection).

use std::time::Instant;

use ehs_sim::faultinject::{
    diff_nvm, fi_mixed, fi_stream, golden_state, run_campaign, short_kernels, steady_trace,
};
use ehs_sim::{parallel, EhsDesign, FaultKind, GovernorSpec, InjectionPlan, SimConfig, Simulator};
use ehs_workloads::{App, KernelProgram};

use crate::{layers, splitmix64, Accounting, Env, FaultTimings, Rep, Tally, Workload};

/// Apps probed at sampled points on every design.
const SAMPLED_APPS: [App; 2] = [App::Sha, App::Jpegd];

/// Scale of the sampled apps: every point replays the whole program.
const SAMPLED_SCALE: f64 = 0.02;

/// Sampled injection points per app × design.
const SAMPLED_POINTS: u64 = 200;

/// What a campaign must show to pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Every point recovers to the golden image.
    Consistent,
    /// A deliberately broken checkpoint path is caught.
    Detected,
}

/// One fault-injection campaign.
pub struct Campaign {
    /// Short label for failure messages.
    pub label: String,
    /// The program injected into.
    pub program: KernelProgram,
    /// Design and governor.
    pub cfg: SimConfig,
    /// Where the failures land.
    pub plan: InjectionPlan,
    /// What is injected.
    pub kind: FaultKind,
    /// Pass condition.
    pub expect: Expect,
}

impl Campaign {
    /// A campaign labelled by program, design, governor and fault.
    pub fn new(
        program: KernelProgram,
        cfg: SimConfig,
        plan: InjectionPlan,
        kind: FaultKind,
        expect: Expect,
    ) -> Self {
        let label =
            format!("{}/{}/{}/{:?}", program.name(), cfg.design, cfg.governor.label(), kind);
        Campaign { label, program, cfg, plan, kind, expect }
    }
}

/// Every governor the simulator drives directly (ideal specs replay an
/// oracle, so an injection point has no stable meaning there).
fn non_ideal_governors() -> [GovernorSpec; 4] {
    [
        GovernorSpec::NoCompression,
        GovernorSpec::AlwaysCompress,
        GovernorSpec::Acc,
        GovernorSpec::AccKagura(Default::default()),
    ]
}

/// The faultgrid passes: exhaustive injection on the short kernels for
/// every design × governor, seeded sampled points on the apps for every
/// design, and the two mutation campaigns that must be detected.
pub fn campaigns(seed: u64) -> Vec<Campaign> {
    let table1 = SimConfig::table1;
    let mut out = Vec::new();
    for program in short_kernels() {
        for design in EhsDesign::ALL {
            for gov in non_ideal_governors() {
                let cfg = table1().with_design(design).with_governor(gov);
                out.push(Campaign::new(
                    program.clone(),
                    cfg,
                    InjectionPlan::Exhaustive,
                    FaultKind::PowerFailure,
                    Expect::Consistent,
                ));
            }
        }
    }
    let mut state = seed;
    for app in SAMPLED_APPS {
        let program = app.build(SAMPLED_SCALE);
        for design in EhsDesign::ALL {
            let cfg = table1()
                .with_design(design)
                .with_governor(GovernorSpec::AccKagura(Default::default()));
            let plan =
                InjectionPlan::Sampled { count: SAMPLED_POINTS, seed: splitmix64(&mut state) };
            out.push(Campaign::new(
                program.clone(),
                cfg,
                plan,
                FaultKind::PowerFailure,
                Expect::Consistent,
            ));
        }
    }
    let stream = short_kernels().into_iter().next().expect("at least one short kernel");
    out.push(Campaign::new(
        stream.clone(),
        table1().with_governor(GovernorSpec::NoCompression),
        InjectionPlan::Stride { step: 97 },
        FaultKind::TornCheckpoint { persist_blocks: 0 },
        Expect::Detected,
    ));
    out.push(Campaign::new(
        stream,
        table1().with_governor(GovernorSpec::AlwaysCompress),
        InjectionPlan::Stride { step: 61 },
        FaultKind::CorruptPayload { bit: 5 },
        Expect::Detected,
    ));
    out
}

/// Replays `campaigns` point by point through the public simulator API,
/// as `run_campaign` runs them, timing the golden runs, the injected runs
/// and the NVM diffs. Returns the timings with each campaign's
/// `(injections, converged)` counts.
pub fn replay(campaigns: &[Campaign]) -> (FaultTimings, Vec<(usize, usize)>) {
    let mut timings = FaultTimings::default();
    let mut converged = Vec::new();
    for c in campaigns {
        let t0 = Instant::now();
        let golden = golden_state(&c.program, &c.cfg);
        timings.golden_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        timings.executed_insts += golden.stats.executed_insts;
        let trace = steady_trace();
        let points = c.plan.points(c.program.len());
        let outcomes = parallel::map(points, |at_inst| {
            let t0 = Instant::now();
            let mut sim = Simulator::new(c.cfg.clone(), &c.program, &trace);
            sim.arm_fault(at_inst, c.kind);
            let (stats, mut nvm) = sim.run_with_memory();
            let run_ms = t0.elapsed().as_secs_f64() * 1e3;
            let mut reference = golden.nvm.clone();
            let t1 = Instant::now();
            let same = stats.completed && diff_nvm(&mut reference, &mut nvm).is_empty();
            let diff_ms = stats.completed.then(|| t1.elapsed().as_secs_f64() * 1e3);
            (at_inst, stats.executed_insts, same, run_ms, diff_ms)
        });
        let mut ok = 0;
        let injections = outcomes.len();
        for (at_inst, executed, same, run_ms, diff_ms) in outcomes {
            timings.replayed_insts += at_inst;
            timings.executed_insts += executed;
            timings.point_ms.push(run_ms);
            timings.diff_ms.extend(diff_ms);
            ok += usize::from(same);
        }
        converged.push((injections, ok));
    }
    (timings, converged)
}

/// The crash-campaign workload.
pub struct Crash {
    campaigns: Vec<Campaign>,
    /// `(injections, converged)` per campaign as `run_campaign` reported
    /// them in the first repetition. The accounting replay must agree, so
    /// a replay that drifts from `run_campaign` fails the run.
    reported: Vec<(usize, usize)>,
}

impl Crash {
    /// Builds the campaign list (programs included) for `env.seed`.
    pub fn new(env: &Env) -> Crash {
        Crash { campaigns: campaigns(env.seed), reported: Vec::new() }
    }
}

impl Workload for Crash {
    fn rep(&mut self, _index: u64, tally: &mut Tally) -> Rep {
        let mut reported = Vec::new();
        for c in &self.campaigns {
            let report = run_campaign(&c.program, &c.cfg, c.plan, c.kind);
            let ok = match c.expect {
                Expect::Consistent => report.is_consistent(),
                Expect::Detected => report.detected_violation(),
            };
            tally.check(ok, || {
                format!("campaign {} ({:?} expected): {}", c.label, c.expect, report.summary())
            });
            reported.push((report.injections, report.converged));
        }
        if self.reported.is_empty() {
            self.reported = reported;
        }
        Rep::default()
    }

    fn account(&mut self, tally: &mut Tally) -> Accounting {
        let (timings, converged) = replay(&self.campaigns);
        for ((c, &replayed), &reported) in self.campaigns.iter().zip(&converged).zip(&self.reported)
        {
            tally.check(replayed == reported, || {
                format!(
                    "campaign {}: (injections, converged) {replayed:?} in the replay, \
                     {reported:?} from run_campaign",
                    c.label
                )
            });
        }
        Accounting { insts_per_rep: timings.executed_insts, fault: Some(timings) }
    }

    fn layer_plan(&self) -> layers::Plan {
        let mut programs = layers::app_programs(&SAMPLED_APPS, SAMPLED_SCALE);
        programs.push(("fi-stream".to_string(), Box::new(fi_stream)));
        programs.push(("fi-mixed".to_string(), Box::new(fi_mixed)));
        layers::Plan {
            programs,
            trace: std::sync::Arc::new(steady_trace()),
            make_trace: Box::new(|_| steady_trace()),
            query_lines: layers::probe_queries(&SAMPLED_APPS),
            fault_probe: Vec::new(),
        }
    }
}
