//! `grid-compute` and `grid-memory`: `repro` experiments driven through
//! `kagura_bench::experiments::find`, every row checked against the
//! committed `results/`.

use std::sync::Arc;
use std::time::Instant;

use ehs_compress::Algorithm;
use ehs_energy::PowerTrace;
use ehs_sim::{runner::default_trace, GovernorSpec, SimConfig, SimJob};
use ehs_workloads::App;
use kagura_bench::experiments::{self, ExpFn};
use kagura_bench::ExpContext;
use serde_json::Value;

use crate::stats::median;
use crate::{check, layers, Accounting, Env, Rep, Tally, Workload};

/// Compute-bound apps: the physics step and ALU fast-forward dominate.
pub const COMPUTE_APPS: [App; 4] = [App::Sha, App::Strings, App::Patricia, App::Crc32];

/// Memory-bound apps: cache operations, compressor calls and governor
/// callbacks dominate; blowfish's data is incompressible.
pub const MEMORY_APPS: [App; 5] =
    [App::Jpegd, App::Jpeg, App::Dijkstra, App::Typeset, App::Blowfish];

/// The grid workloads' scale: the one `results/` was generated at.
const SCALE: f64 = 1.0;

/// One grid workload: its experiment context, the experiments it calls
/// and their committed reference payloads.
pub struct Grid {
    ctx: ExpContext,
    experiments: Vec<(&'static str, ExpFn, Value)>,
    trace: Arc<PowerTrace>,
    /// Wall time of every experiment call so far, ms.
    durations: Vec<(&'static str, f64)>,
    /// Simulation cells the last repetition ran, by the pool's count.
    cells_run: u64,
}

/// Simulation jobs the worker pool has completed in this process.
fn pool_jobs_ok() -> u64 {
    let mut m = ehs_sim::parallel::pool_metrics();
    let ok = m.counter("jobs_ok");
    m.counter_value(ok)
}

impl Grid {
    /// Sets up a grid over `apps` running `ids`. The first set-up of a
    /// process generates the shared Table-I trace into the simulator's
    /// trace cache; later ones regenerate it the same way and drop it, so
    /// every repetition of set-up costs the same.
    pub fn new(
        env: &Env,
        name: &str,
        apps: &[App],
        ids: &[&'static str],
        first: bool,
    ) -> Result<Grid, String> {
        let cfg = SimConfig::table1();
        let trace = default_trace(&cfg);
        if !first {
            std::hint::black_box(PowerTrace::generate(cfg.trace_kind, cfg.trace_seed, trace.len()));
        }
        let mut ctx = ExpContext::new(SCALE);
        ctx.apps = apps.to_vec();
        ctx.out_dir = env.out_dir.join(name);
        ctx.quiet = true;
        let mut experiments = Vec::new();
        for &id in ids {
            let run = experiments::find(id).ok_or_else(|| format!("unknown experiment {id}"))?;
            experiments.push((id, run, check::load_committed(&env.results_dir, id)?));
        }
        Ok(Grid { ctx, experiments, trace, durations: Vec::new(), cells_run: 0 })
    }

    /// The simulation cells the experiments run, with the same
    /// configurations as their grid runners. `account` checks the count
    /// against the cells the experiments ran.
    fn cells(&self) -> Vec<SimJob> {
        let cfg = |gov| SimConfig::table1().with_governor(gov);
        let mut jobs = Vec::new();
        for &(id, _, _) in &self.experiments {
            match id {
                "fig13" => {
                    let govs = [
                        GovernorSpec::NoCompression,
                        GovernorSpec::Acc,
                        GovernorSpec::AccKagura(Default::default()),
                        GovernorSpec::IdealAcc,
                        GovernorSpec::IdealAccKagura(Default::default()),
                    ];
                    for &app in &self.ctx.apps {
                        jobs.extend(govs.iter().map(|&g| SimJob::new(app, SCALE, cfg(g))));
                    }
                }
                "fig23" => {
                    for alg in Algorithm::ALL {
                        let mut acc = cfg(GovernorSpec::Acc);
                        acc.algorithm = alg;
                        let mut kagura = cfg(GovernorSpec::AccKagura(Default::default()));
                        kagura.algorithm = alg;
                        let row = [cfg(GovernorSpec::NoCompression), acc, kagura];
                        for &app in &self.ctx.sens_apps {
                            jobs.extend(row.iter().map(|c| SimJob::new(app, SCALE, c.clone())));
                        }
                    }
                }
                other => unreachable!("no cell list for experiment {other}"),
            }
        }
        jobs
    }
}

impl Workload for Grid {
    fn rep(&mut self, _index: u64, tally: &mut Tally) -> Rep {
        let jobs_before = pool_jobs_ok();
        for (id, run, committed) in &self.experiments {
            let t0 = Instant::now();
            let fresh = run(&self.ctx);
            self.durations.push((*id, t0.elapsed().as_secs_f64() * 1e3));
            let (rows, mismatches) = check::check_rows(id, &fresh, committed);
            tally.record(rows, mismatches);
            for failure in self.ctx.take_failures() {
                tally.check(false, || {
                    format!(
                        "{id}: failed cell {}",
                        serde_json::to_string(&failure).unwrap_or_default()
                    )
                });
            }
            let (_, violations) = self.ctx.take_cell_totals();
            tally.check(violations == 0, || format!("{id}: {violations} ledger violations"));
        }
        self.cells_run = pool_jobs_ok() - jobs_before;
        Rep::default()
    }

    /// Counts the instructions of one repetition by re-running its cells.
    /// A cell list that has drifted from the experiments' grids fails the
    /// run rather than skewing `sim_mips`.
    fn account(&mut self, tally: &mut Tally) -> Accounting {
        let jobs = self.cells();
        let listed = jobs.len() as u64;
        tally.check(listed == self.cells_run, || {
            format!(
                "the accounting pass lists {listed} cells, the experiments ran {}",
                self.cells_run
            )
        });
        let insts = ehs_sim::run_batch(jobs).into_iter().flatten().map(|s| s.executed_insts).sum();
        Accounting { insts_per_rep: insts, ..Accounting::default() }
    }

    fn notes(&self) -> Vec<String> {
        self.experiments
            .iter()
            .map(|&(id, _, _)| {
                let ms: Vec<f64> =
                    self.durations.iter().filter(|d| d.0 == id).map(|d| d.1).collect();
                format!("repro.experiment_ms.{id} = {:.3} ms (n={})", median(&ms), ms.len())
            })
            .collect()
    }

    fn layer_plan(&self) -> layers::Plan {
        let apps = &self.ctx.apps;
        layers::Plan {
            programs: layers::app_programs(apps, SCALE),
            trace: Arc::clone(&self.trace),
            make_trace: layers::generated_like(&self.trace),
            query_lines: layers::probe_queries(apps),
            fault_probe: vec![layers::fault_probe(apps[0])],
        }
    }
}
