//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§VIII).
//!
//! Each experiment is a function `fn(&ExpContext) -> serde_json::Value`
//! registered in [`experiments::REGISTRY`]; the `repro` binary dispatches
//! on experiment id (`fig13`, `table3`, …), prints the same rows/series
//! the paper reports, and writes machine-readable JSON under `results/`.
//!
//! Absolute numbers will not match the authors' gem5+McPAT testbed — the
//! substrate here is the from-scratch simulator in `ehs-sim` — but the
//! *shape* of every result (who wins, by roughly what factor, where
//! crossovers fall) is the reproduction target; see EXPERIMENTS.md.

pub mod cachescope;
pub mod cli;
pub mod experiments;
pub mod explain;
pub mod fleet;
pub mod fsutil;
pub mod journal;
pub mod leakscope;
pub mod serve;

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ehs_sim::{SimStats, StepBudget};
use ehs_workloads::App;
use serde_json::Value;

/// Shared experiment context.
#[derive(Debug, Clone)]
pub struct ExpContext {
    /// Workload scale factor (1.0 = full-length kernels).
    pub scale: f64,
    /// Applications used by the main-result figures.
    pub apps: Vec<App>,
    /// Smaller application set used by the sensitivity sweeps.
    pub sens_apps: Vec<App>,
    /// Where JSON results land.
    pub out_dir: PathBuf,
    /// When set (`repro --telemetry DIR`), experiments that capture event
    /// streams also dump them here (JSONL), and the harness writes its
    /// timing spans to `DIR/spans.json`.
    pub telemetry_dir: Option<PathBuf>,
    /// Suppresses the per-experiment progress lines on stderr
    /// (`repro --quiet`).
    pub quiet: bool,
    /// Per-job watchdog applied to every grid cell whose config does not
    /// set its own budget (`repro --job-timeout` / `--job-max-insts`).
    pub job_budget: StepBudget,
    /// The experiment id currently running under this context, for
    /// attributing failure records; set by the `repro` driver.
    pub exp_id: Option<String>,
    /// Failure manifest collector: [`experiments`] grid runners append
    /// one record per failed cell here instead of aborting. Shared so
    /// the driver can drain it after the experiment returns.
    pub failures: Arc<Mutex<Vec<Value>>>,
    /// Run every grid cell with strict energy-ledger auditing
    /// (`repro --audit-strict`): a conservation violation aborts the
    /// cell (contained as a failed-cell record) instead of counting.
    pub audit_strict: bool,
    /// Power cycles simulated by this experiment's grid cells so far;
    /// the driver reads (and resets) it for the progress line.
    pub cycle_total: Arc<AtomicU64>,
    /// Energy-ledger conservation violations across this experiment's
    /// grid cells so far (lenient mode counts instead of aborting).
    pub violation_total: Arc<AtomicU64>,
    /// Fleet campaign parameters (`repro fleet --fleet-size/--fleet-seed/
    /// --fleet-shard`); only the `fleet` experiment reads them.
    pub fleet: fleet::FleetParams,
    /// This invocation is `repro --resume`: experiments with their own
    /// intra-experiment journal (fleet shards) reopen it instead of
    /// truncating.
    pub resume: bool,
}

impl ExpContext {
    /// Default context: all 20 apps for the headline figures, a
    /// representative 8-app subset for sweeps, results under `results/`.
    pub fn new(scale: f64) -> Self {
        ExpContext {
            scale,
            apps: App::ALL.to_vec(),
            sens_apps: vec![
                App::Jpegd,
                App::Jpeg,
                App::G721d,
                App::Gsm,
                App::Mpeg2d,
                App::Blowfish,
                App::Sha,
                App::Typeset,
            ],
            out_dir: PathBuf::from("results"),
            telemetry_dir: None,
            quiet: false,
            job_budget: StepBudget::UNLIMITED,
            exp_id: None,
            failures: Arc::new(Mutex::new(Vec::new())),
            audit_strict: false,
            cycle_total: Arc::new(AtomicU64::new(0)),
            violation_total: Arc::new(AtomicU64::new(0)),
            fleet: fleet::FleetParams::default(),
            resume: false,
        }
    }

    /// Writes `value` as pretty JSON to `<out_dir>/<id>.json`, atomically
    /// (tmp sibling + fsync + rename): a run killed mid-save leaves either
    /// the previous artifact or the new one, never a torn file.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created or the file not written —
    /// losing experiment output silently would be worse.
    pub fn save(&self, id: &str, value: &Value) {
        fs::create_dir_all(&self.out_dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", self.out_dir.display()));
        let path = self.out_dir.join(format!("{id}.json"));
        let text = serde_json::to_string_pretty(value).expect("serializable");
        fsutil::atomic_write(&path, text.as_bytes())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("  [saved {}]", path.display());
    }

    /// Appends one failure record to the shared manifest.
    pub fn record_failure(&self, record: Value) {
        self.failures.lock().unwrap_or_else(|e| e.into_inner()).push(record);
    }

    /// Drains the failure records collected so far (driver-side, after an
    /// experiment returns).
    pub fn take_failures(&self) -> Vec<Value> {
        std::mem::take(&mut *self.failures.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Folds one finished grid cell into the running power-cycle and
    /// ledger-violation totals surfaced by the driver's progress line.
    pub fn add_cell_stats(&self, stats: &SimStats) {
        self.cycle_total.fetch_add(stats.power_cycle_count, Ordering::Relaxed);
        self.violation_total.fetch_add(stats.ledger_violations, Ordering::Relaxed);
    }

    /// Reads and clears the (power cycles, ledger violations) totals.
    pub fn take_cell_totals(&self) -> (u64, u64) {
        (
            self.cycle_total.swap(0, Ordering::Relaxed),
            self.violation_total.swap(0, Ordering::Relaxed),
        )
    }
}

impl Default for ExpContext {
    fn default() -> Self {
        Self::new(0.3)
    }
}

/// Maps `f` over `items` on the shared simulation worker pool
/// ([`ehs_sim::parallel`]), preserving order.
///
/// Each item counts against the process-wide `--jobs` budget, so nesting
/// this inside concurrently-running experiments cannot oversubscribe the
/// machine. Result order is always submission order — output is
/// byte-identical for any job count.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    ehs_sim::parallel::map(items, |item| f(&item))
}

/// Geometric mean (items must be positive).
///
/// # Panics
///
/// Panics on an empty slice or non-positive values.
pub fn gmean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "gmean of empty slice");
    assert!(xs.iter().all(|&x| x > 0.0), "gmean needs positive values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn amean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of empty slice");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Formats a ratio as a signed percentage gain, e.g. `1.0474` → `+4.74%`.
pub fn pct_gain(ratio: f64) -> String {
    format!("{:+.2}%", (ratio - 1.0) * 100.0)
}

/// Prints a simple fixed-width table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
        println!("  {}", joined.join("  "));
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Ensures `dir` exists and returns it (test helper).
pub fn ensure_dir(dir: &Path) -> &Path {
    fs::create_dir_all(dir).expect("create dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect(), |&x: &i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn means() {
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(amean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct_gain(1.0474), "+4.74%");
        assert_eq!(pct_gain(0.98), "-2.00%");
    }

    #[test]
    fn context_defaults() {
        let ctx = ExpContext::default();
        assert_eq!(ctx.apps.len(), 20);
        assert_eq!(ctx.sens_apps.len(), 8);
        assert!(ctx.scale > 0.0);
        assert!(ctx.telemetry_dir.is_none());
        assert!(!ctx.quiet);
        assert!(ctx.job_budget.is_unlimited());
        assert!(ctx.exp_id.is_none());
        assert!(!ctx.audit_strict);
        assert!(!ctx.resume);
        assert_eq!(ctx.fleet, fleet::FleetParams::default());
        assert!(ctx.fleet.population > 0 && ctx.fleet.shard_size > 0);
        ctx.record_failure(serde_json::json!({"kind": "panic"}));
        assert_eq!(ctx.take_failures().len(), 1);
        assert!(ctx.take_failures().is_empty(), "take must drain");
        ctx.add_cell_stats(&SimStats {
            power_cycle_count: 3,
            ledger_violations: 1,
            ..SimStats::default()
        });
        assert_eq!(ctx.take_cell_totals(), (3, 1));
        assert_eq!(ctx.take_cell_totals(), (0, 0), "take must drain");
    }
}
