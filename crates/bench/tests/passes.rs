//! One pass per distinct cell: Fig 23's four algorithm rows share Table
//! I's compressor-free baseline column, so the pool counts all
//! `4 × 3 × apps` cells but runs that column once per app.

use std::path::PathBuf;

use ehs_telemetry::spans;
use kagura_bench::experiments::find;
use kagura_bench::ExpContext;

fn jobs_ok() -> u64 {
    let mut m = ehs_sim::parallel::pool_metrics();
    let ok = m.counter("jobs_ok");
    m.counter_value(ok)
}

#[test]
fn fig23_runs_its_shared_baseline_once_per_app() {
    let ctx = ExpContext {
        scale: 0.02,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("passes"),
        quiet: true,
        ..ExpContext::default()
    };
    let apps = ctx.sens_apps.len() as u64;
    ehs_sim::parallel::set_max_workers(2);
    let before = jobs_ok();
    spans::set_enabled(true);
    let _ = find("fig23").expect("known experiment")(&ctx);
    spans::set_enabled(false);
    let passes = spans::drain().iter().filter(|s| s.category == "sim").count() as u64;
    assert_eq!(jobs_ok() - before, 4 * 3 * apps, "the pool counts every cell");
    assert_eq!(passes, (1 + 4 * 2) * apps, "the shared baseline runs once per app");
}
