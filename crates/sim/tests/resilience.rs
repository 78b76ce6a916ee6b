//! Resilient-orchestration guarantees: the cooperative watchdog cancels
//! runaway simulations deterministically, a batch containing panicking
//! and hanging jobs completes with those cells failed while every
//! healthy cell matches the no-fault run exactly, and an ideal job that
//! shares its recording pass with a twin job gives both cells exactly
//! their lone results.

use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Duration;

use ehs_sim::{
    run_batch, run_job, EhsDesign, GovernorSpec, JobFailure, SimConfig, SimJob, SimStats,
    StepBudget,
};
use ehs_telemetry::Event;
use ehs_workloads::App;

/// Serializes the tests that read the pool's process-global counters
/// and event log, so each sees only its own batch's cells.
static POOL: Mutex<()> = Mutex::new(());

fn acc() -> SimConfig {
    SimConfig::table1().with_governor(GovernorSpec::Acc)
}

#[test]
fn instruction_budget_cancels_runaway_run_deterministically() {
    let cfg = acc().with_step_budget(StepBudget::insts(20_000));
    let a = ehs_sim::run_app(App::Sha, 0.05, &cfg);
    let b = ehs_sim::run_app(App::Sha, 0.05, &cfg);
    assert!(!a.completed, "cancelled run must not report completion");
    let reason = a.budget_exhausted.as_deref().expect("cancellation reason");
    assert!(reason.contains("instruction budget"), "wrong reason: {reason}");
    assert_eq!(a.executed_insts, 20_000, "insts budget must cancel at an exact step");
    assert_eq!(a, b, "deterministic budget must cancel byte-identically");
}

#[test]
fn wall_clock_budget_cancels_a_hanging_job() {
    let cfg = acc().with_step_budget(StepBudget::wall(Duration::from_millis(1)));
    let stats = ehs_sim::run_app(App::Sha, 0.5, &cfg);
    assert!(!stats.completed);
    let reason = stats.budget_exhausted.expect("cancellation reason");
    assert!(reason.contains("wall-clock"), "wrong reason: {reason}");
}

#[test]
fn unbudgeted_runs_are_untouched() {
    let stats = ehs_sim::run_app(App::Sha, 0.01, &acc());
    assert!(stats.completed);
    assert_eq!(stats.budget_exhausted, None);
}

/// The acceptance scenario: one batch holding a healthy job, a panicking
/// job, another healthy job, and a hanging (budget-cancelled) job. The
/// failures stay in their own slots; the healthy results are exactly the
/// ones a no-fault batch produces.
#[test]
fn mixed_fault_batch_preserves_healthy_cells_exactly() {
    let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    ehs_sim::parallel::set_max_workers(4);
    let healthy = |app| SimJob::new(app, 0.01, acc());
    let reference = run_batch(vec![healthy(App::Sha), healthy(App::Crc32)]);

    let jobs = vec![
        healthy(App::Sha),
        // `App::build` asserts scale > 0: a deterministic in-sim panic.
        SimJob::new(App::Dijkstra, -1.0, acc()),
        healthy(App::Crc32),
        // Injected runaway: a budget far below the program length.
        healthy(App::Patricia).with_budget(StepBudget::insts(2_000)),
    ];
    let batch = run_batch(jobs);

    assert_eq!(batch[0], reference[0], "healthy cell 0 diverged from the no-fault run");
    assert_eq!(batch[2], reference[1], "healthy cell 2 diverged from the no-fault run");
    match &batch[1] {
        Err(JobFailure::Panicked { message }) => {
            assert!(
                message.contains("dijkstra") && message.contains("scale"),
                "panic must name the simulation and cause: {message}"
            );
        }
        other => panic!("expected contained panic, got {other:?}"),
    }
    match &batch[3] {
        Err(JobFailure::TimedOut { detail, executed_insts }) => {
            assert_eq!(*executed_insts, 2_000);
            assert!(detail.contains("patricia"), "timeout must name the simulation: {detail}");
        }
        other => panic!("expected watchdog cancellation, got {other:?}"),
    }

    // Both failures were mirrored into the pool's harness event log.
    // (The log is process-global and tests run concurrently, so filter
    // by payloads unique to this batch.)
    let events = ehs_sim::parallel::drain_pool_events();
    assert!(
        events.iter().any(|s| matches!(
            &s.event,
            Event::JobFailed { reason, .. } if reason.contains("dijkstra")
        )),
        "missing JobFailed event for the panicked cell"
    );
    assert!(
        events.iter().any(|s| matches!(&s.event, Event::JobTimedOut { executed_insts: 2_000, .. })),
        "missing JobTimedOut event for the cancelled cell"
    );

    // And counted in the pool metrics, alongside per-job latencies.
    let mut m = ehs_sim::parallel::pool_metrics();
    let failed = m.counter("jobs_failed");
    let timed_out = m.counter("jobs_timed_out");
    let ok = m.counter("jobs_ok");
    assert!(m.counter_value(failed) >= 2, "both failures must be counted");
    assert!(m.counter_value(timed_out) >= 1);
    assert!(m.counter_value(ok) >= 4, "healthy jobs must be counted");
    let hist = m.histogram("job_latency_ms", &[]);
    assert!(m.histogram_data(hist).count() >= 6, "every job must record a latency sample");
}

fn jobs_ok() -> u64 {
    let mut m = ehs_sim::parallel::pool_metrics();
    let ok = m.counter("jobs_ok");
    m.counter_value(ok)
}

/// The pairing differential: in a batch where ideal jobs share their
/// recording pass with twins, every cell equals `run_job` of the same
/// job in full `SimStats` (or failure), at one worker and at two; the
/// pool counts cells, not pool items; and failures carry their cell's
/// submission index.
#[test]
fn twin_pairing_gives_every_cell_its_lone_result() {
    let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let job = |app, gov| SimJob::new(app, 0.02, SimConfig::table1().with_governor(gov));
    let kagura = GovernorSpec::AccKagura(Default::default());
    let ideal_kagura = GovernorSpec::IdealAccKagura(Default::default());
    let starved = StepBudget::insts(3_000);
    let jobs = vec![
        // Twins in shuffled order: ideal first, twin first, interleaved.
        job(App::Sha, ideal_kagura),
        job(App::Crc32, GovernorSpec::Acc),
        job(App::Sha, GovernorSpec::Acc),
        job(App::Sha, kagura),
        job(App::Crc32, GovernorSpec::IdealAcc),
        job(App::Sha, GovernorSpec::IdealAcc),
        // An ideal job without a twin.
        job(App::Patricia, GovernorSpec::IdealAcc),
        // Two ideal jobs and one twin.
        job(App::G721d, GovernorSpec::IdealAcc),
        job(App::G721d, GovernorSpec::Acc),
        job(App::G721d, GovernorSpec::IdealAcc),
        // Would-be twins that differ only in design or in budget.
        job(App::Jpegd, GovernorSpec::IdealAcc).with_budget(StepBudget::insts(50_000_000)),
        job(App::Jpegd, GovernorSpec::Acc),
        SimJob::new(
            App::Jpegd,
            0.02,
            SimConfig::table1().with_governor(ideal_kagura).with_design(EhsDesign::Nvmr),
        ),
        job(App::Jpegd, kagura),
        // A twin whose instruction budget times out its recording pass.
        job(App::Dijkstra, GovernorSpec::Acc).with_budget(starved),
        job(App::Dijkstra, GovernorSpec::IdealAcc).with_budget(starved),
    ];
    let lone: Vec<Result<SimStats, JobFailure>> = jobs.iter().cloned().map(run_job).collect();
    assert!(
        matches!(lone[14], Err(JobFailure::TimedOut { executed_insts: 3_000, .. })),
        "the starved twin must time out alone: {:?}",
        lone[14]
    );
    let failed: BTreeSet<u64> =
        lone.iter().enumerate().filter(|(_, r)| r.is_err()).map(|(i, _)| i as u64).collect();
    let ok = (lone.len() - failed.len()) as u64;
    let _ = ehs_sim::parallel::drain_pool_events();

    for workers in [1, 2] {
        ehs_sim::parallel::set_max_workers(workers);
        let ok_before = jobs_ok();
        let batch = run_batch(jobs.clone());
        assert_eq!(batch.len(), jobs.len());
        for (i, (cell, alone)) in batch.iter().zip(&lone).enumerate() {
            assert_eq!(
                cell,
                alone,
                "cell {i} ({:?} under {}) differs from its lone run at {workers} worker(s)",
                jobs[i].app,
                jobs[i].cfg.governor.label()
            );
        }
        assert_eq!(jobs_ok() - ok_before, ok, "jobs_ok must count cells, not pool items");
        let reported: BTreeSet<u64> = ehs_sim::parallel::drain_pool_events()
            .iter()
            .filter_map(|s| match s.event {
                Event::JobFailed { job, .. } => Some(job),
                _ => None,
            })
            .collect();
        assert_eq!(reported, failed, "JobFailed must carry each failed cell's original index");
    }
}
