//! Dependency-free parallel execution for simulation sweeps.
//!
//! Every simulation in this workspace is a pure function of its inputs
//! (program, power trace, config), so experiment grids parallelize
//! trivially — the only requirements are **deterministic result order**
//! (results come back indexed by submission order, never by completion
//! order) and **bounded concurrency** across the whole process.
//!
//! The pool is built on [`std::thread::scope`] only; the build
//! environment is offline, so no external crates (rayon, crossbeam) are
//! available.
//!
//! # Concurrency model
//!
//! Two layers share one process-wide budget of `max_workers()` (set via
//! [`set_max_workers`], e.g. from `repro --jobs N`; defaults to
//! [`std::thread::available_parallelism`]):
//!
//! * [`run_concurrent`] — coarse, *independent* tasks (e.g. whole
//!   experiments). Runs at most `max_workers()` tasks at a time but
//!   holds **no** worker permits, because its tasks are coordinators
//!   that submit leaf batches of their own.
//! * [`map`] / [`run_batch`] — leaf simulation jobs. Each in-flight job
//!   holds one permit from a global counting semaphore, so no matter how
//!   many experiments fan out concurrently, at most `max_workers()`
//!   simulations execute at once (coordinators waiting on their batches
//!   park in `join`, holding no permit — the layering cannot deadlock).
//!
//! With `--jobs 1` (or a single-item batch) everything runs inline on
//! the caller's thread with **no permits, threads, or locks** — the pool
//! machinery is bypassed entirely, so a serial sweep pays nothing over a
//! plain loop. The concurrency cap still holds: an inline batch executes
//! one leaf at a time on its coordinator's thread, and coordinators are
//! themselves capped at `max_workers()`. Output JSON is byte-identical
//! to any other job count because results are ordered by index and
//! simulations are deterministic.
//!
//! # Fault containment
//!
//! [`run_batch`] never re-panics: each job returns
//! `Result<SimStats, JobFailure>`, so one dead grid cell degrades to one
//! failed report cell instead of poisoning the whole batch. The
//! [`JobFailure`] taxonomy distinguishes panics, watchdog cancellations
//! ([`crate::config::StepBudget`]) and workers that died without storing
//! a result. Simulations are deterministic, so a failed job is not
//! retried: it would fail again. Every failure is mirrored into the
//! pool's harness event log ([`drain_pool_events`]) as
//! `JobFailed`/`JobTimedOut` events under the job's submission index,
//! and per-pass latency lands in the pool metrics ([`pool_metrics`]), so
//! the orchestration layer is observable end to end.
//!
//! # One pass per distinct cell
//!
//! Jobs of one batch that are equal in app, scale and the whole
//! [`SimConfig`] are one distinct job, and it runs one pass: Fig 23's
//! four algorithm rows share one compressor-free baseline column, so
//! that column runs once per app instead of four times. The pass's
//! result, or its failure, goes to every cell that submitted the job.
//! The pool still counts cells: one `jobs_ok` per successful cell and
//! one `JobFailed` per failed cell's index, but one `sim` span and one
//! `job_latency_ms` sample per pass. Only jobs with the same app, scale
//! and trace seed are compared, so splitting a fleet shard, whose cells
//! each draw their own trace seed, stays linear in the batch size.
//!
//! # Oracle twins
//!
//! An ideal job ([`GovernorSpec::is_ideal`]) first runs a recording
//! pass, and that pass is the plain run of its *twin* spec
//! ([`GovernorSpec::recording_twin`]: ACC for ideal ACC, ACC+Kagura for
//! ideal ACC+Kagura), bit for bit. So when a batch holds both an ideal
//! job and its twin — the same app and scale, and a config equal in every
//! field but `governor` — [`run_batch`] runs them as one pool item: the
//! recording pass's stats are the twin's result, and its oracle trace
//! feeds the replay that gives the ideal result. Each ideal job, in
//! submission order, takes the first twin not yet taken; every other job
//! runs alone. Pairing works on the distinct jobs, so a repeated ideal
//! job still shares its twin's pass. Results stay in submission order
//! and equal those of running each job alone, failures included: a pass
//! that panics or times out fails its cells as it would alone, and a
//! panicking recording pass fails the cells of both jobs. The pool
//! counts cells, not items: one `jobs_ok` per successful cell, and one
//! `sim` span and one `job_latency_ms` sample per pass.
//!
//! [`GovernorSpec::is_ideal`]: crate::config::GovernorSpec::is_ideal
//! [`GovernorSpec::recording_twin`]: crate::config::GovernorSpec::recording_twin

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread;
use std::time::Instant;

use ehs_telemetry::{spans, Event, MetricsRegistry, Stamped};
use ehs_workloads::App;

use crate::config::SimConfig;
use crate::machine::Simulator;
use crate::runner::{default_trace, run_app};
use crate::stats::SimStats;

/// Process-wide worker cap; 0 means "unset, use available parallelism".
static MAX_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker cap (clamped to at least 1). Called once
/// at startup by binaries with a `--jobs` flag; safe to call anytime.
pub fn set_max_workers(n: usize) {
    MAX_WORKERS.store(n.max(1), Ordering::SeqCst);
}

/// The current worker cap: the last [`set_max_workers`] value, or the
/// machine's available parallelism if never set.
pub fn max_workers() -> usize {
    match MAX_WORKERS.load(Ordering::SeqCst) {
        0 => thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    }
}

/// Counting semaphore state: number of leaf jobs currently executing.
fn in_flight() -> &'static (Mutex<usize>, Condvar) {
    static SEM: OnceLock<(Mutex<usize>, Condvar)> = OnceLock::new();
    SEM.get_or_init(|| (Mutex::new(0), Condvar::new()))
}

/// Number of leaf jobs currently holding a worker permit. Admission
/// layers (e.g. `simrun serve`) read this to size their load-shedding
/// decisions against the real pool occupancy rather than a guess.
pub fn pool_in_flight() -> usize {
    *in_flight().0.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether [`execute`] holds one global worker permit per in-flight item
/// (leaf simulation batches) or none (coordinator fan-out, whose real
/// work happens in nested leaf batches).
#[derive(Clone, Copy)]
enum Permits {
    PerItem,
    None,
}

/// RAII permit for one executing leaf job.
struct Permit;

impl Permit {
    fn acquire() -> Permit {
        let (lock, cv) = in_flight();
        let mut running = lock.lock().unwrap_or_else(|e| e.into_inner());
        while *running >= max_workers() {
            running = cv.wait(running).unwrap_or_else(|e| e.into_inner());
        }
        *running += 1;
        Permit
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        let (lock, cv) = in_flight();
        *lock.lock().unwrap_or_else(|e| e.into_inner()) -= 1;
        cv.notify_all();
    }
}

/// Why one batch job failed, without taking the rest of the batch down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFailure {
    /// The simulation panicked; the message names the workload × policy.
    Panicked {
        /// The captured panic text, with job context attached.
        message: String,
    },
    /// The cooperative watchdog ([`crate::config::StepBudget`])
    /// cancelled the run.
    TimedOut {
        /// Cancellation reason from [`SimStats::budget_exhausted`].
        detail: String,
        /// Instructions executed when the budget expired.
        executed_insts: u64,
    },
    /// The worker thread died before storing any result — the slot came
    /// back empty (this should be unreachable; it is kept as a contained
    /// failure rather than an assertion so one broken worker cannot
    /// poison the batch).
    WorkerDied,
}

impl JobFailure {
    /// Stable machine-readable tag for failure manifests.
    pub fn kind(&self) -> &'static str {
        match self {
            JobFailure::Panicked { .. } => "panic",
            JobFailure::TimedOut { .. } => "timeout",
            JobFailure::WorkerDied => "worker-died",
        }
    }
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobFailure::Panicked { message } => write!(f, "panicked: {message}"),
            JobFailure::TimedOut { detail, executed_insts } => {
                write!(f, "timed out after {executed_insts} executed insts: {detail}")
            }
            JobFailure::WorkerDied => {
                write!(f, "worker died before storing a result")
            }
        }
    }
}

impl std::error::Error for JobFailure {}

/// Process-wide pool observability: harness-level job events plus a
/// metrics registry with per-pass latency histograms. Guarded by one
/// mutex — all updates happen at pass and batch boundaries, never in the
/// simulation hot path.
struct PoolTelemetry {
    /// Wall-clock origin for event stamps (`t_us` = µs since this).
    start: Instant,
    events: Vec<Stamped>,
    metrics: MetricsRegistry,
    latency_ms: ehs_telemetry::HistogramId,
    jobs_ok: ehs_telemetry::Counter,
    jobs_failed: ehs_telemetry::Counter,
    jobs_timed_out: ehs_telemetry::Counter,
}

impl PoolTelemetry {
    fn emit(&mut self, event: Event) {
        let t_us = self.start.elapsed().as_secs_f64() * 1e6;
        // Harness events carry no simulated power cycle; 0 by convention.
        self.events.push(Stamped { t_us, cycle: 0, event });
    }
}

fn pool() -> &'static Mutex<PoolTelemetry> {
    static POOL: OnceLock<Mutex<PoolTelemetry>> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut metrics = MetricsRegistry::default();
        let latency_ms =
            metrics.histogram("job_latency_ms", &[1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1e3, 1e4]);
        let jobs_ok = metrics.counter("jobs_ok");
        let jobs_failed = metrics.counter("jobs_failed");
        let jobs_timed_out = metrics.counter("jobs_timed_out");
        Mutex::new(PoolTelemetry {
            start: Instant::now(),
            events: Vec::new(),
            metrics,
            latency_ms,
            jobs_ok,
            jobs_failed,
            jobs_timed_out,
        })
    })
}

/// Drains the pool's accumulated harness events
/// (`JobFailed`/`JobTimedOut`). Stamps are host wall-clock microseconds
/// since the pool first ran a batch; `cycle` is always 0.
pub fn drain_pool_events() -> Vec<Stamped> {
    std::mem::take(&mut pool().lock().unwrap_or_else(|e| e.into_inner()).events)
}

/// A snapshot of the pool's metrics: per-pass latency histogram
/// (`job_latency_ms`) and per-cell `jobs_ok`/`jobs_failed`/
/// `jobs_timed_out` counters.
pub fn pool_metrics() -> MetricsRegistry {
    pool().lock().unwrap_or_else(|e| e.into_inner()).metrics.clone()
}

/// One simulation of `app` at `scale` under `cfg`.
///
/// The unit of work accepted by [`run_batch`]: experiments flatten their
/// app × governor grids into these.
#[derive(Debug, Clone, PartialEq)]
pub struct SimJob {
    pub app: App,
    pub scale: f64,
    pub cfg: SimConfig,
}

impl SimJob {
    pub fn new(app: App, scale: f64, cfg: SimConfig) -> Self {
        SimJob { app, scale, cfg }
    }

    /// Copy with a watchdog budget on the job's config.
    pub fn with_budget(mut self, budget: crate::config::StepBudget) -> Self {
        self.cfg.step_budget = budget;
        self
    }

    /// Names the workload and policy in spans and failure messages.
    fn label(&self) -> String {
        format!("{}:{}", self.app, self.cfg.governor.label())
    }

    /// `true` when this job's plain run is the recording pass of the
    /// ideal job `ideal`: the same app and scale, and a config equal to
    /// `ideal`'s in every field but the governor, which is `ideal`'s
    /// [`crate::config::GovernorSpec::recording_twin`].
    fn is_twin_of(&self, ideal: &SimJob) -> bool {
        ideal.cfg.governor.recording_twin() == Some(self.cfg.governor)
            && self.app == ideal.app
            && self.scale == ideal.scale
            && self.cfg == SimConfig { governor: self.cfg.governor, ..ideal.cfg.clone() }
    }

    /// Runs the job alone, with both failure modes contained.
    fn run_alone(self) -> Result<SimStats, JobFailure> {
        let label = self.label();
        judge(&label, pass(&label, || run_app(self.app, self.scale, &self.cfg)))
    }
}

/// Runs one simulation pass under a `sim` span named `label` and records
/// its latency in the pool's `job_latency_ms` histogram. A panic comes
/// back as its payload text. The span costs nothing unless span
/// recording is enabled (see `ehs_telemetry::spans`).
fn pass(label: &str, f: impl FnOnce() -> SimStats) -> Result<SimStats, String> {
    let _span = spans::span("sim", || label.to_string());
    let t0 = Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|payload| panic_message(&*payload).to_string());
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut p = pool().lock().unwrap_or_else(|e| e.into_inner());
    let latency = p.latency_ms;
    p.metrics.observe(latency, ms);
    outcome
}

/// A cell's result from the pass that produced it: a panic becomes
/// [`JobFailure::Panicked`] and a watchdog cancellation
/// [`JobFailure::TimedOut`], both naming the cell's `label`.
fn judge(label: &str, outcome: Result<SimStats, String>) -> Result<SimStats, JobFailure> {
    match outcome {
        Ok(stats) => match stats.budget_exhausted {
            Some(ref reason) => Err(JobFailure::TimedOut {
                detail: format!("simulation {label}: {reason}"),
                executed_insts: stats.executed_insts,
            }),
            None => Ok(stats),
        },
        Err(payload) => {
            Err(JobFailure::Panicked { message: format!("simulation {label} panicked: {payload}") })
        }
    }
}

/// Best-effort text of a panic payload (panics carry `&str` or `String`
/// in practice; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}

/// One pool item of a batch: a job with its submission index, and the
/// ideal job, if any, whose recording pass is that job's run (see the
/// module docs).
struct Item {
    job: (usize, SimJob),
    ideal: Option<(usize, SimJob)>,
}

impl Item {
    /// The submission indices of the item's cells, in the order
    /// [`Item::run`] returns their results.
    fn cells(&self) -> Vec<usize> {
        std::iter::once(self.job.0).chain(self.ideal.as_ref().map(|ideal| ideal.0)).collect()
    }

    fn run(self) -> Vec<Result<SimStats, JobFailure>> {
        let (twin, ideal) = match self.ideal {
            None => return vec![self.job.1.run_alone()],
            Some((_, ideal)) => (self.job.1, ideal),
        };
        let (twin_label, ideal_label) = (twin.label(), ideal.label());
        let mut replay = None;
        let recorded = pass(&twin_label, || {
            let program = ideal.app.build(ideal.scale);
            let trace = default_trace(&ideal.cfg);
            let (stats, gov) = Simulator::record_oracle(&ideal.cfg, &program, &trace);
            replay = Some((program, trace, gov));
            stats
        });
        let replayed = match replay {
            Some((program, trace, gov)) => pass(&ideal_label, || {
                Simulator::with_governor(ideal.cfg, &program, &trace, gov).run()
            }),
            // Only a panic leaves no replay governor, and alone the ideal
            // job would have died in the same recording pass.
            None => recorded.clone(),
        };
        vec![judge(&twin_label, recorded), judge(&ideal_label, replayed)]
    }
}

/// Groups a batch into pool items, ordered by each item's first cell.
/// Each ideal job, in submission order, pairs with the first twin
/// ([`SimJob::is_twin_of`]) that no earlier ideal job took.
fn pool_items(jobs: Vec<SimJob>) -> Vec<Item> {
    let n = jobs.len();
    let mut partner: Vec<Option<usize>> = vec![None; n];
    for i in 0..n {
        if jobs[i].cfg.governor.is_ideal() {
            let twin = (0..n).find(|&j| partner[j].is_none() && jobs[j].is_twin_of(&jobs[i]));
            if let Some(j) = twin {
                partner[i] = Some(j);
                partner[j] = Some(i);
            }
        }
    }
    let mut slots: Vec<Option<SimJob>> = jobs.into_iter().map(Some).collect();
    let mut items = Vec::new();
    for i in 0..n {
        let Some(job) = slots[i].take() else { continue };
        let other = partner[i].map(|j| (j, slots[j].take().expect("a job pairs at most once")));
        items.push(match other {
            Some(ideal) if !job.cfg.governor.is_ideal() => {
                Item { job: (i, job), ideal: Some(ideal) }
            }
            Some(twin) => Item { job: twin, ideal: Some((i, job)) },
            None => Item { job: (i, job), ideal: None },
        });
    }
    items
}

/// Counts finished cells in the pool metrics: `jobs_ok` per success,
/// and per failure `jobs_failed` with a `JobFailed` event (plus
/// `jobs_timed_out` and `JobTimedOut` for a watchdog cancellation) under
/// the cell's index in `results`.
fn count_cells(results: &[Result<SimStats, JobFailure>]) {
    let mut p = pool().lock().unwrap_or_else(|e| e.into_inner());
    for (i, result) in results.iter().enumerate() {
        let failure = match result {
            Ok(_) => {
                let ok = p.jobs_ok;
                p.metrics.inc(ok, 1);
                continue;
            }
            Err(failure) => failure,
        };
        if let JobFailure::TimedOut { executed_insts, .. } = failure {
            let timed_out = p.jobs_timed_out;
            p.metrics.inc(timed_out, 1);
            p.emit(Event::JobTimedOut { job: i as u64, executed_insts: *executed_insts });
        }
        let failed = p.jobs_failed;
        p.metrics.inc(failed, 1);
        p.emit(Event::JobFailed { job: i as u64, reason: failure.to_string() });
    }
}

/// Splits a batch into its distinct jobs, in order of first submission,
/// and the submission indices of each one's cells. Equal jobs share app,
/// scale and trace seed, so a job is compared only with the distinct
/// jobs of its bucket.
fn distinct_jobs(jobs: Vec<SimJob>) -> (Vec<SimJob>, Vec<Vec<usize>>) {
    let mut buckets: HashMap<(App, u64, u64), Vec<usize>> = HashMap::new();
    let (mut distinct, mut cells): (Vec<SimJob>, Vec<Vec<usize>>) = (Vec::new(), Vec::new());
    for (i, job) in jobs.into_iter().enumerate() {
        let bucket = buckets.entry((job.app, job.scale.to_bits(), job.cfg.trace_seed)).or_default();
        match bucket.iter().find(|&&d| distinct[d] == job) {
            Some(&d) => cells[d].push(i),
            None => {
                bucket.push(distinct.len());
                distinct.push(job);
                cells.push(vec![i]);
            }
        }
    }
    (distinct, cells)
}

/// Runs a batch of simulation jobs on the worker pool, containing every
/// failure.
///
/// `results[i]` always corresponds to `jobs[i]`, regardless of job count
/// or completion order, and equals [`run_job`]`(jobs[i])`: repeated jobs
/// that share one pass, and ideal jobs that share their recording pass
/// with a twin (see the module docs), included. A panicking, hanging
/// (budget-cancelled) or worker-killed job degrades to `Err(JobFailure)`
/// in its slot and in those of the jobs equal to it; the rest of the
/// batch completes untouched.
pub fn run_batch(jobs: Vec<SimJob>) -> Vec<Result<SimStats, JobFailure>> {
    let mut slots: Vec<Option<Result<SimStats, JobFailure>>> = jobs.iter().map(|_| None).collect();
    let (distinct, cells) = distinct_jobs(jobs);
    for (cells, result) in cells.into_iter().zip(run_distinct(distinct)) {
        let copies = std::iter::repeat_n(result, cells.len());
        for (i, result) in cells.into_iter().zip(copies) {
            slots[i] = Some(result);
        }
    }
    let results: Vec<_> = slots
        .into_iter()
        .map(|slot| slot.expect("every job is a cell of one distinct job"))
        .collect();
    count_cells(&results);
    results
}

/// Runs distinct jobs on the pool, each ideal job sharing its recording
/// pass with its twin if the batch holds one; results in job order.
fn run_distinct(jobs: Vec<SimJob>) -> Vec<Result<SimStats, JobFailure>> {
    let mut slots: Vec<Option<Result<SimStats, JobFailure>>> = jobs.iter().map(|_| None).collect();
    let items = pool_items(jobs);
    let cells: Vec<Vec<usize>> = items.iter().map(Item::cells).collect();
    for (cells, outcome) in cells.into_iter().zip(execute(items, &Item::run, Permits::PerItem)) {
        match outcome {
            Ok(results) => {
                for (i, result) in cells.into_iter().zip(results) {
                    slots[i] = Some(result);
                }
            }
            Err(failure) => {
                for i in cells {
                    slots[i] = Some(Err(failure.clone()));
                }
            }
        }
    }
    slots.into_iter().map(|slot| slot.expect("every job is a cell of one item")).collect()
}

/// Runs one simulation job on the worker pool, blocking until a global
/// worker permit frees up.
///
/// This is the serving layer's entry point: one interactive request
/// maps to one job and shares the process-wide `max_workers()` budget
/// with any concurrent batch work, so a burst of what-if queries can
/// never oversubscribe the host. Failure containment and telemetry
/// match [`run_batch`] exactly, with the job counted as index 0.
pub fn run_job(job: SimJob) -> Result<SimStats, JobFailure> {
    let result = {
        let _permit = Permit::acquire();
        job.run_alone()
    };
    count_cells(std::slice::from_ref(&result));
    result
}

/// Parallel map over leaf work items with deterministic result order.
///
/// Each in-flight item holds one global worker permit; see the module
/// docs for how this composes with [`run_concurrent`]. Panics in `f`
/// propagate to the caller once the scope joins, renamed with the job
/// index — callers that need containment instead use [`try_map`].
pub fn map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    execute(items, &f, Permits::PerItem)
        .into_iter()
        .enumerate()
        .map(|(i, slot)| unwrap_contained(i, slot))
        .collect()
}

/// Fault-contained parallel map: each item's panic or typed failure
/// comes back as `Err(JobFailure)` in its own slot instead of unwinding
/// through the whole batch. Result order matches submission order.
pub fn try_map<T, R, F>(items: Vec<T>, f: F) -> Vec<Result<R, JobFailure>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> Result<R, JobFailure> + Sync,
{
    execute(items, &f, Permits::PerItem)
        .into_iter()
        .map(|slot| slot.and_then(|inner| inner))
        .collect()
}

/// Runs independent coarse-grained tasks concurrently (at most
/// `max_workers()` at a time), returning results in submission order.
///
/// Unlike [`map`], tasks hold no worker permit — use this only for
/// coordinators (e.g. whole experiments) whose real work happens in
/// nested [`map`]/[`run_batch`] calls.
pub fn run_concurrent<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    execute(items, &f, Permits::None)
        .into_iter()
        .enumerate()
        .map(|(i, slot)| unwrap_contained(i, slot))
        .collect()
}

/// Re-raises a contained failure with its job index attached, for the
/// panicking entry points ([`map`], [`run_concurrent`]).
fn unwrap_contained<R>(i: usize, slot: Result<R, JobFailure>) -> R {
    match slot {
        Ok(result) => result,
        Err(JobFailure::Panicked { message }) => panic!("job {i} panicked: {message}"),
        Err(JobFailure::WorkerDied) => {
            panic!("job {i} produced no result (worker died before storing it)")
        }
        Err(other) => panic!("job {i} failed: {other}"),
    }
}

/// Shared scoped-pool driver: `n = min(len, max_workers())` workers pull
/// items off a shared index and write results into per-index slots.
///
/// Failures are contained, never re-raised: a panic in `f` becomes
/// [`JobFailure::Panicked`] in that item's slot, and a slot left empty
/// by a dead worker becomes [`JobFailure::WorkerDied`]. The panicking
/// wrappers layer their legacy contract on top via [`unwrap_contained`].
fn execute<T, R>(
    items: Vec<T>,
    f: &(dyn Fn(T) -> R + Sync),
    permits: Permits,
) -> Vec<Result<R, JobFailure>>
where
    T: Send,
    R: Send,
{
    let len = items.len();
    let workers = max_workers().min(len);
    if workers <= 1 {
        // Inline fast path: no threads, no locks, and **no permits** — the
        // items run one at a time on this (coordinator) thread, and
        // coordinators are themselves bounded by `max_workers()`, so the
        // global leaf cap holds without touching the semaphore. Execution
        // order is exactly what the parallel path's slot indexing
        // emulates, and panics are still contained so the `--jobs 1`
        // failure contract matches the parallel one.
        return items
            .into_iter()
            .map(|item| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item)))
                    .map_err(|p| JobFailure::Panicked { message: panic_message(&*p).to_string() })
            })
            .collect();
    }

    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    // Each slot holds the job's result or its captured panic message:
    // one dead job must not discard the rest of the batch unexplained.
    let slots: Vec<Mutex<Option<Result<R, String>>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    thread::scope(|scope| {
        let (work, slots, next) = (&work, &slots, &next);
        for w in 0..workers {
            scope.spawn(move || {
                // 1-based so timing spans can distinguish pool workers
                // from inline/coordinator execution (slot 0).
                spans::set_worker_slot(w + 1);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= len {
                        return;
                    }
                    let item = work[i]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .take()
                        .expect("work item taken twice");
                    let _permit = match permits {
                        Permits::PerItem => Some(Permit::acquire()),
                        Permits::None => None,
                    };
                    // Catch the payload so the coordinator can name the
                    // job that died (the raw scope join would surface an
                    // anonymous "a scoped thread panicked").
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item)))
                        .map_err(|p| panic_message(&*p).to_string());
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| match slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some(Ok(result)) => Ok(result),
            Some(Err(message)) => Err(JobFailure::Panicked { message }),
            None => Err(JobFailure::WorkerDied),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::config::{EhsDesign, GovernorSpec, StepBudget};

    #[test]
    fn map_preserves_submission_order() {
        set_max_workers(4);
        let out = map((0..64).collect::<Vec<u64>>(), |i| i * 3);
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<u64>>());
        set_max_workers(1);
        let serial = map((0..64).collect::<Vec<u64>>(), |i| i * 3);
        assert_eq!(out, serial);
    }

    #[test]
    fn nested_coordinators_do_not_deadlock() {
        // More coordinators than workers, each submitting leaf batches
        // that need permits: must complete because coordinators hold none.
        set_max_workers(2);
        let out = run_concurrent((0..6).collect::<Vec<u64>>(), |outer| {
            let inner = map((0..8).collect::<Vec<u64>>(), |i| i + outer * 100);
            inner.iter().sum::<u64>()
        });
        let expect: Vec<u64> = (0..6).map(|outer| (0..8).map(|i| i + outer * 100).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn run_batch_matches_direct_runs() {
        set_max_workers(2);
        let cfg = SimConfig::table1().with_governor(GovernorSpec::Acc);
        let jobs: Vec<SimJob> =
            [App::Sha, App::Crc32].iter().map(|&a| SimJob::new(a, 0.01, cfg.clone())).collect();
        let batch = run_batch(jobs.clone());
        for (job, result) in jobs.into_iter().zip(&batch) {
            let stats = result.as_ref().expect("healthy job must succeed");
            let direct = run_app(job.app, job.scale, &job.cfg);
            assert_eq!(direct.sim_time, stats.sim_time, "batch result diverged for {:?}", job.app);
            assert_eq!(direct.total_cycles, stats.total_cycles);
        }
    }

    #[test]
    fn try_map_contains_panics_to_their_own_slot() {
        set_max_workers(4);
        let out = try_map((0..8).collect::<Vec<u64>>(), |i| {
            if i == 5 {
                panic!("boom at {i}");
            }
            Ok(i * 2)
        });
        for (i, slot) in out.iter().enumerate() {
            if i == 5 {
                match slot {
                    Err(JobFailure::Panicked { message }) => {
                        assert!(message.contains("boom at 5"), "wrong payload: {message}");
                    }
                    other => panic!("expected contained panic, got {other:?}"),
                }
            } else {
                assert_eq!(*slot, Ok(i as u64 * 2), "healthy slot {i} corrupted");
            }
        }
    }

    #[test]
    fn run_job_matches_direct_run_and_contains_budget_exhaustion() {
        set_max_workers(2);
        let cfg = SimConfig::table1().with_governor(GovernorSpec::Acc);
        let stats = run_job(SimJob::new(App::Sha, 0.01, cfg.clone()))
            .expect("healthy single job must succeed");
        let direct = run_app(App::Sha, 0.01, &cfg);
        assert_eq!(direct.sim_time, stats.sim_time);
        assert_eq!(direct.total_cycles, stats.total_cycles);
        assert_pool_drains("permit must be released after the run");

        // A starvation-level instruction budget must come back as a
        // contained TimedOut, never a wedged or panicking worker.
        let starved =
            SimJob::new(App::Sha, 0.01, cfg).with_budget(crate::config::StepBudget::insts(10));
        match run_job(starved) {
            Err(JobFailure::TimedOut { executed_insts, .. }) => {
                assert!(executed_insts >= 10, "watchdog fired before its budget")
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        assert_pool_drains("permit must be released after a failure");
    }

    /// Waits for the process-wide permit count to reach zero. Other tests
    /// in this binary share the pool, so a momentary non-zero count may
    /// be theirs; a leaked permit never drains.
    fn assert_pool_drains(msg: &str) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while pool_in_flight() != 0 {
            assert!(Instant::now() < deadline, "{msg}");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn run_batch_contains_a_panicking_job() {
        set_max_workers(2);
        let cfg = SimConfig::table1().with_governor(GovernorSpec::Acc);
        // Negative scale trips `App::build`'s "scale must be positive"
        // assertion — a deterministic in-simulation panic.
        let jobs = vec![
            SimJob::new(App::Sha, 0.01, cfg.clone()),
            SimJob::new(App::Crc32, -1.0, cfg.clone()),
            SimJob::new(App::Crc32, 0.01, cfg),
        ];
        let batch = run_batch(jobs);
        assert!(batch[0].is_ok(), "healthy job 0 must survive: {:?}", batch[0]);
        assert!(batch[2].is_ok(), "healthy job 2 must survive: {:?}", batch[2]);
        match &batch[1] {
            Err(JobFailure::Panicked { message }) => {
                assert!(
                    message.contains("crc32") && message.contains("scale"),
                    "panic must name the simulation and cause: {message}"
                );
            }
            other => panic!("expected contained panic, got {other:?}"),
        }
    }

    #[test]
    fn worker_panics_resurface_with_job_context() {
        set_max_workers(4);
        let result = std::panic::catch_unwind(|| {
            map((0..8).collect::<Vec<u64>>(), |i| {
                if i == 5 {
                    panic!("boom at {i}");
                }
                i
            })
        });
        let payload = result.expect_err("batch with a panicking job must panic");
        let msg = panic_message(&*payload);
        assert!(msg.contains("job 5"), "missing job index: {msg}");
        assert!(msg.contains("boom at 5"), "missing original payload: {msg}");
    }

    #[test]
    fn ideal_jobs_pair_with_the_first_free_twin() {
        let job = |app, gov| SimJob::new(app, 0.01, SimConfig::table1().with_governor(gov));
        let kagura = GovernorSpec::AccKagura(Default::default());
        let ideal_kagura = GovernorSpec::IdealAccKagura(Default::default());
        let jobs = vec![
            job(App::Sha, GovernorSpec::IdealAcc), // 0
            job(App::Sha, kagura),                 // 1
            job(App::Crc32, GovernorSpec::Acc),    // 2
            job(App::Sha, GovernorSpec::Acc),      // 3
            job(App::Sha, ideal_kagura),           // 4
            job(App::Sha, GovernorSpec::IdealAcc), // 5: no twin left
            job(App::Crc32, GovernorSpec::IdealAcc).with_budget(StepBudget::insts(9)), // 6
            SimJob::new(
                // 7: NvMR
                App::Crc32,
                0.01,
                SimConfig::table1()
                    .with_governor(GovernorSpec::IdealAcc)
                    .with_design(EhsDesign::Nvmr),
            ),
            job(App::Crc32, GovernorSpec::IdealAcc), // 8
        ];
        let cells: Vec<Vec<usize>> = pool_items(jobs).iter().map(Item::cells).collect();
        assert_eq!(
            cells,
            vec![vec![3, 0], vec![1, 4], vec![2, 8], vec![5], vec![6], vec![7]],
            "twins pair first-come by submission order; a budget or design difference blocks it"
        );
    }

    #[test]
    fn equal_jobs_share_one_distinct_job() {
        let job = |app, scale| SimJob::new(app, scale, SimConfig::table1());
        let mut fpc = job(App::Sha, 0.01);
        fpc.cfg.algorithm = ehs_compress::Algorithm::Fpc;
        let jobs = vec![
            job(App::Sha, 0.01),   // 0
            job(App::Crc32, 0.01), // 1
            job(App::Sha, 0.01),   // 2: repeats 0
            job(App::Sha, 0.02),   // 3: scale differs
            fpc.clone(),           // 4: algorithm differs
            job(App::Crc32, 0.01), // 5: repeats 1
            fpc,                   // 6: repeats 4
        ];
        let (distinct, cells) = distinct_jobs(jobs.clone());
        assert_eq!(cells, vec![vec![0, 2], vec![1, 5], vec![3], vec![4, 6]]);
        for (job, cells) in distinct.iter().zip(&cells) {
            assert!(cells.iter().all(|&i| jobs[i] == *job), "a cell joined an unequal job");
        }
    }

    #[test]
    fn worker_cap_defaults_to_available_parallelism() {
        MAX_WORKERS.store(0, Ordering::SeqCst);
        assert!(max_workers() >= 1);
        set_max_workers(0); // clamps to 1
        assert_eq!(max_workers(), 1);
    }
}
