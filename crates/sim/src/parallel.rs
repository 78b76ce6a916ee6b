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
//! # Pass plan
//!
//! [`run_batch`] plans a batch before it runs anything. Every cell names
//! the wave-1 *pass* it takes its stats from, found through one lookup
//! keyed by app, scale and trace seed and matched on the whole
//! [`SimConfig`]:
//!
//! * A plain cell reads the pass of its own job, so equal jobs share one
//!   pass: Fig 23's four algorithm rows share one compressor-free
//!   baseline column, which runs once per app instead of four times.
//! * An ideal cell ([`GovernorSpec::is_ideal`]) reads the pass of the
//!   same job under its [`GovernorSpec::recording_twin`] (ACC for ideal
//!   ACC, ACC+Kagura for ideal ACC+Kagura). That pass runs the two-phase
//!   oracle's recording, which is the twin's plain run bit for bit, so
//!   it serves the twin's cells too, and leaves a replay [`Governor`].
//!   The ideal cell also names the pass of its *baseline*: its job under
//!   [`GovernorSpec::NoCompression`], when the batch holds one.
//!
//! Passes run in order of each one's first cell. Between the waves, a
//! replay whose recording found no useful compression
//! ([`OracleTrace::never_compresses`]) takes its baseline pass's result
//! when that pass completed with no failure and the replay governor
//! provably repeats its run ([`Governor::replays_baseline`]: no useful
//! fill, no voltage trigger, and no more power cycles than the trace
//! records). Wave 2 runs every other replay; it rebuilds the program and
//! trace rather than holding them across the waves, which would raise
//! the batch's peak memory.
//!
//! Every cell's result equals that of running its job alone, failures
//! included: a pass's raw outcome is judged once per cell under the
//! cell's own label, and a panicking recording pass fails its ideal
//! cells as well as its plain ones. The pool counts cells: one `jobs_ok`
//! per successful cell and one `JobFailed` per failed cell's index, but
//! one `sim` span and one `job_latency_ms` sample per pass, and none for
//! a served cell. A Fig 13 app (baseline, ACC, ACC+Kagura and both ideal
//! cells) thus runs 5 passes, or 3 on the 7 apps whose oracle finds
//! nothing to compress; an ideal job alone runs 2. Splitting a fleet
//! shard, whose cells each draw their own trace seed, stays linear in
//! the batch size.
//!
//! [`OracleTrace::never_compresses`]: kagura_core::OracleTrace::never_compresses

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread;
use std::time::Instant;

use ehs_telemetry::{spans, Event, MetricsRegistry, Stamped};
use ehs_workloads::App;

use crate::config::{GovernorSpec, SimConfig};
use crate::governor::Governor;
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

    /// This job under `governor` instead of its own.
    fn under(&self, governor: GovernorSpec) -> SimJob {
        SimJob::new(self.app, self.scale, self.cfg.clone().with_governor(governor))
    }

    /// The bucket of a pass plan's lookup that holds this job: equal jobs
    /// share app, scale (as bits) and trace seed.
    fn plan_key(&self) -> (App, u64, u64) {
        (self.app, self.scale.to_bits(), self.cfg.trace_seed)
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

/// A batch's pass plan (see the module docs): its wave-1 passes, in
/// order of each one's first cell, and the pass each cell reads.
struct Plan {
    passes: Vec<Pass>,
    /// Per cell, in submission order: its pass, and whether it is that
    /// pass's ideal job, which reads the replay rather than the pass.
    cells: Vec<(usize, bool)>,
    /// The passes of each bucket (`SimJob::plan_key`).
    buckets: HashMap<(App, u64, u64), Vec<usize>>,
}

/// One wave-1 pass: the run of a job with no ideal governor, which
/// records the oracle of `ideal`, the batch's ideal job whose recording
/// twin it is, if any.
struct Pass {
    job: SimJob,
    ideal: Option<SimJob>,
    /// The pass of `ideal`'s baseline job, when the batch holds one.
    baseline: Option<usize>,
}

/// A pass's raw outcome: its stats or panic text, or the failure of the
/// pool item that ran it.
type Raw = Result<Result<SimStats, String>, JobFailure>;

impl Plan {
    fn new(jobs: Vec<SimJob>) -> Plan {
        let mut plan = Plan { passes: Vec::new(), cells: Vec::new(), buckets: HashMap::new() };
        for job in jobs {
            let cell = match job.cfg.governor.recording_twin() {
                Some(twin) => {
                    let p = plan.pass_of(job.under(twin));
                    // `recording_twin` is injective, so every ideal job
                    // of one pass is equal to the first.
                    plan.passes[p].ideal.get_or_insert(job);
                    (p, true)
                }
                None => (plan.pass_of(job), false),
            };
            plan.cells.push(cell);
        }
        for p in 0..plan.passes.len() {
            if plan.passes[p].ideal.is_some() {
                let baseline = plan.passes[p].job.under(GovernorSpec::NoCompression);
                plan.passes[p].baseline = plan.find(&baseline);
            }
        }
        plan
    }

    /// The pass that runs `job`, if the plan holds one.
    fn find(&self, job: &SimJob) -> Option<usize> {
        let bucket = self.buckets.get(&job.plan_key())?;
        bucket.iter().copied().find(|&p| self.passes[p].job == *job)
    }

    /// The pass that runs `job`, planned anew after the others if the
    /// plan holds none.
    fn pass_of(&mut self, job: SimJob) -> usize {
        if let Some(p) = self.find(&job) {
            return p;
        }
        let p = self.passes.len();
        self.buckets.entry(job.plan_key()).or_default().push(p);
        self.passes.push(Pass { job, ideal: None, baseline: None });
        p
    }
}

impl Pass {
    /// Wave 1: runs the job, or records `ideal`'s oracle in the same run;
    /// returns the raw outcome and the replay governor a recording left.
    fn run(&self) -> (Result<SimStats, String>, Option<Governor>) {
        let label = self.job.label();
        let Some(ideal) = &self.ideal else {
            return (pass(&label, || run_app(self.job.app, self.job.scale, &self.job.cfg)), None);
        };
        let mut gov = None;
        let raw = pass(&label, || {
            let program = ideal.app.build(ideal.scale);
            let trace = default_trace(&ideal.cfg);
            let (stats, replay) = Simulator::record_oracle(&ideal.cfg, &program, &trace);
            gov = Some(replay);
            stats
        });
        (raw, gov)
    }
}

/// The result a pass's raw outcome gives the cell named `label`.
fn judged(label: &str, raw: &Raw) -> Result<SimStats, JobFailure> {
    raw.clone().and_then(|raw| judge(label, raw))
}

/// An ideal job whose recording pass ran, with the replay governor that
/// pass left for wave 2.
struct Replay<'a> {
    job: &'a SimJob,
    gov: Governor,
}

impl Replay<'_> {
    /// Wave 2: rebuilds the job's program and trace and replays them.
    fn run(self) -> Result<SimStats, JobFailure> {
        let label = self.job.label();
        judge(
            &label,
            pass(&label, || {
                let program = self.job.app.build(self.job.scale);
                let trace = default_trace(&self.job.cfg);
                Simulator::with_governor(self.job.cfg.clone(), &program, &trace, self.gov).run()
            }),
        )
    }

    /// `true` when `baseline`, the result of the batch's baseline cell for
    /// this replay's job, is the replay's result: the baseline completed
    /// with no failure, in a run the replay governor provably repeats
    /// ([`Governor::replays_baseline`]).
    fn is_served_by(&self, baseline: &Result<SimStats, JobFailure>) -> bool {
        matches!(baseline, Ok(stats) if stats.completed
            && self.gov.replays_baseline(stats.power_cycle_count))
    }
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

/// Runs a batch of simulation jobs on the worker pool, containing every
/// failure.
///
/// `results[i]` always corresponds to `jobs[i]`, regardless of job count
/// or completion order, and equals [`run_job`]`(jobs[i])`: repeated jobs
/// that share one pass, ideal jobs that share their recording pass with
/// a twin, and ideal jobs served by their baseline cell (see the module
/// docs) included. A panicking, hanging
/// (budget-cancelled) or worker-killed job degrades to `Err(JobFailure)`
/// in its slot and in those of the jobs equal to it; the rest of the
/// batch completes untouched.
pub fn run_batch(jobs: Vec<SimJob>) -> Vec<Result<SimStats, JobFailure>> {
    let plan = Plan::new(jobs);
    let passes: Vec<&Pass> = plan.passes.iter().collect();
    let (raw, govs): (Vec<Raw>, Vec<Option<Governor>>) =
        execute(passes, &Pass::run, Permits::PerItem)
            .into_iter()
            .map(|ran| match ran {
                Ok((raw, gov)) => (Ok(raw), gov),
                Err(failure) => (Err(failure), None),
            })
            .unzip();
    // Between the waves: a replay its baseline pass provably repeats
    // takes that pass's result instead of running.
    let mut replayed: Vec<Option<Result<SimStats, JobFailure>>> =
        raw.iter().map(|_| None).collect();
    let mut wave2 = Vec::new();
    for ((p, pass), gov) in plan.passes.iter().enumerate().zip(govs) {
        let Some(job) = &pass.ideal else { continue };
        // Only a failed recording leaves no replay governor, and alone the
        // ideal job would have died in the same pass.
        let Some(gov) = gov else {
            replayed[p] = Some(judged(&job.label(), &raw[p]));
            continue;
        };
        let replay = Replay { job, gov };
        let served = pass
            .baseline
            .map(|b| judged(&plan.passes[b].job.label(), &raw[b]))
            .filter(|baseline| replay.is_served_by(baseline));
        match served {
            Some(result) => replayed[p] = Some(result),
            None => wave2.push((p, replay)),
        }
    }
    let (indices, wave2): (Vec<usize>, Vec<Replay>) = wave2.into_iter().unzip();
    for (p, outcome) in indices.into_iter().zip(execute(wave2, &Replay::run, Permits::PerItem)) {
        replayed[p] = Some(outcome.and_then(|result| result));
    }
    let results: Vec<_> = plan
        .cells
        .iter()
        .map(|&(p, ideal)| match ideal {
            true => replayed[p].clone().expect("every recording is replayed, served or failed"),
            false => judged(&plan.passes[p].job.label(), &raw[p]),
        })
        .collect();
    count_cells(&results);
    results
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
/// index; [`run_batch`] is the entry point that contains them instead.
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

    use kagura_core::CompressionGovernor;

    use super::*;
    use crate::config::{EhsDesign, StepBudget};

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
    fn cells_share_a_pass_only_with_matching_jobs() {
        use App::{Crc32, Sha};
        use GovernorSpec::{Acc, IdealAcc, NoCompression};
        let job = |app, gov| SimJob::new(app, 0.01, SimConfig::table1().with_governor(gov));
        let nvmr = |job: SimJob| SimJob { cfg: job.cfg.with_design(EhsDesign::Nvmr), ..job };
        let starved = |job: SimJob| job.with_budget(StepBudget::insts(9));
        let kagura = GovernorSpec::AccKagura(Default::default());
        let ideal_kagura = GovernorSpec::IdealAccKagura(Default::default());
        let mut fpc = job(Sha, Acc);
        fpc.cfg.algorithm = ehs_compress::Algorithm::Fpc;
        let mut seeded = job(Sha, Acc);
        seeded.cfg.trace_seed += 1;
        // Each cell, the pass it reads, and whether it reads that pass's
        // replay (an ideal cell) or its run.
        let table = [
            (job(Sha, IdealAcc), 0, true),
            (job(Sha, kagura), 1, false),
            (job(Crc32, Acc), 2, false),
            (job(Sha, Acc), 0, false), // the twin of cell 0 reads its recording
            (job(Sha, ideal_kagura), 1, true),
            (job(Sha, IdealAcc), 0, true), // a repeat shares a pass
            (starved(job(Crc32, IdealAcc)), 3, true), // a budget blocks sharing
            (nvmr(job(Crc32, IdealAcc)), 4, true), // so does a design
            (job(Crc32, IdealAcc), 2, true),
            (job(Sha, NoCompression), 5, false),
            (nvmr(job(Sha, NoCompression)), 6, false),
            (nvmr(job(Sha, IdealAcc)), 7, true),
            (starved(job(Sha, IdealAcc)), 8, true),
            (SimJob::new(Sha, 0.02, job(Sha, Acc).cfg), 9, false), // a scale
            (fpc.clone(), 10, false),                              // an algorithm
            (seeded, 11, false),                                   // a trace seed
            (job(Crc32, Acc), 2, false),
            (fpc, 10, false),
        ];
        let plan = Plan::new(table.iter().map(|(job, ..)| job.clone()).collect());
        let cells: Vec<(usize, bool)> = table.iter().map(|&(_, p, ideal)| (p, ideal)).collect();
        assert_eq!(plan.cells, cells);
        for ((job, ..), &(p, ideal)) in table.iter().zip(&plan.cells) {
            let pass = &plan.passes[p];
            let read = if ideal { pass.ideal.as_ref() } else { Some(&pass.job) };
            assert_eq!(read, Some(job), "a cell reads an unequal job");
        }
        let baselines: Vec<Option<usize>> = plan.passes.iter().map(|pass| pass.baseline).collect();
        let (b, n) = (Some(5), None);
        assert_eq!(
            baselines,
            [b, b, n, n, n, n, n, Some(6), n, n, n, n],
            "a baseline must match its ideal job in app, design and budget"
        );
    }

    #[test]
    fn only_a_complete_baseline_within_the_trace_serves_a_replay() {
        let mut rec = Governor::record_acc();
        rec.on_power_failure();
        rec.on_reboot();
        let trace = rec.into_oracle_trace().expect("recorder yields a trace");
        let job = SimJob::new(App::Sha, 0.01, SimConfig::table1());
        let replay = Replay { job: &job, gov: Governor::replay_acc(trace) };
        let run = |completed, power_cycle_count| {
            Ok(SimStats { completed, power_cycle_count, ..SimStats::default() })
        };
        assert!(replay.is_served_by(&run(true, 2)));
        assert!(!replay.is_served_by(&run(true, 3)), "a third cycle outlives the trace");
        assert!(!replay.is_served_by(&run(false, 2)), "an incomplete baseline serves nothing");
        let timed_out = JobFailure::TimedOut { detail: String::new(), executed_insts: 9 };
        let panicked = JobFailure::Panicked { message: String::new() };
        for failure in [timed_out, panicked, JobFailure::WorkerDied] {
            assert!(!replay.is_served_by(&Err(failure.clone())), "{failure} serves nothing");
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
