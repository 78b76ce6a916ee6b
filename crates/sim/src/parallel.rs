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
//! ([`crate::config::StepBudget`]), workers that died without storing a
//! result, and transient failures that still failed after bounded
//! retry-with-backoff ([`RetryPolicy`]). Every terminal failure and
//! retry is mirrored into the pool's harness event log
//! ([`drain_pool_events`]) as `JobFailed`/`JobRetried`/`JobTimedOut`
//! events, and per-job latency lands in the pool metrics
//! ([`pool_metrics`]), so the orchestration layer is observable end to
//! end.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use ehs_telemetry::{spans, Event, MetricsRegistry, Stamped};
use ehs_workloads::App;

use crate::config::SimConfig;
use crate::runner::run_app;
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
///
/// Classification drives the retry machinery: only
/// [`JobFailure::is_transient`] failures are re-attempted, and a job
/// that stays transiently broken after [`RetryPolicy::max_attempts`]
/// surfaces as [`JobFailure::Retryable`] with its attempt count.
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
    /// A failure classed transient that persisted through every retry.
    Retryable {
        /// The last attempt's failure text.
        message: String,
        /// Total attempts made (the first run plus all retries).
        attempts: u32,
    },
}

/// Marker that classifies a panic as transient: panics whose payload
/// contains this substring are retried under the batch's
/// [`RetryPolicy`]. Simulations are pure functions of their inputs, so
/// genuine nondeterministic failures can only come from the host
/// environment (or an injected test flake) — both of which opt in by
/// carrying the marker.
pub const TRANSIENT_MARKER: &str = "transient";

impl JobFailure {
    /// `true` for failures worth retrying (see [`TRANSIENT_MARKER`]).
    pub fn is_transient(&self) -> bool {
        matches!(self, JobFailure::Panicked { message } if message.contains(TRANSIENT_MARKER))
    }

    /// Stable machine-readable tag for failure manifests.
    pub fn kind(&self) -> &'static str {
        match self {
            JobFailure::Panicked { .. } => "panic",
            JobFailure::TimedOut { .. } => "timeout",
            JobFailure::WorkerDied => "worker-died",
            JobFailure::Retryable { .. } => "retry-exhausted",
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
            JobFailure::Retryable { message, attempts } => {
                write!(f, "still failing after {attempts} attempts: {message}")
            }
        }
    }
}

impl std::error::Error for JobFailure {}

/// Bounded retry-with-backoff for transient job failures.
///
/// Retry round *k* (1-based) sleeps `base_backoff × 2^(k−1)` before
/// re-submitting the still-failing jobs, so a busy host gets geometric
/// breathing room. The schedule is deterministic — same failures, same
/// attempt counts — which keeps batch results reproducible under a
/// seeded flaky-job injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per job, the first run included (min 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles every further round.
    pub base_backoff: Duration,
}

impl RetryPolicy {
    /// No retries at all: every failure is terminal.
    pub const NONE: RetryPolicy =
        RetryPolicy { max_attempts: 1, base_backoff: Duration::from_millis(0) };
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3, base_backoff: Duration::from_millis(20) }
    }
}

/// Process-wide pool observability: harness-level job events plus a
/// metrics registry with per-job latency histograms. Guarded by one
/// mutex — all updates happen at job boundaries, never in the
/// simulation hot path.
struct PoolTelemetry {
    /// Wall-clock origin for event stamps (`t_us` = µs since this).
    start: Instant,
    events: Vec<Stamped>,
    metrics: MetricsRegistry,
    latency_ms: ehs_telemetry::HistogramId,
    jobs_ok: ehs_telemetry::Counter,
    jobs_failed: ehs_telemetry::Counter,
    jobs_retried: ehs_telemetry::Counter,
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
        let jobs_retried = metrics.counter("jobs_retried");
        let jobs_timed_out = metrics.counter("jobs_timed_out");
        Mutex::new(PoolTelemetry {
            start: Instant::now(),
            events: Vec::new(),
            metrics,
            latency_ms,
            jobs_ok,
            jobs_failed,
            jobs_retried,
            jobs_timed_out,
        })
    })
}

/// Drains the pool's accumulated harness events
/// (`JobFailed`/`JobRetried`/`JobTimedOut`). Stamps are host wall-clock
/// microseconds since the pool first ran a batch; `cycle` is always 0.
pub fn drain_pool_events() -> Vec<Stamped> {
    std::mem::take(&mut pool().lock().unwrap_or_else(|e| e.into_inner()).events)
}

/// A snapshot of the pool's metrics: per-job latency histogram
/// (`job_latency_ms`) and `jobs_ok`/`jobs_failed`/`jobs_retried`/
/// `jobs_timed_out` counters.
pub fn pool_metrics() -> MetricsRegistry {
    pool().lock().unwrap_or_else(|e| e.into_inner()).metrics.clone()
}

/// One simulation of `app` at `scale` under `cfg`.
///
/// The unit of work accepted by [`run_batch`]: experiments flatten their
/// app × governor grids into these.
#[derive(Debug, Clone)]
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

    /// Runs the job with both failure modes contained: a panic comes
    /// back as [`JobFailure::Panicked`] with the workload × policy
    /// attached, a watchdog cancellation as [`JobFailure::TimedOut`].
    fn try_run(self) -> Result<SimStats, JobFailure> {
        // The span label names the workload and policy; its cost is only
        // paid when span recording is enabled (see `ehs_telemetry::spans`).
        let label = format!("{}:{}", self.app, self.cfg.governor.label());
        let _span = spans::span("sim", || label.clone());
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_app(self.app, self.scale, &self.cfg)
        })) {
            Ok(stats) => match stats.budget_exhausted {
                Some(ref reason) => Err(JobFailure::TimedOut {
                    detail: format!("simulation {label}: {reason}"),
                    executed_insts: stats.executed_insts,
                }),
                None => Ok(stats),
            },
            Err(payload) => Err(JobFailure::Panicked {
                message: format!("simulation {label} panicked: {}", panic_message(&*payload)),
            }),
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

/// Runs a batch of simulation jobs on the worker pool under the default
/// [`RetryPolicy`], containing every failure.
///
/// `results[i]` always corresponds to `jobs[i]`, regardless of job count
/// or completion order. A panicking, hanging (budget-cancelled) or
/// worker-killed job degrades to `Err(JobFailure)` in its own slot; the
/// rest of the batch completes untouched.
pub fn run_batch(jobs: Vec<SimJob>) -> Vec<Result<SimStats, JobFailure>> {
    run_batch_with(jobs, RetryPolicy::default())
}

/// [`run_batch`] with an explicit retry policy.
///
/// Per-job latency is recorded into the pool's `job_latency_ms`
/// histogram, and every terminal failure emits a `JobFailed` (plus
/// `JobTimedOut` for watchdog cancellations) into the pool event log.
pub fn run_batch_with(jobs: Vec<SimJob>, policy: RetryPolicy) -> Vec<Result<SimStats, JobFailure>> {
    let results = try_map_retry(
        jobs,
        |job: SimJob| {
            let t0 = Instant::now();
            let outcome = job.try_run();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let mut p = pool().lock().unwrap_or_else(|e| e.into_inner());
            let (latency, ok) = (p.latency_ms, p.jobs_ok);
            p.metrics.observe(latency, ms);
            if outcome.is_ok() {
                p.metrics.inc(ok, 1);
            }
            outcome
        },
        policy,
    );
    let mut p = pool().lock().unwrap_or_else(|e| e.into_inner());
    for (i, result) in results.iter().enumerate() {
        if let Err(failure) = result {
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
    results
}

/// Runs one simulation job on the worker pool under the default
/// [`RetryPolicy`], blocking until a global worker permit frees up.
///
/// This is the serving layer's entry point: one interactive request
/// maps to one job and shares the process-wide `max_workers()` budget
/// with any concurrent batch work, so a burst of what-if queries can
/// never oversubscribe the host. Failure containment and telemetry
/// match [`run_batch_with`] exactly.
pub fn run_job(job: SimJob) -> Result<SimStats, JobFailure> {
    run_job_with(job, RetryPolicy::default())
}

/// [`run_job`] with an explicit retry policy: failures classed
/// transient ([`JobFailure::is_transient`]) re-run after
/// `base_backoff × 2^(round−1)` sleep, each retry emitting a
/// `JobRetried` pool event; a job still transiently failing after
/// `max_attempts` surfaces as [`JobFailure::Retryable`]. Terminal
/// failures emit `JobFailed` (plus `JobTimedOut` for watchdog
/// cancellations) just like the batch path.
pub fn run_job_with(job: SimJob, policy: RetryPolicy) -> Result<SimStats, JobFailure> {
    let max_attempts = policy.max_attempts.max(1);
    let mut outcome = run_job_attempt(job.clone());
    for round in 1..max_attempts {
        if !matches!(&outcome, Err(failure) if failure.is_transient()) {
            break;
        }
        let backoff = policy.base_backoff * 2u32.pow(round - 1);
        if !backoff.is_zero() {
            thread::sleep(backoff);
        }
        {
            let mut p = pool().lock().unwrap_or_else(|e| e.into_inner());
            let retried = p.jobs_retried;
            p.metrics.inc(retried, 1);
            p.emit(Event::JobRetried { job: 0, attempt: round as u64 });
        }
        outcome = run_job_attempt(job.clone());
    }
    if matches!(&outcome, Err(failure) if failure.is_transient()) {
        if let Err(JobFailure::Panicked { message }) = outcome {
            outcome = Err(JobFailure::Retryable { message, attempts: max_attempts });
        }
    }
    if let Err(failure) = &outcome {
        let mut p = pool().lock().unwrap_or_else(|e| e.into_inner());
        if let JobFailure::TimedOut { executed_insts, .. } = failure {
            let timed_out = p.jobs_timed_out;
            p.metrics.inc(timed_out, 1);
            p.emit(Event::JobTimedOut { job: 0, executed_insts: *executed_insts });
        }
        let failed = p.jobs_failed;
        p.metrics.inc(failed, 1);
        p.emit(Event::JobFailed { job: 0, reason: failure.to_string() });
    }
    outcome
}

/// One permit-holding attempt with its latency recorded — the unit the
/// [`run_job_with`] retry loop repeats. The permit is held only for the
/// simulation itself, never across a backoff sleep.
fn run_job_attempt(job: SimJob) -> Result<SimStats, JobFailure> {
    let _permit = Permit::acquire();
    let t0 = Instant::now();
    let outcome = job.try_run();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut p = pool().lock().unwrap_or_else(|e| e.into_inner());
    let (latency, ok) = (p.latency_ms, p.jobs_ok);
    p.metrics.observe(latency, ms);
    if outcome.is_ok() {
        p.metrics.inc(ok, 1);
    }
    outcome
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

/// [`try_map`] plus bounded retry: failures classed transient
/// ([`JobFailure::is_transient`]) are re-submitted in rounds, with
/// `policy.base_backoff × 2^(round−1)` sleep before round *k*. Jobs
/// still transiently failing after `policy.max_attempts` total attempts
/// surface as [`JobFailure::Retryable`]. Each retry emits a `JobRetried`
/// pool event, so attempt counts are auditable after the fact.
pub fn try_map_retry<T, R, F>(
    items: Vec<T>,
    f: F,
    policy: RetryPolicy,
) -> Vec<Result<R, JobFailure>>
where
    T: Send + Clone,
    R: Send,
    F: Fn(T) -> Result<R, JobFailure> + Sync,
{
    let max_attempts = policy.max_attempts.max(1);
    // Retry rounds re-submit the original item, so retain copies only
    // when the policy can actually use them.
    let retained: Option<Vec<T>> = (max_attempts > 1).then(|| items.clone());
    let mut results = try_map(items, &f);
    for round in 1..max_attempts {
        let pending: Vec<usize> = results
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, Err(failure) if failure.is_transient()))
            .map(|(i, _)| i)
            .collect();
        if pending.is_empty() {
            break;
        }
        let backoff = policy.base_backoff * 2u32.pow(round - 1);
        if !backoff.is_zero() {
            thread::sleep(backoff);
        }
        {
            let mut p = pool().lock().unwrap_or_else(|e| e.into_inner());
            let retried = p.jobs_retried;
            for &i in &pending {
                p.metrics.inc(retried, 1);
                p.emit(Event::JobRetried { job: i as u64, attempt: round as u64 });
            }
        }
        let originals = retained.as_ref().expect("retained items exist when retrying");
        let retry_items: Vec<T> = pending.iter().map(|&i| originals[i].clone()).collect();
        for (&i, r) in pending.iter().zip(try_map(retry_items, &f)) {
            results[i] = r;
        }
    }
    // Whatever is still transient has exhausted its attempts.
    for r in &mut results {
        let exhausted = matches!(r, Err(failure) if failure.is_transient());
        if exhausted {
            if let Err(JobFailure::Panicked { message }) = r {
                let message = std::mem::take(message);
                *r = Err(JobFailure::Retryable { message, attempts: max_attempts });
            }
        }
    }
    results
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
    use super::*;
    use crate::config::GovernorSpec;

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
    fn transient_failures_retry_then_succeed_deterministically() {
        set_max_workers(2);
        // Seeded flaky injector: job 3 fails its first two attempts with
        // a transient panic, then succeeds; everything else is healthy.
        let attempts: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
        let policy = RetryPolicy { max_attempts: 3, base_backoff: Duration::ZERO };
        let out = try_map_retry(
            (0..6).collect::<Vec<u64>>(),
            |i| {
                let n = attempts[i as usize].fetch_add(1, Ordering::SeqCst);
                if i == 3 && n < 2 {
                    panic!("transient flake on job {i} attempt {n}");
                }
                Ok(i + 100)
            },
            policy,
        );
        assert_eq!(out, (0..6).map(|i| Ok(i + 100)).collect::<Vec<_>>());
        assert_eq!(attempts[3].load(Ordering::SeqCst), 3, "job 3 must run exactly 3 times");
        for (i, a) in attempts.iter().enumerate() {
            if i != 3 {
                assert_eq!(a.load(Ordering::SeqCst), 1, "healthy job {i} must not be retried");
            }
        }
    }

    #[test]
    fn persistent_transient_failure_exhausts_to_retryable() {
        set_max_workers(2);
        let attempts = AtomicUsize::new(0);
        let policy = RetryPolicy { max_attempts: 3, base_backoff: Duration::ZERO };
        let out = try_map_retry(
            vec![0u64],
            |_| -> Result<u64, JobFailure> {
                attempts.fetch_add(1, Ordering::SeqCst);
                panic!("transient but never recovers");
            },
            policy,
        );
        assert_eq!(attempts.load(Ordering::SeqCst), 3, "must attempt exactly max_attempts times");
        match &out[0] {
            Err(JobFailure::Retryable { message, attempts }) => {
                assert_eq!(*attempts, 3);
                assert!(message.contains("never recovers"), "wrong payload: {message}");
            }
            other => panic!("expected Retryable, got {other:?}"),
        }
    }

    #[test]
    fn non_transient_failures_are_not_retried() {
        set_max_workers(2);
        let attempts = AtomicUsize::new(0);
        let out = try_map_retry(
            vec![0u64],
            |_| -> Result<u64, JobFailure> {
                attempts.fetch_add(1, Ordering::SeqCst);
                panic!("hard failure, no marker");
            },
            RetryPolicy::default(),
        );
        assert_eq!(attempts.load(Ordering::SeqCst), 1, "permanent failures must not retry");
        assert!(matches!(&out[0], Err(JobFailure::Panicked { .. })));
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
        match run_job_with(starved, RetryPolicy::NONE) {
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
        let batch = run_batch_with(jobs, RetryPolicy::NONE);
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
    fn worker_cap_defaults_to_available_parallelism() {
        MAX_WORKERS.store(0, Ordering::SeqCst);
        assert!(max_workers() >= 1);
        set_max_workers(0); // clamps to 1
        assert_eq!(max_workers(), 1);
    }
}
