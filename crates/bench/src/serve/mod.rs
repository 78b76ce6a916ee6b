//! `simrun serve` — a hardened long-running what-if service.
//!
//! The server answers newline-delimited JSON requests ("this app, this
//! trace class, these capacitor/design knobs — predicted speedup and
//! waste?") over stdin (default) or TCP (`--tcp HOST:PORT`), without
//! paying a full `repro` invocation per question. Robustness is the
//! design center:
//!
//! * **Strict schema** — requests are validated by
//!   [`request::parse_request`]; unknown fields and bad enum values are
//!   typed `bad_request` errors with did-you-mean hints, never silent
//!   defaults.
//! * **Result cache** — each query canonicalizes to a config
//!   fingerprint ([`request::Query::cache_key`]); repeats are served
//!   from a bounded LRU ([`cache::ResultCache`]) in microseconds, and
//!   the cache persists crash-safely so a restarted server warms from
//!   disk and answers byte-identically.
//! * **Admission control** — at most `workers + queue_depth` queries
//!   are in flight; excess load is *shed* with a typed `overloaded`
//!   error carrying a `retry_after_ms` hint instead of queueing
//!   unboundedly.
//! * **Deadlines & budgets** — every simulation runs under the
//!   intersection ([`ehs_sim::StepBudget::min_with`]) of the request's
//!   budget and the server default, so a pathological query returns
//!   `budget_exhausted` instead of wedging a worker.
//! * **Failure containment** — simulations run through
//!   [`ehs_sim::parallel::run_job`]: panics come back as typed
//!   `sim_failed` errors (the `JobFailure` taxonomy). A simulation is
//!   deterministic, so a failed one is not retried.
//! * **Graceful degradation** — SIGTERM, stdin EOF or a
//!   `{"op":"shutdown"}` request starts a drain: in-flight requests
//!   finish, new queries get `shutting_down`, and the cache journal is
//!   compacted to disk before exit. Slow clients are bounded by a
//!   per-connection write timeout.
//!
//! Liveness is a `{"op":"health"}` request away, and `server_*`
//! metrics (queue depth, shed count, cache hit rate, latency
//! histogram) are exposed through `{"op":"metrics"}`.

pub mod cache;
pub mod request;

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ehs_sim::{parallel, GovernorSpec, JobFailure, SimJob, SimStats, StepBudget};
use ehs_telemetry::{Counter, Event, Gauge, HistogramId, MetricsRegistry, Stamped};
use serde_json::{json, Value};

use crate::cli::{validate_args, CliError, FlagSpec};
use crate::fleet::cell_metrics;
use crate::fsutil;

use cache::ResultCache;
use request::{parse_request, Query, Request};

/// Set by the SIGTERM handler; polled by the serving loops.
static SIGTERM_RECEIVED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_sigterm_handler() {
    /// Async-signal-safe: a single relaxed store into a static.
    extern "C" fn on_sigterm(_signum: i32) {
        SIGTERM_RECEIVED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm as extern "C" fn(i32) as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

/// Everything `simrun serve` accepts.
const FLAGS: &[FlagSpec] = &[
    FlagSpec::value("--tcp"),
    FlagSpec::value("--port-file"),
    FlagSpec::value("--state"),
    FlagSpec::value("--workers"),
    FlagSpec::value("--queue-depth"),
    FlagSpec::value("--cache-capacity"),
    FlagSpec::value("--deadline-ms"),
    FlagSpec::value("--max-insts"),
    FlagSpec::value("--write-timeout-ms"),
];

/// Parsed server options.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// TCP listen address (`None` = stdin/stdout NDJSON loop).
    pub tcp: Option<String>,
    /// Where to write the actual bound address (supports `--tcp :0`).
    pub port_file: Option<PathBuf>,
    /// Cache state journal path (`None` = in-memory only).
    pub state: Option<PathBuf>,
    /// Worker-pool size (also the admission baseline).
    pub workers: usize,
    /// Extra queries admitted beyond the worker count.
    pub queue_depth: usize,
    /// Result-cache capacity (entries).
    pub cache_capacity: usize,
    /// Server-wide default budget, intersected with each request's.
    pub default_budget: StepBudget,
    /// Per-connection write timeout for slow clients.
    pub write_timeout: Duration,
}

impl ServeOptions {
    /// Parses the argument vector after the `serve` subcommand.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] for unknown flags/missing values,
    /// [`CliError::Config`] for values that parse but are invalid.
    pub fn parse(args: &[String]) -> Result<ServeOptions, CliError> {
        let args = validate_args(args, FLAGS, 0).map_err(CliError::Usage)?;
        let parse_n = |name: &str| args.number::<u64>(name, name).map_err(CliError::Config);
        let workers = match parse_n("--workers")? {
            Some(0) => return Err(CliError::Config("--workers must be positive".into())),
            Some(n) => n as usize,
            None => parallel::max_workers(),
        };
        let deadline_ms = parse_n("--deadline-ms")?;
        if deadline_ms == Some(0) {
            return Err(CliError::Config("--deadline-ms must be positive".into()));
        }
        let max_insts = parse_n("--max-insts")?;
        if max_insts == Some(0) {
            return Err(CliError::Config("--max-insts must be positive".into()));
        }
        // The server always carries a wall-clock ceiling so no request
        // can wedge a worker forever, even when the client sets nothing.
        let default_budget = StepBudget {
            max_executed_insts: max_insts,
            max_wall: Some(Duration::from_millis(deadline_ms.unwrap_or(30_000))),
        };
        Ok(ServeOptions {
            tcp: args.value("--tcp").map(str::to_string),
            port_file: args.value("--port-file").map(PathBuf::from),
            state: args.value("--state").map(PathBuf::from),
            workers,
            queue_depth: parse_n("--queue-depth")?.unwrap_or(8) as usize,
            cache_capacity: parse_n("--cache-capacity")?.unwrap_or(256).max(1) as usize,
            default_budget,
            write_timeout: Duration::from_millis(
                parse_n("--write-timeout-ms")?.filter(|&n| n > 0).unwrap_or(5_000),
            ),
        })
    }
}

/// Server-side observability: `server_*` counters, the queue-depth
/// gauge, the request-latency histogram, and the (bounded) harness
/// event log surfaced through `{"op":"metrics"}`.
struct ServerTelemetry {
    start: Instant,
    events: Vec<Stamped>,
    metrics: MetricsRegistry,
    latency_ms: HistogramId,
    requests: Counter,
    shed: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    bad_requests: Counter,
    budget_exhausted: Counter,
    sim_failed: Counter,
    queue_depth: Gauge,
}

/// Cap on retained server events (sheds and drains only, so this is
/// generous; beyond it the oldest are dropped).
const MAX_EVENTS: usize = 256;

impl ServerTelemetry {
    fn new() -> Self {
        let mut metrics = MetricsRegistry::default();
        let latency_ms = metrics.histogram(
            "server_latency_ms",
            &[0.01, 0.1, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1e3, 1e4],
        );
        ServerTelemetry {
            start: Instant::now(),
            events: Vec::new(),
            latency_ms,
            requests: metrics.counter("server_requests"),
            shed: metrics.counter("server_shed"),
            cache_hits: metrics.counter("server_cache_hits"),
            cache_misses: metrics.counter("server_cache_misses"),
            bad_requests: metrics.counter("server_bad_requests"),
            budget_exhausted: metrics.counter("server_budget_exhausted"),
            sim_failed: metrics.counter("server_sim_failed"),
            queue_depth: metrics.gauge("server_queue_depth"),
            metrics,
        }
    }

    fn emit(&mut self, event: Event) {
        if self.events.len() >= MAX_EVENTS {
            self.events.remove(0);
        }
        let t_us = self.start.elapsed().as_secs_f64() * 1e6;
        self.events.push(Stamped { t_us, cycle: 0, event });
    }

    /// Retry-after hint derived from observed latency: clients backing
    /// off for about one mean request duration drain the queue without
    /// thundering back. Falls back to 100 ms before any sample exists.
    fn retry_after_ms(&self) -> u64 {
        let mean = self.metrics.histogram_data(self.latency_ms).mean();
        if mean > 0.0 {
            (mean.ceil() as u64).max(10)
        } else {
            100
        }
    }
}

/// The transport-independent server core. All request handling —
/// validation, admission, cache, execution, error taxonomy — lives
/// behind [`Core::handle_line`], so every robustness property is
/// testable in-process without sockets.
pub struct Core {
    opts: ServeOptions,
    cache: Mutex<ResultCache>,
    /// Queries admitted (waiting for a permit or running).
    admitted: AtomicUsize,
    /// Requests anywhere between parse and response write; drain waits
    /// for this to reach zero so no response is torn mid-write.
    busy: AtomicUsize,
    draining: AtomicBool,
    telemetry: Mutex<ServerTelemetry>,
}

/// RAII decrement for one admitted query.
struct Admitted<'a>(&'a Core);

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.0.admitted.fetch_sub(1, Ordering::SeqCst);
        self.0.set_queue_gauge();
    }
}

/// RAII decrement for one busy request.
struct Busy<'a>(&'a Core);

impl Drop for Busy<'_> {
    fn drop(&mut self) {
        self.0.busy.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Core {
    /// Builds the core, warming the result cache from the state file.
    pub fn new(opts: ServeOptions) -> Core {
        parallel::set_max_workers(opts.workers);
        let cache = ResultCache::open(opts.state.as_deref(), opts.cache_capacity);
        if !cache.is_empty() {
            eprintln!("[serve] warmed {} cache entries from disk", cache.len());
        }
        Core {
            cache: Mutex::new(cache),
            admitted: AtomicUsize::new(0),
            busy: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            telemetry: Mutex::new(ServerTelemetry::new()),
            opts,
        }
    }

    /// Whether a drain has begun (SIGTERM, EOF, or shutdown op).
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || SIGTERM_RECEIVED.load(Ordering::SeqCst)
    }

    /// Starts the graceful drain: new queries are rejected from now on.
    pub fn begin_drain(&self, why: &str) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            let in_flight = self.busy.load(Ordering::SeqCst) as u64;
            let entries = self.cache.lock().unwrap_or_else(|e| e.into_inner()).len() as u64;
            eprintln!("[serve] draining ({why}): {in_flight} in flight, {entries} cached");
            let mut t = self.telemetry.lock().unwrap_or_else(|e| e.into_inner());
            t.emit(Event::ServerDrain { in_flight, cache_entries: entries });
        }
    }

    /// Blocks until every in-flight request has written its response,
    /// then compacts the cache journal. The terminal step of any drain.
    pub fn finish_drain(&self) -> io::Result<()> {
        while self.busy.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.cache.lock().unwrap_or_else(|e| e.into_inner()).persist()
    }

    fn set_queue_gauge(&self) {
        let depth = self.admitted.load(Ordering::SeqCst) as f64;
        let mut t = self.telemetry.lock().unwrap_or_else(|e| e.into_inner());
        let g = t.queue_depth;
        t.metrics.set(g, depth);
    }

    /// Handles one request line end to end, returning the response line
    /// (without trailing newline). Blank lines return `None`.
    pub fn handle_line(&self, line: &str) -> Option<String> {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return None;
        }
        let _busy_guard = (self.busy.fetch_add(1, Ordering::SeqCst), Busy(self));
        let t0 = Instant::now();
        {
            let mut t = self.telemetry.lock().unwrap_or_else(|e| e.into_inner());
            let c = t.requests;
            t.metrics.inc(c, 1);
        }
        let response = match parse_request(trimmed) {
            Err((id, detail)) => {
                let mut t = self.telemetry.lock().unwrap_or_else(|e| e.into_inner());
                let c = t.bad_requests;
                t.metrics.inc(c, 1);
                error_reply(&id, "bad_request", &detail, &[])
            }
            Ok(Request::Health { id }) => self.health_reply(&id),
            Ok(Request::Metrics { id }) => self.metrics_reply(&id),
            Ok(Request::Shutdown { id }) => {
                self.begin_drain("shutdown request");
                ok_reply(&id, "draining", &Value::Bool(true))
            }
            Ok(Request::Query { id, query }) => self.handle_query(&id, &query, t0),
        };
        Some(response)
    }

    fn health_reply(&self, id: &Value) -> String {
        let status = if self.draining() { "draining" } else { "ok" };
        let health = json!({
            "status": status,
            "in_flight": self.busy.load(Ordering::SeqCst).saturating_sub(1) as u64,
            "admitted": self.admitted.load(Ordering::SeqCst) as u64,
            "cache_entries": self.cache.lock().unwrap_or_else(|e| e.into_inner()).len() as u64,
            "workers": self.opts.workers as u64,
        });
        ok_reply(id, "health", &health)
    }

    fn metrics_reply(&self, id: &Value) -> String {
        let t = self.telemetry.lock().unwrap_or_else(|e| e.into_inner());
        let events: Vec<Value> = t.events.iter().map(Stamped::to_value).collect();
        let body = json!({ "registry": t.metrics.to_json(), "events": events });
        ok_reply(id, "metrics", &body)
    }

    fn handle_query(&self, id: &Value, query: &Query, t0: Instant) -> String {
        if self.draining() {
            return error_reply(
                id,
                "shutting_down",
                "server is draining; no new queries are admitted",
                &[],
            );
        }
        // Cache hits bypass admission entirely: they cost microseconds
        // and must keep working even when the queue is full.
        let key = query.cache_key();
        let hit = self.cache.lock().unwrap_or_else(|e| e.into_inner()).get(&key);
        if let Some(result) = hit {
            let mut t = self.telemetry.lock().unwrap_or_else(|e| e.into_inner());
            let (c, h) = (t.cache_hits, t.latency_ms);
            t.metrics.inc(c, 1);
            t.metrics.observe(h, t0.elapsed().as_secs_f64() * 1e3);
            return ok_result(id, &result);
        }

        // Bounded admission: beyond workers + queue_depth, shedload
        // with a typed error instead of queueing unboundedly.
        let cap = self.opts.workers + self.opts.queue_depth;
        loop {
            let admitted = self.admitted.load(Ordering::SeqCst);
            if admitted >= cap {
                let mut t = self.telemetry.lock().unwrap_or_else(|e| e.into_inner());
                let c = t.shed;
                t.metrics.inc(c, 1);
                let retry_after_ms = t.retry_after_ms();
                t.emit(Event::RequestShed { admitted: admitted as u64, retry_after_ms });
                drop(t);
                return error_reply(
                    id,
                    "overloaded",
                    &format!("admission queue full ({admitted}/{cap} in flight)"),
                    &[("retry_after_ms", retry_after_ms.into())],
                );
            }
            if self
                .admitted
                .compare_exchange(admitted, admitted + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                break;
            }
        }
        let _admitted_guard = Admitted(self);
        self.set_queue_gauge();
        {
            let mut t = self.telemetry.lock().unwrap_or_else(|e| e.into_inner());
            let c = t.cache_misses;
            t.metrics.inc(c, 1);
        }

        let response = match self.execute(query) {
            Ok(result) => {
                self.cache.lock().unwrap_or_else(|e| e.into_inner()).insert(key, result.clone());
                ok_result(id, &result)
            }
            Err(JobFailure::TimedOut { detail, executed_insts }) => {
                let mut t = self.telemetry.lock().unwrap_or_else(|e| e.into_inner());
                let c = t.budget_exhausted;
                t.metrics.inc(c, 1);
                drop(t);
                error_reply(
                    id,
                    "budget_exhausted",
                    &detail,
                    &[("executed_insts", executed_insts.into())],
                )
            }
            Err(failure) => {
                let mut t = self.telemetry.lock().unwrap_or_else(|e| e.into_inner());
                let c = t.sim_failed;
                t.metrics.inc(c, 1);
                drop(t);
                error_reply(
                    id,
                    "sim_failed",
                    &failure.to_string(),
                    &[("failure", failure.kind().into())],
                )
            }
        };
        let mut t = self.telemetry.lock().unwrap_or_else(|e| e.into_inner());
        let h = t.latency_ms;
        t.metrics.observe(h, t0.elapsed().as_secs_f64() * 1e3);
        response
    }

    /// Runs the baseline/candidate pair for one query on the worker
    /// pool and serializes the result payload. Both runs carry the
    /// intersection of the request budget and the server default.
    fn execute(&self, query: &Query) -> Result<String, JobFailure> {
        let budget = query.budget().min_with(self.opts.default_budget);
        let mut baseline_cfg = query.cfg.clone();
        baseline_cfg.governor = GovernorSpec::NoCompression;
        baseline_cfg.step_budget = budget;
        let mut candidate_cfg = query.cfg.clone();
        candidate_cfg.step_budget = budget;

        let baseline = parallel::run_job(SimJob::new(query.app, query.scale, baseline_cfg))?;
        let candidate = if query.governor == "baseline" {
            baseline.clone()
        } else {
            parallel::run_job(SimJob::new(query.app, query.scale, candidate_cfg))?
        };

        let metrics = cell_metrics(&baseline, &candidate);
        let opt = |v: Option<f64>| v.map(Value::from).unwrap_or(Value::Null);
        let payload = json!({
            "app": query.app.name(),
            "scale": query.scale,
            "governor": query.governor.clone(),
            "speedup": opt(metrics[0]),
            "forward_progress": opt(metrics[1]),
            "waste_fraction": opt(metrics[2]),
            "ledger_violations": opt(metrics[3]),
            "baseline": run_summary(&baseline),
            "candidate": run_summary(&candidate),
        });
        Ok(serde_json::to_string(&payload).expect("payload serializes"))
    }
}

/// Per-run summary embedded in a query result.
fn run_summary(stats: &SimStats) -> Value {
    json!({
        "completed": stats.completed,
        "committed_insts": stats.committed_insts,
        "executed_insts": stats.executed_insts,
        "power_cycles": stats.power_cycle_count,
        "total_microjoules": stats.total_energy().microjoules(),
    })
}

/// Success envelope with an arbitrary body under `key`.
fn ok_reply(id: &Value, key: &str, body: &Value) -> String {
    let reply = Value::Object(vec![
        ("ok".to_string(), Value::Bool(true)),
        ("id".to_string(), id.clone()),
        (key.to_string(), body.clone()),
    ]);
    serde_json::to_string(&reply).expect("reply serializes")
}

/// Success envelope for a query: the result payload is spliced in as
/// raw pre-serialized bytes, so cached repeats are byte-identical to
/// the first response (same id ⇒ same bytes, even across restarts).
fn ok_result(id: &Value, result: &str) -> String {
    format!(
        "{{\"ok\":true,\"id\":{},\"result\":{result}}}",
        serde_json::to_string(id).expect("id serializes")
    )
}

/// Error envelope: `{"ok":false,"id":…,"error":{"kind":…,"detail":…}}`
/// plus any extra typed fields (`retry_after_ms`, `executed_insts`).
fn error_reply(id: &Value, kind: &str, detail: &str, extra: &[(&str, Value)]) -> String {
    let mut error = vec![
        ("kind".to_string(), Value::String(kind.to_string())),
        ("detail".to_string(), Value::String(detail.to_string())),
    ];
    error.extend(extra.iter().map(|(k, v)| (k.to_string(), v.clone())));
    let reply = Value::Object(vec![
        ("ok".to_string(), Value::Bool(false)),
        ("id".to_string(), id.clone()),
        ("error".to_string(), Value::Object(error)),
    ]);
    serde_json::to_string(&reply).expect("reply serializes")
}

/// Runs the server until EOF/SIGTERM/shutdown, then drains. The entry
/// point behind `simrun serve`.
///
/// # Errors
///
/// [`CliError::Usage`]/[`CliError::Config`] for bad flags, and
/// [`CliError::Runtime`] for I/O failures (bind, port file, cache
/// flush).
pub fn run_serve(args: &[String]) -> Result<(), CliError> {
    let opts = ServeOptions::parse(args)?;
    install_sigterm_handler();
    let core = Arc::new(Core::new(opts.clone()));
    match &opts.tcp {
        Some(addr) => serve_tcp(&core, addr),
        None => serve_stdin(&core),
    }?;
    core.finish_drain().map_err(|e| CliError::Runtime(format!("flushing cache state: {e}")))?;
    eprintln!("[serve] drained cleanly");
    Ok(())
}

/// The stdin/stdout NDJSON loop: one request line in, one response
/// line out. EOF or a shutdown request starts the drain.
fn serve_stdin(core: &Arc<Core>) -> Result<(), CliError> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    eprintln!(
        "[serve] ready on stdin (workers {}, queue {})",
        core.opts.workers, core.opts.queue_depth
    );
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| CliError::Runtime(format!("reading stdin: {e}")))?;
        if let Some(response) = core.handle_line(&line) {
            let mut out = stdout.lock();
            writeln!(out, "{response}")
                .and_then(|()| out.flush())
                .map_err(|e| CliError::Runtime(format!("writing stdout: {e}")))?;
        }
        if core.draining() {
            break;
        }
    }
    core.begin_drain("stdin closed");
    Ok(())
}

/// The TCP accept loop: thread per connection, non-blocking accept so
/// SIGTERM is noticed within one poll interval.
fn serve_tcp(core: &Arc<Core>, addr: &str) -> Result<(), CliError> {
    let listener =
        TcpListener::bind(addr).map_err(|e| CliError::Runtime(format!("binding {addr}: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| CliError::Runtime(format!("resolving bound address: {e}")))?;
    if let Some(port_file) = &core.opts.port_file {
        fsutil::atomic_write(port_file, local.to_string().as_bytes())
            .map_err(|e| CliError::Runtime(format!("writing {}: {e}", port_file.display())))?;
    }
    listener
        .set_nonblocking(true)
        .map_err(|e| CliError::Runtime(format!("configuring listener: {e}")))?;
    eprintln!(
        "[serve] listening on {local} (workers {}, queue {})",
        core.opts.workers, core.opts.queue_depth
    );
    loop {
        if core.draining() {
            core.begin_drain("signal");
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                let core = Arc::clone(core);
                std::thread::spawn(move || {
                    // Contain per-connection panics: one broken client
                    // must never take the server down.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        serve_connection(&core, stream);
                    }));
                    if result.is_err() {
                        eprintln!("[serve] connection handler for {peer} panicked (contained)");
                    }
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(CliError::Runtime(format!("accepting connection: {e}"))),
        }
    }
}

/// One client connection: NDJSON request/response until the client
/// hangs up. Slow or dead clients are bounded by the write timeout; a
/// mid-response disconnect closes this connection only.
fn serve_connection(core: &Arc<Core>, stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(core.opts.write_timeout));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { return };
        let Some(response) = core.handle_line(&line) else { continue };
        if writeln!(writer, "{response}").and_then(|()| writer.flush()).is_err() {
            // Slow-client timeout or mid-response disconnect: the
            // response (and any cache effect) stands; only this
            // connection dies.
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_core(workers: usize, queue_depth: usize) -> Core {
        Core::new(ServeOptions {
            tcp: None,
            port_file: None,
            state: None,
            workers,
            queue_depth,
            cache_capacity: 16,
            default_budget: StepBudget::UNLIMITED,
            write_timeout: Duration::from_secs(5),
        })
    }

    fn parsed(response: &str) -> Value {
        serde_json::from_str(response).expect("response must be valid JSON")
    }

    #[test]
    fn query_roundtrip_hits_cache_second_time_byte_identically() {
        let core = test_core(2, 4);
        let line = r#"{"op":"query","id":"q1","app":"sha","scale":0.005,"governor":"kagura"}"#;
        let first = core.handle_line(line).unwrap();
        let v = parsed(&first);
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "healthy query must succeed: {first}");
        assert!(v.get("result").and_then(|r| r.get("speedup")).is_some(), "{first}");
        let second = core.handle_line(line).unwrap();
        assert_eq!(first, second, "cache hit must be byte-identical");
        let metrics = parsed(&core.handle_line(r#"{"op":"metrics"}"#).unwrap());
        let registry = metrics.get("metrics").and_then(|m| m.get("registry")).cloned().unwrap();
        let text = serde_json::to_string(&registry).unwrap();
        assert!(text.contains("server_cache_hits"), "{text}");
    }

    #[test]
    fn budget_exhaustion_is_a_typed_error_not_a_wedge() {
        let core = test_core(2, 4);
        let line = r#"{"op":"query","id":"poison","app":"sha","scale":0.01,"max_insts":50}"#;
        let v = parsed(&core.handle_line(line).unwrap());
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
        let error = v.get("error").unwrap();
        assert_eq!(error.get("kind").and_then(Value::as_str), Some("budget_exhausted"));
        assert!(error.get("executed_insts").and_then(Value::as_u64).is_some());
        // The worker slot must be free again.
        assert_eq!(core.admitted.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn bad_requests_echo_the_id_and_name_the_defect() {
        let core = test_core(1, 1);
        let v = parsed(
            &core.handle_line(r#"{"op":"query","id":42,"app":"sha","governer":"kagura"}"#).unwrap(),
        );
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(42));
        let detail = v.get("error").and_then(|e| e.get("detail")).and_then(Value::as_str).unwrap();
        assert!(detail.contains("`governor`"), "{detail}");
    }

    #[test]
    fn draining_rejects_queries_but_answers_health() {
        let core = test_core(1, 1);
        let v = parsed(&core.handle_line(r#"{"op":"shutdown","id":"s"}"#).unwrap());
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        let v = parsed(
            &core.handle_line(r#"{"op":"query","id":"late","app":"sha","scale":0.005}"#).unwrap(),
        );
        let kind = v.get("error").and_then(|e| e.get("kind")).and_then(Value::as_str).unwrap();
        assert_eq!(kind, "shutting_down");
        let v = parsed(&core.handle_line(r#"{"op":"health"}"#).unwrap());
        let status = v.get("health").and_then(|h| h.get("status")).and_then(Value::as_str).unwrap();
        assert_eq!(status, "draining");
        // Reset the process-wide SIGTERM latch for other tests.
        SIGTERM_RECEIVED.store(false, Ordering::SeqCst);
    }

    #[test]
    fn overload_sheds_with_retry_hint_while_in_flight_completes() {
        use std::sync::mpsc;
        // One worker, zero queue: a single in-flight query saturates
        // admission.
        let core = Arc::new(test_core(1, 0));
        let (tx, rx) = mpsc::channel();
        let slow = Arc::clone(&core);
        let worker = std::thread::spawn(move || {
            // Long enough to still be in flight when the burst arrives.
            let line = r#"{"op":"query","id":"slow","app":"sha","scale":0.2}"#;
            tx.send(()).unwrap();
            slow.handle_line(line).unwrap()
        });
        rx.recv().unwrap();
        // Wait until the slow query actually holds its admission slot.
        while core.admitted.load(Ordering::SeqCst) == 0 {
            assert!(!worker.is_finished(), "the slow query finished before it was observed");
            std::thread::yield_now();
        }
        let v = parsed(
            &core
                .handle_line(r#"{"op":"query","id":"burst","app":"crc32","scale":0.005}"#)
                .unwrap(),
        );
        let error = v.get("error").unwrap();
        assert_eq!(error.get("kind").and_then(Value::as_str), Some("overloaded"));
        assert!(error.get("retry_after_ms").and_then(Value::as_u64).is_some());
        let slow_response = worker.join().unwrap();
        assert_eq!(
            parsed(&slow_response).get("ok"),
            Some(&Value::Bool(true)),
            "in-flight request must still complete: {slow_response}"
        );
    }
}
