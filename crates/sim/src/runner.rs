//! Convenience entry points used by examples, tests and the bench harness.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use ehs_energy::{PowerTrace, TraceKind};
use ehs_telemetry::{MetricsRegistry, Sink};
use ehs_workloads::{App, KernelProgram};

use crate::cachescope::{CachescopeConfig, CachescopeReport};
use crate::config::{ConfigError, GovernorSpec, SimConfig};
use crate::governor::Governor;
use crate::machine::Simulator;
use crate::stats::SimStats;
use kagura_core::CompressionGovernor as _;

/// Default generated-trace length in 10 µs windows (≈ 40 s of ambient
/// input, far more than any run consumes before wrapping).
const DEFAULT_TRACE_LEN: usize = 4_000_000;

/// Idle trace-cache entries retained beyond the ones currently borrowed
/// by running simulations. Each generated trace is ~32 MB
/// (`DEFAULT_TRACE_LEN` × 8 B), and fleet campaigns use a distinct
/// trace seed per cell — an unbounded cache turns a 10⁵-cell campaign
/// into terabytes of dead traces. Entries still referenced by a running
/// simulation are never evicted, so the cache can exceed this cap while
/// that many distinct traces are simultaneously in use.
const TRACE_CACHE_IDLE_CAP: usize = 8;

type TraceCache = Mutex<HashMap<(TraceKind, u64), Arc<PowerTrace>>>;

fn trace_cache() -> &'static TraceCache {
    static CACHE: OnceLock<TraceCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Current number of cached traces (bounded-cache regression tests).
#[cfg(test)]
fn trace_cache_len() -> usize {
    trace_cache().lock().unwrap_or_else(|e| e.into_inner()).len()
}

/// Generates (or fetches from a process-wide cache) the configuration's
/// default power trace. Generation is deterministic per `(kind, seed)`, so
/// sharing one copy across the many runs of an experiment sweep is both
/// safe and substantially faster. The cache is bounded: once it exceeds
/// [`TRACE_CACHE_IDLE_CAP`] entries, traces no longer borrowed by any
/// caller are evicted, keeping resident memory flat even when every run
/// uses a fresh seed (fleet campaigns).
///
/// Concurrency: two workers racing on the same key may both generate the
/// trace; the second insert wins and the copies are identical (generation
/// is deterministic), so callers always observe equivalent data. The lock
/// is never held across generation, and a panicked worker elsewhere in
/// the sweep cannot wedge the cache — poisoning is recovered, since the
/// map is only ever mutated by complete `insert`/`remove` calls.
pub fn default_trace(cfg: &SimConfig) -> Arc<PowerTrace> {
    let cache = trace_cache();
    let key = (cfg.trace_kind, cfg.trace_seed);
    if let Some(trace) = cache.lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
        return Arc::clone(trace);
    }
    let trace = Arc::new(PowerTrace::generate(cfg.trace_kind, cfg.trace_seed, DEFAULT_TRACE_LEN));
    let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
    map.insert(key, Arc::clone(&trace));
    if map.len() > TRACE_CACHE_IDLE_CAP {
        // Evict whatever nobody is running on (strong_count 1 = only the
        // cache holds it); in-flight traces stay shared until dropped.
        let excess = map.len() - TRACE_CACHE_IDLE_CAP;
        let mut evictable: Vec<(TraceKind, u64)> = map
            .iter()
            .filter(|&(k, v)| Arc::strong_count(v) == 1 && *k != key)
            .map(|(k, _)| *k)
            .collect();
        evictable.truncate(excess);
        for k in evictable {
            map.remove(&k);
        }
    }
    trace
}

/// Runs `program` under `cfg` with the given trace.
///
/// Ideal (two-phase) governor specs are decomposed automatically.
pub fn run_program(program: &KernelProgram, trace: &PowerTrace, cfg: &SimConfig) -> SimStats {
    match cfg.governor {
        // Spec-derived recorders always match their own spec.
        GovernorSpec::IdealAcc => run_ideal(program, trace, cfg, Governor::record_acc())
            .expect("spec-derived recorder validates"),
        GovernorSpec::IdealAccKagura(kcfg) => {
            run_ideal(program, trace, cfg, Governor::record_kagura(kcfg))
                .expect("spec-derived recorder validates")
        }
        _ => Simulator::new(cfg.clone(), program, trace).run(),
    }
}

/// Runs `app` at workload `scale` under `cfg` with the config's default
/// generated trace.
///
/// # Panics
///
/// Panics if `scale` is not positive.
pub fn run_app(app: App, scale: f64, cfg: &SimConfig) -> SimStats {
    let program = app.build(scale);
    let trace = default_trace(cfg);
    run_program(&program, &trace, cfg)
}

/// Like [`run_program`] but with an event sink attached for the whole
/// run; returns the metrics registry accumulated alongside the stats.
///
/// Ideal (two-phase) specs instrument only the replay phase — the
/// recording pass is oracle scaffolding, not the behavior under study.
pub fn run_program_with_telemetry(
    program: &KernelProgram,
    trace: &PowerTrace,
    cfg: &SimConfig,
    sink: &mut dyn Sink,
) -> (SimStats, MetricsRegistry) {
    match cfg.governor {
        GovernorSpec::IdealAcc => {
            run_ideal_telemetry(program, trace, cfg, Governor::record_acc(), Some(sink))
                .expect("spec-derived recorder validates")
        }
        GovernorSpec::IdealAccKagura(kcfg) => {
            run_ideal_telemetry(program, trace, cfg, Governor::record_kagura(kcfg), Some(sink))
                .expect("spec-derived recorder validates")
        }
        _ => {
            let mut sim = Simulator::new(cfg.clone(), program, trace);
            sim.attach_telemetry(sink);
            sim.run_instrumented()
        }
    }
}

/// Like [`run_program`] but with a cachescope attached; returns the
/// cache-microarchitecture report alongside the stats. The host
/// shortcuts stay on (cachescope is not telemetry) and the stats are
/// byte-identical to an unscoped run.
///
/// Ideal (two-phase) specs scope only the replay phase — the recording
/// pass is oracle scaffolding, not the behavior under study.
pub fn run_program_with_cachescope(
    program: &KernelProgram,
    trace: &PowerTrace,
    cfg: &SimConfig,
    scope: CachescopeConfig,
) -> (SimStats, CachescopeReport) {
    let scoped = |gov: Option<Governor>| {
        let mut sim = match gov {
            Some(g) => Simulator::with_governor(cfg.clone(), program, trace, g),
            None => Simulator::new(cfg.clone(), program, trace),
        };
        sim.attach_cachescope(scope);
        sim.run_with_cachescope()
    };
    match cfg.governor {
        GovernorSpec::IdealAcc => {
            let (_, oracle) =
                Simulator::with_governor(cfg.clone(), program, trace, Governor::record_acc())
                    .run_recording();
            scoped(Some(Governor::replay_acc(oracle)))
        }
        GovernorSpec::IdealAccKagura(kcfg) => {
            let (_, oracle) = Simulator::with_governor(
                cfg.clone(),
                program,
                trace,
                Governor::record_kagura(kcfg),
            )
            .run_recording();
            scoped(Some(Governor::replay_kagura(kcfg, oracle)))
        }
        _ => scoped(None),
    }
}

/// Like [`run_program`] but with a leakscope access timeline attached to
/// the data cache; returns the per-access timeline alongside the stats.
/// The host shortcuts stay on (the probe is event-driven) and the stats
/// are byte-identical to an unprobed run.
///
/// Ideal (two-phase) specs record the timeline only over the replay
/// phase, mirroring [`run_program_with_cachescope`].
pub fn run_program_with_leak_timeline(
    program: &KernelProgram,
    trace: &PowerTrace,
    cfg: &SimConfig,
    capacity: usize,
) -> (SimStats, ehs_cache::AccessTimeline) {
    let probed = |gov: Option<Governor>| {
        let mut sim = match gov {
            Some(g) => Simulator::with_governor(cfg.clone(), program, trace, g),
            None => Simulator::new(cfg.clone(), program, trace),
        };
        sim.attach_leak_timeline(capacity);
        sim.run_with_leak_timeline()
    };
    match cfg.governor {
        GovernorSpec::IdealAcc => {
            let (_, oracle) =
                Simulator::with_governor(cfg.clone(), program, trace, Governor::record_acc())
                    .run_recording();
            probed(Some(Governor::replay_acc(oracle)))
        }
        GovernorSpec::IdealAccKagura(kcfg) => {
            let (_, oracle) = Simulator::with_governor(
                cfg.clone(),
                program,
                trace,
                Governor::record_kagura(kcfg),
            )
            .run_recording();
            probed(Some(Governor::replay_kagura(kcfg, oracle)))
        }
        _ => probed(None),
    }
}

/// Like [`run_app`] but with a cachescope attached; see
/// [`run_program_with_cachescope`].
pub fn run_app_with_cachescope(
    app: App,
    scale: f64,
    cfg: &SimConfig,
    scope: CachescopeConfig,
) -> (SimStats, CachescopeReport) {
    let program = app.build(scale);
    let trace = default_trace(cfg);
    run_program_with_cachescope(&program, &trace, cfg, scope)
}

/// Like [`run_app`] but instrumented; see [`run_program_with_telemetry`].
pub fn run_app_with_telemetry(
    app: App,
    scale: f64,
    cfg: &SimConfig,
    sink: &mut dyn Sink,
) -> (SimStats, MetricsRegistry) {
    let program = app.build(scale);
    let trace = default_trace(cfg);
    run_program_with_telemetry(&program, &trace, cfg, sink)
}

/// Explicit two-phase ideal run (paper Fig 13's "ideal" methodology):
/// record which compressions pay off, then replay compressing only those.
///
/// Returns a [`ConfigError`] — *before* any simulation work — when
/// `recorder` is not a recording governor, or when it is a Kagura
/// recorder but `cfg.governor` carries no Kagura config for the replay
/// phase to reuse.
pub fn run_ideal_app(
    app: App,
    scale: f64,
    cfg: &SimConfig,
    recorder: Governor,
) -> Result<SimStats, ConfigError> {
    let program = app.build(scale);
    let trace = default_trace(cfg);
    run_ideal(&program, &trace, cfg, recorder)
}

/// Rejects recorder/spec combinations the replay phase cannot honor.
///
/// A Kagura recorder must replay with the very Kagura parameters the
/// recording phase observed; silently substituting defaults would make
/// the "ideal" comparison quietly measure the wrong config. Checked up
/// front so a bad grid point fails fast instead of after the (expensive)
/// recording pass.
fn validate_recorder(recorder: &Governor, spec: &GovernorSpec) -> Result<(), ConfigError> {
    if !recorder.is_recorder() {
        return Err(ConfigError::NotARecorder { governor: recorder.name() });
    }
    if matches!(recorder, Governor::RecordKagura(_))
        && !matches!(spec, GovernorSpec::IdealAccKagura(_) | GovernorSpec::AccKagura(_))
    {
        return Err(ConfigError::RecorderMismatch { recorder: "ACC+Kagura", spec: spec.label() });
    }
    Ok(())
}

fn run_ideal(
    program: &KernelProgram,
    trace: &PowerTrace,
    cfg: &SimConfig,
    recorder: Governor,
) -> Result<SimStats, ConfigError> {
    run_ideal_telemetry(program, trace, cfg, recorder, None).map(|(stats, _)| stats)
}

fn run_ideal_telemetry(
    program: &KernelProgram,
    trace: &PowerTrace,
    cfg: &SimConfig,
    recorder: Governor,
    sink: Option<&mut dyn Sink>,
) -> Result<(SimStats, MetricsRegistry), ConfigError> {
    validate_recorder(&recorder, &cfg.governor)?;
    let is_kagura = matches!(recorder, Governor::RecordKagura(_));
    let (_, oracle_trace) =
        Simulator::with_governor(cfg.clone(), program, trace, recorder).run_recording();
    let replayer = if is_kagura {
        let kcfg = match cfg.governor {
            GovernorSpec::IdealAccKagura(k) | GovernorSpec::AccKagura(k) => k,
            // validate_recorder rejected every other spec before the run.
            _ => unreachable!("validate_recorder admits only Kagura-carrying specs"),
        };
        Governor::replay_kagura(kcfg, oracle_trace)
    } else {
        Governor::replay_acc(oracle_trace)
    };
    let mut sim = Simulator::with_governor(cfg.clone(), program, trace, replayer);
    Ok(match sink {
        Some(sink) => {
            sim.attach_telemetry(sink);
            sim.run_instrumented()
        }
        None => (sim.run(), MetricsRegistry::default()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GovernorSpec;
    use ehs_workloads::App;

    #[test]
    fn ideal_runs_complete_and_avoid_useless_compressions() {
        let acc = run_app(App::Jpegd, 0.02, &SimConfig::table1().with_governor(GovernorSpec::Acc));
        let ideal =
            run_app(App::Jpegd, 0.02, &SimConfig::table1().with_governor(GovernorSpec::IdealAcc));
        assert!(ideal.completed);
        assert!(
            ideal.compression_ops() <= acc.compression_ops(),
            "ideal ({}) must not compress more than ACC ({})",
            ideal.compression_ops(),
            acc.compression_ops()
        );
    }

    #[test]
    fn ideal_kagura_completes() {
        let cfg =
            SimConfig::table1().with_governor(GovernorSpec::IdealAccKagura(Default::default()));
        let stats = run_app(App::Gsm, 0.02, &cfg);
        assert!(stats.completed);
    }

    #[test]
    fn telemetry_runner_matches_plain_runner() {
        use ehs_telemetry::NullSink;

        for gov in [
            GovernorSpec::Acc,
            GovernorSpec::AccKagura(Default::default()),
            GovernorSpec::IdealAccKagura(Default::default()),
        ] {
            let cfg = SimConfig::table1().with_governor(gov);
            let plain = run_app(App::Sha, 0.01, &cfg);
            let mut sink = NullSink;
            let (stats, _) = run_app_with_telemetry(App::Sha, 0.01, &cfg, &mut sink);
            assert_eq!(stats.sim_time, plain.sim_time, "{gov:?}");
            assert_eq!(stats.compression_ops(), plain.compression_ops(), "{gov:?}");
        }
    }

    #[test]
    fn mismatched_recorder_is_rejected_before_the_run() {
        use crate::config::ConfigError;

        // A Kagura recorder against a plain-ACC spec: the replay phase
        // would have no Kagura config to reuse.
        let cfg = SimConfig::table1().with_governor(GovernorSpec::IdealAcc);
        let err = run_ideal_app(App::Sha, 0.01, &cfg, Governor::record_kagura(Default::default()))
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::RecorderMismatch { recorder: "ACC+Kagura", spec: "ideal ACC" }
        );
        assert!(err.to_string().contains("ACC+Kagura"), "{err}");

        // A non-recording governor cannot drive the two-phase methodology.
        let err = run_ideal_app(App::Sha, 0.01, &cfg, Governor::acc()).unwrap_err();
        assert_eq!(err, ConfigError::NotARecorder { governor: "ACC" });
    }

    #[test]
    fn trace_cache_stays_bounded_across_fresh_seeds() {
        // Fleet campaigns request a distinct trace seed per cell; the
        // cache must evict idle traces instead of growing linearly with
        // the population (each entry is ~32 MB).
        let mut cfg = SimConfig::table1();
        for seed in 0..3 * TRACE_CACHE_IDLE_CAP as u64 {
            cfg.trace_seed = 0xF1EE_0000 + seed;
            drop(default_trace(&cfg));
        }
        // Other tests in this process share the cache and may be holding
        // live (unevictable) traces, hence the slack on top of the cap.
        let len = trace_cache_len();
        assert!(len <= TRACE_CACHE_IDLE_CAP + 16, "trace cache grew unbounded: {len} entries");
        // The hit path still shares: same seed, same allocation.
        let a = default_trace(&cfg);
        let b = default_trace(&cfg);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn run_app_matches_run_program() {
        let cfg = SimConfig::table1().with_governor(GovernorSpec::Acc);
        let a = run_app(App::Sha, 0.01, &cfg);
        let program = App::Sha.build(0.01);
        let trace = default_trace(&cfg);
        let b = run_program(&program, &trace, &cfg);
        assert_eq!(a.sim_time, b.sim_time);
    }
}
