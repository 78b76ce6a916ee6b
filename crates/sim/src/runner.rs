//! Convenience entry points used by examples, tests and the bench harness.

use std::sync::Arc;

use ehs_energy::PowerTrace;
pub use ehs_energy::DEFAULT_TRACE_LEN;
use ehs_workloads::{App, KernelProgram};

use crate::config::SimConfig;
use crate::machine::Simulator;
use crate::stats::SimStats;

/// The configuration's default power trace: [`DEFAULT_TRACE_LEN`] samples
/// of its `(trace_kind, trace_seed)` source.
///
/// Traces are lazy, so this costs nothing up front: a run pays for the
/// prefix it reads, about 1–4 ms of generation for a Table-I cell at
/// scale 1.0. Runs that should share one copy of the samples pass the
/// same trace to [`run_program`].
pub fn default_trace(cfg: &SimConfig) -> Arc<PowerTrace> {
    Arc::new(PowerTrace::generate(cfg.trace_kind, cfg.trace_seed, DEFAULT_TRACE_LEN))
}

/// Runs `program` under `cfg` with the given trace (ideal two-phase
/// specs included; see [`Simulator::new`]).
pub fn run_program(program: &KernelProgram, trace: &PowerTrace, cfg: &SimConfig) -> SimStats {
    Simulator::new(cfg.clone(), program, trace).run()
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
    fn runs_generate_only_the_trace_prefix_they_read() {
        let mut cfg = SimConfig::table1();
        cfg.trace_seed = 0xF1EE_0001;
        let trace = default_trace(&cfg);
        assert!(run_program(&App::Sha.build(0.01), &trace, &cfg).completed);
        let generated = trace.generated_len();
        assert!(generated > 0, "the run read the held trace");
        assert!(
            generated <= 4 * PowerTrace::CHUNK_LEN,
            "a short run generated {generated} of {} samples",
            trace.len()
        );
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
