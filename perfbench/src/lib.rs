//! Results-checked benchmark for the Kagura stack.
//!
//! One process runs one workload: it sets up, repeats the workload's fixed
//! work for the requested number of seconds, checks every output against
//! the committed `results/` (or the workload's own oracle), and prints the
//! end-to-end metrics. The traced run interleaves traced and untraced
//! repetitions, then replays each layer on the workload's own inputs and
//! prints the per-layer metrics and one attribution row per program. See
//! `perfbench/README.md` for the workloads and the metric map.

pub mod check;
pub mod crash;
pub mod grid;
pub mod layers;
pub mod stats;
pub mod whatif;

use std::path::PathBuf;

/// Settings shared by every workload of one run.
#[derive(Debug, Clone)]
pub struct Env {
    /// Workload seed: drives the what-if mix and the sampled injection
    /// points. Grid cells stay on the Table-I trace seed so they can be
    /// checked against `results/`.
    pub seed: u64,
    /// Simulation workers (and what-if client threads); never more than
    /// the host's cores.
    pub workers: usize,
    /// Scratch directory for experiment output; never `results/`.
    pub out_dir: PathBuf,
    /// Committed reference results.
    pub results_dir: PathBuf,
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output was wrong or missing.
    pub failed: u64,
    /// Messages for the first failures.
    pub failures: Vec<String>,
}

impl Tally {
    const MAX_MESSAGES: usize = 20;

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records `attempted` operations of which each message is one failure.
    pub fn record(&mut self, attempted: u64, failures: Vec<String>) {
        self.attempted += attempted;
        for f in failures {
            self.fail(f);
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < Self::MAX_MESSAGES {
            self.failures.push(message);
        }
    }
}

/// What one repetition of a workload's fixed work reports.
#[derive(Debug, Default)]
pub struct Rep {
    /// Instructions simulated, when the repetition can count them itself
    /// (0 otherwise; see [`Accounting::insts_per_rep`]).
    pub insts: u64,
}

/// Timings of a fault-injection replay through the public campaign API.
#[derive(Debug, Default)]
pub struct FaultTimings {
    /// Golden (failure-free) run per campaign, ms.
    pub golden_ms: Vec<f64>,
    /// One injected run per point, ms.
    pub point_ms: Vec<f64>,
    /// One NVM image diff per completed point, ms.
    pub diff_ms: Vec<f64>,
    /// Instructions executed before each injection point, summed: the
    /// replay a forking campaign would skip.
    pub replayed_insts: u64,
    /// Every instruction executed by golden and injected runs.
    pub executed_insts: u64,
}

/// What a workload learns after its timed repetitions by re-running its
/// fixed work once through lower-level public APIs.
#[derive(Debug, Default)]
pub struct Accounting {
    /// Instructions simulated by one repetition (0 when [`Rep::insts`]
    /// already counts them).
    pub insts_per_rep: u64,
    /// Fault-injection timings, for the workload that injects faults.
    pub fault: Option<FaultTimings>,
}

/// One benchmark workload. Set-up happens in its constructor.
pub trait Workload {
    /// Runs the fixed work once. `index` is unique per repetition, so
    /// workloads that need fresh inputs every time can derive them.
    fn rep(&mut self, index: u64, tally: &mut Tally) -> Rep;
    /// Re-runs the fixed work once through lower-level APIs to count
    /// instructions and check every simulation cell.
    fn account(&mut self, tally: &mut Tally) -> Accounting;
    /// The inputs the per-layer replays run on.
    fn layer_plan(&self) -> layers::Plan;
    /// Workload-specific summary lines for the human-readable output.
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// SplitMix64 step: the seeded stream every workload draws from.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_and_caps_messages() {
        let mut t = Tally::default();
        t.check(true, || unreachable!("passing checks build no message"));
        t.record(30, (0..25).map(|i| format!("bad {i}")).collect());
        assert_eq!((t.attempted, t.failed), (31, 25));
        assert_eq!(t.failures.len(), Tally::MAX_MESSAGES);
    }
}
