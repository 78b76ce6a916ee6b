//! Telemetry for the Kagura simulator stack: typed event tracing, a
//! metrics registry, and wall-clock timing spans.
//!
//! The simulator's end-of-run aggregates ([`SimStats`]) say *what*
//! happened; this crate records *when*. Kagura's contribution is a
//! temporal decision — predicting the remaining memory operations of a
//! power cycle and switching CM→RM at the right moment — so estimator
//! quality, AIMD threshold dynamics and mode-switch timing only become
//! visible through an in-run event stream.
//!
//! [`SimStats`]: ../ehs_sim/stats/struct.SimStats.html
//!
//! # Architecture
//!
//! * [`Event`] — the typed event taxonomy (power-cycle lifecycle, Kagura
//!   controller decisions, cache fill outcomes, estimator samples), each
//!   stamped with simulated time and power-cycle index ([`Stamped`]).
//! * [`Sink`] — where stamped events go. The simulator holds
//!   `Option<&mut Telemetry>`: the `None` default costs one untaken
//!   branch per event site and performs **zero** allocations, calls or
//!   writes — experiment output is byte-identical with telemetry off.
//!   [`NullSink`] is the trait-level no-op for generic contexts;
//!   [`RingSink`] keeps the last N events in memory; [`JsonlSink`]
//!   streams one compact JSON object per line; [`ChromeTraceSink`]
//!   builds a Chrome trace-event file loadable in Perfetto.
//! * [`MetricsRegistry`] — named counters, gauges and fixed-bucket
//!   histograms, snapshotted at every power-cycle boundary.
//! * [`Reservoir`] — a seeded bottom-k sample sketch whose shard merges
//!   are exactly associative; fleet campaigns stream per-cell metrics
//!   through it for constant-memory population quantiles and bootstrap
//!   confidence intervals.
//! * [`spans`] — process-wide wall-clock spans (per experiment, per
//!   simulation job) with the worker slot that ran them; drained by
//!   `repro --telemetry DIR` into `DIR/spans.json`.
//!
//! # Overhead contract
//!
//! Event emission sites compile to a branch on `Option::is_some` when
//! telemetry is detached; perfbench's end-to-end `sim_mips`, measured
//! detached, tracks that cost. Attached, telemetry leaves the
//! simulator's host shortcuts on: a run pays for the events it records,
//! not for a slower machine loop, and its events and metrics are
//! byte-identical to those of the shortcut-free reference loop. It can
//! share the run with the cache observers (cachescope, leak timeline).
//! Span creation with spans disabled is one relaxed atomic load (labels
//! are built lazily).

pub mod event;
pub mod fixed;
pub mod leak;
pub mod metrics;
pub mod sampler;
pub mod sink;
pub mod spans;

pub use event::{Event, FlightRecord, Registers, Stamped};
pub use fixed::FixedSum;
pub use leak::{channel_capacity_bits, mutual_information_bits, AttackStats, LatencyHistogram};
pub use metrics::{Counter, Gauge, Histogram, HistogramId, MetricsRegistry};
pub use sampler::{quantile_of_sorted, Reservoir};
pub use sink::{ChromeTraceSink, JsonlSink, NullSink, RingSink, Sink, VecSink};

/// A sink plus the metrics registry fed alongside it: what an
/// instrumented simulator borrows for the duration of one run.
pub struct Telemetry<'a> {
    sink: &'a mut dyn Sink,
    /// Counters/gauges/histograms updated by the instrumented run and
    /// snapshotted at every power-cycle boundary.
    pub metrics: MetricsRegistry,
}

impl std::fmt::Debug for Telemetry<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("metrics", &self.metrics).finish_non_exhaustive()
    }
}

impl<'a> Telemetry<'a> {
    /// Wraps `sink` with a fresh metrics registry.
    pub fn new(sink: &'a mut dyn Sink) -> Self {
        Telemetry { sink, metrics: MetricsRegistry::default() }
    }

    /// Stamps and records one event.
    pub fn emit(&mut self, t_us: f64, cycle: u64, event: Event) {
        self.sink.record(&Stamped { t_us, cycle, event });
    }

    /// Flushes the sink and returns the accumulated metrics.
    pub fn into_metrics(self) -> MetricsRegistry {
        self.sink.flush();
        self.metrics
    }
}
