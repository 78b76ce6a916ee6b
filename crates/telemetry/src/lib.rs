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
//! * [`Sink`] — where stamped events go. The event stream is the
//!   simulator's one telemetry output: it borrows an optional
//!   `&mut dyn Sink` for a run, and the `None` default costs one untaken
//!   branch per event site and performs **zero** allocations, calls or
//!   writes — experiment output is byte-identical with telemetry off.
//!   [`NullSink`] is the trait-level no-op for generic contexts;
//!   [`VecSink`] keeps every event in memory; [`JsonlSink`] streams one
//!   compact JSON object per line; [`ChromeTraceSink`] builds a Chrome
//!   trace-event file loadable in Perfetto; [`MetricsFold`] folds the
//!   stream into a run's [`MetricsRegistry`].
//! * [`jsonl`] — the one strict JSONL codec every observer stream
//!   shares: dotted-path field accessors, the line writer, and the
//!   record and framed (header … summary) readers with `line: field`
//!   diagnostics.
//! * [`MetricsRegistry`] — named counters, gauges and fixed-bucket
//!   histograms with point-in-time snapshots: a run's registry is folded
//!   from its events ([`MetricsFold`], one snapshot per power-cycle
//!   boundary), and the worker pool and what-if service keep their own.
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
//! not for a slower machine loop, and its events are byte-identical to
//! those of the shortcut-free reference loop. It can
//! share the run with the cache observers (cachescope, leak timeline).
//! Span creation with spans disabled is one relaxed atomic load (labels
//! are built lazily).

pub mod event;
pub mod fixed;
pub mod jsonl;
pub mod leak;
pub mod metrics;
pub mod sampler;
pub mod sink;
pub mod spans;

pub use event::{Event, FlightRecord, MetricsFold, Registers, Stamped};
pub use fixed::FixedSum;
pub use leak::{channel_capacity_bits, mutual_information_bits, AttackStats, LatencyHistogram};
pub use metrics::{Counter, Gauge, Histogram, HistogramId, MetricsRegistry};
pub use sampler::{quantile_of_sorted, Reservoir};
pub use sink::{ChromeTraceSink, JsonlSink, NullSink, Sink, VecSink};
