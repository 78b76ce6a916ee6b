//! A small metrics registry: named counters, gauges and fixed-bucket
//! histograms, with point-in-time snapshots at power-cycle boundaries.
//!
//! Handles ([`Counter`], [`Gauge`], [`HistogramId`]) are plain indices
//! resolved once at registration, so the per-update cost is one array
//! index — no hashing on the hot path.

use crate::fixed::FixedSum;
use crate::jsonl;
use serde_json::Value;

/// Handle to a monotonically increasing counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter(usize);

/// Handle to a last-value-wins gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gauge(usize);

/// Handle to a fixed-bucket histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A histogram over fixed, caller-supplied bucket upper bounds; one
/// overflow bucket catches everything beyond the last bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` entries; the last is the overflow bucket.
    counts: Vec<u64>,
    total: u64,
    /// Exact fixed-point running sum, so merged shard histograms equal
    /// the single-stream histogram bit-for-bit (f64 addition is not
    /// associative; integer addition is).
    sum: FixedSum,
    /// Largest observation (`NEG_INFINITY` when empty). Gives the
    /// overflow bucket a finite upper edge so tail quantiles can
    /// interpolate instead of clamping to the last bound.
    max: f64,
}

impl Histogram {
    /// A standalone histogram over `bounds` (ascending upper bounds).
    ///
    /// Most histograms live inside a [`MetricsRegistry`], but online
    /// aggregators (cachescope, fleet roll-ups) also keep free-standing
    /// ones and fold them together with [`Histogram::merge`].
    pub fn with_bounds(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: FixedSum::zero(),
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        let i = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.counts[i] += 1;
        self.total += 1;
        self.sum.add(v);
        self.max = self.max.max(v);
    }

    /// Records `n` observations of the same value in O(1).
    pub fn observe_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        let i = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.counts[i] += n;
        self.total += n;
        self.sum.add_n(v, n);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self` bucket-by-bucket. Because the buckets
    /// are fixed, the merge is exact: counts, totals and sums add, and
    /// every quantile estimate afterwards equals the estimate a single
    /// histogram would have produced over the union of observations
    /// (the online quantile merge cachescope's cross-cycle roll-ups and
    /// fleet aggregation rely on).
    ///
    /// # Errors
    ///
    /// Returns `Err` when the bucket bounds differ — merging histograms
    /// of different shapes would silently corrupt quantiles.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), String> {
        if self.bounds != other.bounds {
            return Err(format!(
                "histogram bounds mismatch: {:?} vs {:?}",
                self.bounds, other.bounds
            ));
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        self.sum.merge(&other.sum);
        self.max = self.max.max(other.max);
        Ok(())
    }

    /// Largest observation so far (`NEG_INFINITY` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum.value() / self.total as f64
        }
    }

    /// Serializes to JSON losslessly: `f64`s are encoded as IEEE-754
    /// bit patterns (`u64`) and the fixed-point sum as a decimal
    /// string, so a round-trip through [`Histogram::from_exact_json`]
    /// reproduces the histogram bit-for-bit. Journaling layers (fleet
    /// shard checkpoints) rely on this to make resumed aggregation
    /// byte-identical.
    pub fn to_exact_json(&self) -> Value {
        serde_json::json!({
            "bounds_bits": self.bounds.iter().map(|b| b.to_bits()).collect::<Vec<u64>>(),
            "counts": self.counts.clone(),
            "total": self.total,
            "sum_fixed": self.sum.to_decimal(),
            "max_bits": self.max.to_bits(),
        })
    }

    /// Rebuilds a histogram from [`Histogram::to_exact_json`] output.
    ///
    /// # Errors
    ///
    /// Returns `Err` naming the offending field when the value is
    /// missing, mistyped, or the counts length disagrees with bounds.
    pub fn from_exact_json(v: &Value) -> Result<Self, String> {
        let bounds: Vec<f64> =
            jsonl::u64s(v, "bounds_bits")?.into_iter().map(f64::from_bits).collect();
        let counts = jsonl::u64s(v, "counts")?;
        if counts.len() != bounds.len() + 1 {
            return Err(format!(
                "histogram counts length {} does not match {} bounds + overflow",
                counts.len(),
                bounds.len()
            ));
        }
        Ok(Histogram {
            bounds,
            counts,
            total: jsonl::u64(v, "total")?,
            sum: FixedSum::from_decimal(jsonl::str(v, "sum_fixed")?)?,
            max: f64::from_bits(jsonl::u64(v, "max_bits")?),
        })
    }

    /// `(upper_bound, count)` rows; the final row uses `f64::INFINITY`.
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(self.counts.iter().copied())
            .collect()
    }

    /// Estimates the `q`-quantile (`0.0 ≤ q ≤ 1.0`) by linear
    /// interpolation within the bucket containing the target rank, the
    /// standard fixed-bucket estimator. The first bucket interpolates
    /// from 0; the overflow bucket interpolates into
    /// `[last_bound, observed max]`, so tail quantiles reflect the real
    /// extent of the data instead of clamping to the last finite bound.
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= rank {
                let within = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                let (lo, hi) = match self.bounds.get(i) {
                    Some(&hi) => (if i == 0 { 0.0 } else { self.bounds[i - 1] }, hi),
                    // Overflow bucket: unbounded above, but the tracked
                    // maximum gives it a finite edge to interpolate to.
                    None => (self.bounds.last().copied().unwrap_or(0.0), self.max),
                };
                return lo + (hi - lo) * within;
            }
            seen += c;
        }
        self.max
    }
}

/// Counter/gauge values captured at one power-cycle boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Power-cycle index at the capture.
    pub cycle: u64,
    /// Simulated time of the capture (µs).
    pub t_us: f64,
    /// Counter values, index-aligned with registration order.
    pub counters: Vec<u64>,
    /// Gauge values, index-aligned with registration order.
    pub gauges: Vec<f64>,
}

/// The registry: get-or-register by name, update through handles,
/// snapshot at cycle boundaries, serialize once at the end.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counter_names: Vec<String>,
    counter_vals: Vec<u64>,
    gauge_names: Vec<String>,
    gauge_vals: Vec<f64>,
    hist_names: Vec<String>,
    hists: Vec<Histogram>,
    snapshots: Vec<Snapshot>,
}

impl MetricsRegistry {
    /// Registers (or finds) a counter named `name`.
    pub fn counter(&mut self, name: &str) -> Counter {
        if let Some(i) = self.counter_names.iter().position(|n| n == name) {
            return Counter(i);
        }
        self.counter_names.push(name.to_string());
        self.counter_vals.push(0);
        Counter(self.counter_names.len() - 1)
    }

    /// Registers (or finds) a gauge named `name`.
    pub fn gauge(&mut self, name: &str) -> Gauge {
        if let Some(i) = self.gauge_names.iter().position(|n| n == name) {
            return Gauge(i);
        }
        self.gauge_names.push(name.to_string());
        self.gauge_vals.push(0.0);
        Gauge(self.gauge_names.len() - 1)
    }

    /// Registers (or finds) a histogram named `name`. The bounds of the
    /// first registration win.
    pub fn histogram(&mut self, name: &str, bounds: &[f64]) -> HistogramId {
        if let Some(i) = self.hist_names.iter().position(|n| n == name) {
            return HistogramId(i);
        }
        self.hist_names.push(name.to_string());
        self.hists.push(Histogram::with_bounds(bounds));
        HistogramId(self.hist_names.len() - 1)
    }

    /// Adds `by` to a counter.
    #[inline]
    pub fn inc(&mut self, c: Counter, by: u64) {
        self.counter_vals[c.0] += by;
    }

    /// Sets a gauge.
    #[inline]
    pub fn set(&mut self, g: Gauge, v: f64) {
        self.gauge_vals[g.0] = v;
    }

    /// Records one histogram observation.
    #[inline]
    pub fn observe(&mut self, h: HistogramId, v: f64) {
        self.hists[h.0].observe(v);
    }

    /// Current value of a counter.
    pub fn counter_value(&self, c: Counter) -> u64 {
        self.counter_vals[c.0]
    }

    /// Current value of a gauge.
    pub fn gauge_value(&self, g: Gauge) -> f64 {
        self.gauge_vals[g.0]
    }

    /// The histogram behind a handle.
    pub fn histogram_data(&self, h: HistogramId) -> &Histogram {
        &self.hists[h.0]
    }

    /// Captures all counter and gauge values at a cycle boundary.
    pub fn snapshot(&mut self, cycle: u64, t_us: f64) {
        self.snapshots.push(Snapshot {
            cycle,
            t_us,
            counters: self.counter_vals.clone(),
            gauges: self.gauge_vals.clone(),
        });
    }

    /// Snapshots captured so far, in capture order.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// Serializes final values, histogram buckets and every snapshot.
    pub fn to_json(&self) -> Value {
        let counters: Vec<Value> = self
            .counter_names
            .iter()
            .zip(&self.counter_vals)
            .map(|(n, v)| serde_json::json!({ "name": n, "value": v }))
            .collect();
        let gauges: Vec<Value> = self
            .gauge_names
            .iter()
            .zip(&self.gauge_vals)
            .map(|(n, v)| serde_json::json!({ "name": n, "value": v }))
            .collect();
        let hists: Vec<Value> = self
            .hist_names
            .iter()
            .zip(&self.hists)
            .map(|(n, h)| {
                let buckets: Vec<Value> = h
                    .buckets()
                    .into_iter()
                    .map(|(ub, c)| serde_json::json!({ "le": ub, "count": c }))
                    .collect();
                serde_json::json!({
                    "name": n, "count": h.count(), "mean": h.mean(),
                    "p50": h.percentile(0.50), "p90": h.percentile(0.90),
                    "p99": h.percentile(0.99), "buckets": buckets,
                })
            })
            .collect();
        let snapshots: Vec<Value> = self
            .snapshots
            .iter()
            .map(|s| {
                serde_json::json!({
                    "cycle": s.cycle,
                    "t_us": s.t_us,
                    "counters": s.counters.clone(),
                    "gauges": s.gauges.clone(),
                })
            })
            .collect();
        serde_json::json!({
            "counters": counters,
            "gauges": gauges,
            "histograms": hists,
            "snapshots": snapshots,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once() {
        let mut m = MetricsRegistry::default();
        let a = m.counter("fills");
        let b = m.counter("fills");
        assert_eq!(a, b);
        m.inc(a, 3);
        m.inc(b, 2);
        assert_eq!(m.counter_value(a), 5);
        let g = m.gauge("voltage");
        m.set(g, 2.01);
        assert_eq!(m.gauge_value(g), 2.01);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut m = MetricsRegistry::default();
        let h = m.histogram("cycle_insts", &[10.0, 100.0]);
        for v in [5.0, 7.0, 50.0, 5000.0] {
            m.observe(h, v);
        }
        let data = m.histogram_data(h);
        assert_eq!(data.count(), 4);
        let buckets = data.buckets();
        assert_eq!(buckets[0], (10.0, 2));
        assert_eq!(buckets[1], (100.0, 1));
        assert_eq!(buckets[2].1, 1, "overflow bucket catches the rest");
        assert!((data.mean() - 1265.5).abs() < 1e-9);
    }

    #[test]
    fn percentiles_on_a_known_uniform_distribution() {
        let mut m = MetricsRegistry::default();
        // 10-wide buckets up to 100; observe 1..=100 → exactly 10 per
        // bucket, a uniform distribution with known quantiles.
        let bounds: Vec<f64> = (1..=10).map(|i| (i * 10) as f64).collect();
        let h = m.histogram("uniform", &bounds);
        for v in 1..=100 {
            m.observe(h, v as f64);
        }
        let data = m.histogram_data(h);
        assert!((data.percentile(0.50) - 50.0).abs() < 1e-9);
        assert!((data.percentile(0.90) - 90.0).abs() < 1e-9);
        assert!((data.percentile(0.99) - 99.0).abs() < 1e-9);
        assert_eq!(data.percentile(0.0), 0.0);
        assert!((data.percentile(1.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_interpolate_into_overflow_tail() {
        let mut m = MetricsRegistry::default();
        let h = m.histogram("latency", &[10.0, 100.0]);
        // 3 observations in (0,10], 1 in the overflow bucket.
        for v in [2.0, 4.0, 9.0, 5000.0] {
            m.observe(h, v);
        }
        let data = m.histogram_data(h);
        // p50 → rank 2 of 3 inside the first bucket: 10 × (2/3).
        assert!((data.percentile(0.50) - 10.0 * (2.0 / 3.0)).abs() < 1e-9);
        // p99 → rank 3.96 in the overflow bucket: interpolates 96 % of
        // the way into [last_bound=100, max=5000], not a clamp to 100.
        assert!((data.percentile(0.99) - (100.0 + 4900.0 * 0.96)).abs() < 1e-9);
        // p100 reaches the observed maximum exactly.
        assert_eq!(data.percentile(1.0), 5000.0);
        assert_eq!(data.max(), 5000.0);
        // Empty histogram reports zero everywhere.
        let e = m.histogram("empty", &[1.0]);
        assert_eq!(m.histogram_data(e).percentile(0.5), 0.0);
    }

    #[test]
    fn overflow_p99_regression_tail_not_clamped() {
        // Regression for the fleet-campaign tail bug: 99 observations at
        // 1.0 and 2 far out in the overflow bucket put p99 in overflow.
        // The old estimator returned the last finite bound (10.0),
        // understating the tail by orders of magnitude.
        let mut h = Histogram::with_bounds(&[5.0, 10.0]);
        h.observe_n(1.0, 99);
        h.observe(800.0);
        h.observe(1000.0);
        let p99 = h.percentile(0.99);
        assert!(p99 > 10.0, "p99 must escape the last finite bound, got {p99}");
        assert!(p99 <= 1000.0, "p99 cannot exceed the observed max, got {p99}");
        // rank 99.99 with 99 seen → 0.495 of the way through the
        // 2-count overflow bucket spanning [10, 1000].
        assert!((p99 - (10.0 + 990.0 * 0.495)).abs() < 1e-9);
    }

    #[test]
    fn exact_json_round_trip_is_bit_identical() {
        let mut h = Histogram::with_bounds(&[0.1, 2.5, 10.0]);
        for v in [0.05, 0.3, 3.3, 1e9, 7.77] {
            h.observe(v);
        }
        let back = Histogram::from_exact_json(&h.to_exact_json()).unwrap();
        assert_eq!(h, back);
        assert_eq!(h.sum, back.sum);
        assert_eq!(h.max.to_bits(), back.max.to_bits());
        // Empty histograms round-trip too (max = -inf has no JSON f64).
        let e = Histogram::with_bounds(&[1.0]);
        assert_eq!(Histogram::from_exact_json(&e.to_exact_json()).unwrap(), e);
        // Mangled counts are rejected with a named field.
        let mut bad = h.to_exact_json();
        let Value::Object(fields) = &mut bad else { panic!("exact json is an object") };
        fields.iter_mut().find(|(k, _)| k == "counts").unwrap().1 = serde_json::json!([1, 2]);
        let err = Histogram::from_exact_json(&bad).unwrap_err();
        assert!(err.contains("counts"), "{err}");
    }

    #[test]
    fn merge_is_exact_for_counts_mean_and_quantiles() {
        let bounds: Vec<f64> = (1..=10).map(|i| (i * 10) as f64).collect();
        // Split the 1..=100 uniform across two histograms, merge, and
        // compare against one histogram fed the whole population.
        let mut left = Histogram::with_bounds(&bounds);
        let mut right = Histogram::with_bounds(&bounds);
        let mut whole = Histogram::with_bounds(&bounds);
        for v in 1..=100 {
            if v % 3 == 0 { &mut left } else { &mut right }.observe(v as f64);
            whole.observe(v as f64);
        }
        left.merge(&right).unwrap();
        assert_eq!(left, whole);
        assert_eq!(left.count(), 100);
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert!((left.percentile(q) - whole.percentile(q)).abs() < 1e-12, "q={q}");
        }
    }

    #[test]
    fn merge_rejects_mismatched_bounds() {
        let mut a = Histogram::with_bounds(&[1.0, 2.0]);
        let b = Histogram::with_bounds(&[1.0, 4.0]);
        let err = a.merge(&b).unwrap_err();
        assert!(err.contains("bounds mismatch"), "{err}");
    }

    #[test]
    fn observe_n_matches_repeated_observe() {
        let mut batched = Histogram::with_bounds(&[4.0, 8.0]);
        let mut looped = Histogram::with_bounds(&[4.0, 8.0]);
        batched.observe_n(3.0, 5);
        batched.observe_n(100.0, 2);
        for _ in 0..5 {
            looped.observe(3.0);
        }
        for _ in 0..2 {
            looped.observe(100.0);
        }
        assert_eq!(batched, looped);
    }

    #[test]
    fn snapshots_capture_point_in_time_values() {
        let mut m = MetricsRegistry::default();
        let c = m.counter("evictions");
        m.inc(c, 4);
        m.snapshot(0, 100.0);
        m.inc(c, 6);
        m.snapshot(1, 250.0);
        let snaps = m.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].counters, vec![4]);
        assert_eq!(snaps[1].counters, vec![10]);
        assert_eq!(snaps[1].cycle, 1);
    }
}
