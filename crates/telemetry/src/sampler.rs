//! Seeded, mergeable reservoir sampling for population statistics.
//!
//! Fleet campaigns stream millions of per-cell metrics through
//! constant-memory aggregation. Fixed-bucket [`Histogram`]s give exact
//! mergeable bucket counts, but quantiles between bucket bounds and
//! bootstrap confidence intervals need actual sample values. A classic
//! Vitter reservoir is *order-dependent* — merging two shard reservoirs
//! does not reproduce the single-stream reservoir — which would break
//! the fleet engine's byte-identical-at-any-shard-count contract.
//!
//! [`Reservoir`] is instead a **bottom-k sketch**: every observation is
//! keyed by a caller-supplied unique id (the fleet cell index), the key
//! is hashed with a campaign seed into a uniform priority, and the
//! reservoir keeps the `k` entries with the smallest priorities. The
//! kept set is a pure function of the *set* of (key, value) pairs and
//! the seed, so merge is exactly associative, commutative and
//! partition-invariant: merging any sharding of a stream equals
//! feeding the whole stream into one reservoir (proptest-pinned in
//! `tests/merge_props.rs`). Memory is O(k) regardless of stream length.
//!
//! [`Histogram`]: crate::metrics::Histogram

use crate::fixed::FixedSum;
use crate::jsonl;
use serde_json::Value;

/// splitmix64 finalizer: a cheap, well-distributed 64-bit mixer.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One retained sample: hash priority, originating key, and value.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    priority: u64,
    key: u64,
    value: f64,
}

/// A seeded bottom-k reservoir over `(key, value)` observations.
///
/// Keys must be unique across the whole population (fleet cell
/// indices are); duplicate keys are deduplicated on merge so feeding
/// the same observation to two shards cannot double-count it.
#[derive(Debug, Clone, PartialEq)]
pub struct Reservoir {
    seed: u64,
    capacity: usize,
    /// Sorted ascending by `(priority, key)`; at most `capacity` long.
    entries: Vec<Entry>,
    /// Total observations offered, kept or not.
    seen: u64,
    /// Exact fixed-point running sum (partition-invariant; see
    /// [`FixedSum`]).
    sum: FixedSum,
    min: f64,
    max: f64,
}

impl Reservoir {
    /// An empty reservoir retaining at most `capacity` samples, with
    /// priorities derived from `seed`. `capacity` must be non-zero.
    pub fn new(seed: u64, capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be non-zero");
        Reservoir {
            seed,
            capacity,
            entries: Vec::new(),
            seen: 0,
            sum: FixedSum::zero(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Offers one observation under a population-unique `key`.
    pub fn offer(&mut self, key: u64, value: f64) {
        self.seen += 1;
        self.sum.add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let priority = splitmix64(self.seed ^ splitmix64(key));
        if self.entries.len() == self.capacity {
            let worst = self.entries[self.capacity - 1];
            if (priority, key) >= (worst.priority, worst.key) {
                return;
            }
            self.entries.pop();
        }
        let entry = Entry { priority, key, value };
        let at =
            self.entries.partition_point(|e| (e.priority, e.key) < (entry.priority, entry.key));
        self.entries.insert(at, entry);
    }

    /// Folds `other` into `self`: bottom-k over the union of kept
    /// entries (deduplicated by key), with seen/sum/min/max combined.
    ///
    /// # Errors
    ///
    /// Returns `Err` when seed or capacity differ — their priorities
    /// would not be comparable.
    pub fn merge(&mut self, other: &Reservoir) -> Result<(), String> {
        if self.seed != other.seed || self.capacity != other.capacity {
            return Err(format!(
                "reservoir shape mismatch: seed {} cap {} vs seed {} cap {}",
                self.seed, self.capacity, other.seed, other.capacity
            ));
        }
        let mut union: Vec<Entry> = Vec::with_capacity(self.entries.len() + other.entries.len());
        union.extend_from_slice(&self.entries);
        union.extend_from_slice(&other.entries);
        union.sort_by_key(|a| (a.priority, a.key));
        union.dedup_by_key(|e| (e.priority, e.key));
        union.truncate(self.capacity);
        self.entries = union;
        self.seen += other.seen;
        self.sum.merge(&other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        Ok(())
    }

    /// Total observations offered (kept or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Number of samples currently retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Mean over *all* offered observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.seen == 0 {
            0.0
        } else {
            self.sum.value() / self.seen as f64
        }
    }

    /// Smallest offered observation (`INFINITY` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest offered observation (`NEG_INFINITY` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Retained sample values sorted ascending — the uniform
    /// subsample quantile and bootstrap machinery work from this.
    pub fn sorted_values(&self) -> Vec<f64> {
        let mut vs: Vec<f64> = self.entries.iter().map(|e| e.value).collect();
        vs.sort_by(f64::total_cmp);
        vs
    }

    /// Estimates the `q`-quantile from the retained sample by linear
    /// interpolation between order statistics. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let vs = self.sorted_values();
        quantile_of_sorted(&vs, q)
    }

    /// Serializes losslessly (f64s as IEEE-754 bit patterns, the
    /// fixed-point sum as a decimal string) so a journaled shard
    /// round-trips bit-for-bit through [`Reservoir::from_exact_json`].
    pub fn to_exact_json(&self) -> Value {
        let entries: Vec<Value> = self
            .entries
            .iter()
            .map(|e| serde_json::json!([e.priority, e.key, e.value.to_bits()]))
            .collect();
        serde_json::json!({
            "seed": self.seed,
            "capacity": self.capacity as u64,
            "entries": entries,
            "seen": self.seen,
            "sum_fixed": self.sum.to_decimal(),
            "min_bits": self.min.to_bits(),
            "max_bits": self.max.to_bits(),
        })
    }

    /// Rebuilds a reservoir from [`Reservoir::to_exact_json`] output.
    ///
    /// # Errors
    ///
    /// Returns `Err` naming the offending field on any missing or
    /// mistyped value, and rejects entry lists that are unsorted,
    /// duplicated or over capacity (a corrupt journal record).
    pub fn from_exact_json(v: &Value) -> Result<Self, String> {
        let u = |path: &str| jsonl::u64(v, path);
        let capacity = u("capacity")? as usize;
        if capacity == 0 {
            return Err("reservoir field `capacity` must be non-zero".into());
        }
        let entries = jsonl::items(v, "entries", |e| match jsonl::u64s(e, "")?[..] {
            [priority, key, bits] => Ok(Entry { priority, key, value: f64::from_bits(bits) }),
            _ => Err("not a [priority, key, bits] triple".into()),
        })?;
        if entries.len() > capacity {
            return Err(format!(
                "reservoir holds {} entries over capacity {capacity}",
                entries.len()
            ));
        }
        if !entries.windows(2).all(|w| (w[0].priority, w[0].key) < (w[1].priority, w[1].key)) {
            return Err("reservoir `entries` are not strictly sorted by (priority, key)".into());
        }
        Ok(Reservoir {
            seed: u("seed")?,
            capacity,
            entries,
            seen: u("seen")?,
            sum: FixedSum::from_decimal(jsonl::str(v, "sum_fixed")?)?,
            min: f64::from_bits(u("min_bits")?),
            max: f64::from_bits(u("max_bits")?),
        })
    }
}

/// Linear-interpolated quantile of an ascending-sorted slice
/// (the `R-7` estimator). Returns 0 for an empty slice.
pub fn quantile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let i = pos.floor() as usize;
            let frac = pos - i as f64;
            if i + 1 == n {
                sorted[n - 1]
            } else {
                sorted[i] + (sorted[i + 1] - sorted[i]) * frac
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_at_most_capacity_and_tracks_moments() {
        let mut r = Reservoir::new(7, 8);
        for k in 0..100u64 {
            r.offer(k, k as f64);
        }
        assert_eq!(r.len(), 8);
        assert_eq!(r.seen(), 100);
        assert!((r.mean() - 49.5).abs() < 1e-9);
        assert_eq!(r.min(), 0.0);
        assert_eq!(r.max(), 99.0);
    }

    #[test]
    fn merge_equals_single_stream() {
        let mut whole = Reservoir::new(42, 16);
        let mut a = Reservoir::new(42, 16);
        let mut b = Reservoir::new(42, 16);
        for k in 0..500u64 {
            let v = (k as f64).sin() * 100.0;
            whole.offer(k, v);
            if k % 2 == 0 { &mut a } else { &mut b }.offer(k, v);
        }
        a.merge(&b).unwrap();
        assert_eq!(a, whole);
    }

    #[test]
    fn merge_rejects_mismatched_shape() {
        let mut a = Reservoir::new(1, 4);
        let b = Reservoir::new(2, 4);
        assert!(a.merge(&b).unwrap_err().contains("mismatch"));
    }

    #[test]
    fn merge_deduplicates_shared_keys() {
        let mut a = Reservoir::new(9, 4);
        let mut b = Reservoir::new(9, 4);
        a.offer(3, 1.5);
        b.offer(3, 1.5);
        a.merge(&b).unwrap();
        assert_eq!(a.len(), 1, "the same key offered to both shards is kept once");
    }

    #[test]
    fn quantiles_interpolate_order_statistics() {
        let mut r = Reservoir::new(0, 128);
        for k in 0..101u64 {
            r.offer(k, k as f64);
        }
        // Capacity exceeds the population, so the sample is exact.
        assert_eq!(r.len(), 101);
        assert!((r.quantile(0.5) - 50.0).abs() < 1e-9);
        assert!((r.quantile(0.25) - 25.0).abs() < 1e-9);
        assert_eq!(r.quantile(0.0), 0.0);
        assert_eq!(r.quantile(1.0), 100.0);
        assert_eq!(Reservoir::new(0, 4).quantile(0.5), 0.0);
    }

    #[test]
    fn exact_json_round_trip_is_bit_identical() {
        let mut r = Reservoir::new(0xDEAD_BEEF, 6);
        for k in 0..40u64 {
            r.offer(k, (k as f64).sqrt() * -3.25);
        }
        let back = Reservoir::from_exact_json(&r.to_exact_json()).unwrap();
        assert_eq!(r, back);
        assert_eq!(r.sum, back.sum);
        // Corrupt ordering is rejected.
        let mut bad = r.to_exact_json();
        let Value::Object(fields) = &mut bad else { panic!("exact json is an object") };
        let entry_list = &mut fields.iter_mut().find(|(k, _)| k == "entries").unwrap().1;
        let Value::Array(entries) = entry_list else { panic!("entries is an array") };
        entries.reverse();
        let err = Reservoir::from_exact_json(&bad).unwrap_err();
        assert!(err.contains("sorted"), "{err}");
    }
}
