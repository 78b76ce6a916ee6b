//! Order statistics and metric naming shared by every workload.

/// A percentile together with the number of samples it was taken from.
///
/// A tail percentile of a handful of samples is mostly noise, so every
/// reported percentile carries its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The interpolated value.
    pub value: f64,
    /// How many samples it was computed from.
    pub n: usize,
}

/// The `p`-th percentile (`0.0..=100.0`) of `samples` by linear
/// interpolation between closest ranks (R-7, the spreadsheet default).
/// `None` for an empty slice; NaN samples are ignored.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let value = sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64);
    Some(Percentile { value, n })
}

/// The median of `samples`, `0.0` when there are none.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).map_or(0.0, |p| p.value)
}

/// Whether `name` is a valid metric name: 1–64 characters of ASCII
/// letters, digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_counts_samples() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&xs, 50.0), Some(Percentile { value: 3.0, n: 5 }));
        assert_eq!(percentile(&xs, 0.0).unwrap().value, 1.0);
        assert_eq!(percentile(&xs, 100.0).unwrap().value, 5.0);
        // Between ranks: 0.9 * 4 = 3.6 -> 4 + 0.6 * (5 - 4).
        assert!((percentile(&xs, 90.0).unwrap().value - 4.6).abs() < 1e-12);
        assert_eq!(median(&[2.0, 1.0]), 1.5);
    }

    #[test]
    fn percentile_of_nothing_is_none() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[f64::NAN], 50.0), None);
        assert_eq!(median(&[]), 0.0);
        let p = percentile(&[f64::NAN, 7.0], 90.0).unwrap();
        assert_eq!((p.value, p.n), (7.0, 1));
    }

    #[test]
    fn metric_names_are_checked() {
        for good in ["wall_s", "compress.size_ns.bdi", "sim-mips", "9lives", "a"] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in ["", "_wall", ".x", "wall s", "ns/inst", "µs", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
