//! Simulated time and clock cycles.
//!
//! The core clock is fixed at 200 MHz (paper Table I). [`Cycles`] counts
//! integral clock ticks; [`SimTime`] is continuous wall-clock time inside the
//! simulation, used for power-trace integration and capacitor charging.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Core clock frequency in hertz (200 MHz, paper Table I).
pub const CLOCK_HZ: f64 = 200.0e6;

/// A count of core clock cycles.
///
/// # Examples
///
/// ```
/// use ehs_model::Cycles;
///
/// let hit = Cycles::new(1);
/// let miss_penalty = Cycles::new(10);
/// assert_eq!((hit + miss_penalty).get(), 11);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    pub const fn new(n: u64) -> Self {
        Cycles(n)
    }

    /// Returns the raw count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Converts this cycle count to simulated time at [`CLOCK_HZ`].
    pub fn to_time(self) -> SimTime {
        SimTime::from_seconds(self.0 as f64 / CLOCK_HZ)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl From<u64> for Cycles {
    fn from(n: u64) -> Self {
        Cycles(n)
    }
}

/// Continuous simulated time, stored in seconds.
///
/// `SimTime` is used for everything that happens on the *energy* timescale:
/// power-trace windows (10 µs), capacitor charge phases (milliseconds) and
/// total run durations. It is totally ordered and forms an affine line with
/// differences expressible as `SimTime` too (we do not distinguish instants
/// from durations; the simulator only ever needs durations and a monotonic
/// "now").
///
/// # Examples
///
/// ```
/// use ehs_model::SimTime;
///
/// let window = SimTime::from_micros(10.0);
/// assert!((window.seconds() - 1e-5).abs() < 1e-18);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct SimTime(f64);

impl SimTime {
    /// The zero instant / zero duration.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from seconds.
    pub const fn from_seconds(s: f64) -> Self {
        SimTime(s)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: f64) -> Self {
        SimTime(ms * 1e-3)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(us: f64) -> Self {
        SimTime(us * 1e-6)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_nanos(ns: f64) -> Self {
        SimTime(ns * 1e-9)
    }

    /// Returns the value in seconds.
    pub const fn seconds(self) -> f64 {
        self.0
    }

    /// Returns the value in microseconds.
    pub fn micros(self) -> f64 {
        self.0 * 1e6
    }

    /// Number of whole core cycles contained in this duration.
    pub fn to_cycles(self) -> Cycles {
        Cycles((self.0 * CLOCK_HZ) as u64)
    }

    /// Returns the smaller of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Returns the larger of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s.abs() >= 1.0 {
            write!(f, "{:.3} s", s)
        } else if s.abs() >= 1e-3 {
            write!(f, "{:.3} ms", s * 1e3)
        } else {
            write!(f, "{:.3} us", s * 1e6)
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: f64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Div<SimTime> for SimTime {
    /// Ratio of two durations (dimensionless).
    type Output = f64;
    fn div(self, rhs: SimTime) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_to_time_uses_clock() {
        // 200 cycles at 200 MHz is exactly 1 us.
        assert!((Cycles::new(200).to_time().micros() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_to_cycles_truncates() {
        assert_eq!(SimTime::from_micros(1.0).to_cycles(), Cycles::new(200));
        assert_eq!(SimTime::from_nanos(7.0).to_cycles(), Cycles::new(1));
        assert_eq!(SimTime::from_nanos(4.0).to_cycles(), Cycles::ZERO);
    }

    #[test]
    fn cycle_arithmetic() {
        let a = Cycles::new(10);
        let b = Cycles::new(3);
        assert_eq!(a + b, Cycles::new(13));
        assert_eq!(a - b, Cycles::new(7));
        assert_eq!(a * 2, Cycles::new(20));
        assert_eq!(b.saturating_sub(a), Cycles::ZERO);
        let total: Cycles = vec![a, b].into_iter().sum();
        assert_eq!(total, Cycles::new(13));
    }

    #[test]
    fn time_display() {
        assert_eq!(SimTime::from_micros(10.0).to_string(), "10.000 us");
        assert_eq!(SimTime::from_millis(2.0).to_string(), "2.000 ms");
        assert_eq!(SimTime::from_seconds(1.5).to_string(), "1.500 s");
    }

    #[test]
    fn time_ratio_is_dimensionless() {
        assert!((SimTime::from_micros(10.0) / SimTime::from_micros(2.0) - 5.0).abs() < 1e-12);
    }
}
