//! The energy-buffer capacitor.
//!
//! State is tracked as stored energy `E`; voltage derives from
//! `E = ½ C V²`. Three thresholds define the intermittent state machine:
//!
//! * `v_max` — the harvester's regulator clamps charging here.
//! * `v_rst` — restoration threshold: once the capacitor recharges past
//!   this, the EHS reboots and resumes.
//! * `v_ckpt` — checkpoint threshold: when discharge reaches this, the
//!   voltage monitor fires a JIT checkpoint and the core halts.
//!
//! The usable window `½C(v_rst² − v_ckpt²)` determines how many
//! instructions fit in one power cycle; the defaults are chosen so a 4.7 µF
//! capacitor yields the paper's power-cycle regime of thousands of
//! instructions (Fig 14). Leakage is `P = k·C·V²`, growing with capacitance
//! and reproducing Table III's trend.

use ehs_model::{Energy, Power, SimTime};
use serde::{Deserialize, Serialize};

/// Static description of a capacitor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacitorConfig {
    /// Capacitance in farads.
    pub capacitance: f64,
    /// Regulator clamp voltage.
    pub v_max: f64,
    /// Restoration threshold (reboot when recharged past this).
    pub v_rst: f64,
    /// Checkpoint threshold (JIT checkpoint when discharged to this).
    pub v_ckpt: f64,
    /// Leakage coefficient `k` in `P_leak = k · C · V²` (1/s).
    pub leak_coeff: f64,
}

impl CapacitorConfig {
    /// Leakage coefficient calibrated so a 1000 µF capacitor loses a few
    /// percent of the total budget (paper Table III reports 5.91 % there
    /// and ~0.01 % at the default 4.7 µF).
    pub const DEFAULT_LEAK_COEFF: f64 = 1.1e-3;

    /// The paper's default 4.7 µF capacitor.
    pub fn default_4u7() -> Self {
        Self::with_capacitance_uf(4.7)
    }

    /// A capacitor of the given size in microfarads with default thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `uf` is not positive.
    pub fn with_capacitance_uf(uf: f64) -> Self {
        assert!(uf > 0.0, "capacitance must be positive");
        CapacitorConfig {
            capacitance: uf * 1e-6,
            v_max: 2.20,
            v_rst: 2.016,
            v_ckpt: 2.00,
            leak_coeff: Self::DEFAULT_LEAK_COEFF,
        }
    }

    /// Energy stored at voltage `v`.
    #[inline]
    pub fn energy_at(&self, v: f64) -> Energy {
        Energy::from_joules(0.5 * self.capacitance * v * v)
    }

    /// Usable energy per power cycle: `½C(v_rst² − v_ckpt²)`.
    pub fn usable_energy(&self) -> Energy {
        self.energy_at(self.v_rst) - self.energy_at(self.v_ckpt)
    }

    /// Validates threshold ordering.
    ///
    /// # Panics
    ///
    /// Panics if `v_max >= v_rst > v_ckpt > 0` does not hold.
    pub fn validate(&self) {
        assert!(
            self.v_max >= self.v_rst && self.v_rst > self.v_ckpt && self.v_ckpt > 0.0,
            "capacitor thresholds must satisfy v_max >= v_rst > v_ckpt > 0, got \
             v_max={} v_rst={} v_ckpt={}",
            self.v_max,
            self.v_rst,
            self.v_ckpt
        );
    }
}

impl Default for CapacitorConfig {
    fn default() -> Self {
        Self::default_4u7()
    }
}

/// The live capacitor: config plus current stored energy.
///
/// # Examples
///
/// ```
/// use ehs_energy::{Capacitor, CapacitorConfig};
/// use ehs_model::{Power, SimTime};
///
/// let mut cap = Capacitor::new(CapacitorConfig::default_4u7());
/// // Harvest 50 uW for 1 ms.
/// let leaked = cap.charge(Power::from_microwatts(50.0), SimTime::from_millis(1.0));
/// assert!(cap.stored().nanojoules() > 0.0);
/// assert!(leaked.picojoules() >= 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Capacitor {
    config: CapacitorConfig,
    stored: Energy,
}

impl Capacitor {
    /// Creates an empty capacitor.
    ///
    /// # Panics
    ///
    /// Panics if the config's thresholds are inconsistent.
    pub fn new(config: CapacitorConfig) -> Self {
        config.validate();
        Capacitor { config, stored: Energy::ZERO }
    }

    /// The static configuration.
    pub fn config(&self) -> &CapacitorConfig {
        &self.config
    }

    /// Currently stored energy.
    pub fn stored(&self) -> Energy {
        self.stored
    }

    /// Current voltage, from `E = ½CV²`.
    #[inline]
    pub fn voltage(&self) -> f64 {
        (2.0 * self.stored.joules() / self.config.capacitance).sqrt()
    }

    /// Instantaneous leakage power at the current voltage.
    #[inline]
    pub fn leakage_power(&self) -> Power {
        let v = self.voltage();
        Power::from_watts(self.config.leak_coeff * self.config.capacitance * v * v)
    }

    /// Integrates `harvest` power over `dt`, minus leakage, clamped to
    /// `v_max`. Returns the energy lost to leakage during the window (for
    /// accounting).
    ///
    /// The result is bit-identical to the exact formula (`charge_exact`:
    /// voltage from `E = ½CV²`, leakage `k·C·V²`), which still runs every
    /// call, but off the dependency chain from one step's stored energy to
    /// the next. That chain instead carries a guess that leaks `2k·E·dt`
    /// (the same quantity without the divide and square root), kept only
    /// when its bits equal the exact result. They differ only when the two
    /// leak roundings straddle a rounding boundary of the stored energy or
    /// a clamp engages. The compare feeds a predicted branch, not the
    /// stored value, so the next step starts before the exact result is
    /// known; the rare miss stores the exact value through
    /// [`std::hint::black_box`], which keeps the compiler from turning the
    /// branch into a select that would wait for it.
    #[inline]
    pub fn charge(&mut self, harvest: Power, dt: SimTime) -> Energy {
        let (exact, leaked) = self.charge_exact(harvest, dt);
        let leak_guess = self.stored * (2.0 * self.config.leak_coeff * dt.seconds());
        let guess = self.stored + harvest * dt - leak_guess;
        self.stored = if guess.picojoules().to_bits() == exact.picojoules().to_bits() {
            guess
        } else {
            std::hint::black_box(exact)
        };
        leaked
    }

    /// The exact charge step: the new stored energy and the energy leaked,
    /// as [`Capacitor::charge`] defines them.
    #[inline(always)]
    fn charge_exact(&self, harvest: Power, dt: SimTime) -> (Energy, Energy) {
        let leak = self.leakage_power() * dt;
        let gained = harvest * dt;
        let cap_max = self.config.energy_at(self.config.v_max);
        let stored = (self.stored + gained - leak).clamp_non_negative().min(cap_max);
        (stored, leak.min(stored + leak)) // cannot leak more than what existed
    }

    /// Removes `amount` from the buffer (consumption), clamping at zero.
    #[inline]
    pub fn drain(&mut self, amount: Energy) {
        let rest = self.stored - amount;
        // A branch rather than a `max`: the clamp almost never engages,
        // so the predicted branch keeps it off the dependency chain.
        self.stored = if rest.picojoules() > 0.0 { rest } else { overdrawn(rest) };
    }

    /// Removes `amount` from a buffer the caller has proven holds more
    /// than `amount`: [`Capacitor::drain`] without its clamp, which such
    /// a proof makes dead.
    #[inline]
    pub fn drain_within_headroom(&mut self, amount: Energy) {
        self.stored -= amount;
        debug_assert!(self.stored.picojoules() > 0.0, "drain overdrew a proven headroom");
    }

    /// Fills the buffer to `v_max` instantly (testing / initial condition).
    pub fn charge_to_full(&mut self) {
        self.stored = self.config.energy_at(self.config.v_max);
    }

    /// Sets the voltage directly (testing / scenario setup).
    ///
    /// # Panics
    ///
    /// Panics if `v` is negative or above `v_max`.
    pub fn set_voltage(&mut self, v: f64) {
        assert!((0.0..=self.config.v_max).contains(&v), "voltage {v} out of range");
        self.stored = self.config.energy_at(v);
    }

    /// `true` when discharge has reached the checkpoint threshold.
    pub fn below_checkpoint(&self) -> bool {
        self.voltage() < self.config.v_ckpt
    }

    /// `true` when recharge has reached the restoration threshold.
    pub fn above_restore(&self) -> bool {
        self.voltage() >= self.config.v_rst
    }
}

/// The clamped balance of an overdrawn (or non-positive) drain.
#[cold]
#[inline(never)]
fn overdrawn(rest: Energy) -> Energy {
    rest.clamp_non_negative()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_usable_window_is_in_the_paper_regime() {
        // ~150 nJ usable at 4.7 uF -> thousands of ~15 pJ instructions.
        let cfg = CapacitorConfig::default_4u7();
        let usable = cfg.usable_energy().nanojoules();
        assert!((100.0..300.0).contains(&usable), "usable = {usable} nJ");
    }

    #[test]
    fn voltage_energy_round_trip() {
        let cfg = CapacitorConfig::default_4u7();
        let mut cap = Capacitor::new(cfg);
        cap.set_voltage(2.1);
        assert!((cap.voltage() - 2.1).abs() < 1e-12);
        assert!((cap.stored().joules() - 0.5 * cfg.capacitance * 2.1 * 2.1).abs() < 1e-18);
    }

    #[test]
    fn charging_respects_vmax_clamp() {
        let mut cap = Capacitor::new(CapacitorConfig::default_4u7());
        cap.charge_to_full();
        let v_before = cap.voltage();
        cap.charge(Power::from_milliwatts(100.0), SimTime::from_millis(10.0));
        assert!((cap.voltage() - v_before).abs() < 1e-9, "must stay clamped at v_max");
    }

    #[test]
    fn drain_clamps_at_zero() {
        let mut cap = Capacitor::new(CapacitorConfig::default_4u7());
        cap.set_voltage(0.1);
        cap.drain(Energy::from_joules(1.0));
        assert_eq!(cap.stored(), Energy::ZERO);
        assert_eq!(cap.voltage(), 0.0);
    }

    #[test]
    fn thresholds_drive_state_predicates() {
        let cfg = CapacitorConfig::default_4u7();
        let mut cap = Capacitor::new(cfg);
        cap.set_voltage(cfg.v_ckpt - 0.01);
        assert!(cap.below_checkpoint());
        assert!(!cap.above_restore());
        cap.set_voltage(cfg.v_rst);
        assert!(cap.above_restore());
        assert!(!cap.below_checkpoint());
    }

    #[test]
    fn leakage_grows_with_capacitance_and_voltage() {
        let mut small = Capacitor::new(CapacitorConfig::with_capacitance_uf(4.7));
        let mut large = Capacitor::new(CapacitorConfig::with_capacitance_uf(1000.0));
        small.set_voltage(2.0);
        large.set_voltage(2.0);
        assert!(large.leakage_power().watts() > small.leakage_power().watts() * 100.0);
        let mut hi = Capacitor::new(CapacitorConfig::with_capacitance_uf(4.7));
        hi.set_voltage(2.2);
        assert!(hi.leakage_power().watts() > small.leakage_power().watts());
    }

    #[test]
    fn charging_integrates_harvest_minus_leak() {
        let mut cap = Capacitor::new(CapacitorConfig::default_4u7());
        cap.set_voltage(2.0);
        let e0 = cap.stored();
        let dt = SimTime::from_micros(10.0);
        let harvest = Power::from_microwatts(50.0);
        let leak = cap.charge(harvest, dt);
        let expected_gain = harvest * dt - leak;
        assert!((cap.stored() - e0 - expected_gain).picojoules().abs() < 1e-6);
    }

    #[test]
    fn discharge_to_checkpoint_counts_instructions() {
        // Draining in 15 pJ steps from v_rst to v_ckpt takes thousands of
        // steps: the power-cycle length regime of paper Fig 14.
        let cfg = CapacitorConfig::default_4u7();
        let mut cap = Capacitor::new(cfg);
        cap.set_voltage(cfg.v_rst);
        let mut steps = 0u64;
        while !cap.below_checkpoint() {
            cap.drain(Energy::from_picojoules(15.0));
            steps += 1;
        }
        assert!((2_000..50_000).contains(&steps), "power cycle = {steps} instructions");
    }

    #[test]
    #[should_panic(expected = "thresholds")]
    fn invalid_threshold_ordering_rejected() {
        let cfg = CapacitorConfig { v_rst: 1.0, v_ckpt: 2.0, ..CapacitorConfig::default_4u7() };
        let _ = Capacitor::new(cfg);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_voltage_validates() {
        let mut cap = Capacitor::new(CapacitorConfig::default_4u7());
        cap.set_voltage(5.0);
    }
}
