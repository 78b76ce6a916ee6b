//! Property-based tests on the energy front end: the capacitor respects
//! physics-shaped invariants under arbitrary charge/drain sequences and
//! matches the exact formulas bit for bit, the trace window cursor reads
//! what `power_at` reads, and the trace generators stay in their
//! documented envelopes.

use ehs_energy::trace::TRACE_INTERVAL;
use ehs_energy::{Capacitor, CapacitorConfig, PowerTrace, TraceKind, TraceWindow};
use ehs_model::{Energy, Power, SimTime};
use proptest::prelude::*;

/// The capacitor step as it was before `charge` guessed the leak and
/// `drain` branched around its clamp: these bodies are the oracle the
/// speculative versions must match bit for bit.
struct Exact {
    config: CapacitorConfig,
    stored: Energy,
}

impl Exact {
    fn voltage(&self) -> f64 {
        (2.0 * self.stored.joules() / self.config.capacitance).sqrt()
    }

    fn leakage_power(&self) -> Power {
        let v = self.voltage();
        Power::from_watts(self.config.leak_coeff * self.config.capacitance * v * v)
    }

    fn charge(&mut self, harvest: Power, dt: SimTime) -> Energy {
        let leak = self.leakage_power() * dt;
        let gained = harvest * dt;
        let cap_max = self.config.energy_at(self.config.v_max);
        self.stored = (self.stored + gained - leak).clamp_non_negative().min(cap_max);
        leak.min(self.stored + leak) // cannot leak more than what existed
    }

    fn drain(&mut self, amount: Energy) {
        self.stored = (self.stored - amount).clamp_non_negative();
    }
}

/// What the speculative `charge` guesses before checking: the leak as
/// `2k·E·dt`. A case whose guess differs from the exact result takes the
/// fallback arm.
fn guess(cap: &Capacitor, harvest: Power, dt: SimTime) -> Energy {
    let s = cap.stored();
    s + harvest * dt - s * (2.0 * cap.config().leak_coeff * dt.seconds())
}

/// Charges `cap` and the oracle alike and asserts bit-equal results;
/// returns whether the guess missed.
fn charge_both(cap: &mut Capacitor, exact: &mut Exact, harvest: Power, dt: SimTime) -> bool {
    let guessed = guess(cap, harvest, dt);
    let got = cap.charge(harvest, dt);
    let want = exact.charge(harvest, dt);
    assert_eq!(got.picojoules().to_bits(), want.picojoules().to_bits(), "leak return");
    assert_eq!(cap.stored().picojoules().to_bits(), exact.stored.picojoules().to_bits(), "stored");
    guessed.picojoules().to_bits() != exact.stored.picojoules().to_bits()
}

#[derive(Debug, Clone)]
enum Step {
    Charge { uw: f64, us: f64 },
    Drain { pj: f64 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0.0f64..500.0, 0.1f64..100.0).prop_map(|(uw, us)| Step::Charge { uw, us }),
        (0.0f64..10_000.0).prop_map(|pj| Step::Drain { pj }),
    ]
}

/// Steps the exact-formula oracle is checked on: powered steps of 1-32
/// cycles at 200 MHz, hibernation steps, harvest far above any draw (into
/// the `v_max` clamp) and overdraws up to the largest capacitor's charge.
fn exact_step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0.0f64..500.0, 0.005f64..0.16).prop_map(|(uw, us)| Step::Charge { uw, us }),
        (0.0f64..500.0, 1.0f64..100.0).prop_map(|(uw, us)| Step::Charge { uw, us }),
        (1e5f64..1e7, 1.0f64..1e3).prop_map(|(uw, us)| Step::Charge { uw, us }),
        (0.0f64..50.0).prop_map(|pj| Step::Drain { pj }),
        (1e6f64..1e10).prop_map(|pj| Step::Drain { pj }),
    ]
}

/// A lazy trace whose length is not a multiple of the chunk length, so
/// the wrap falls inside a short last chunk.
fn odd_trace() -> PowerTrace {
    PowerTrace::generate(TraceKind::RfHome, 7, PowerTrace::CHUNK_LEN + 1234)
}

/// `t` moved by `n` f64 bit patterns.
fn ulps(t: f64, n: i64) -> f64 {
    f64::from_bits((t.to_bits() as i64 + n) as u64)
}

/// Reads `t` through the cursor and asserts the bits `power_at` returns.
fn read_both(window: &mut TraceWindow<'_>, trace: &PowerTrace, t: f64) {
    let t = SimTime::from_seconds(t);
    let (got, want) = (window.power_at(t), trace.power_at(t));
    assert_eq!(got.watts().to_bits(), want.watts().to_bits(), "t = {:e} s", t.seconds());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn trace_window_reads_power_at_over_its_span(
        start_window in 0u64..3 * (PowerTrace::CHUNK_LEN as u64 + 1234),
        offset in 0.0f64..1.0,
        jumps in proptest::collection::vec((-5.0f64..5.0, 0.0f64..1.0), 1..50),
    ) {
        let trace = odd_trace();
        let mut window = TraceWindow::new(&trace);
        let mut t = (start_window as f64 + offset) * TRACE_INTERVAL.seconds();
        for &(windows, frac) in &jumps {
            read_both(&mut window, &trace, t);
            // Half the span left, as a batched run uses it, reads the same.
            let left = window.remaining(SimTime::from_seconds(t)).seconds();
            prop_assert!(left > 0.0);
            for f in [frac * 0.5, 0.5] {
                let inside = SimTime::from_seconds(t + left * f);
                prop_assert_eq!(
                    trace.power_at(inside).watts().to_bits(),
                    window.power().watts().to_bits()
                );
            }
            // Mostly forward, as simulated time moves, sometimes back.
            t = (t + windows * TRACE_INTERVAL.seconds()).max(0.0);
        }
    }

    #[test]
    fn capacitor_stays_within_physical_bounds(
        uf in 0.1f64..1000.0,
        v0 in 0.0f64..2.2,
        steps in proptest::collection::vec(step_strategy(), 0..200),
    ) {
        let cfg = CapacitorConfig::with_capacitance_uf(uf);
        let mut cap = Capacitor::new(cfg);
        cap.set_voltage(v0.min(cfg.v_max));
        let e_max = cfg.energy_at(cfg.v_max);
        for step in &steps {
            match *step {
                Step::Charge { uw, us } => {
                    let leaked = cap.charge(
                        Power::from_microwatts(uw),
                        SimTime::from_micros(us),
                    );
                    prop_assert!(leaked.picojoules() >= 0.0);
                }
                Step::Drain { pj } => cap.drain(Energy::from_picojoules(pj)),
            }
            // Stored energy stays in [0, E(v_max)].
            prop_assert!(cap.stored().picojoules() >= 0.0);
            prop_assert!(cap.stored().picojoules() <= e_max.picojoules() * (1.0 + 1e-9));
            // Voltage derives consistently: E = ½CV².
            let v = cap.voltage();
            prop_assert!((0.0..=cfg.v_max + 1e-9).contains(&v));
            let back = cfg.energy_at(v);
            prop_assert!((back.picojoules() - cap.stored().picojoules()).abs()
                <= 1e-6 * e_max.picojoules().max(1.0));
        }
    }

    #[test]
    fn speculative_step_matches_the_exact_formulas(
        uf in 4.7f64..1000.0,
        leak_coeff in prop_oneof![0.0f64..0.01, 0.01f64..1e3],
        v0 in 0.0f64..2.2,
        steps in proptest::collection::vec(exact_step_strategy(), 1..300),
    ) {
        let cfg = CapacitorConfig { leak_coeff, ..CapacitorConfig::with_capacitance_uf(uf) };
        let mut cap = Capacitor::new(cfg);
        cap.set_voltage(v0.min(cfg.v_max));
        let mut exact = Exact { config: cfg, stored: cap.stored() };
        for step in &steps {
            match *step {
                Step::Charge { uw, us } => {
                    let (harvest, dt) = (Power::from_microwatts(uw), SimTime::from_micros(us));
                    charge_both(&mut cap, &mut exact, harvest, dt);
                }
                Step::Drain { pj } => {
                    cap.drain(Energy::from_picojoules(pj));
                    exact.drain(Energy::from_picojoules(pj));
                    prop_assert_eq!(
                        cap.stored().picojoules().to_bits(),
                        exact.stored.picojoules().to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn charging_never_exceeds_harvested_energy(
        uw in 1.0f64..500.0,
        us in 1.0f64..1000.0,
    ) {
        // Energy gained can never exceed the harvested input (leakage only
        // removes energy; the regulator clamp only discards it).
        let mut cap = Capacitor::new(CapacitorConfig::default_4u7());
        cap.set_voltage(2.0);
        let before = cap.stored();
        cap.charge(Power::from_microwatts(uw), SimTime::from_micros(us));
        let gained = cap.stored() - before;
        let input = Power::from_microwatts(uw) * SimTime::from_micros(us);
        prop_assert!(gained.picojoules() <= input.picojoules() + 1e-9);
    }

    #[test]
    fn usable_energy_scales_linearly_with_capacitance(factor in 1.5f64..100.0) {
        let small = CapacitorConfig::with_capacitance_uf(1.0);
        let large = CapacitorConfig::with_capacitance_uf(factor);
        let ratio = large.usable_energy() / small.usable_energy();
        prop_assert!((ratio - factor).abs() < 1e-6 * factor);
    }

    #[test]
    fn traces_are_non_negative_and_seed_deterministic(
        seed in any::<u64>(),
        len in 100usize..5000,
    ) {
        for kind in TraceKind::ALL {
            let a = PowerTrace::generate(kind, seed, len);
            let b = PowerTrace::generate(kind, seed, len);
            prop_assert_eq!(a.samples().count(), len);
            prop_assert!(a.samples().all(|p| p.watts() >= 0.0));
            prop_assert!(a.samples().eq(b.samples()));
        }
    }

    #[test]
    fn trace_text_format_round_trips(seed in any::<u64>(), len in 1usize..500) {
        let trace = PowerTrace::generate(TraceKind::Solar, seed, len);
        let mut buf = Vec::new();
        trace.write_text(&mut buf).expect("write to Vec cannot fail");
        let back = PowerTrace::read_text(buf.as_slice()).expect("own output parses");
        prop_assert_eq!(back.len(), trace.len());
        for (a, b) in trace.samples().zip(back.samples()) {
            prop_assert!((a.microwatts() - b.microwatts()).abs() < 1e-5);
        }
    }
}

#[test]
fn fallback_arms_match_the_exact_formulas() {
    for uf in [4.7, 1000.0] {
        let cfg = CapacitorConfig::with_capacitance_uf(uf);
        let dt = SimTime::from_nanos(5.0);

        // Clamp at v_max: a full capacitor charged far beyond its leak.
        let mut cap = Capacitor::new(cfg);
        cap.charge_to_full();
        let mut exact = Exact { config: cfg, stored: cap.stored() };
        assert!(charge_both(&mut cap, &mut exact, Power::from_milliwatts(100.0), dt));
        assert_eq!(cap.stored(), cfg.energy_at(cfg.v_max));

        // Stored energy driven to 0: a leak large enough to overshoot.
        let leaky = CapacitorConfig { leak_coeff: 1e9, ..cfg };
        let mut cap = Capacitor::new(leaky);
        cap.set_voltage(2.0);
        let mut exact = Exact { config: leaky, stored: cap.stored() };
        assert!(charge_both(&mut cap, &mut exact, Power::ZERO, dt));
        assert_eq!(cap.stored(), Energy::ZERO);

        // Charging from empty, and an overdrawn drain.
        let mut cap = Capacitor::new(cfg);
        let mut exact = Exact { config: cfg, stored: cap.stored() };
        charge_both(&mut cap, &mut exact, Power::from_microwatts(50.0), dt);
        cap.drain(Energy::from_picojoules(1e9));
        exact.drain(Energy::from_picojoules(1e9));
        assert_eq!(cap.stored().picojoules().to_bits(), exact.stored.picojoules().to_bits());
        assert_eq!(cap.stored(), Energy::ZERO);
        charge_both(&mut cap, &mut exact, Power::ZERO, dt);
    }
}

#[test]
fn trace_window_matches_power_at_at_window_boundaries() {
    let trace = odd_trace();
    let (chunk, len) = (PowerTrace::CHUNK_LEN as u64, trace.len() as u64);
    let edges = |at: u64| at.saturating_sub(8)..at + 8;
    // The first windows, a chunk edge, the wrap and the second wrap.
    let boundaries = edges(0).chain(edges(chunk)).chain(edges(len)).chain(edges(2 * len));
    let mut forward = TraceWindow::new(&trace);
    for w in boundaries {
        let t0 = w as f64 * TRACE_INTERVAL.seconds();
        for d in -3..=3 {
            if t0 == 0.0 && d < 0 {
                continue;
            }
            let t = ulps(t0, d);
            read_both(&mut forward, &trace, t);
            // A cursor positioned elsewhere, and one read backwards.
            let mut jumped = TraceWindow::new(&trace);
            read_both(&mut jumped, &trace, ulps(t0, 3) + 7.0 * TRACE_INTERVAL.seconds());
            read_both(&mut jumped, &trace, t);
        }
    }
    // Times `power_at` clamps to window 0 or cannot count windows for.
    let far = 2f64.powi(53) * TRACE_INTERVAL.seconds();
    for t in [-1e-3, -0.0, f64::NAN, f64::INFINITY, far, ulps(far, 1)] {
        read_both(&mut forward, &trace, t);
        read_both(&mut forward, &trace, t);
    }
}
