//! Property-based tests on the energy front end: the capacitor respects
//! physics-shaped invariants under arbitrary charge/drain sequences, and
//! the trace generators stay in their documented envelopes.

use ehs_energy::{Capacitor, CapacitorConfig, PowerTrace, TraceKind};
use ehs_model::{Energy, Power, SimTime};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

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
