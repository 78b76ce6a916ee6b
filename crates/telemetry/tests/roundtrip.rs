//! Acceptance check: the JSONL and Chrome-trace sinks are lossless
//! transports — a known event sequence written through either sink
//! parses back to exactly the original `Stamped` values.

use ehs_telemetry::{jsonl, ChromeTraceSink, Event, JsonlSink, Registers, Sink, Stamped};

/// Two full power cycles exercising every event variant.
fn known_sequence() -> Vec<Stamped> {
    let regs = Registers { r_prev: 900, r_mem: 868, r_adjust: -32, r_thres: 32, r_evict: 3 };
    vec![
        Stamped { t_us: 0.5, cycle: 0, event: Event::CompressedFill { dcache: true } },
        Stamped { t_us: 0.75, cycle: 0, event: Event::CompressedFill { dcache: false } },
        Stamped { t_us: 1.0, cycle: 0, event: Event::Eviction { count: 2, dcache: true } },
        Stamped {
            t_us: 1.25,
            cycle: 0,
            event: Event::ModeSwitch { cm_to_rm: true, registers: regs },
        },
        Stamped { t_us: 1.5, cycle: 0, event: Event::BypassedFill { dcache: true } },
        Stamped {
            t_us: 2.0,
            cycle: 0,
            event: Event::EstimatorSample { predicted_remaining: 900, actual_remaining: 912 },
        },
        Stamped { t_us: 2.0, cycle: 0, event: Event::Checkpoint { blocks: 17 } },
        Stamped { t_us: 2.0, cycle: 0, event: Event::PowerFailure { insts: 4096, voltage: 2.0 } },
        Stamped { t_us: 9.75, cycle: 1, event: Event::Reboot { charge_us: 7.75, voltage: 2.016 } },
        Stamped {
            t_us: 9.75,
            cycle: 1,
            event: Event::ThresholdAdjust { old: 32, new: 35, evicted: 3 },
        },
        Stamped {
            t_us: 9.75,
            cycle: 1,
            event: Event::ModeSwitch { cm_to_rm: false, registers: Registers::default() },
        },
        Stamped { t_us: 11.0, cycle: 1, event: Event::BypassedFill { dcache: false } },
        Stamped { t_us: 12.5, cycle: 1, event: Event::PowerFailure { insts: 128, voltage: 1.999 } },
        // Harness-level job events (wall-clock stamps, cycle 0 by
        // convention — they do not belong to any simulated power cycle).
        Stamped {
            t_us: 13.5,
            cycle: 1,
            event: Event::JobTimedOut { job: 8, executed_insts: 4096 },
        },
        Stamped {
            t_us: 14.0,
            cycle: 1,
            event: Event::JobFailed { job: 7, reason: "simulation sha:ACC panicked".to_string() },
        },
    ]
}

#[test]
fn jsonl_sink_round_trips_a_known_sequence() {
    let events = known_sequence();
    let mut sink = JsonlSink::new(Vec::<u8>::new());
    for ev in &events {
        sink.record(ev);
    }
    assert!(sink.error().is_none());
    let text = String::from_utf8(sink.into_inner()).unwrap();
    assert_eq!(text.lines().count(), events.len());
    assert_eq!(jsonl::read_records(&text, Stamped::decode).unwrap(), events);
}

#[test]
fn chrome_trace_sink_round_trips_a_known_sequence() {
    let events = known_sequence();
    let mut sink = ChromeTraceSink::new();
    for ev in &events {
        sink.record(ev);
    }
    let trace = sink.to_json();
    assert_eq!(ChromeTraceSink::parse_events(&trace).unwrap(), events);

    // The synthesized timeline shows one slice per completed power cycle.
    let slices = trace
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .unwrap()
        .iter()
        .filter(|r| r.get("ph").and_then(serde_json::Value::as_str) == Some("X"))
        .count();
    assert_eq!(slices, 2);
}

#[test]
fn chrome_trace_survives_a_serialize_parse_cycle() {
    let events = known_sequence();
    let mut sink = ChromeTraceSink::new();
    for ev in &events {
        sink.record(ev);
    }
    let text = serde_json::to_string_pretty(&sink.to_json()).unwrap();
    let reparsed = serde_json::from_str(&text).unwrap();
    assert_eq!(ChromeTraceSink::parse_events(&reparsed).unwrap(), events);
}
