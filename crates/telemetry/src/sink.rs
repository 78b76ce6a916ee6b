//! Event sinks: where stamped events go.
//!
//! A [`Sink`] is deliberately tiny — `record` plus an optional `flush` —
//! so the simulator can hold `&mut dyn Sink` without caring whether
//! events are dropped, kept in memory, streamed to disk as JSONL, or
//! accumulated into a Chrome trace.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use serde_json::Value;

use crate::event::{Event, Stamped};
use crate::jsonl;

/// Consumer of stamped events.
///
/// Implementations must not panic on `record`; a sink that can fail
/// (e.g. an I/O-backed one) should hold the error and surface it from
/// `flush`-time accessors instead of aborting a simulation mid-run.
pub trait Sink {
    /// Consumes one stamped event.
    fn record(&mut self, ev: &Stamped);

    /// Flushes buffered output; default is a no-op.
    fn flush(&mut self) {}
}

/// The zero-cost disabled path: discards everything.
///
/// An instrumented call site holding a `NullSink` performs no
/// allocation and no I/O; the simulator's own disabled path is even
/// cheaper (no sink attached at all — a single untaken branch).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Sink for NullSink {
    #[inline(always)]
    fn record(&mut self, _ev: &Stamped) {}
}

/// Collects every event in memory, in arrival order. The sink the
/// `estimator_accuracy` experiment replays.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Vec<Stamped>,
}

impl VecSink {
    pub fn new() -> Self {
        VecSink::default()
    }

    /// Events recorded so far, in arrival order.
    pub fn events(&self) -> &[Stamped] {
        &self.events
    }

    /// Consumes the sink, returning the events.
    pub fn into_events(self) -> Vec<Stamped> {
        self.events
    }
}

impl Sink for VecSink {
    fn record(&mut self, ev: &Stamped) {
        self.events.push(ev.clone());
    }
}

/// Streams one compact JSON object per event, newline-delimited.
///
/// Write errors are held (not panicked) and surfaced by
/// [`JsonlSink::error`]; subsequent records are dropped.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Opens (truncating) a JSONL file at `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    pub fn new(out: W) -> Self {
        JsonlSink { out, error: None }
    }

    /// The first write error, if any occurred.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn record(&mut self, ev: &Stamped) {
        if self.error.is_some() {
            return;
        }
        let line = jsonl::to_string(std::slice::from_ref(&ev.to_value()));
        if let Err(e) = self.out.write_all(line.as_bytes()) {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) {
        if let Err(e) = self.out.flush() {
            self.error.get_or_insert(e);
        }
    }
}

/// Builds a Chrome trace-event file (the JSON object format with a
/// `traceEvents` array), loadable in Perfetto / `chrome://tracing`.
///
/// Every event becomes an instant (`"ph":"i"`) record whose `args`
/// carry the full payload, so the trace is also a lossless transport:
/// [`ChromeTraceSink::parse_events`] recovers the original sequence.
/// Power cycles additionally become duration (`"ph":"X"`) slices from
/// each `Reboot` to the next `PowerFailure`, which is what makes the
/// intermittent execution pattern visible on the timeline.
#[derive(Debug, Clone, Default)]
pub struct ChromeTraceSink {
    records: Vec<Value>,
    cycle_start_us: f64,
}

impl ChromeTraceSink {
    pub fn new() -> Self {
        ChromeTraceSink::default()
    }

    /// The finished trace as a JSON tree.
    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "traceEvents": self.records.clone(),
            "displayTimeUnit": "ms",
        })
    }

    /// Writes the trace to `path` (pretty-printed).
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        let text = serde_json::to_string_pretty(&self.to_json()).expect("trace serializes");
        std::fs::write(path, text)
    }

    /// Recovers the stamped events embedded in a trace produced by this
    /// sink (instant records only; synthesized power-cycle slices are
    /// skipped), decoding each through [`Event::decode`].
    ///
    /// # Errors
    ///
    /// Returns an error naming the offending record and field when an
    /// instant record does not decode.
    pub fn parse_events(trace: &Value) -> Result<Vec<Stamped>, String> {
        let instant = |record: &Value| -> Result<Option<Stamped>, String> {
            if jsonl::str(record, "ph")? != "i" {
                return Ok(None);
            }
            let kind = jsonl::str(record, "name")?;
            Ok(Some(Stamped {
                t_us: jsonl::f64(record, "ts")?,
                cycle: jsonl::u64(record, "args.cycle")?,
                event: jsonl::nested(record, "args", |args| Event::decode(kind, args))?,
            }))
        };
        Ok(jsonl::items(trace, "traceEvents", instant)?.into_iter().flatten().collect())
    }
}

impl Sink for ChromeTraceSink {
    fn record(&mut self, ev: &Stamped) {
        // Synthesize the power-cycle slice when a cycle closes.
        if let Event::PowerFailure { .. } = ev.event {
            self.records.push(serde_json::json!({
                "name": "power-cycle",
                "ph": "X",
                "ts": self.cycle_start_us,
                "dur": ev.t_us - self.cycle_start_us,
                "pid": 1,
                "tid": 0,
            }));
        }
        if let Event::Reboot { .. } = ev.event {
            self.cycle_start_us = ev.t_us;
        }
        let mut args: Vec<(String, Value)> = vec![("cycle".to_string(), ev.cycle.into())];
        args.extend(ev.event.fields().into_iter().map(|(k, v)| (k.to_string(), v)));
        self.records.push(serde_json::json!({
            "name": ev.event.kind(),
            "ph": "i",
            "s": "t",
            "ts": ev.t_us,
            "pid": 1,
            "tid": 0,
            "args": Value::Object(args),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_us: f64, cycle: u64, event: Event) -> Stamped {
        Stamped { t_us, cycle, event }
    }

    #[test]
    fn chrome_trace_synthesizes_cycle_slices() {
        let mut s = ChromeTraceSink::new();
        s.record(&ev(5.0, 0, Event::PowerFailure { insts: 10, voltage: 2.0 }));
        s.record(&ev(9.0, 1, Event::Reboot { charge_us: 4.0, voltage: 2.016 }));
        s.record(&ev(12.0, 1, Event::PowerFailure { insts: 4, voltage: 2.0 }));
        let json = s.to_json();
        let slices: Vec<&Value> = json
            .get("traceEvents")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter(|r| r.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[1].get("ts").and_then(Value::as_f64), Some(9.0));
        assert_eq!(slices[1].get("dur").and_then(Value::as_f64), Some(3.0));
    }
}
