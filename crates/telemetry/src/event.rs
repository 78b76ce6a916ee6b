//! The typed event taxonomy and its JSON wire format.
//!
//! Every event is stamped with simulated time (`t_us`) and the index of
//! the power cycle it occurred in, then serialized as one *flat* JSON
//! object — `{"t_us":…,"cycle":…,"kind":"ModeSwitch",…fields}` — so a
//! JSONL stream greps cleanly and round-trips losslessly through
//! [`Stamped::to_value`] / [`Stamped::decode`].

use serde_json::Value;

use crate::jsonl;
use crate::metrics::{Counter, Gauge, HistogramId, MetricsRegistry};
use crate::sink::Sink;

/// Kagura's register snapshot carried by [`Event::ModeSwitch`]:
/// `(R_prev, R_mem, R_adjust, R_thres, R_evict)` at the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Registers {
    /// Predicted memory-op count of the current power cycle.
    pub r_prev: u64,
    /// Memory ops committed so far in this cycle.
    pub r_mem: u64,
    /// Last cycle's prediction error `R_mem − R_prev`.
    pub r_adjust: i64,
    /// Compression-disabling threshold.
    pub r_thres: u64,
    /// Blocks evicted since the decision point.
    pub r_evict: u64,
}

impl From<(u64, u64, i64, u64, u64)> for Registers {
    fn from(t: (u64, u64, i64, u64, u64)) -> Self {
        Registers { r_prev: t.0, r_mem: t.1, r_adjust: t.2, r_thres: t.3, r_evict: t.4 }
    }
}

/// Per-power-cycle flight-recorder payload carried by
/// [`Event::FlightRecord`]: what the cycle executed, what the governor
/// decided, and where every picojoule went (the conservation-audited
/// ledger row, flattened).
///
/// One record is emitted at each power-cycle boundary when a flight
/// recorder is attached (`simrun --flight-record`, `repro --telemetry`);
/// the detached path emits nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightRecord {
    /// Instructions committed in the cycle.
    pub insts: u64,
    /// Memory operations committed in the cycle.
    pub mem_ops: u64,
    /// Estimator-predicted memory-op count for the cycle (`R_prev`);
    /// zero for governors without an estimator.
    pub predicted_remaining: u64,
    /// Memory ops the cycle actually delivered (oracle ground truth).
    pub actual_remaining: u64,
    /// Governor mode at the end of the cycle: `"CM"`, `"RM"`, or `"-"`
    /// for governors without a Kagura mode machine.
    pub mode: &'static str,
    /// Compressed fills performed after the last one whose block was
    /// re-referenced before the outage — compressions an ideal
    /// switch-off point would have avoided.
    pub late_compressions: u64,
    /// Compressed fills whose block was never re-referenced before the
    /// outage (the paper's wasted-work population).
    pub wasted_fills: u64,
    /// Compression energy spent on those wasted fills (pJ).
    pub wasted_pj: f64,
    /// Bytes persisted by checkpoints (JIT + sweep) during the cycle.
    pub checkpoint_bytes: u64,
    /// Ledger row: energy harvested during the cycle (pJ).
    pub harvested_pj: f64,
    /// Ledger row: per-category consumption (pJ).
    pub compress_pj: f64,
    /// Ledger row: decompression energy (pJ).
    pub decompress_pj: f64,
    /// Ledger row: other cache energy (pJ).
    pub cache_other_pj: f64,
    /// Ledger row: NVM demand-traffic energy (pJ).
    pub memory_pj: f64,
    /// Ledger row: checkpoint/restore traffic energy (pJ).
    pub checkpoint_restore_pj: f64,
    /// Ledger row: everything else — pipeline, leakage, monitor (pJ).
    pub other_pj: f64,
    /// Capacitor leakage during the cycle (pJ); informational, already
    /// inside `other_pj`.
    pub cap_leak_pj: f64,
    /// Change in capacitor stored energy over the cycle (pJ; signed).
    pub delta_stored_pj: f64,
}

impl Default for FlightRecord {
    /// An all-zero record with the governor-without-mode-machine marker
    /// (`mode: "-"`), so defaulted records survive the parse validation.
    fn default() -> Self {
        FlightRecord {
            insts: 0,
            mem_ops: 0,
            predicted_remaining: 0,
            actual_remaining: 0,
            mode: "-",
            late_compressions: 0,
            wasted_fills: 0,
            wasted_pj: 0.0,
            checkpoint_bytes: 0,
            harvested_pj: 0.0,
            compress_pj: 0.0,
            decompress_pj: 0.0,
            cache_other_pj: 0.0,
            memory_pj: 0.0,
            checkpoint_restore_pj: 0.0,
            other_pj: 0.0,
            cap_leak_pj: 0.0,
            delta_stored_pj: 0.0,
        }
    }
}

impl FlightRecord {
    fn mode_from_str(s: &str) -> Option<&'static str> {
        match s {
            "CM" => Some("CM"),
            "RM" => Some("RM"),
            "-" => Some("-"),
            _ => None,
        }
    }
}

/// One traced occurrence inside a simulation run.
///
/// Power-cycle lifecycle events come from the simulator's machine loop;
/// controller events (`ModeSwitch`, `ThresholdAdjust`,
/// `EstimatorSample`) originate inside Kagura and are drained through
/// the governor at instruction boundaries; fill/eviction events come
/// from the cache-fill path.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The capacitor crossed `V_ckpt` while running: the cycle ended.
    PowerFailure {
        /// Instructions committed in the cycle that just ended.
        insts: u64,
        /// Capacitor voltage at the failure (volts).
        voltage: f64,
    },
    /// The capacitor recharged past `V_rst` and execution resumed.
    Reboot {
        /// Time spent hibernating before this reboot (µs).
        charge_us: f64,
        /// Capacitor voltage at resumption (volts).
        voltage: f64,
    },
    /// A checkpoint (JIT or sweep-boundary) persisted dirty state.
    Checkpoint {
        /// Dirty cache blocks written to NVM.
        blocks: u32,
    },
    /// Kagura switched modes (CM→RM at the decision point, RM→CM at
    /// reboot).
    ModeSwitch {
        /// `true` for CM→RM (compression disabled), `false` for RM→CM.
        cm_to_rm: bool,
        /// Register file at the moment of the switch.
        registers: Registers,
    },
    /// AIMD adapted `R_thres` at a reboot.
    ThresholdAdjust {
        /// Threshold before adaptation.
        old: u64,
        /// Threshold after adaptation.
        new: u64,
        /// RM-mode evictions the decision was based on.
        evicted: u64,
    },
    /// A fill was stored compressed.
    CompressedFill {
        /// `true` for the DCache, `false` for the ICache.
        dcache: bool,
    },
    /// A fill bypassed compression (RM mode or uncompressible data).
    BypassedFill {
        /// `true` for the DCache, `false` for the ICache.
        dcache: bool,
    },
    /// A fill or fat write evicted resident blocks.
    Eviction {
        /// Number of blocks evicted by this one operation.
        count: u32,
        /// `true` for the DCache, `false` for the ICache.
        dcache: bool,
    },
    /// A checkpoint block's compressed payload failed to decode and was
    /// dropped: a *detected* crash-consistency violation. Only emitted
    /// under fault injection (a real run never corrupts its own stream).
    DecodeFault {
        /// Checkpoint blocks dropped by this failure.
        blocks: u32,
    },
    /// One per power-cycle boundary under Kagura: the cycle-length
    /// prediction made at reboot vs what the cycle actually delivered
    /// (the oracle ground truth), both in committed memory operations.
    EstimatorSample {
        /// `R_prev` as predicted at the start of the ended cycle.
        predicted_remaining: u64,
        /// Memory ops the cycle actually committed.
        actual_remaining: u64,
    },
    /// One per power-cycle boundary when a flight recorder is attached:
    /// the cycle's execution, governor decisions and full energy-ledger
    /// row (see [`FlightRecord`]).
    FlightRecord(FlightRecord),
    /// The cycle's energy-ledger row failed its conservation audit:
    /// `harvested − consumed − Δstored` exceeded the tolerance. A real
    /// accounting bug or a degenerate (nearly dead) trace.
    LedgerImbalance {
        /// Signed conservation residual (pJ).
        imbalance_pj: f64,
        /// Tolerance the residual was audited against (pJ).
        tolerance_pj: f64,
    },
    /// A harness job failed. Emitted by the parallel pool, not the
    /// simulator: `t_us` is host wall-clock microseconds since process
    /// start and `cycle` is always 0.
    JobFailed {
        /// Submission index of the job within its batch.
        job: u64,
        /// Human-readable failure description (the `JobFailure` text).
        reason: String,
    },
    /// A harness job was cancelled by its cooperative watchdog budget.
    JobTimedOut {
        /// Submission index of the job within its batch.
        job: u64,
        /// Instructions the simulation had executed when cancelled.
        executed_insts: u64,
    },
    /// The serving layer shed a request at admission because the queue
    /// was full. Emitted by `simrun serve`, not the simulator: like the
    /// job events, `t_us` is host wall-clock microseconds and `cycle`
    /// is always 0.
    RequestShed {
        /// Requests admitted (queued or running) at the shed decision.
        admitted: u64,
        /// Back-off hint returned to the client (milliseconds).
        retry_after_ms: u64,
    },
    /// The serving layer began its graceful drain (SIGTERM or
    /// stdin EOF): new work is rejected while in-flight requests finish.
    ServerDrain {
        /// Requests still in flight when the drain began.
        in_flight: u64,
        /// Result-cache entries about to be persisted.
        cache_entries: u64,
    },
}

impl Event {
    /// Stable identifier used as the `kind` field on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::PowerFailure { .. } => "PowerFailure",
            Event::Reboot { .. } => "Reboot",
            Event::Checkpoint { .. } => "Checkpoint",
            Event::ModeSwitch { .. } => "ModeSwitch",
            Event::ThresholdAdjust { .. } => "ThresholdAdjust",
            Event::CompressedFill { .. } => "CompressedFill",
            Event::BypassedFill { .. } => "BypassedFill",
            Event::Eviction { .. } => "Eviction",
            Event::DecodeFault { .. } => "DecodeFault",
            Event::EstimatorSample { .. } => "EstimatorSample",
            Event::FlightRecord(_) => "FlightRecord",
            Event::LedgerImbalance { .. } => "LedgerImbalance",
            Event::JobFailed { .. } => "JobFailed",
            Event::JobTimedOut { .. } => "JobTimedOut",
            Event::RequestShed { .. } => "RequestShed",
            Event::ServerDrain { .. } => "ServerDrain",
        }
    }

    /// The event's payload as ordered `(name, value)` pairs.
    pub fn fields(&self) -> Vec<(&'static str, Value)> {
        if let Event::JobFailed { job, reason } = self {
            return vec![("job", (*job).into()), ("reason", reason.clone().into())];
        }
        match *self {
            Event::PowerFailure { insts, voltage } => {
                vec![("insts", insts.into()), ("voltage", voltage.into())]
            }
            Event::Reboot { charge_us, voltage } => {
                vec![("charge_us", charge_us.into()), ("voltage", voltage.into())]
            }
            Event::Checkpoint { blocks } => vec![("blocks", Value::U64(blocks as u64))],
            Event::ModeSwitch { cm_to_rm, registers: r } => vec![
                ("cm_to_rm", cm_to_rm.into()),
                ("r_prev", r.r_prev.into()),
                ("r_mem", r.r_mem.into()),
                ("r_adjust", r.r_adjust.into()),
                ("r_thres", r.r_thres.into()),
                ("r_evict", r.r_evict.into()),
            ],
            Event::ThresholdAdjust { old, new, evicted } => {
                vec![("old", old.into()), ("new", new.into()), ("evicted", evicted.into())]
            }
            Event::CompressedFill { dcache } | Event::BypassedFill { dcache } => {
                vec![("dcache", dcache.into())]
            }
            Event::Eviction { count, dcache } => {
                vec![("count", Value::U64(count as u64)), ("dcache", dcache.into())]
            }
            Event::DecodeFault { blocks } => vec![("blocks", Value::U64(blocks as u64))],
            Event::EstimatorSample { predicted_remaining, actual_remaining } => vec![
                ("predicted_remaining", predicted_remaining.into()),
                ("actual_remaining", actual_remaining.into()),
            ],
            Event::FlightRecord(r) => vec![
                ("insts", r.insts.into()),
                ("mem_ops", r.mem_ops.into()),
                ("predicted_remaining", r.predicted_remaining.into()),
                ("actual_remaining", r.actual_remaining.into()),
                ("mode", r.mode.into()),
                ("late_compressions", r.late_compressions.into()),
                ("wasted_fills", r.wasted_fills.into()),
                ("wasted_pj", r.wasted_pj.into()),
                ("checkpoint_bytes", r.checkpoint_bytes.into()),
                ("harvested_pj", r.harvested_pj.into()),
                ("compress_pj", r.compress_pj.into()),
                ("decompress_pj", r.decompress_pj.into()),
                ("cache_other_pj", r.cache_other_pj.into()),
                ("memory_pj", r.memory_pj.into()),
                ("checkpoint_restore_pj", r.checkpoint_restore_pj.into()),
                ("other_pj", r.other_pj.into()),
                ("cap_leak_pj", r.cap_leak_pj.into()),
                ("delta_stored_pj", r.delta_stored_pj.into()),
            ],
            Event::LedgerImbalance { imbalance_pj, tolerance_pj } => {
                vec![("imbalance_pj", imbalance_pj.into()), ("tolerance_pj", tolerance_pj.into())]
            }
            // Handled by the borrow-matching prologue above (String field).
            Event::JobFailed { .. } => unreachable!("JobFailed returned early"),
            Event::JobTimedOut { job, executed_insts } => {
                vec![("job", job.into()), ("executed_insts", executed_insts.into())]
            }
            Event::RequestShed { admitted, retry_after_ms } => {
                vec![("admitted", admitted.into()), ("retry_after_ms", retry_after_ms.into())]
            }
            Event::ServerDrain { in_flight, cache_entries } => {
                vec![("in_flight", in_flight.into()), ("cache_entries", cache_entries.into())]
            }
        }
    }

    /// Rebuilds an event from its `kind` and a flat field object, the
    /// inverse of [`Event::kind`] and [`Event::fields`]. On malformed
    /// input the error names the offending field (missing, mistyped, or
    /// out of range) or the unknown kind.
    pub fn decode(kind: &str, obj: &Value) -> Result<Event, String> {
        let u = |k: &str| jsonl::u64(obj, k);
        let f = |k: &str| jsonl::f64(obj, k);
        let b = |k: &str| jsonl::bool(obj, k);
        let s = |k: &str| jsonl::str(obj, k);
        Ok(match kind {
            "PowerFailure" => Event::PowerFailure { insts: u("insts")?, voltage: f("voltage")? },
            "Reboot" => Event::Reboot { charge_us: f("charge_us")?, voltage: f("voltage")? },
            "Checkpoint" => Event::Checkpoint { blocks: u("blocks")? as u32 },
            "ModeSwitch" => Event::ModeSwitch {
                cm_to_rm: b("cm_to_rm")?,
                registers: Registers {
                    r_prev: u("r_prev")?,
                    r_mem: u("r_mem")?,
                    r_adjust: jsonl::i64(obj, "r_adjust")?,
                    r_thres: u("r_thres")?,
                    r_evict: u("r_evict")?,
                },
            },
            "ThresholdAdjust" => {
                Event::ThresholdAdjust { old: u("old")?, new: u("new")?, evicted: u("evicted")? }
            }
            "CompressedFill" => Event::CompressedFill { dcache: b("dcache")? },
            "BypassedFill" => Event::BypassedFill { dcache: b("dcache")? },
            "Eviction" => Event::Eviction { count: u("count")? as u32, dcache: b("dcache")? },
            "DecodeFault" => Event::DecodeFault { blocks: u("blocks")? as u32 },
            "EstimatorSample" => Event::EstimatorSample {
                predicted_remaining: u("predicted_remaining")?,
                actual_remaining: u("actual_remaining")?,
            },
            "FlightRecord" => Event::FlightRecord(FlightRecord {
                insts: u("insts")?,
                mem_ops: u("mem_ops")?,
                predicted_remaining: u("predicted_remaining")?,
                actual_remaining: u("actual_remaining")?,
                mode: FlightRecord::mode_from_str(s("mode")?).ok_or_else(|| {
                    "field `mode` is not one of \"CM\", \"RM\", \"-\"".to_string()
                })?,
                late_compressions: u("late_compressions")?,
                wasted_fills: u("wasted_fills")?,
                wasted_pj: f("wasted_pj")?,
                checkpoint_bytes: u("checkpoint_bytes")?,
                harvested_pj: f("harvested_pj")?,
                compress_pj: f("compress_pj")?,
                decompress_pj: f("decompress_pj")?,
                cache_other_pj: f("cache_other_pj")?,
                memory_pj: f("memory_pj")?,
                checkpoint_restore_pj: f("checkpoint_restore_pj")?,
                other_pj: f("other_pj")?,
                cap_leak_pj: f("cap_leak_pj")?,
                delta_stored_pj: f("delta_stored_pj")?,
            }),
            "LedgerImbalance" => Event::LedgerImbalance {
                imbalance_pj: f("imbalance_pj")?,
                tolerance_pj: f("tolerance_pj")?,
            },
            "JobFailed" => Event::JobFailed { job: u("job")?, reason: s("reason")?.to_string() },
            "JobTimedOut" => {
                Event::JobTimedOut { job: u("job")?, executed_insts: u("executed_insts")? }
            }
            "RequestShed" => Event::RequestShed {
                admitted: u("admitted")?,
                retry_after_ms: u("retry_after_ms")?,
            },
            "ServerDrain" => Event::ServerDrain {
                in_flight: u("in_flight")?,
                cache_entries: u("cache_entries")?,
            },
            _ => return Err(format!("unknown event kind `{kind}`")),
        })
    }

    /// Whether this event belongs in a flight-record stream
    /// (`flight_<app>.jsonl`): the per-cycle records themselves plus the
    /// governor-decision events `repro explain` reconstructs timelines
    /// from. Shared filter between `simrun --flight-record`, the
    /// `energy_waste` experiment and `repro explain`.
    pub fn flight_relevant(&self) -> bool {
        matches!(
            self,
            Event::FlightRecord(_)
                | Event::LedgerImbalance { .. }
                | Event::ModeSwitch { .. }
                | Event::ThresholdAdjust { .. }
                | Event::EstimatorSample { .. }
                | Event::Reboot { .. }
        )
    }
}

/// An [`Event`] stamped with simulated time and power-cycle index.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamped {
    /// Simulated time of the event in microseconds.
    pub t_us: f64,
    /// Index of the power cycle the event occurred in (0-based; the
    /// `PowerFailure` closing cycle *k* is stamped with cycle *k*).
    pub cycle: u64,
    /// The event itself.
    pub event: Event,
}

impl Stamped {
    /// Flat JSON object: stamp first, then `kind`, then the payload.
    pub fn to_value(&self) -> Value {
        let mut members: Vec<(String, Value)> = vec![
            ("t_us".to_string(), self.t_us.into()),
            ("cycle".to_string(), self.cycle.into()),
            ("kind".to_string(), self.event.kind().into()),
        ];
        members.extend(self.event.fields().into_iter().map(|(k, v)| (k.to_string(), v)));
        Value::Object(members)
    }

    /// Inverse of [`Stamped::to_value`] for a record whose `kind` the
    /// stream reader has already read; the error names the offending
    /// field, stamp fields included.
    pub fn decode(kind: &str, v: &Value) -> Result<Stamped, String> {
        Ok(Stamped {
            t_us: jsonl::f64(v, "t_us")?,
            cycle: jsonl::u64(v, "cycle")?,
            event: Event::decode(kind, v)?,
        })
    }
}

/// Folds one run's event stream into its metrics registry: fill,
/// eviction, checkpoint, failure and reboot counters, the voltage gauge,
/// the cycle-length and recharge histograms, and a snapshot of every
/// counter and gauge at each `PowerFailure`, stamped with that event's
/// cycle and time.
///
/// A sink like any other, so it shares a run with the JSONL, Chrome and
/// flight streams; the metrics are a view of the events, not a second
/// channel out of the simulator.
#[derive(Debug, Clone)]
pub struct MetricsFold {
    registry: MetricsRegistry,
    compressed_fills: Counter,
    bypassed_fills: Counter,
    evictions: Counter,
    checkpoint_blocks: Counter,
    power_failures: Counter,
    reboots: Counter,
    voltage: Gauge,
    cycle_insts: HistogramId,
    charge_us: HistogramId,
}

impl Default for MetricsFold {
    fn default() -> Self {
        let mut m = MetricsRegistry::default();
        MetricsFold {
            compressed_fills: m.counter("fills_compressed"),
            bypassed_fills: m.counter("fills_bypassed"),
            evictions: m.counter("evictions"),
            checkpoint_blocks: m.counter("checkpoint_blocks"),
            power_failures: m.counter("power_failures"),
            reboots: m.counter("reboots"),
            voltage: m.gauge("voltage_v"),
            cycle_insts: m.histogram("cycle_insts", &[1e2, 5e2, 1e3, 5e3, 1e4, 5e4, 1e5]),
            charge_us: m.histogram("charge_us", &[1e2, 1e3, 1e4, 1e5, 1e6]),
            registry: m,
        }
    }
}

impl MetricsFold {
    /// Closes the run with an end-of-run snapshot at `(cycle, t_us)` —
    /// the run's closed power cycles and its final simulated time — so
    /// the last, unfinished cycle is covered too.
    pub fn finish(mut self, cycle: u64, t_us: f64) -> MetricsRegistry {
        self.registry.snapshot(cycle, t_us);
        self.registry
    }
}

impl Sink for MetricsFold {
    fn record(&mut self, ev: &Stamped) {
        let m = &mut self.registry;
        match ev.event {
            Event::CompressedFill { .. } => m.inc(self.compressed_fills, 1),
            Event::BypassedFill { .. } => m.inc(self.bypassed_fills, 1),
            Event::Eviction { count, .. } => m.inc(self.evictions, count as u64),
            Event::Checkpoint { blocks } => m.inc(self.checkpoint_blocks, blocks as u64),
            Event::PowerFailure { insts, voltage } => {
                m.inc(self.power_failures, 1);
                m.set(self.voltage, voltage);
                m.observe(self.cycle_insts, insts as f64);
                m.snapshot(ev.cycle, ev.t_us);
            }
            Event::Reboot { charge_us, voltage } => {
                m.inc(self.reboots, 1);
                m.set(self.voltage, voltage);
                m.observe(self.charge_us, charge_us);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One value through the strict stream reader.
    fn read_back(v: &Value) -> Result<Stamped, String> {
        let text = jsonl::to_string(std::slice::from_ref(v));
        let mut events = jsonl::read_records(&text, Stamped::decode).map_err(|(_, e)| e)?;
        Ok(events.remove(0))
    }

    fn samples() -> Vec<Stamped> {
        vec![
            Stamped { t_us: 0.5, cycle: 0, event: Event::CompressedFill { dcache: true } },
            Stamped {
                t_us: 1.25,
                cycle: 0,
                event: Event::ModeSwitch {
                    cm_to_rm: true,
                    registers: Registers {
                        r_prev: 900,
                        r_mem: 868,
                        r_adjust: -32,
                        r_thres: 32,
                        r_evict: 0,
                    },
                },
            },
            Stamped {
                t_us: 2.0,
                cycle: 0,
                event: Event::EstimatorSample { predicted_remaining: 900, actual_remaining: 912 },
            },
            Stamped {
                t_us: 2.0,
                cycle: 0,
                event: Event::PowerFailure { insts: 4096, voltage: 2.0 },
            },
            Stamped {
                t_us: 9.75,
                cycle: 1,
                event: Event::Reboot { charge_us: 7.75, voltage: 2.016 },
            },
            Stamped {
                t_us: 10.0,
                cycle: 1,
                event: Event::ThresholdAdjust { old: 32, new: 35, evicted: 0 },
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_value() {
        let all = vec![
            Event::PowerFailure { insts: 1, voltage: 1.99 },
            Event::Reboot { charge_us: 3.5, voltage: 2.016 },
            Event::Checkpoint { blocks: 12 },
            Event::ModeSwitch { cm_to_rm: false, registers: Registers::default() },
            Event::ThresholdAdjust { old: 64, new: 32, evicted: 9 },
            Event::CompressedFill { dcache: false },
            Event::BypassedFill { dcache: true },
            Event::Eviction { count: 2, dcache: true },
            Event::DecodeFault { blocks: 1 },
            Event::EstimatorSample { predicted_remaining: 7, actual_remaining: 9 },
            Event::FlightRecord(FlightRecord {
                insts: 4096,
                mem_ops: 812,
                predicted_remaining: 900,
                actual_remaining: 812,
                mode: "RM",
                late_compressions: 3,
                wasted_fills: 5,
                wasted_pj: 19.2,
                checkpoint_bytes: 1024,
                harvested_pj: 60_000.0,
                compress_pj: 42.0,
                decompress_pj: 17.5,
                cache_other_pj: 300.25,
                memory_pj: 12_000.0,
                checkpoint_restore_pj: 512.0,
                other_pj: 47_000.125,
                cap_leak_pj: 1_000.5,
                delta_stored_pj: 128.125,
            }),
            Event::LedgerImbalance { imbalance_pj: 1.75, tolerance_pj: 0.5 },
            Event::JobFailed { job: 3, reason: "simulation panicked: boom".to_string() },
            Event::JobTimedOut { job: 4, executed_insts: 1_000_000 },
            Event::RequestShed { admitted: 9, retry_after_ms: 250 },
            Event::ServerDrain { in_flight: 2, cache_entries: 31 },
        ];
        for (i, event) in all.into_iter().enumerate() {
            let s = Stamped { t_us: i as f64 + 0.125, cycle: i as u64, event };
            let back = read_back(&s.to_value()).expect("round trip");
            assert_eq!(back, s);
        }
    }

    #[test]
    fn wire_format_is_flat_and_greppable() {
        let s = &samples()[1];
        let text = serde_json::to_string(&s.to_value()).unwrap();
        assert!(text.starts_with("{\"t_us\":1.25,\"cycle\":0,\"kind\":\"ModeSwitch\""), "{text}");
        assert!(text.contains("\"r_adjust\":-32"));
    }

    #[test]
    fn flight_relevant_selects_decision_events_only() {
        assert!(Event::LedgerImbalance { imbalance_pj: 1.0, tolerance_pj: 0.5 }.flight_relevant());
        assert!(Event::ThresholdAdjust { old: 32, new: 35, evicted: 0 }.flight_relevant());
        assert!(Event::Reboot { charge_us: 1.0, voltage: 2.016 }.flight_relevant());
        assert!(!Event::CompressedFill { dcache: true }.flight_relevant());
        assert!(!Event::Checkpoint { blocks: 4 }.flight_relevant());
        assert!(!Event::PowerFailure { insts: 1, voltage: 2.0 }.flight_relevant());
    }

    #[test]
    fn flight_record_mode_is_validated_on_parse() {
        let record = FlightRecord { mode: "CM", ..FlightRecord::default() };
        let mut v = Stamped { t_us: 1.0, cycle: 0, event: Event::FlightRecord(record) }.to_value();
        if let Value::Object(members) = &mut v {
            for (k, val) in members.iter_mut() {
                if k == "mode" {
                    *val = Value::String("XX".to_string());
                }
            }
        }
        let err = read_back(&v).unwrap_err();
        assert!(err.contains("`mode`"), "{err}");
    }

    #[test]
    fn strict_parse_names_the_offending_field() {
        let err = read_back(&Value::Null).unwrap_err();
        assert!(err.contains("`kind`"), "{err}");

        let missing = serde_json::json!({"t_us": 1.0, "cycle": 0, "kind": "Eviction"});
        let err = read_back(&missing).unwrap_err();
        assert!(err.contains("`count`"), "{err}");

        let mistyped =
            serde_json::json!({"t_us": 1.0, "cycle": 0, "kind": "Eviction", "count": "two"});
        let err = read_back(&mistyped).unwrap_err();
        assert!(err.contains("`count`") && err.contains("not an unsigned integer"), "{err}");

        let no_stamp = serde_json::json!({"kind": "Checkpoint", "blocks": 4});
        let err = read_back(&no_stamp).unwrap_err();
        assert!(err.contains("`t_us`"), "{err}");

        let unknown = serde_json::json!({"t_us": 1.0, "cycle": 0, "kind": "Nope"});
        let err = read_back(&unknown).unwrap_err();
        assert!(err.contains("unknown event kind"), "{err}");
    }

    #[test]
    fn metrics_fold_counts_every_metric_event_and_snapshots_each_boundary() {
        let at = |t_us: f64, cycle: u64, event: Event| Stamped { t_us, cycle, event };
        let stream = [
            at(0.5, 0, Event::CompressedFill { dcache: true }),
            at(0.6, 0, Event::BypassedFill { dcache: false }),
            at(0.7, 0, Event::Eviction { count: 3, dcache: true }),
            at(1.0, 0, Event::Checkpoint { blocks: 5 }),
            at(1.5, 0, Event::EstimatorSample { predicted_remaining: 9, actual_remaining: 8 }),
            at(2.0, 0, Event::PowerFailure { insts: 4096, voltage: 2.0 }),
            at(9.75, 1, Event::Reboot { charge_us: 7.75, voltage: 2.016 }),
            at(12.0, 1, Event::Eviction { count: 2, dcache: false }),
            at(20.0, 1, Event::PowerFailure { insts: 700, voltage: 1.99 }),
        ];
        let mut fold = MetricsFold::default();
        for ev in &stream {
            fold.record(ev);
        }
        let mut m = fold.finish(2, 25.0);

        // Counters in registration order: fills compressed and bypassed,
        // evictions, checkpoint blocks, power failures, reboots.
        let snaps: Vec<_> = m
            .snapshots()
            .iter()
            .map(|s| (s.cycle, s.t_us, s.counters.clone(), s.gauges.clone()))
            .collect();
        assert_eq!(
            snaps,
            vec![
                (0, 2.0, vec![1, 1, 3, 5, 1, 0], vec![2.0]),
                (1, 20.0, vec![1, 1, 5, 5, 2, 1], vec![1.99]),
                (2, 25.0, vec![1, 1, 5, 5, 2, 1], vec![1.99]),
            ]
        );
        let cycle_insts = m.histogram("cycle_insts", &[]);
        assert_eq!(m.histogram_data(cycle_insts).count(), 2);
        assert_eq!(m.histogram_data(cycle_insts).mean(), 2398.0);
        let charge_us = m.histogram("charge_us", &[]);
        assert_eq!(m.histogram_data(charge_us).count(), 1);
        assert_eq!(m.histogram_data(charge_us).max(), 7.75);
    }
}
