//! Energy-harvesting front end: capacitor, voltage monitor, ambient power
//! traces and energy accounting.
//!
//! This crate models everything between the ambient energy source and the
//! processor's power rail:
//!
//! * [`PowerTrace`] — the harvested input. The paper feeds its simulator a
//!   text file of average power per 10 µs window recorded from real RF,
//!   solar and thermal harvesters; we generate statistically matched
//!   synthetic traces (see [`trace::TraceKind`]) in the *same format*,
//!   including text-file round-tripping.
//! * [`Capacitor`] — the energy buffer. Charges from the trace, drains per
//!   simulated event, leaks in proportion to its size, and exposes the two
//!   voltage thresholds that define the intermittent-execution state
//!   machine (`V_ckpt`: JIT-checkpoint-and-die, `V_rst`: reboot).
//! * [`VoltageMonitor`] — the always-on comparator hardware. Its standby
//!   draw is what makes voltage-based Kagura triggers expensive on EHS
//!   designs that otherwise avoid a monitor (paper §VIII-H2).
//! * [`EnergyBreakdown`] — per-category accounting matching the six
//!   portions of the paper's Fig 16.
//!
//! # Examples
//!
//! ```
//! use ehs_energy::{Capacitor, CapacitorConfig};
//! use ehs_model::Energy;
//!
//! let mut cap = Capacitor::new(CapacitorConfig::default_4u7());
//! cap.charge_to_full();
//! assert!(cap.voltage() >= cap.config().v_rst);
//! cap.drain(Energy::from_nanojoules(10.0));
//! assert!(cap.voltage() < cap.config().v_max);
//! ```

pub mod accounting;
pub mod capacitor;
pub mod ledger;
pub mod monitor;
pub mod trace;

pub use accounting::{EnergyBreakdown, EnergyCategory};
pub use capacitor::{Capacitor, CapacitorConfig};
pub use ledger::{LedgerImbalance, LedgerRow};
pub use monitor::VoltageMonitor;
pub use trace::{PowerTrace, TraceError, TraceKind, TraceStats, TraceWindow, DEFAULT_TRACE_LEN};
