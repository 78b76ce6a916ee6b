//! A concrete governor instance for the simulator, covering every policy
//! combination the evaluation needs (including the oracle's two phases).

use ehs_cache::{FillMode, HitInfo};
use kagura_core::{
    Acc, AlwaysCompress, CompressionGovernor, Kagura, KaguraConfig, NeverCompress, OracleRecorder,
    OracleReplayer, OracleTrace, RandThresholdConfig, RandomizedThreshold, TriggerKind,
};

/// All governor configurations the simulator can run.
///
/// This enum gives the hot loop static dispatch and lets the simulator ask
/// oracle-specific questions ([`Governor::record_fill`] /
/// [`Governor::mark_useful`]) without downcasting.
#[derive(Debug, Clone)]
pub enum Governor {
    /// No compression.
    None(NeverCompress),
    /// Compress everything.
    Always(AlwaysCompress),
    /// ACC alone.
    Acc(Acc),
    /// ACC + Kagura.
    Kagura(Kagura<Acc>),
    /// Oracle recording phase over ACC.
    RecordAcc(OracleRecorder<Acc>),
    /// Oracle replay phase over ACC.
    ReplayAcc(OracleReplayer<Acc>),
    /// Oracle recording phase over ACC + Kagura.
    RecordKagura(OracleRecorder<Kagura<Acc>>),
    /// Oracle replay phase over ACC + Kagura.
    ReplayKagura(OracleReplayer<Kagura<Acc>>),
    /// Randomized compression threshold (side-channel countermeasure).
    RandThreshold(RandomizedThreshold),
}

macro_rules! delegate {
    ($self:ident, $g:ident => $e:expr) => {
        match $self {
            Governor::None($g) => $e,
            Governor::Always($g) => $e,
            Governor::Acc($g) => $e,
            Governor::Kagura($g) => $e,
            Governor::RecordAcc($g) => $e,
            Governor::ReplayAcc($g) => $e,
            Governor::RecordKagura($g) => $e,
            Governor::ReplayKagura($g) => $e,
            Governor::RandThreshold($g) => $e,
        }
    };
}

impl Governor {
    /// No-compression baseline.
    pub fn none() -> Self {
        Governor::None(NeverCompress)
    }

    /// Unconditional compression.
    pub fn always() -> Self {
        Governor::Always(AlwaysCompress)
    }

    /// ACC alone.
    pub fn acc() -> Self {
        Governor::Acc(Acc::new())
    }

    /// ACC wrapped by Kagura.
    pub fn kagura(cfg: KaguraConfig) -> Self {
        Governor::Kagura(Kagura::new(cfg, Acc::new()))
    }

    /// Oracle recording phase over ACC.
    pub fn record_acc() -> Self {
        Governor::RecordAcc(OracleRecorder::new(Acc::new()))
    }

    /// Oracle replay phase over ACC.
    pub fn replay_acc(trace: OracleTrace) -> Self {
        Governor::ReplayAcc(OracleReplayer::new(Acc::new(), trace))
    }

    /// Randomized compression threshold (side-channel countermeasure).
    pub fn rand_threshold(cfg: RandThresholdConfig) -> Self {
        Governor::RandThreshold(RandomizedThreshold::new(cfg))
    }

    /// Oracle recording phase over ACC + Kagura.
    pub fn record_kagura(cfg: KaguraConfig) -> Self {
        Governor::RecordKagura(OracleRecorder::new(Kagura::new(cfg, Acc::new())))
    }

    /// Oracle replay phase over ACC + Kagura.
    pub fn replay_kagura(cfg: KaguraConfig, trace: OracleTrace) -> Self {
        Governor::ReplayKagura(OracleReplayer::new(Kagura::new(cfg, Acc::new()), trace))
    }

    /// `true` when the policy needs a voltage-trigger threshold on the
    /// monitor (Kagura with [`TriggerKind::Voltage`]).
    pub fn uses_voltage_trigger(&self) -> bool {
        matches!(self, Governor::Kagura(k)
            if matches!(k.config().trigger, TriggerKind::Voltage { .. }))
    }

    /// `true` when [`CompressionGovernor::on_voltage`] can observably act
    /// for this policy, i.e. the per-instruction voltage sample must not be
    /// skipped. Only Kagura reacts to voltage (and only with a
    /// [`TriggerKind::Voltage`] trigger); the oracle wrappers delegate
    /// `on_voltage` to their inner Kagura, so its trigger decides for them.
    pub fn voltage_sensitive(&self) -> bool {
        let kagura = match self {
            Governor::Kagura(k) => k,
            Governor::RecordKagura(r) => r.inner(),
            Governor::ReplayKagura(r) => r.inner(),
            _ => return false,
        };
        matches!(kagura.config().trigger, TriggerKind::Voltage { .. })
    }

    /// Oracle recording: registers a compressing fill, returning its id.
    pub fn record_fill(&mut self) -> Option<usize> {
        match self {
            Governor::RecordAcc(r) => Some(r.record_fill()),
            Governor::RecordKagura(r) => Some(r.record_fill()),
            _ => None,
        }
    }

    /// Oracle recording: marks a previously recorded fill as useful.
    pub fn mark_useful(&mut self, fill_id: usize) {
        match self {
            Governor::RecordAcc(r) => r.mark_useful(fill_id),
            Governor::RecordKagura(r) => r.mark_useful(fill_id),
            _ => {}
        }
    }

    /// Oracle recording: extracts the trace (consumes the governor);
    /// `None` for non-recording variants.
    pub fn into_oracle_trace(self) -> Option<OracleTrace> {
        match self {
            Governor::RecordAcc(r) => Some(r.into_trace()),
            Governor::RecordKagura(r) => Some(r.into_trace()),
            _ => None,
        }
    }

    /// `true` for the oracle recording variants.
    pub fn is_recorder(&self) -> bool {
        matches!(self, Governor::RecordAcc(_) | Governor::RecordKagura(_))
    }

    /// Starts collecting controller events on policies that produce them
    /// (Kagura); a no-op elsewhere. The oracle variants are deliberately
    /// left un-instrumented — their Kagura runs inside record/replay
    /// adapters and does not represent the deployed controller.
    pub fn enable_event_log(&mut self) {
        if let Governor::Kagura(k) = self {
            k.enable_event_log();
        }
    }

    /// `true` when controller events are pending drainage. Kept cheap so
    /// instrumented hot paths can branch on it before paying for a drain.
    pub fn events_pending(&self) -> bool {
        match self {
            Governor::Kagura(k) => !k.events_empty(),
            _ => false,
        }
    }

    /// Hands every pending controller event to `f`, in emission order.
    pub fn drain_events(&mut self, f: impl FnMut(ehs_telemetry::Event)) {
        if let Governor::Kagura(k) = self {
            k.drain_events(f);
        }
    }

    /// Kagura's register file and current mode, for the flight recorder;
    /// `None` for policies without the Kagura controller (including the
    /// oracle variants, whose embedded Kagura is not the deployed one).
    pub fn kagura_snapshot(&self) -> Option<(KaguraRegisters, kagura_core::Mode)> {
        match self {
            Governor::Kagura(k) => Some((k.registers(), k.mode())),
            _ => None,
        }
    }
}

/// Kagura's register file `(R_prev, R_mem, R_adjust, R_thres, R_evict)`
/// as returned by [`Governor::kagura_snapshot`].
pub type KaguraRegisters = (u64, u64, i64, u64, u64);

impl CompressionGovernor for Governor {
    fn fill_mode(&mut self) -> FillMode {
        delegate!(self, g => g.fill_mode())
    }

    fn compression_enabled(&self) -> bool {
        delegate!(self, g => g.compression_enabled())
    }

    fn on_hit(&mut self, info: &HitInfo, ways: u32) {
        delegate!(self, g => g.on_hit(info, ways))
    }

    fn on_fill(&mut self, stored_compressed: bool) {
        delegate!(self, g => g.on_fill(stored_compressed))
    }

    fn on_mem_commit(&mut self) {
        delegate!(self, g => g.on_mem_commit())
    }

    fn on_evictions(&mut self, count: u32) {
        delegate!(self, g => g.on_evictions(count))
    }

    fn on_voltage(&mut self, v: f64, v_ckpt: f64, v_rst: f64) {
        delegate!(self, g => g.on_voltage(v, v_ckpt, v_rst))
    }

    fn on_power_failure(&mut self) {
        delegate!(self, g => g.on_power_failure())
    }

    fn on_reboot(&mut self) {
        delegate!(self, g => g.on_reboot())
    }

    fn name(&self) -> &'static str {
        delegate!(self, g => g.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_modes() {
        assert_eq!(Governor::none().fill_mode(), FillMode::Bypass);
        assert_eq!(Governor::always().fill_mode(), FillMode::Compress);
        assert_eq!(Governor::acc().fill_mode(), FillMode::Compress);
        assert_eq!(Governor::kagura(KaguraConfig::default()).fill_mode(), FillMode::Compress);
    }

    #[test]
    fn oracle_record_and_replay_round_trip() {
        let mut rec = Governor::record_acc();
        // Cycle 0: a useful fill at mem position 2, then a useless one.
        rec.on_mem_commit();
        rec.on_mem_commit();
        let id = rec.record_fill().expect("recorder records");
        rec.mark_useful(id);
        rec.on_mem_commit();
        let _ = rec.record_fill();
        let trace = rec.into_oracle_trace().expect("recorder yields a trace");
        assert_eq!(trace.switch_point(0), Some(3));

        let mut rep = Governor::replay_acc(trace);
        assert_eq!(rep.fill_mode(), FillMode::Compress); // before switch point
        for _ in 0..3 {
            rep.on_mem_commit();
        }
        assert_eq!(rep.fill_mode(), FillMode::Bypass); // past switch point
        assert_eq!(rep.record_fill(), None, "replayer does not record");
    }

    #[test]
    fn voltage_trigger_detection() {
        let mem = Governor::kagura(KaguraConfig::default());
        assert!(!mem.uses_voltage_trigger());
        let vol = Governor::kagura(KaguraConfig {
            trigger: TriggerKind::Voltage { fraction: 0.2 },
            ..KaguraConfig::default()
        });
        assert!(vol.uses_voltage_trigger());
    }

    #[test]
    fn oracle_wrappers_take_their_inner_trigger() {
        let voltage =
            KaguraConfig { trigger: TriggerKind::Voltage { fraction: 0.2 }, ..Default::default() };
        let trace = || Governor::record_acc().into_oracle_trace().expect("recorder");
        for (cfg, sensitive) in [(KaguraConfig::default(), false), (voltage, true)] {
            assert_eq!(Governor::kagura(cfg).voltage_sensitive(), sensitive);
            assert_eq!(Governor::record_kagura(cfg).voltage_sensitive(), sensitive);
            assert_eq!(Governor::replay_kagura(cfg, trace()).voltage_sensitive(), sensitive);
        }
        assert!(!Governor::record_acc().voltage_sensitive());
    }

    #[test]
    fn non_recorder_cannot_yield_trace() {
        assert!(Governor::acc().into_oracle_trace().is_none());
        assert!(!Governor::acc().is_recorder());
        assert!(Governor::record_acc().is_recorder());
    }
}
