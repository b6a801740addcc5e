//! The per-core observability probe the cycle loop talks to.
//!
//! [`PipelineObs`] bundles the occupancy histograms and optional event
//! trace for one core. The core owns it as `Option<Box<PipelineObs>>`,
//! so when observability is disabled the hot path pays exactly one
//! `Option` check per cycle and performs **no allocation** —
//! [`ObsConfig::default`] is fully off.

use crate::hist::Histogram;
use crate::metrics::MetricsSnapshot;
use crate::trace::{Event, EventKind, EventTrace};

/// What to observe during a run. The default is everything off: the
/// simulator then never constructs a [`PipelineObs`] at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ObsConfig {
    /// Sample ROB/IQ/LQ/SQ/MSHR fill levels every cycle into
    /// occupancy histograms.
    pub occupancy: bool,
    /// Keep up to this many structured pipeline events (0 disables the
    /// event trace).
    pub trace_capacity: usize,
}

impl ObsConfig {
    /// Everything off (the allocation-free default).
    pub const OFF: ObsConfig = ObsConfig { occupancy: false, trace_capacity: 0 };

    /// Occupancy histograms only — the cheap always-on-able profile.
    #[must_use]
    pub fn occupancy() -> Self {
        ObsConfig { occupancy: true, trace_capacity: 0 }
    }

    /// Occupancy histograms plus an event trace bounded at `capacity`
    /// events.
    #[must_use]
    pub fn full(capacity: usize) -> Self {
        ObsConfig { occupancy: true, trace_capacity: capacity }
    }

    /// Whether any observation is requested (if `false`, no
    /// [`PipelineObs`] should be constructed).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.occupancy || self.trace_capacity > 0
    }
}

/// Capacities of the sampled pipeline structures, used to size the
/// occupancy histogram buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueCaps {
    /// Reorder-buffer entries.
    pub rob: usize,
    /// Issue-queue entries.
    pub iq: usize,
    /// Load-queue entries.
    pub lq: usize,
    /// Store-queue entries.
    pub sq: usize,
    /// L1 MSHR entries.
    pub mshr: usize,
}

/// Occupancy histograms + optional event trace for one core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineObs {
    cfg: ObsConfig,
    /// ROB fill level per cycle.
    pub rob: Histogram,
    /// Issue-queue fill level per cycle.
    pub iq: Histogram,
    /// Load-queue fill level per cycle.
    pub lq: Histogram,
    /// Store-queue fill level per cycle.
    pub sq: Histogram,
    /// L1 MSHR fill level per cycle.
    pub mshr: Histogram,
    trace: Option<EventTrace>,
}

impl PipelineObs {
    /// A probe for a core whose structures have the given capacities.
    #[must_use]
    pub fn new(cfg: ObsConfig, caps: QueueCaps) -> Self {
        PipelineObs {
            cfg,
            rob: Histogram::occupancy(caps.rob),
            iq: Histogram::occupancy(caps.iq),
            lq: Histogram::occupancy(caps.lq),
            sq: Histogram::occupancy(caps.sq),
            mshr: Histogram::occupancy(caps.mshr),
            trace: (cfg.trace_capacity > 0).then(|| EventTrace::with_capacity(cfg.trace_capacity)),
        }
    }

    /// Whether the caller should gather occupancy inputs this cycle
    /// (lets the core skip the MSHR scan when sampling is off).
    #[inline]
    #[must_use]
    pub fn wants_occupancy(&self) -> bool {
        self.cfg.occupancy
    }

    /// Records one cycle's fill levels (no-op unless
    /// [`ObsConfig::occupancy`] is set).
    #[inline]
    pub fn sample(&mut self, rob: u64, iq: u64, lq: u64, sq: u64, mshr: u64) {
        if self.cfg.occupancy {
            self.rob.record(rob);
            self.iq.record(iq);
            self.lq.record(lq);
            self.sq.record(sq);
            self.mshr.record(mshr);
        }
    }

    /// Records `n` identical cycles' fill levels in one step (no-op
    /// unless [`ObsConfig::occupancy`] is set). Equivalent to calling
    /// [`PipelineObs::sample`] with the same values `n` times — used by
    /// the core's quiescence fast-forward, where fill levels are
    /// provably constant over the skipped interval.
    #[inline]
    pub fn sample_n(&mut self, rob: u64, iq: u64, lq: u64, sq: u64, mshr: u64, n: u64) {
        if self.cfg.occupancy {
            self.rob.record_n(rob, n);
            self.iq.record_n(iq, n);
            self.lq.record_n(lq, n);
            self.sq.record_n(sq, n);
            self.mshr.record_n(mshr, n);
        }
    }

    /// Records one pipeline event (no-op unless an event trace was
    /// configured).
    #[inline]
    pub fn emit(&mut self, cycle: u64, seq: u64, pc: u64, kind: EventKind) {
        if let Some(t) = &mut self.trace {
            t.record(Event { cycle, seq, pc, kind });
        }
    }

    /// The event trace, if one was configured.
    #[must_use]
    pub fn trace(&self) -> Option<&EventTrace> {
        self.trace.as_ref()
    }

    /// The configuration this probe was built with.
    #[must_use]
    pub fn config(&self) -> ObsConfig {
        self.cfg
    }

    /// Registers the occupancy histograms (and trace drop counter, if
    /// tracing) under `prefix` in `m`, e.g.
    /// `pipeline.occupancy.rob`.
    pub fn export(&self, m: &mut MetricsSnapshot, prefix: &str) {
        if self.cfg.occupancy {
            m.add_histogram(&format!("{prefix}.occupancy.rob"), &self.rob);
            m.add_histogram(&format!("{prefix}.occupancy.iq"), &self.iq);
            m.add_histogram(&format!("{prefix}.occupancy.lq"), &self.lq);
            m.add_histogram(&format!("{prefix}.occupancy.sq"), &self.sq);
            m.add_histogram(&format!("{prefix}.occupancy.mshr"), &self.mshr);
        }
        if let Some(t) = &self.trace {
            m.add(&format!("{prefix}.trace.events"), t.events().len() as u64);
            m.add(&format!("{prefix}.trace.dropped"), t.dropped());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SquashCause;

    const CAPS: QueueCaps = QueueCaps { rob: 192, iq: 32, lq: 32, sq: 32, mshr: 16 };

    #[test]
    fn default_config_is_off() {
        assert!(!ObsConfig::default().enabled());
        assert_eq!(ObsConfig::default(), ObsConfig::OFF);
        assert!(ObsConfig::occupancy().enabled());
        assert!(ObsConfig::full(1024).enabled());
    }

    #[test]
    fn sampling_respects_config() {
        let mut off = PipelineObs::new(ObsConfig { occupancy: false, trace_capacity: 8 }, CAPS);
        off.sample(10, 1, 2, 3, 4);
        assert_eq!(off.rob.count(), 0);
        assert!(!off.wants_occupancy());

        let mut on = PipelineObs::new(ObsConfig::occupancy(), CAPS);
        on.sample(10, 1, 2, 3, 4);
        assert_eq!(on.rob.count(), 1);
        assert_eq!(on.mshr.sum(), 4);
        assert!(on.trace().is_none());
    }

    #[test]
    fn sample_n_equals_repeated_sample() {
        let mut bulk = PipelineObs::new(ObsConfig::occupancy(), CAPS);
        bulk.sample_n(10, 1, 2, 3, 4, 25);
        let mut stepped = PipelineObs::new(ObsConfig::occupancy(), CAPS);
        for _ in 0..25 {
            stepped.sample(10, 1, 2, 3, 4);
        }
        assert_eq!(bulk, stepped);

        let mut off = PipelineObs::new(ObsConfig::OFF, CAPS);
        off.sample_n(10, 1, 2, 3, 4, 25);
        assert_eq!(off.rob.count(), 0);
    }

    #[test]
    fn emit_respects_config() {
        let mut no_trace = PipelineObs::new(ObsConfig::occupancy(), CAPS);
        no_trace.emit(1, 0, 0, EventKind::Dispatch);
        assert!(no_trace.trace().is_none());

        let mut traced = PipelineObs::new(ObsConfig::full(4), CAPS);
        traced.emit(1, 0, 0, EventKind::Dispatch);
        traced.emit(2, 0, 0, EventKind::Squash { cause: SquashCause::Branch });
        assert_eq!(traced.trace().unwrap().events().len(), 2);
    }

    #[test]
    fn export_registers_expected_paths() {
        let mut obs = PipelineObs::new(ObsConfig::full(4), CAPS);
        obs.sample(10, 1, 2, 3, 4);
        obs.emit(1, 0, 0, EventKind::Dispatch);
        let mut m = MetricsSnapshot::new();
        obs.export(&mut m, "pipeline");
        assert!(m.histogram("pipeline.occupancy.rob").is_some());
        assert!(m.histogram("pipeline.occupancy.mshr").is_some());
        assert_eq!(m.counter("pipeline.trace.events"), Some(1));
        assert_eq!(m.counter("pipeline.trace.dropped"), Some(0));
    }
}
