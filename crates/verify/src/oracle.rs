//! Dynamic invariant oracle over the pipeline event stream.
//!
//! The secret-swap checker proves *observable* equality; this oracle
//! proves the *mechanism* behaved: it scans the full (unprojected)
//! [`Event`] stream of a run and flags any event that contradicts the
//! paper's safety argument, independently of whether a leak was
//! actually measurable. Each [`Invariant`] maps to a Section VII proof
//! obligation:
//!
//! * [`Invariant::TaintedLoad`] — under any protection, a tainted load
//!   must never issue as a normal (cache-filling) demand load; it is
//!   either delayed (STT) or issued obliviously (SDO). Claim 1's
//!   premise that unsafe loads never reach the cache as transmitters.
//! * [`Invariant::TaintedFpTransmit`] — under a variant that closes the
//!   FP-timing channel, a tainted FP transmit micro-op must never issue
//!   with operand-dependent latency (Section I-A / Table II).
//! * [`Invariant::TaintedTraining`] — predictors (location, branch,
//!   BTB) must never train on tainted state (Equation 2: predictions
//!   are functions of non-speculative data).
//! * [`Invariant::TouchBeyondPrediction`] — an Obl-Ld must never
//!   receive a response from a level deeper than its predicted slice
//!   (Definition 2: resource usage is fixed by the prediction, which is
//!   a function of the PC only).
//! * [`Invariant::PreSafeAction`] — validations, exposures, SDO
//!   squashes and predictor training for an oblivious load are legal
//!   only at or after its untaint point (Figure 2, lines 11–16); any
//!   such event before the load's `OblSafe` marker is a violation.
//!
//! The oracle is a post-hoc scan, not a pipeline hook: it consumes the
//! same bounded trace the observability layer already records, so it
//! can never perturb timing.

use crate::policy;
use sdo_harness::Variant;
use sdo_obs::{Event, EventKind, MemOp, SquashCause};
use sdo_workloads::Channel;
use std::collections::BTreeMap;

/// A Section VII proof obligation the oracle checks dynamically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// A tainted operand reached a non-oblivious load's issue port.
    TaintedLoad,
    /// A tainted FP transmit issued with operand-dependent timing.
    TaintedFpTransmit,
    /// A predictor trained on tainted state.
    TaintedTraining,
    /// An Obl-Ld touched a cache level beyond its predicted slice.
    TouchBeyondPrediction,
    /// A validation/exposure/SDO-squash/training fired before the
    /// load's untaint point.
    PreSafeAction,
}

impl Invariant {
    /// Stable name used in counterexample reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Invariant::TaintedLoad => "tainted_load",
            Invariant::TaintedFpTransmit => "tainted_fp_transmit",
            Invariant::TaintedTraining => "tainted_training",
            Invariant::TouchBeyondPrediction => "touch_beyond_prediction",
            Invariant::PreSafeAction => "pre_safe_action",
        }
    }

    /// Parses a name produced by [`Invariant::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Invariant> {
        Some(match s {
            "tainted_load" => Invariant::TaintedLoad,
            "tainted_fp_transmit" => Invariant::TaintedFpTransmit,
            "tainted_training" => Invariant::TaintedTraining,
            "touch_beyond_prediction" => Invariant::TouchBeyondPrediction,
            "pre_safe_action" => Invariant::PreSafeAction,
            _ => return None,
        })
    }
}

/// One oracle finding: the invariant broken, where in the event stream,
/// and a one-line explanation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The obligation that failed.
    pub invariant: Invariant,
    /// Index of the offending event in the full trace.
    pub index: usize,
    /// The offending event itself.
    pub event: Event,
    /// Human-readable explanation.
    pub detail: String,
}

/// Per-Obl-Ld bookkeeping while scanning.
struct OblState {
    predicted: u8,
    safe: bool,
}

/// Scans a run's full event stream for invariant violations under
/// `variant`'s protection contract. Returns every violation in stream
/// order (empty = the mechanism behaved).
#[must_use]
pub fn check(variant: Variant, events: &[Event]) -> Vec<Violation> {
    let loads_protected = policy::protects_loads(variant);
    let fp_protected = policy::closes(variant, Channel::FpTiming);
    let mut obl: BTreeMap<u64, OblState> = BTreeMap::new();
    let mut out = Vec::new();
    let mut flag = |inv: Invariant, index: usize, event: Event, detail: String| {
        out.push(Violation { invariant: inv, index, event, detail });
    };
    for (i, &ev) in events.iter().enumerate() {
        // Pre-safe ordering: any sensitive action tagged with an
        // oblivious load's seq must trace at or after its OblSafe.
        let pre_safe = obl.get(&ev.seq).is_some_and(|st| !st.safe);
        match ev.kind {
            EventKind::OblProbe { level } => {
                obl.insert(ev.seq, OblState { predicted: level, safe: false });
            }
            EventKind::OblSafe => {
                if let Some(st) = obl.get_mut(&ev.seq) {
                    st.safe = true;
                }
            }
            EventKind::OblTouch { level } => {
                if let Some(st) = obl.get(&ev.seq) {
                    if level > st.predicted {
                        flag(
                            Invariant::TouchBeyondPrediction,
                            i,
                            ev,
                            format!(
                                "Obl-Ld seq {} predicted level {} but touched level {level}",
                                ev.seq, st.predicted
                            ),
                        );
                    }
                }
            }
            EventKind::MemAccess { op: MemOp::Load, tainted: true, line } if loads_protected => {
                flag(
                    Invariant::TaintedLoad,
                    i,
                    ev,
                    format!("tainted demand load of line {line} issued at cycle {}", ev.cycle),
                );
            }
            EventKind::MemAccess { op: MemOp::Validate | MemOp::Expose, .. }
            | EventKind::Validate { .. }
            | EventKind::Expose
            | EventKind::Squash { cause: SquashCause::OblFail | SquashCause::Validation }
                if pre_safe =>
            {
                flag(
                    Invariant::PreSafeAction,
                    i,
                    ev,
                    format!(
                        "{} for Obl-Ld seq {} before its Safe event",
                        ev.kind.name(),
                        ev.seq
                    ),
                );
            }
            EventKind::FpTransmit { tainted: true, oblivious: false } if fp_protected => {
                flag(
                    Invariant::TaintedFpTransmit,
                    i,
                    ev,
                    format!("tainted FP transmit issued non-obliviously at cycle {}", ev.cycle),
                );
            }
            EventKind::PredictorUpdate { tainted } => {
                if pre_safe {
                    flag(
                        Invariant::PreSafeAction,
                        i,
                        ev,
                        format!("predictor trained for Obl-Ld seq {} before its Safe event", ev.seq),
                    );
                }
                if tainted && loads_protected {
                    flag(
                        Invariant::TaintedTraining,
                        i,
                        ev,
                        format!("predictor trained on tainted state at cycle {}", ev.cycle),
                    );
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, seq: u64, kind: EventKind) -> Event {
        Event { cycle, seq, pc: 4 * seq, kind }
    }

    #[test]
    fn clean_sdo_trace_passes() {
        let events = [
            ev(1, 0, EventKind::Dispatch),
            ev(2, 0, EventKind::OblProbe { level: 2 }),
            ev(5, 0, EventKind::OblTouch { level: 1 }),
            ev(9, 0, EventKind::OblTouch { level: 2 }),
            ev(12, 0, EventKind::OblSafe),
            ev(13, 0, EventKind::Validate { matched: true }),
            ev(13, 0, EventKind::PredictorUpdate { tainted: false }),
            ev(20, 0, EventKind::Commit),
        ];
        assert!(check(Variant::Hybrid, &events).is_empty());
    }

    #[test]
    fn tainted_load_flags_only_under_protection() {
        let events = [ev(3, 1, EventKind::MemAccess { line: 7, op: MemOp::Load, tainted: true })];
        let v = check(Variant::SttLd, &events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::TaintedLoad);
        assert!(check(Variant::Unsafe, &events).is_empty(), "Unsafe has no contract");
    }

    #[test]
    fn tainted_fp_transmit_respects_channel_policy() {
        let events = [ev(3, 1, EventKind::FpTransmit { tainted: true, oblivious: false })];
        assert!(check(Variant::SttLd, &events).is_empty(), "STT{{ld}} leaves FP open");
        let v = check(Variant::SttLdFp, &events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::TaintedFpTransmit);
        // The oblivious variant of the same op is fine everywhere.
        let obl = [ev(3, 1, EventKind::FpTransmit { tainted: true, oblivious: true })];
        assert!(check(Variant::Hybrid, &obl).is_empty());
    }

    #[test]
    fn touch_beyond_prediction_is_flagged() {
        let events = [
            ev(2, 0, EventKind::OblProbe { level: 1 }),
            ev(5, 0, EventKind::OblTouch { level: 2 }),
        ];
        let v = check(Variant::StaticL1, &events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::TouchBeyondPrediction);
    }

    #[test]
    fn pre_safe_actions_are_flagged_and_post_safe_are_not() {
        let pre = [
            ev(2, 0, EventKind::OblProbe { level: 2 }),
            ev(5, 0, EventKind::Validate { matched: true }),
        ];
        let v = check(Variant::Hybrid, &pre);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::PreSafeAction);

        let post = [
            ev(2, 0, EventKind::OblProbe { level: 2 }),
            ev(6, 0, EventKind::OblSafe),
            ev(7, 0, EventKind::Squash { cause: SquashCause::OblFail }),
        ];
        assert!(check(Variant::Hybrid, &post).is_empty());
    }

    #[test]
    fn tainted_training_is_flagged() {
        let events = [ev(9, 3, EventKind::PredictorUpdate { tainted: true })];
        let v = check(Variant::Hybrid, &events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::TaintedTraining);
    }

    #[test]
    fn invariant_names_round_trip() {
        for inv in [
            Invariant::TaintedLoad,
            Invariant::TaintedFpTransmit,
            Invariant::TaintedTraining,
            Invariant::TouchBeyondPrediction,
            Invariant::PreSafeAction,
        ] {
            assert_eq!(Invariant::parse(inv.name()), Some(inv));
        }
        assert_eq!(Invariant::parse("nope"), None);
    }
}
