//! Structured pipeline event trace with bounded buffering and a JSONL
//! wire format.
//!
//! [`EventTrace`] records machine-readable [`Event`]s — one JSON object
//! per line — so external tooling can reconstruct the exact interleaving
//! of dispatch, issue, commit, oblivious probes, validations, exposures
//! and squashes. The buffer is capacity-bounded: once full, further
//! events are counted in [`EventTrace::dropped`] instead of allocated,
//! keeping long runs memory-safe.
//!
//! The format round-trips: [`EventTrace::to_jsonl`] output parses back
//! with [`EventTrace::parse_jsonl`] into equal events. Both directions
//! go through the shared [`json`](crate::json) codec, and the writer
//! matches [`EventKind`] exhaustively, so a new event kind does not
//! compile until it has a wire form.

use crate::json::{obj, parse_json, Json};

/// Why a pipeline squash happened (mirrors
/// `sdo_uarch::stats::SquashCounts` one-to-one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SquashCause {
    /// Branch misprediction.
    Branch,
    /// SDO oblivious-load FSM failure (no level accepted the probe).
    OblFail,
    /// Validation mismatch (value changed between probe and commit).
    Validation,
    /// Memory consistency violation detected at resolve.
    Consistency,
    /// Floating-point SDO fallback failure.
    FpFail,
}

impl SquashCause {
    /// Stable wire name used in the JSONL `cause` field.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SquashCause::Branch => "branch",
            SquashCause::OblFail => "obl_fail",
            SquashCause::Validation => "validation",
            SquashCause::Consistency => "consistency",
            SquashCause::FpFail => "fp_fail",
        }
    }

    fn parse(s: &str) -> Option<SquashCause> {
        Some(match s {
            "branch" => SquashCause::Branch,
            "obl_fail" => SquashCause::OblFail,
            "validation" => SquashCause::Validation,
            "consistency" => SquashCause::Consistency,
            "fp_fail" => SquashCause::FpFail,
            _ => return None,
        })
    }
}

/// Which kind of cache-state-changing access a
/// [`EventKind::MemAccess`] records. Oblivious probes are deliberately
/// *not* in this set: they never fill or touch replacement state, so
/// they are not part of the attacker-visible cache-touch sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// A demand load sent down the cache hierarchy (fills on miss).
    Load,
    /// A committed store.
    Store,
    /// An InvisiSpec-style validation re-read (a normal, filling load).
    Validate,
    /// An exposure access (safe re-execution that may fill).
    Expose,
}

impl MemOp {
    /// Stable wire name used in the JSONL `op` field.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MemOp::Load => "load",
            MemOp::Store => "store",
            MemOp::Validate => "validate",
            MemOp::Expose => "expose",
        }
    }

    fn parse(s: &str) -> Option<MemOp> {
        Some(match s {
            "load" => MemOp::Load,
            "store" => MemOp::Store,
            "validate" => MemOp::Validate,
            "expose" => MemOp::Expose,
            _ => return None,
        })
    }
}

/// What happened to an instruction at a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Entered the ROB (and IQ / LQ / SQ as appropriate).
    Dispatch,
    /// Left the issue queue for a functional unit or the memory system.
    Issue,
    /// Retired architecturally.
    Commit,
    /// SDO oblivious lookup issued; `level` is the predicted cache
    /// level (1–3) or 4 for DRAM.
    OblProbe {
        /// Predicted service level: 1 = L1, 2 = L2, 3 = L3, 4 = DRAM.
        level: u8,
    },
    /// InvisiSpec-style validation access; `matched` is whether the
    /// re-read value equalled the obliviously obtained one.
    Validate {
        /// Whether validation matched (mismatch forces a squash).
        matched: bool,
    },
    /// Exposure access (safe re-execution that may update cache state).
    Expose,
    /// Pipeline squash with its root cause.
    Squash {
        /// Root cause recorded by the squash site.
        cause: SquashCause,
    },
    /// A cache-state-changing memory access: the attacker-visible
    /// cache-touch sequence (demand loads, committed stores,
    /// validations, exposures). `tainted` is the STT taint status of the
    /// access's operands at the access — the invariant oracle's input.
    MemAccess {
        /// Cache line index touched (byte address / 64).
        line: u64,
        /// What kind of access.
        op: MemOp,
        /// Whether the operands were STT-tainted when the access issued.
        tainted: bool,
    },
    /// A transmit-class FP op (mul/div/sqrt) left the issue queue.
    FpTransmit {
        /// Whether its operands were STT-tainted at issue.
        tainted: bool,
        /// Whether it executed as the data-oblivious (predict-normal)
        /// variant rather than with operand-dependent latency/occupancy.
        oblivious: bool,
    },
    /// A predictor (location / branch / BTB) was trained.
    PredictorUpdate {
        /// Whether the training input derived from tainted state.
        tainted: bool,
    },
    /// A per-level Obl-Ld response arrived at the wait buffer: the
    /// deepest level an oblivious load actually touched is the max of
    /// these (the oracle checks it never exceeds the predicted slice).
    OblTouch {
        /// Responding level: 1 = L1, 2 = L2, 3 = L3, 4 = DRAM.
        level: u8,
    },
    /// An Obl-Ld's address operand untainted (the FSM's Safe event) —
    /// the point after which validations, exposures, SDO squashes and
    /// predictor training become legal for that load.
    OblSafe,
}

impl EventKind {
    /// Stable wire name used in the JSONL `event` field.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Dispatch => "dispatch",
            EventKind::Issue => "issue",
            EventKind::Commit => "commit",
            EventKind::OblProbe { .. } => "obl_probe",
            EventKind::Validate { .. } => "validate",
            EventKind::Expose => "expose",
            EventKind::Squash { .. } => "squash",
            EventKind::MemAccess { .. } => "mem",
            EventKind::FpTransmit { .. } => "fp_transmit",
            EventKind::PredictorUpdate { .. } => "pred_update",
            EventKind::OblTouch { .. } => "obl_touch",
            EventKind::OblSafe => "obl_safe",
        }
    }
}

/// One traced pipeline event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Cycle at which the event happened.
    pub cycle: u64,
    /// Dynamic sequence number of the instruction involved.
    pub seq: u64,
    /// Program counter of the instruction involved.
    pub pc: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Renders the event as one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        // `cycle`, `seq`, `pc` and `event`, then the kind's own fields.
        let mut pairs = vec![
            ("cycle", Json::UInt(self.cycle)),
            ("seq", Json::UInt(self.seq)),
            ("pc", Json::UInt(self.pc)),
            ("event", Json::Str(self.kind.name().to_string())),
        ];
        match self.kind {
            EventKind::Dispatch
            | EventKind::Issue
            | EventKind::Commit
            | EventKind::Expose
            | EventKind::OblSafe => {}
            EventKind::OblProbe { level } | EventKind::OblTouch { level } => {
                pairs.push(("level", Json::UInt(level.into())));
            }
            EventKind::Validate { matched } => pairs.push(("matched", Json::Bool(matched))),
            EventKind::Squash { cause } => {
                pairs.push(("cause", Json::Str(cause.name().to_string())));
            }
            EventKind::MemAccess { line, op, tainted } => pairs.extend([
                ("line", Json::UInt(line)),
                ("op", Json::Str(op.name().to_string())),
                ("tainted", Json::Bool(tainted)),
            ]),
            EventKind::FpTransmit { tainted, oblivious } => pairs
                .extend([("tainted", Json::Bool(tainted)), ("oblivious", Json::Bool(oblivious))]),
            EventKind::PredictorUpdate { tainted } => pairs.push(("tainted", Json::Bool(tainted))),
        }
        obj(pairs).render()
    }

    /// Parses one JSONL line produced by [`Event::to_json`].
    ///
    /// # Errors
    /// Returns a description of the first malformed or missing field.
    pub fn parse(text: &str) -> Result<Event, String> {
        let v = parse_json(text)?;
        let level = || {
            let level = v.u64_field("level")?;
            u8::try_from(level).map_err(|_| format!("level {level} out of range"))
        };
        let kind = match v.str_field("event")? {
            "dispatch" => EventKind::Dispatch,
            "issue" => EventKind::Issue,
            "commit" => EventKind::Commit,
            "obl_probe" => EventKind::OblProbe { level: level()? },
            "validate" => EventKind::Validate { matched: v.bool_field("matched")? },
            "expose" => EventKind::Expose,
            "squash" => {
                let c = v.str_field("cause")?;
                EventKind::Squash {
                    cause: SquashCause::parse(c)
                        .ok_or_else(|| format!("unknown squash cause {c:?}"))?,
                }
            }
            "mem" => {
                let o = v.str_field("op")?;
                EventKind::MemAccess {
                    line: v.u64_field("line")?,
                    op: MemOp::parse(o).ok_or_else(|| format!("unknown mem op {o:?}"))?,
                    tainted: v.bool_field("tainted")?,
                }
            }
            "fp_transmit" => EventKind::FpTransmit {
                tainted: v.bool_field("tainted")?,
                oblivious: v.bool_field("oblivious")?,
            },
            "pred_update" => EventKind::PredictorUpdate { tainted: v.bool_field("tainted")? },
            "obl_touch" => EventKind::OblTouch { level: level()? },
            "obl_safe" => EventKind::OblSafe,
            other => return Err(format!("unknown event kind {other:?}")),
        };
        let (cycle, seq, pc) = (v.u64_field("cycle")?, v.u64_field("seq")?, v.u64_field("pc")?);
        Ok(Event { cycle, seq, pc, kind })
    }
}

/// A capacity-bounded buffer of [`Event`]s.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventTrace {
    events: Vec<Event>,
    capacity: usize,
    dropped: u64,
}

impl EventTrace {
    /// An empty trace that keeps at most `capacity` events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventTrace {
            // Defer the big allocation until the first event; harness
            // configs often enable tracing they never exercise.
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Records one event, or counts it as dropped once the buffer holds
    /// `capacity` events.
    #[inline]
    pub fn record(&mut self, ev: Event) {
        if self.events.len() < self.capacity {
            if self.events.capacity() == 0 {
                self.events.reserve_exact(self.capacity.min(4096));
            }
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// The buffered events, in record order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events rejected after the buffer filled.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Maximum number of buffered events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Serializes the trace as JSONL: one event object per line.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    /// Parses JSONL produced by [`EventTrace::to_jsonl`] back into a
    /// trace (capacity = number of parsed events, dropped = 0).
    ///
    /// # Errors
    /// Returns the line number (1-based) and cause of the first parse
    /// failure.
    pub fn parse_jsonl(text: &str) -> Result<EventTrace, String> {
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            events.push(Event::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        Ok(EventTrace { capacity: events.len(), events, dropped: 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event { cycle: 1, seq: 0, pc: 0, kind: EventKind::Dispatch },
            Event { cycle: 2, seq: 0, pc: 0, kind: EventKind::Issue },
            Event { cycle: 3, seq: 1, pc: 4, kind: EventKind::OblProbe { level: 2 } },
            Event { cycle: 9, seq: 1, pc: 4, kind: EventKind::Validate { matched: true } },
            Event { cycle: 9, seq: 2, pc: 8, kind: EventKind::Validate { matched: false } },
            Event { cycle: 10, seq: 2, pc: 8, kind: EventKind::Squash { cause: SquashCause::Validation } },
            Event { cycle: 11, seq: 3, pc: 12, kind: EventKind::Expose },
            Event { cycle: 12, seq: 0, pc: 0, kind: EventKind::Commit },
            Event { cycle: 13, seq: 4, pc: 16, kind: EventKind::Squash { cause: SquashCause::Branch } },
            Event {
                cycle: 14,
                seq: 5,
                pc: 20,
                kind: EventKind::MemAccess { line: 0x4_0000, op: MemOp::Load, tainted: true },
            },
            Event {
                cycle: 15,
                seq: 6,
                pc: 24,
                kind: EventKind::MemAccess { line: 7, op: MemOp::Store, tainted: false },
            },
            Event {
                cycle: 16,
                seq: 7,
                pc: 28,
                kind: EventKind::FpTransmit { tainted: true, oblivious: true },
            },
            Event { cycle: 17, seq: 8, pc: 32, kind: EventKind::PredictorUpdate { tainted: false } },
            Event { cycle: 18, seq: 1, pc: 4, kind: EventKind::OblTouch { level: 3 } },
            Event { cycle: 19, seq: 1, pc: 4, kind: EventKind::OblSafe },
        ]
    }

    #[test]
    fn jsonl_round_trips() {
        let mut t = EventTrace::with_capacity(64);
        for ev in sample_events() {
            t.record(ev);
        }
        let text = t.to_jsonl();
        let back = EventTrace::parse_jsonl(&text).unwrap();
        assert_eq!(back.events(), t.events());
        // And the re-serialization is byte-identical.
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn bounded_buffer_counts_drops() {
        let mut t = EventTrace::with_capacity(2);
        for ev in sample_events() {
            t.record(ev);
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 13);
    }

    #[test]
    fn parse_reports_line_numbers() {
        let err = EventTrace::parse_jsonl("{\"cycle\":1,\"seq\":0,\"pc\":0,\"event\":\"dispatch\"}\nnot json\n")
            .unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn parse_rejects_unknown_kind_and_cause() {
        assert!(Event::parse("{\"cycle\":1,\"seq\":0,\"pc\":0,\"event\":\"nap\"}").is_err());
        assert!(
            Event::parse("{\"cycle\":1,\"seq\":0,\"pc\":0,\"event\":\"squash\",\"cause\":\"tuesday\"}")
                .is_err()
        );
    }

    #[test]
    fn every_kind_names_distinctly() {
        // The bytes are pinned, key order included: counterexample
        // reports embed these lines and are diffed across reruns.
        let expected = [
            r#"{"cycle":1,"seq":0,"pc":0,"event":"dispatch"}"#,
            r#"{"cycle":2,"seq":0,"pc":0,"event":"issue"}"#,
            r#"{"cycle":3,"seq":1,"pc":4,"event":"obl_probe","level":2}"#,
            r#"{"cycle":9,"seq":1,"pc":4,"event":"validate","matched":true}"#,
            r#"{"cycle":9,"seq":2,"pc":8,"event":"validate","matched":false}"#,
            r#"{"cycle":10,"seq":2,"pc":8,"event":"squash","cause":"validation"}"#,
            r#"{"cycle":11,"seq":3,"pc":12,"event":"expose"}"#,
            r#"{"cycle":12,"seq":0,"pc":0,"event":"commit"}"#,
            r#"{"cycle":13,"seq":4,"pc":16,"event":"squash","cause":"branch"}"#,
            r#"{"cycle":14,"seq":5,"pc":20,"event":"mem","line":262144,"op":"load","tainted":true}"#,
            r#"{"cycle":15,"seq":6,"pc":24,"event":"mem","line":7,"op":"store","tainted":false}"#,
            r#"{"cycle":16,"seq":7,"pc":28,"event":"fp_transmit","tainted":true,"oblivious":true}"#,
            r#"{"cycle":17,"seq":8,"pc":32,"event":"pred_update","tainted":false}"#,
            r#"{"cycle":18,"seq":1,"pc":4,"event":"obl_touch","level":3}"#,
            r#"{"cycle":19,"seq":1,"pc":4,"event":"obl_safe"}"#,
        ];
        let mut t = EventTrace::with_capacity(64);
        for ev in sample_events() {
            t.record(ev);
        }
        assert_eq!(t.to_jsonl(), expected.map(|line| line.to_string() + "\n").concat());
    }

    #[test]
    fn out_of_range_level_is_an_error_not_truncated() {
        for kind in ["obl_probe", "obl_touch"] {
            let line = format!(r#"{{"cycle":1,"seq":0,"pc":0,"event":"{kind}","level":260}}"#);
            let err = Event::parse(&line).unwrap_err();
            assert!(err.contains("level 260 out of range"), "{kind}: {err}");
        }
    }

    #[test]
    fn parse_rejects_text_around_the_object_with_its_line_number() {
        let err = EventTrace::parse_jsonl(r#"oops "cycle":1,"seq":0,"pc":0,"event":"commit"}"#)
            .unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let err = EventTrace::parse_jsonl(
            "{\"cycle\":1,\"seq\":0,\"pc\":0,\"event\":\"commit\"}\n{\"cycle\":2} trailing\n",
        )
        .unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn parse_rejects_unknown_mem_op() {
        assert!(Event::parse(
            "{\"cycle\":1,\"seq\":0,\"pc\":0,\"event\":\"mem\",\"line\":4,\"op\":\"poke\",\"tainted\":false}"
        )
        .is_err());
    }
}
