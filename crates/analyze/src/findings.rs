//! Per-variant classification of taint-analysis results into typed
//! findings, with JSONL and typed-CSV emission.
//!
//! The taint fixpoint ([`crate::taint::analyze`]) is
//! variant-independent: it reports every instruction whose operand
//! *may* carry speculative taint. Whether such a site is an actual
//! finding depends on the protection variant — STT-style mechanisms
//! delay tainted loads until their visibility point, so a tainted
//! address can never reach the cache; SDO issues them obliviously, so
//! the cache channel is closed too. Findings are projected through
//! `sdo_verify::policy::closes`, the table the dynamic checker uses: a
//! channel this module keeps findings for is exactly a channel the
//! policy calls open.

use crate::taint::Analysis;
use sdo_harness::export::Column;
use sdo_harness::proto::variant_from_slug;
use sdo_harness::Variant;
use sdo_obs::json::{obj, parse_json, Json};
use sdo_verify::policy;
use sdo_workloads::Channel;
use std::fmt;

/// The kind of a static finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FindingKind {
    /// A transmitter (load/store address or FP timing op) whose
    /// operand may be tainted, on a channel the variant leaves open.
    PotentialTransmitGadget,
    /// A conditional branch or indirect jump steered by a possibly
    /// tainted value — predictor training on speculative data.
    TaintedTraining,
    /// A speculative access whose taint reaches no transmitter,
    /// branch or store: the protection work is dead. Informational.
    DeadUntaint,
}

impl FindingKind {
    /// Stable wire name used in JSONL and CSV.
    #[must_use]
    pub fn wire_name(self) -> &'static str {
        match self {
            FindingKind::PotentialTransmitGadget => "potential_transmit_gadget",
            FindingKind::TaintedTraining => "tainted_training",
            FindingKind::DeadUntaint => "dead_untaint",
        }
    }

    /// Whether findings of this kind gate (non-zero exit / CI red)
    /// when present under a variant that claims the channel is closed.
    #[must_use]
    pub fn gates(self) -> bool {
        !matches!(self, FindingKind::DeadUntaint)
    }
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.wire_name())
    }
}

/// One static finding for one (program, variant) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Program the finding is in.
    pub program: String,
    /// Protection variant the classification was done under.
    pub variant: Variant,
    /// Finding kind.
    pub kind: FindingKind,
    /// Instruction index of the flagged site.
    pub pc: u64,
    /// Covert channel for transmit findings, `None` otherwise.
    pub channel: Option<Channel>,
    /// Disassembly of the flagged instruction.
    pub inst: String,
    /// Root access pcs whose taint reaches the site.
    pub sources: Vec<u64>,
    /// Terminator pcs of the branches the taint is speculative under.
    pub branches: Vec<u64>,
}

impl Finding {
    /// Serializes the finding as one JSONL record (no trailing newline).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        obj(vec![
            ("type", Json::Str("finding".to_string())),
            ("program", Json::Str(self.program.clone())),
            ("variant", Json::Str(self.variant.slug().to_string())),
            ("kind", Json::Str(self.kind.wire_name().to_string())),
            ("pc", Json::UInt(self.pc)),
            (
                "channel",
                self.channel.map_or(Json::Null, |ch| Json::Str(channel_name(ch).to_string())),
            ),
            ("inst", Json::Str(self.inst.clone())),
            ("sources", u64_array(&self.sources)),
            ("branches", u64_array(&self.branches)),
        ])
        .render()
    }

    /// Parses one line produced by [`Finding::to_jsonl`] — the same
    /// round-trip contract `sdo_verify::Counterexample` has, so report
    /// files are machine-consumable, not write-only.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn parse_jsonl(text: &str) -> Result<Finding, String> {
        let v = parse_json(text)?;
        let kind_s = v.str_field("kind")?;
        let kind = [
            FindingKind::PotentialTransmitGadget,
            FindingKind::TaintedTraining,
            FindingKind::DeadUntaint,
        ]
        .into_iter()
        .find(|k| k.wire_name() == kind_s)
        .ok_or_else(|| format!("unknown kind {kind_s:?}"))?;
        let channel = match v.get("channel") {
            Some(Json::Null) => None,
            _ => Some(parse_channel(v.str_field("channel")?)?),
        };
        Ok(Finding {
            program: v.str_field("program")?.to_string(),
            variant: variant_from_slug(v.str_field("variant")?)?,
            kind,
            pc: v.u64_field("pc")?,
            channel,
            inst: v.str_field("inst")?.to_string(),
            sources: u64_list(&v, "sources")?,
            branches: u64_list(&v, "branches")?,
        })
    }
}

pub(crate) fn join_u64(xs: &[u64], sep: &str) -> String {
    xs.iter().map(u64::to_string).collect::<Vec<_>>().join(sep)
}

/// A JSON array of integers.
pub(crate) fn u64_array(xs: &[u64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::UInt(x)).collect())
}

/// A required integer-array field of an object.
pub(crate) fn u64_list(v: &Json, key: &str) -> Result<Vec<u64>, String> {
    v.arr_field(key)?
        .iter()
        .map(|x| match x {
            Json::UInt(n) => Ok(*n),
            _ => Err(format!("field '{key}' holds a non-integer")),
        })
        .collect()
}

/// Parses a channel wire name back into a [`Channel`].
pub(crate) fn parse_channel(s: &str) -> Result<Channel, String> {
    [Channel::Cache, Channel::FpTiming]
        .into_iter()
        .find(|c| channel_name(*c) == s)
        .ok_or_else(|| format!("unknown channel {s:?}"))
}

/// Stable channel wire name shared by JSONL and CSV.
#[must_use]
pub fn channel_name(ch: Channel) -> &'static str {
    match ch {
        Channel::Cache => "cache",
        Channel::FpTiming => "fp_timing",
    }
}

/// Classifies a taint [`Analysis`] under one protection variant.
/// Output is pc-ordered within each kind (transmits, trainings, dead),
/// a pure function of the analysis.
#[must_use]
pub fn findings_for(analysis: &Analysis, variant: Variant) -> Vec<Finding> {
    let mut out = Vec::new();
    for t in &analysis.transmits {
        if policy::closes(variant, t.channel) {
            continue;
        }
        out.push(Finding {
            program: analysis.program.clone(),
            variant,
            kind: FindingKind::PotentialTransmitGadget,
            pc: t.pc,
            channel: Some(t.channel),
            inst: t.inst.clone(),
            sources: t.sources.clone(),
            branches: t.branches.clone(),
        });
    }
    // Tainted training only matters where loads are unprotected: under
    // every STT/SDO variant the trained-on value is delayed or
    // oblivious, so the predictor never observes it.
    if !policy::protects_loads(variant) {
        for t in &analysis.trainings {
            out.push(Finding {
                program: analysis.program.clone(),
                variant,
                kind: FindingKind::TaintedTraining,
                pc: t.pc,
                channel: None,
                inst: t.inst.clone(),
                sources: t.sources.clone(),
                branches: t.branches.clone(),
            });
        }
    }
    // Dead untaint is variant-independent and informational.
    for d in &analysis.dead {
        out.push(Finding {
            program: analysis.program.clone(),
            variant,
            kind: FindingKind::DeadUntaint,
            pc: d.pc,
            channel: None,
            inst: d.inst.clone(),
            sources: Vec::new(),
            branches: d.branches.clone(),
        });
    }
    out
}

/// Whether `findings` contains a gating finding on a channel the
/// dynamic policy says `variant` closes — an internal contradiction
/// that makes the analyzer exit non-zero.
#[must_use]
pub fn closed_channel_findings(findings: &[Finding]) -> Vec<&Finding> {
    findings
        .iter()
        .filter(|f| f.kind.gates() && f.channel.is_some_and(|ch| policy::closes(f.variant, ch)))
        .collect()
}

/// CSV column descriptors for [`Finding`] rows.
pub const FINDING_COLUMNS: &[Column<Finding>] = &[
    Column { name: "program", extract: |f| f.program.clone() },
    Column { name: "variant", extract: |f| f.variant.slug().to_string() },
    Column { name: "kind", extract: |f| f.kind.to_string() },
    Column { name: "pc", extract: |f| f.pc.to_string() },
    Column { name: "channel", extract: |f| f.channel.map_or(String::new(), |c| channel_name(c).to_string()) },
    Column { name: "sources", extract: |f| join_u64(&f.sources, "+") },
    Column { name: "branches", extract: |f| join_u64(&f.branches, "+") },
];

/// Renders findings as CSV (header + one row per finding).
#[must_use]
pub fn findings_csv(findings: &[Finding]) -> String {
    sdo_harness::export::table_csv(FINDING_COLUMNS, findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_channel_findings_are_empty_by_construction() {
        // findings_for only keeps transmit findings on open channels,
        // so the contradiction detector finds nothing on its output.
        let analysis = crate::taint::analyze(&(sdo_workloads::CORPUS[0].build)(0));
        for v in Variant::ALL {
            let fs = findings_for(&analysis, v);
            assert!(closed_channel_findings(&fs).is_empty(), "variant {v:?}");
        }
    }

    #[test]
    fn golden_csv_header() {
        assert_eq!(findings_csv(&[]), "program,variant,kind,pc,channel,sources,branches\n");
    }

    #[test]
    fn jsonl_shape() {
        let f = Finding {
            program: "p".into(),
            variant: Variant::Unsafe,
            kind: FindingKind::PotentialTransmitGadget,
            pc: 7,
            channel: Some(Channel::Cache),
            inst: "ld r1, 0(r2)".into(),
            sources: vec![3, 4],
            branches: vec![1],
        };
        let line = f.to_jsonl();
        assert!(line.starts_with("{\"type\":\"finding\""));
        assert!(line.contains("\"kind\":\"potential_transmit_gadget\""));
        assert!(line.contains("\"channel\":\"cache\""));
        assert!(line.contains("\"sources\":[3,4]"));
        let none = Finding { channel: None, ..f };
        assert!(none.to_jsonl().contains("\"channel\":null"));
    }

    #[test]
    fn jsonl_round_trips_byte_identical() {
        // The counterexample contract, applied to findings: parse
        // then re-serialize must reproduce the input byte-for-byte.
        let analysis = crate::taint::analyze(&(sdo_workloads::CORPUS[0].build)(0));
        let mut seen = 0;
        for v in Variant::ALL {
            for f in findings_for(&analysis, v) {
                let line = f.to_jsonl();
                let parsed = Finding::parse_jsonl(&line).expect("parse");
                assert_eq!(parsed, f);
                assert_eq!(parsed.to_jsonl(), line);
                seen += 1;
            }
        }
        assert!(seen > 0, "corpus produced no findings to round-trip");
    }

    #[test]
    fn jsonl_parse_handles_escapes_and_empty_lists() {
        let f = Finding {
            program: "a\"b\\c".into(),
            variant: Variant::Hybrid,
            kind: FindingKind::DeadUntaint,
            pc: 0,
            channel: None,
            inst: "ld \"r1\"".into(),
            sources: Vec::new(),
            branches: Vec::new(),
        };
        let parsed = Finding::parse_jsonl(&f.to_jsonl()).expect("parse");
        assert_eq!(parsed, f);
        assert!(Finding::parse_jsonl("{}").is_err());
        assert!(Finding::parse_jsonl("{\"type\":\"finding\",\"program\":\"p\"").is_err());
    }

    #[test]
    fn jsonl_serialization_is_deterministic() {
        let analysis = crate::taint::analyze(&(sdo_workloads::CORPUS[0].build)(0));
        let render = || {
            findings_for(&analysis, Variant::Unsafe)
                .iter()
                .map(Finding::to_jsonl)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(render(), render());
    }
}
