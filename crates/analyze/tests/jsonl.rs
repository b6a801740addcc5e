//! The report records — `Finding`, `Gadget`, `Counterexample` and the
//! pipeline `Event` — all render and parse through the one JSON codec,
//! `sdo_obs::json`. These tests pin what that buys: any string survives,
//! a record never spans more than its own line, and re-rendering a
//! parsed record reproduces its bytes.
//!
//! The property test draws its strings with the in-tree `sdo-rng` from
//! control characters, quotes, backslashes, ASCII and multi-byte
//! characters, at a fixed seed.

use sdo_analyze::{Finding, FindingKind, Gadget};
use sdo_harness::Variant;
use sdo_obs::json::{parse_json, Json};
use sdo_obs::{Event, EventKind, EventTrace, MemOp, SquashCause};
use sdo_rng::SdoRng;
use sdo_uarch::AttackModel;
use sdo_verify::{CexKind, Counterexample, Invariant};
use sdo_workloads::Channel;

/// One of each character class a hand-rolled escaper gets wrong.
const HOSTILE: [&str; 7] = ["\n", "\t", "\u{1}", "\"", "\\", "é", "🙂"];

fn finding(program: &str, inst: &str) -> Finding {
    Finding {
        program: program.to_string(),
        variant: Variant::Hybrid,
        kind: FindingKind::PotentialTransmitGadget,
        pc: 30,
        channel: Some(Channel::Cache),
        inst: inst.to_string(),
        sources: vec![27],
        branches: vec![24, 25],
    }
}

fn gadget(program: &str) -> Gadget {
    Gadget {
        program: program.to_string(),
        variant: Variant::Unsafe,
        channel: Channel::FpTiming,
        access_pc: 4248,
        transmit_pc: 4260,
        pending_branch: 4240,
        witness_path: vec![4248, 4260],
    }
}

fn counterexample(case: &str, detail: &str, window: Vec<Event>) -> Counterexample {
    Counterexample {
        case: case.to_string(),
        variant: Variant::SttLd,
        attack: AttackModel::Futuristic,
        kind: CexKind::OracleViolation(Invariant::PreSafeAction),
        seed: u64::MAX,
        gadgets: vec!["alu_noise(3)".to_string(), "spectre_cache".to_string()],
        detail: detail.to_string(),
        window,
    }
}

#[test]
fn hostile_strings_stay_on_one_line_and_parse_back_equal() {
    let all = HOSTILE.concat();
    for s in HOSTILE.iter().copied().chain([all.as_str()]) {
        let f = finding(&format!("prog{s}name"), &format!("ld {s}"));
        let line = f.to_jsonl();
        assert!(!line.contains('\n'), "{line:?}");
        assert_eq!(Finding::parse_jsonl(&line).unwrap(), f, "{line:?}");

        let g = gadget(&format!("{s}rv32"));
        let line = g.to_jsonl();
        assert!(!line.contains('\n'), "{line:?}");
        assert_eq!(Gadget::parse_jsonl(&line).unwrap(), g, "{line:?}");

        let cex = counterexample(&format!("case{s}"), &format!("detail {s} end"), Vec::new());
        let text = cex.to_jsonl();
        assert_eq!(text.lines().count(), 1, "{text:?}");
        assert!(text.ends_with('\n'));
        assert_eq!(Counterexample::parse_jsonl(&text).unwrap(), cex, "{text:?}");
    }
}

#[test]
fn a_json_written_newline_escape_decodes_to_a_newline() {
    let program = Json::Str("a\nb".to_string()).render();
    assert_eq!(program, r#""a\nb""#);
    let line = format!(
        concat!(
            r#"{{"type":"finding","program":{},"variant":"unsafe","kind":"dead_untaint","#,
            r#""pc":0,"channel":null,"inst":"nop","sources":[],"branches":[]}}"#,
        ),
        program
    );
    assert_eq!(Finding::parse_jsonl(&line).unwrap().program, "a\nb");
    let line = format!(
        concat!(
            r#"{{"type":"gadget","program":{},"variant":"unsafe","channel":"cache","#,
            r#""access_pc":1,"transmit_pc":2,"pending_branch":0,"witness_path":[1,2]}}"#,
        ),
        program
    );
    assert_eq!(Gadget::parse_jsonl(&line).unwrap().program, "a\nb");
}

#[test]
fn counterexample_slugs_parse_strictly() {
    let text = counterexample("c", "d", Vec::new()).to_jsonl();
    // The CLI accepts these spellings; the report format does not.
    let lenient = [(r#""stt_ld""#, r#""STT{ld}""#), (r#""futuristic""#, r#""Futuristic""#)];
    for (good, lenient) in lenient {
        let bad = text.replace(good, lenient);
        assert_ne!(bad, text);
        assert!(Counterexample::parse_jsonl(&bad).is_err(), "{bad}");
    }
}

/// A random string over control characters, quotes, backslashes, ASCII
/// and multi-byte characters.
fn random_string(rng: &mut SdoRng) -> String {
    const MULTI_BYTE: [char; 6] = ['é', 'ß', '中', '\u{2028}', '\u{ffff}', '🙂'];
    let len = rng.bounded(24);
    (0..len)
        .map(|_| match rng.bounded(5) {
            0 => char::from(rng.bounded(0x20) as u8),
            1 => ['"', '\\', '/', '\u{7f}'][rng.bounded(4) as usize],
            2 | 3 => char::from(0x20 + rng.bounded(0x5f) as u8),
            _ => MULTI_BYTE[rng.bounded(MULTI_BYTE.len() as u64) as usize],
        })
        .collect()
}

fn random_u64s(rng: &mut SdoRng) -> Vec<u64> {
    (0..rng.bounded(5)).map(|_| rng.next_u64() >> rng.bounded(64)).collect()
}

fn pick<T: Copy>(rng: &mut SdoRng, items: &[T]) -> T {
    items[rng.bounded(items.len() as u64) as usize]
}

fn random_event(rng: &mut SdoRng) -> Event {
    let level = rng.bounded(256) as u8;
    let (b1, b2) = (rng.gen_bool(0.5), rng.gen_bool(0.5));
    let kind = match rng.bounded(12) {
        0 => EventKind::Dispatch,
        1 => EventKind::Issue,
        2 => EventKind::Commit,
        3 => EventKind::OblProbe { level },
        4 => EventKind::Validate { matched: b1 },
        5 => EventKind::Expose,
        6 => EventKind::Squash {
            cause: pick(
                rng,
                &[
                    SquashCause::Branch,
                    SquashCause::OblFail,
                    SquashCause::Validation,
                    SquashCause::Consistency,
                    SquashCause::FpFail,
                ],
            ),
        },
        7 => EventKind::MemAccess {
            line: rng.next_u64(),
            op: pick(rng, &[MemOp::Load, MemOp::Store, MemOp::Validate, MemOp::Expose]),
            tainted: b1,
        },
        8 => EventKind::FpTransmit { tainted: b1, oblivious: b2 },
        9 => EventKind::PredictorUpdate { tainted: b1 },
        10 => EventKind::OblTouch { level },
        _ => EventKind::OblSafe,
    };
    Event { cycle: rng.next_u64(), seq: rng.next_u64(), pc: rng.next_u64(), kind }
}

#[test]
fn prop_every_string_and_record_round_trips_byte_identically() {
    let mut rng = SdoRng::seed_from_u64(0xC0DEC);
    for case in 0..2000 {
        let s = random_string(&mut rng);
        assert_eq!(parse_json(&Json::Str(s.clone()).render()).unwrap(), Json::Str(s.clone()));

        let f = Finding {
            program: s.clone(),
            variant: pick(&mut rng, &Variant::ALL),
            kind: pick(
                &mut rng,
                &[
                    FindingKind::PotentialTransmitGadget,
                    FindingKind::TaintedTraining,
                    FindingKind::DeadUntaint,
                ],
            ),
            pc: rng.next_u64(),
            channel: pick(&mut rng, &[None, Some(Channel::Cache), Some(Channel::FpTiming)]),
            inst: random_string(&mut rng),
            sources: random_u64s(&mut rng),
            branches: random_u64s(&mut rng),
        };
        let line = f.to_jsonl();
        assert!(!line.contains('\n'), "case {case}: {line:?}");
        let back = Finding::parse_jsonl(&line).unwrap();
        assert_eq!(back, f, "case {case}");
        assert_eq!(back.to_jsonl(), line, "case {case}");

        let g = Gadget {
            program: s.clone(),
            variant: pick(&mut rng, &Variant::ALL),
            channel: pick(&mut rng, &[Channel::Cache, Channel::FpTiming]),
            access_pc: rng.next_u64(),
            transmit_pc: rng.next_u64(),
            pending_branch: rng.next_u64(),
            witness_path: random_u64s(&mut rng),
        };
        let line = g.to_jsonl();
        assert!(!line.contains('\n'), "case {case}: {line:?}");
        let back = Gadget::parse_jsonl(&line).unwrap();
        assert_eq!(back, g, "case {case}");
        assert_eq!(back.to_jsonl(), line, "case {case}");

        let window: Vec<Event> = (0..rng.bounded(4)).map(|_| random_event(&mut rng)).collect();
        // Gadget recipes are `+`-joined, so a recipe is never empty
        // and never contains `+`.
        let gadgets = (0..rng.bounded(3))
            .map(|_| format!("g{}", random_string(&mut rng).replace('+', "")))
            .collect();
        let cex = Counterexample {
            case: s.clone(),
            variant: pick(&mut rng, &Variant::ALL),
            attack: pick(&mut rng, &AttackModel::ALL),
            kind: pick(
                &mut rng,
                &[
                    CexKind::UnexpectedDivergence,
                    CexKind::MissingDivergence,
                    CexKind::OracleViolation(Invariant::TaintedLoad),
                    CexKind::BaselineLeak,
                ],
            ),
            seed: rng.next_u64(),
            gadgets,
            detail: random_string(&mut rng),
            window: window.clone(),
        };
        let text = cex.to_jsonl();
        assert_eq!(text.lines().count(), 1 + window.len(), "case {case}: {text:?}");
        let back = Counterexample::parse_jsonl(&text).unwrap();
        assert_eq!(back, cex, "case {case}");
        assert_eq!(back.to_jsonl(), text, "case {case}");

        let mut trace = EventTrace::with_capacity(window.len());
        for ev in window {
            trace.record(ev);
        }
        let text = trace.to_jsonl();
        let back = EventTrace::parse_jsonl(&text).unwrap();
        assert_eq!(back.events(), trace.events(), "case {case}");
        assert_eq!(back.to_jsonl(), text, "case {case}");
    }
}
