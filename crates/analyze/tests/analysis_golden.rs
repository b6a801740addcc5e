//! Whole-analyzer golden: every field of every [`Analysis`] (including
//! `fixpoint_visits`, which counts worklist visits and so pins the
//! exactness of the lattice's change detection) and every scanned
//! gadget's JSONL, over a fixed population, hashed into one literal.
//!
//! The population covers both memory models on both CFG builders: the
//! default targets, the RV32 corpus through the scanner and through
//! the one-cell lattice on the threaded CFG, 300 fuzzed litmus specs,
//! seeded random programs with back edges, a program whose tainted
//! stores overflow [`CELL_CAP`] with taint sets past 128 elements, and
//! a 1,001-block branch ladder. Any change to the lattice's
//! representation, the worklist order or the post-dominator
//! computation must leave this digest unchanged.

use sdo_analyze::callgraph;
use sdo_analyze::cfg::Cfg;
use sdo_analyze::corpus::default_targets;
use sdo_analyze::memory::CELL_CAP;
use sdo_analyze::taint::{DeadAccess, TrainingSite, TransmitSite};
use sdo_analyze::{analyze, analyze_with, scan_program, Analysis, MemModel};
use sdo_harness::store::sha256;
use sdo_isa::{Assembler, Program, Reg};
use sdo_rng::SdoRng;
use sdo_verify::fuzz::LitmusSpec;
use std::fmt::Write;

/// SHA-256 of [`rendering`], recorded before the analyzer's lattice
/// and post-dominator rewrite.
const DIGEST: &str = "da0fe9eac4470e61e5bb2f821e57bb2ede89037c3bd7a87c295ac78c5d81b2b6";

/// Renders one analysis field by field. The destructuring is
/// exhaustive, so a new field fails to compile here rather than
/// silently escaping the golden.
fn render(out: &mut String, label: &str, a: &Analysis) {
    let Analysis {
        program,
        insts,
        blocks,
        edges,
        cond_branches,
        fixpoint_visits,
        speculative_accesses,
        transmits,
        trainings,
        dead,
    } = a;
    let _ = writeln!(
        out,
        "{label} {program}: insts={insts} blocks={blocks} edges={edges} \
         cond_branches={cond_branches} fixpoint_visits={fixpoint_visits} \
         speculative_accesses={speculative_accesses}"
    );
    for t in transmits {
        let TransmitSite { pc, channel, inst, sources, branches } = t;
        let _ = writeln!(
            out,
            "  transmit pc={pc} channel={channel:?} inst={inst} sources={sources:?} \
             branches={branches:?}"
        );
    }
    for t in trainings {
        let TrainingSite { pc, inst, sources, branches } = t;
        let _ = writeln!(
            out,
            "  training pc={pc} inst={inst} sources={sources:?} branches={branches:?}"
        );
    }
    for d in dead {
        let DeadAccess { pc, inst, branches } = d;
        let _ = writeln!(out, "  dead pc={pc} inst={inst} branches={branches:?}");
    }
}

fn both_models(out: &mut String, label: &str, program: &Program) {
    let cfg = Cfg::build(program);
    render(out, &format!("{label}/one-cell"), &analyze(program));
    render(out, &format!("{label}/regions"), &analyze_with(program, &cfg, MemModel::Regions));
}

/// Tainted stores to more than [`CELL_CAP`] distinct constant
/// addresses. Every branch of the first half resolves at `mid`, every
/// branch of the second half only at `out`, and a back edge re-runs
/// the whole body, so pending and root sets grow past 128 elements,
/// shrink at `mid` and grow again before the fixpoint settles.
fn cell_cap_program() -> Program {
    let r = Reg::new;
    let steps = CELL_CAP + 64;
    let mut asm = Assembler::named("cell_cap");
    let top = asm.label();
    let mid = asm.label();
    let out = asm.label();
    asm.li(r(1), 0x4000);
    asm.bind(top);
    for i in 0..steps {
        if i == steps / 2 {
            asm.bind(mid);
        }
        asm.blt(r(3), r(8), if i < steps / 2 { mid } else { out });
        let off = 8 * i as i64;
        asm.ldb(r(4), r(1), off);
        asm.st(r(4), Reg::ZERO, 0x8000 + off);
        asm.add(r(5), r(5), r(4));
    }
    asm.ld(r(6), Reg::ZERO, 0x8000 + 8 * (steps as i64 - 1));
    asm.ld(r(7), r(5), 0);
    asm.fmv_from_int(sdo_isa::FReg::new(2), r(6));
    asm.fst(sdo_isa::FReg::new(2), r(5), 0);
    asm.bne(r(9), Reg::ZERO, top);
    asm.bind(out);
    asm.halt();
    asm.finish().expect("cell-cap program assembles")
}

/// The branch ladder: `steps` bounds checks, each guarding a load
/// accumulated into one register, then a load through the sum.
/// `steps` steps make `2 * steps + 1` blocks.
fn ladder(steps: usize) -> Program {
    let mut text = String::from(".name ladder\nli r1, 0x4000\n");
    for n in 0..steps {
        let _ = write!(
            text,
            "blt r3, r8, s{n}\nld r4, {}(r1)\nadd r5, r5, r4\ns{n}:\n",
            8 * n
        );
    }
    text.push_str("ld r6, 0(r5)\nhalt\n");
    sdo_isa::parse_asm(&text).expect("ladder parses")
}

/// Seeded random programs with forward and backward branches, stores
/// through tainted and clean bases and FP traffic: loops make the
/// fixpoint revisit blocks, so `fixpoint_visits` checks every join's
/// change flag.
fn random_program(seed: u64) -> Program {
    let r = |i: u64| Reg::new(i as u8);
    let f = |i: u64| sdo_isa::FReg::new(i as u8);
    let mut rng = SdoRng::seed_from_u64(seed);
    let n = 8 + rng.bounded(40) as usize;
    let mut asm = Assembler::named(format!("random_{seed}"));
    let labels: Vec<_> = (0..=n).map(|_| asm.label()).collect();
    for &label in &labels[..n] {
        asm.bind(label);
        let a = 1 + rng.bounded(7);
        let b = rng.bounded(8);
        let off = (rng.bounded(8) * 8) as i64;
        match rng.bounded(11) {
            0 | 1 => {
                let target = labels[rng.bounded(n as u64 + 1) as usize];
                asm.blt(r(a), r(b), target);
            }
            2 => {
                asm.li(r(a), 0x4000 + off);
            }
            3 | 4 => {
                asm.ld(r(a), r(b), off);
            }
            5 => {
                asm.st(r(a), r(b), off);
            }
            6 => {
                asm.add(r(a), r(a), r(b));
            }
            7 => {
                asm.fld(f(a), r(b), off);
            }
            8 => {
                asm.fdiv(f(a), f(a), f(b));
            }
            9 => {
                asm.fmv_to_int(r(a), f(b));
            }
            _ => {
                asm.fst(f(a), r(b), off);
            }
        }
    }
    asm.bind(labels[n]);
    asm.halt();
    asm.finish().expect("random program assembles")
}

/// The full rendering the digest is taken over.
fn rendering() -> String {
    let mut out = String::new();

    for t in default_targets() {
        both_models(&mut out, &format!("target {}", t.name), &t.program);
    }

    for entry in sdo_rv32::corpus::CORPUS {
        let (program, prov) =
            sdo_rv32::translate_with_provenance(&entry.image(), entry.name).expect("translates");
        let scan = scan_program(&program, &prov);
        render(&mut out, &format!("scan {}", entry.name), &scan.analysis);
        let _ = writeln!(
            out,
            "  functions={} call_sites={} chains={}",
            scan.functions,
            scan.call_sites,
            scan.chain_count()
        );
        for g in scan.gadgets_all_variants() {
            let _ = writeln!(out, "  {}", g.to_jsonl());
        }
        let cg = callgraph::build(&program, &prov);
        let threaded = Cfg::build_with_jalr_targets(&program, &cg.jalr_succs);
        render(
            &mut out,
            &format!("threaded {}/one-cell", entry.name),
            &analyze_with(&program, &threaded, MemModel::OneCell),
        );
    }

    for seed in 0..300 {
        let spec = LitmusSpec::generate(seed);
        both_models(&mut out, &format!("spec {seed}"), &spec.build(0));
    }

    for seed in 0..200 {
        both_models(&mut out, &format!("random {seed}"), &random_program(seed));
    }

    both_models(&mut out, "cell-cap", &cell_cap_program());
    let ladder = ladder(500);
    assert_eq!(Cfg::build(&ladder).blocks().len(), 1001);
    both_models(&mut out, "ladder", &ladder);
    out
}

#[test]
fn every_analysis_field_and_gadget_is_pinned() {
    let text = rendering();
    let digest: String = sha256(text.as_bytes()).iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(digest, DIGEST, "analyzer output drifted ({} bytes rendered)", text.len());
}
