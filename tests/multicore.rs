//! Multi-core integration: two out-of-order cores sharing the memory
//! hierarchy, exercising the MESI directory, invalidation delivery and
//! the deferred consistency-squash path (Section V-C1).

use sdo_sim::harness::{RunOutput, RunRequest, SimConfig, SimError, Simulator, Variant};
use sdo_sim::isa::{Assembler, Program, Reg};
use sdo_sim::uarch::AttackModel;

fn writer_program(region: u64, iters: i64) -> Program {
    let mut asm = Assembler::named("writer");
    let r = Reg::new;
    let (base, i, v) = (r(1), r(10), r(2));
    asm.li(base, region as i64);
    asm.li(i, iters);
    let top = asm.here();
    // Rotate writes over 8 lines.
    asm.andi(r(3), i, 0x7);
    asm.slli(r(3), r(3), 6);
    asm.add(r(3), r(3), base);
    asm.addi(v, v, 3);
    asm.st(v, r(3), 0);
    asm.addi(i, i, -1);
    asm.bne(i, Reg::ZERO, top);
    asm.halt();
    asm.finish().expect("writer assembles")
}

fn reader_program(region: u64, iters: i64) -> Program {
    let mut asm = Assembler::named("reader");
    let r = Reg::new;
    let (base, i, acc) = (r(1), r(10), r(7));
    asm.li(base, region as i64);
    asm.li(i, iters);
    let top = asm.here();
    asm.andi(r(3), i, 0x7);
    asm.slli(r(3), r(3), 6);
    asm.add(r(3), r(3), base);
    asm.ld(r(4), r(3), 0); // races with the writer's stores
    let skip = asm.label();
    asm.blt(r(4), Reg::ZERO, skip); // never taken (values non-negative)
    asm.ld(r(5), base, 0x100); // dependent load in the shadow
    asm.add(acc, acc, r(4));
    asm.bind(skip);
    asm.addi(i, i, -1);
    asm.bne(i, Reg::ZERO, top);
    asm.halt();
    asm.finish().expect("reader assembles")
}

/// The writer on core 0 and the reader on core 1, in lockstep (each
/// cycle ticks core 0, then core 1) for at most 2M cycles; a core still
/// running then is a [`SimError::Hang`].
fn run_pair(variant: Variant, attack: AttackModel) -> Result<RunOutput, SimError> {
    let cfg = SimConfig { max_cycles: 2_000_000, ..SimConfig::table_i() };
    let region = 0x9000u64;
    let programs = [writer_program(region, 400), reader_program(region, 400)];
    Simulator::new(cfg).run(&RunRequest::multi(&programs).variant(variant).attack(attack))
}

#[test]
fn two_cores_share_memory_and_finish() {
    for variant in [Variant::Unsafe, Variant::SttLd, Variant::Hybrid] {
        // A hang names the core's program: writer or reader.
        let out = run_pair(variant, AttackModel::Spectre)
            .unwrap_or_else(|e| panic!("both cores must halt under {variant}: {e}"));
        let (c0, c1) = (&out.results()[0], &out.results()[1]);
        // The writer's last value landed in memory.
        assert!(out.memory().peek_word(0x9000 + 0x40) > 0);
        assert!(c0.core.committed_stores >= 400);
        assert!(c1.core.committed_loads >= 400);
    }
}

#[test]
fn coherence_traffic_flows_between_cores() {
    let out = run_pair(Variant::Unsafe, AttackModel::Spectre).expect("both cores halt");
    let stats = out.memory().stats();
    assert!(
        stats.invalidations_sent > 0,
        "writer upgrades must invalidate the reader's copies"
    );
    assert!(stats.remote_hits > 0, "reader must hit dirty lines in the writer's cache");
}

#[test]
fn consistency_squashes_are_possible_and_recovered() {
    // With racing stores and speculative loads the reader may observe
    // invalidation-driven consistency squashes; whatever happens, both
    // cores must converge and the reader's accumulator must be a sum of
    // values the writer actually produced (divisible by 3, since every
    // written value is).
    let out = run_pair(Variant::Hybrid, AttackModel::Futuristic)
        .unwrap_or_else(|e| panic!("both cores must converge: {e}"));
    let acc = out.int_regs(1)[7];
    assert_eq!(acc % 3, 0, "reader accumulated a torn/stale value: {acc}");
}
