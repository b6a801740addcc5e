//! Disassemble → parse round trips: `sdo_isa::parse_asm` accepts the
//! listings `Program::disassemble` produces (absolute `@N` targets
//! included), and the reparsed program is instruction-identical. The
//! harness's program table holds in-process programs under their
//! disassembly on this property, and a `RunKey` names a program by it.
//! `sdo-isa`'s own tests pin it for every instruction shape; these pin it
//! for the programs the workspace builds, and for every RV32 encoding
//! the frontend lowers.

use sdo_isa::parse_asm;
use sdo_rng::SdoRng;
use sdo_workloads::random::random_program;
use sdo_workloads::{rv32_litmus_cases, rv32_suite, suite, CORPUS};

#[test]
fn suite_kernels_roundtrip_through_disassembly() {
    for w in suite() {
        let listing = w.program().disassemble();
        let reparsed = parse_asm(&listing)
            .unwrap_or_else(|e| panic!("{} disassembly failed to reparse: {e}", w.name()));
        assert_eq!(
            reparsed.instructions(),
            w.program().instructions(),
            "{}: reparse changed the instruction stream",
            w.name()
        );
    }
}

#[test]
fn random_programs_roundtrip_through_disassembly() {
    let mut rng = SdoRng::seed_from_u64(0x707_0000);
    for _ in 0..24 {
        let seed = rng.gen_range(0u64..100_000);
        let prog = random_program(seed, 8);
        let listing = prog.disassemble();
        let reparsed = parse_asm(&listing)
            .unwrap_or_else(|e| panic!("seed {seed}: disassembly failed to reparse: {e}"));
        assert_eq!(reparsed.instructions(), prog.instructions(), "seed {seed}");
    }
}

#[test]
fn rv32_and_litmus_programs_roundtrip_through_disassembly() {
    let mut programs: Vec<(String, sdo_isa::Program)> =
        rv32_suite().iter().map(|w| (w.name().to_string(), w.program().clone())).collect();
    for case in rv32_litmus_cases().iter().chain(CORPUS) {
        for secret in [0, 42] {
            programs.push((format!("{} (secret {secret})", case.name), (case.build)(secret)));
        }
    }
    assert_eq!(programs.len(), 4 + 2 * (1 + CORPUS.len()));
    for (name, program) in &programs {
        let reparsed = parse_asm(&program.disassemble())
            .unwrap_or_else(|e| panic!("{name} disassembly failed to reparse: {e}"));
        assert_eq!(
            reparsed.instructions(),
            program.instructions(),
            "{name}: reparse changed the instruction stream"
        );
    }
}

/// Every instruction `sdo_rv32::enc` encodes, translated, survives its
/// disassembly: the frontend's output is wire-safe. Compilers emit
/// `sltiu rd, rs, 1` for `seqz`, which lowers to an immediate `sltu`.
#[test]
fn every_rv32_encoding_roundtrips_after_translation() {
    use sdo_rv32::{enc, lower::translate, Rv32Image};
    // Encoders by operand shape: three registers (or two and a shift
    // amount), two registers and an immediate, and a memory access.
    type Regs = fn(u8, u8, u8) -> u32;
    type RegsImm = fn(u8, u8, i32) -> u32;
    type Mem = fn(u8, i32, u8) -> u32;
    let mut text = Vec::new();
    for imm in [-2048, -1, 0, 1, 2047] {
        let op_imms = [enc::addi as RegsImm, enc::slti, enc::sltiu, enc::xori, enc::ori, enc::andi];
        text.extend(op_imms.map(|f| f(10, 11, imm)));
        text.extend([enc::lb as Mem, enc::lh, enc::lw, enc::lbu, enc::lhu].map(|f| f(12, imm, 2)));
        text.extend([enc::sb as Mem, enc::sh, enc::sw].map(|f| f(13, imm, 2)));
        text.push(enc::jalr(1, 14, imm));
    }
    for shamt in [0, 1, 31] {
        text.extend([enc::slli as Regs, enc::srli, enc::srai].map(|f| f(15, 16, shamt)));
    }
    let ops = [
        enc::add as Regs,
        enc::sub,
        enc::sll,
        enc::slt,
        enc::sltu,
        enc::xor,
        enc::srl,
        enc::sra,
        enc::or,
        enc::and,
        enc::mul,
        enc::mulh,
        enc::mulhsu,
        enc::mulhu,
        enc::div,
        enc::divu,
        enc::rem,
        enc::remu,
    ];
    text.extend(ops.map(|f| f(17, 18, 19)));
    for f in [enc::beq as RegsImm, enc::bne, enc::blt, enc::bge, enc::bltu, enc::bgeu] {
        text.extend([f(20, 21, 4), f(20, 21, -4)]);
    }
    text.extend([enc::lui(22, 0xdead_b000), enc::auipc(23, 0x1000), enc::jal(1, 4)]);
    text.extend([enc::jal(0, -4), enc::fence()]);
    text.extend(enc::li(24, i32::MIN));
    text.extend(enc::li(25, 0x1234_5678));
    text.push(enc::ebreak());

    let image = Rv32Image { entry: 0x1000, text_base: 0x1000, text, data: Vec::new() };
    let program = translate(&image, "every_encoding").expect("every encoding translates");
    let reparsed = parse_asm(&program.disassemble())
        .unwrap_or_else(|e| panic!("translated disassembly failed to reparse: {e}"));
    assert_eq!(reparsed.instructions(), program.instructions());
}
