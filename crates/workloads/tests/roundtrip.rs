//! Disassemble → parse round trips: `sdo_isa::parse_asm` accepts the
//! listings `Program::disassemble` produces (absolute `@N` targets
//! included), and the reparsed program is instruction-identical. The
//! harness's program table holds in-process programs under their
//! disassembly on this property, and a `RunKey` names a program by it.

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
