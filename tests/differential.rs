//! Cross-crate differential tests: the out-of-order core must produce
//! exactly the golden model's architectural state under every protection
//! configuration — protections change timing, never function.

use sdo_rng::SdoRng;
use sdo_sim::harness::{RunOutput, RunRequest, SimConfig, SimError, Simulator, Variant};
use sdo_sim::isa::{Interpreter, Program};
use sdo_sim::uarch::AttackModel;
use sdo_sim::workloads::random::random_program;

/// Runs `prog` on `cfg` stepped cycle by cycle (no fast-forward).
fn run(
    prog: &Program,
    cfg: &SimConfig,
    variant: Variant,
    attack: AttackModel,
) -> Result<RunOutput, SimError> {
    let req = RunRequest::program(prog).variant(variant).attack(attack);
    Simulator::new(cfg.with_fast_forward(false)).run(&req)
}

fn check_program(prog: &Program, cfg: &SimConfig) {
    let mut golden = Interpreter::new(prog);
    golden.run(20_000_000).expect("golden model halts");
    for attack in AttackModel::ALL {
        for variant in Variant::ALL {
            let out = run(prog, cfg, variant, attack)
                .unwrap_or_else(|e| panic!("{} under {variant}/{attack}: {e}", prog.name()));
            assert_eq!(
                out.int_regs(0),
                golden.int_regs(),
                "integer state diverged: {} under {variant}/{attack}",
                prog.name()
            );
            assert_eq!(
                out.fp_regs(0),
                golden.fp_regs(),
                "fp state diverged: {} under {variant}/{attack}",
                prog.name()
            );
            for (addr, byte) in golden.mem_snapshot() {
                assert_eq!(
                    out.memory().backing().read_byte(addr),
                    byte,
                    "memory diverged at {addr:#x}: {} under {variant}/{attack}",
                    prog.name()
                );
            }
        }
    }
}

#[test]
fn random_programs_match_golden_on_table_i_machine() {
    let cfg = SimConfig::table_i();
    for seed in 0..8 {
        check_program(&random_program(seed, 10), &cfg);
    }
}

#[test]
fn random_programs_match_golden_on_tiny_machine() {
    // Small structures provoke stalls, squash corner cases and resource
    // exhaustion that the big machine hides.
    let cfg = SimConfig::tiny();
    for seed in 100..106 {
        check_program(&random_program(seed, 8), &cfg);
    }
}

/// Property: any generated program commits identical architectural state
/// on the OoO core (with the strongest protection) and the golden model.
#[test]
fn prop_sdo_hybrid_futuristic_is_functionally_transparent() {
    let mut rng = SdoRng::seed_from_u64(0xd1f_0000);
    for _ in 0..12 {
        let seed = rng.gen_range(0u64..10_000);
        let prog = random_program(seed, 6);
        let mut golden = Interpreter::new(&prog);
        golden.run(20_000_000).expect("golden halts");

        let out = run(&prog, &SimConfig::tiny(), Variant::Hybrid, AttackModel::Futuristic)
            .expect("halts");
        assert_eq!(out.int_regs(0), golden.int_regs(), "seed {seed}");
        assert_eq!(out.fp_regs(0), golden.fp_regs(), "seed {seed}");
    }
}

/// Property: committed instruction counts are identical across all
/// variants (no instruction is lost or duplicated by protection).
#[test]
fn prop_commit_counts_invariant_across_variants() {
    let mut rng = SdoRng::seed_from_u64(0xd1f_0001);
    for _ in 0..12 {
        let seed = rng.gen_range(0u64..10_000);
        let prog = random_program(seed, 5);
        let cfg = SimConfig::tiny();
        let mut counts = Vec::new();
        for variant in [Variant::Unsafe, Variant::SttLdFp, Variant::StaticL1, Variant::Hybrid] {
            let out = run(&prog, &cfg, variant, AttackModel::Spectre).expect("halts");
            counts.push(out.result().core.committed);
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "seed {seed}: commit counts {counts:?}");
    }
}
