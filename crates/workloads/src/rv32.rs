//! RV32 corpus wiring: the compiled-benchmark corpus of `sdo-rv32`
//! exposed as [`Workload`]s, plus the Spectre-v1 gadget entry as a
//! litmus-style secret-swap case for `sdo-verify` and pinned static
//! verdicts for `sdo-analyze`.
//!
//! The corpus programs themselves (raw RV32 words, data segments,
//! expected outputs) live in `sdo_rv32::corpus`; this module only
//! adapts them to the workload/litmus vocabulary the harness speaks.

use crate::kernels::Workload;
use crate::litmus::{Channel, LitmusCase, StaticExpect};
use sdo_isa::Program;
use sdo_rv32::corpus;

/// The four compiled RV32 benchmark kernels as workloads (the gadget
/// entry is exposed via [`rv32_litmus_cases`] instead).
#[must_use]
pub fn rv32_suite() -> Vec<Workload> {
    corpus::CORPUS
        .iter()
        .filter(|e| e.secret_addr.is_none())
        .map(|e| Workload::new(e.name, e.program()))
        .collect()
}

fn build_rv32_gadget(secret: u8) -> Program {
    corpus::entry("rv32_gadget")
        .expect("gadget entry is part of the pinned corpus")
        .with_secret(secret)
}

/// Litmus-style secret-swap cases over the RV32 corpus, kept separate
/// from [`crate::CORPUS`] so the mini-ISA litmus campaign stays as
/// pinned. The gadget's secret byte sits out of bounds of `array1` and
/// is only touched by the mis-speculated access, so it leaks via the
/// cache on an unprotected core and must be closed by any variant
/// whose policy closes the cache channel.
#[must_use]
pub fn rv32_litmus_cases() -> Vec<LitmusCase> {
    vec![LitmusCase {
        name: "rv32_gadget",
        leaks_via: Some(Channel::Cache),
        build: build_rv32_gadget,
        expect: rv32_expect("rv32_gadget").expect("gadget verdict is pinned"),
    }]
}

/// The pinned static verdict of an RV32 corpus program under
/// `sdo-analyze`'s taint fixpoint (`None` for kernels without one).
/// As with [`crate::kernels::kernel_expect`], the verdicts are
/// conservative: any loaded value that can reach a later load address
/// or branch counts as a potential transmitter/trainer even though the
/// benchmarks carry no secret. The table-driven kernels (crc32, sort's
/// comparisons, strsearch's byte matches) feed loads into branches and
/// so carry training findings; matmul's inner product never branches
/// on data, and its final accumulator store leaves one architecturally
/// dead load in the epilogue. The gadget is the one cache transmitter.
#[must_use]
pub fn rv32_expect(name: &str) -> Option<StaticExpect> {
    let e = |transmit, training, dead_access| {
        Some(StaticExpect { transmit, training, dead_access })
    };
    const CACHE: &[Channel] = &[Channel::Cache];
    match name {
        "rv32_crc32" => e(&[], true, false),
        "rv32_matmul" => e(&[], false, true),
        "rv32_sort" => e(&[], true, true),
        "rv32_strsearch" => e(&[], true, false),
        "rv32_gadget" => e(CACHE, false, false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_isa::Interpreter;

    #[test]
    fn rv32_suite_has_four_classed_kernels() {
        assert_eq!(rv32_suite().len(), 4);
    }

    #[test]
    fn every_rv32_workload_halts_with_its_pinned_result() {
        for w in rv32_suite() {
            let mut interp = Interpreter::new(w.program());
            interp.run(50_000_000).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            let entry = corpus::entry(w.name()).expect("corpus entry");
            assert_eq!(corpus::read_result(&interp), entry.expected_result, "{}", w.name());
        }
    }

    #[test]
    fn rv32_gadget_case_is_architecturally_secret_independent() {
        let case = &rv32_litmus_cases()[0];
        let mut regs = Vec::new();
        for secret in [0u8, 42] {
            let program = (case.build)(secret);
            let mut interp = Interpreter::new(&program);
            interp.run(50_000_000).expect("gadget halts for any secret");
            regs.push(interp.int_regs());
        }
        assert_eq!(regs[0], regs[1], "secret must not reach architectural state");
    }
}
