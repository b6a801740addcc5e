//! # sdo-sim — umbrella crate
//!
//! Re-exports the crates of the SDO reproduction workspace under one roof:
//!
//! * [`isa`] — the mini-ISA, assembler and golden-model interpreter,
//! * [`mem`] — the cache/memory hierarchy with data-oblivious lookups,
//! * [`sdo`] — SDO: the DO-variant result, location predictors, Obl-Ld,
//! * [`uarch`] — the speculative out-of-order core with STT and SDO,
//! * [`workloads`] — SPEC17-like kernels and the Spectre V1 attack,
//! * [`harness`] — experiment runners for the paper's tables and figures,
//! * [`verify`] — automated leakage verification: secret-swap differential
//!   testing, the dynamic invariant oracle, and the fuzzed litmus campaign.
//!
//! ## End-to-end example
//!
//! Write a program, check its architectural semantics against the golden
//! model, then measure it under the insecure baseline and under STT+SDO:
//!
//! ```rust
//! use sdo_sim::harness::{RunRequest, SimConfig, Simulator, Variant};
//! use sdo_sim::isa::{parse_asm, Interpreter, Reg};
//! use sdo_sim::uarch::AttackModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_asm(r"
//!     .name demo
//!     .word 0x1000 7 11 13
//!     li r1, 0x1000
//!     ld r2, 0(r1)      ; access instruction
//!     blt r2, r0, done  ; bounds check on the loaded value
//!     slli r3, r2, 3
//!     add  r3, r3, r1
//!     ld   r4, 0(r3)    ; transmit instruction (tainted address)
//! done:
//!     halt
//! ")?;
//!
//! // Architectural semantics (golden model).
//! let mut golden = Interpreter::new(&program);
//! golden.run(10_000)?;
//!
//! // Timing under two Table II variants, through the one `RunRequest`
//! // entry point every figure, campaign and service request shares.
//! let sim = Simulator::new(SimConfig::table_i());
//! let spectre = |v: Variant| RunRequest::program(&program).variant(v).attack(AttackModel::Spectre);
//! let base = sim.run(&spectre(Variant::Unsafe))?.into_result();
//! let sdo = sim.run(&spectre(Variant::Hybrid))?.into_result();
//!
//! // Protection changes timing, never results.
//! assert_eq!(base.core.committed, golden.executed());
//! assert_eq!(sdo.core.committed, golden.executed());
//! assert!(sdo.cycles >= base.cycles);
//! # Ok(())
//! # }
//! ```

pub use sdo_core as sdo;
pub use sdo_harness as harness;
pub use sdo_isa as isa;
pub use sdo_mem as mem;
pub use sdo_uarch as uarch;
pub use sdo_verify as verify;
pub use sdo_workloads as workloads;
