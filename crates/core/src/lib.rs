//! # sdo-core — Speculative Data-Oblivious Execution (SDO)
//!
//! The primary contribution of *"Speculative Data-Oblivious Execution:
//! Mobilizing Safe Prediction For Safe and Efficient Speculative
//! Execution"* (ISCA 2020), as a reusable library:
//!
//! * [`framework`] — the general SDO construction of Section IV: a DO
//!   variant's `success?, presult` result ([`DoResult`], Equation 1) and
//!   the contract every variant obeys (Definition 1: functional
//!   correctness; Definition 2: operand-independent resource usage).
//!   Figure 2's variants-plus-predictor construction is the Obl-Ld and FP
//!   operations below.
//! * [`predictor`] — location predictors for the Obl-Ld operation
//!   (Section V-D): the static L1/L2/L3 predictors, the *greedy* and
//!   *loop* predictors, the *hybrid* chooser between them, and the
//!   *perfect* oracle used to bound achievable performance.
//! * [`oblld`] — the Obl-Ld operation's wait buffer and per-load state
//!   machine covering the three legal event orderings of Section V-C2
//!   (issue **A**, oblivious-lookup completion **B**, untaint/safe **C**,
//!   validation completion **D**) with the early-forwarding optimization
//!   and InvisiSpec-style validation/exposure selection.
//! * [`fp`] — the floating-point SDO operation from Section I-A: predict
//!   operands normal, execute the fast (data-oblivious) variant, `fail`
//!   on subnormal inputs.
//!
//! The cycle-level integration of these pieces into an out-of-order STT
//! pipeline lives in the `sdo-uarch` crate; everything here is pure logic
//! and independently testable.
//!
//! ## Security contract
//!
//! Each DO variant must satisfy the paper's two definitions:
//!
//! 1. **Functional correctness** — if a variant reports `success`, its
//!    `presult` equals the original transmitter's result; on `fail` the
//!    result is ⊥.
//! 2. **Security (data obliviousness)** — executing the variant creates
//!    operand-independent hardware resource usage. In this codebase that
//!    property is enforced by construction in `sdo-mem` (full-bank
//!    reservations, first-free MSHRs, all-slice broadcasts) and checked by
//!    tests that compare timing traces across operand values.
//!
//! ## Example: predicting a load's cache level
//!
//! ```rust
//! use sdo_core::predictor::{HybridPredictor, LocationPredictor};
//! use sdo_mem::CacheLevel;
//!
//! let mut pred = HybridPredictor::default();
//! let pc = 0x42;
//! // A load that strides: one L2 miss per four L1 hits.
//! for _ in 0..8 {
//!     for _ in 0..3 {
//!         pred.update(pc, CacheLevel::L1);
//!     }
//!     pred.update(pc, CacheLevel::L2);
//! }
//! let p = pred.predict(pc, CacheLevel::L1);
//! assert!(p == CacheLevel::L1 || p == CacheLevel::L2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fp;
pub mod framework;
pub mod oblld;
pub mod predictor;
pub mod security;

pub use fp::{fp_do_execute, FpClass};
pub use framework::DoResult;
pub use oblld::{OblAction, OblEvent, OblLdFsm, WaitBuffer};
pub use predictor::{
    GreedyPredictor, HybridPredictor, LocationPredictor, LoopPredictor, PatternPredictor,
    PerfectPredictor, StaticPredictor,
};
