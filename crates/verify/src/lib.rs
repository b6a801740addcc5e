//! Automated leakage verification for the SDO reproduction.
//!
//! The simulator's security argument (Section VII of the paper) is a
//! claim about *mechanism*; this crate checks it empirically, three
//! layers deep:
//!
//! * [`checker`] — **secret-swap differential testing**: run the same
//!   program twice with different planted secrets and require the
//!   attacker-observable traces (cycle counts, cache counters, the
//!   per-cycle commit/cache-touch event sequence from `sdo-obs`) to be
//!   byte-identical under every protection that closes the program's
//!   channel — and to *diverge* on the unsafe baseline for Spectre
//!   litmus programs, the positive control proving the harness can see
//!   leaks at all.
//! * [`oracle`] — a **dynamic invariant oracle** over the full event
//!   stream: tainted loads at a non-oblivious issue port, tainted
//!   predictor training, oblivious probes touching beyond their
//!   predicted slice, and validate/expose/squash ordering violations
//!   are flagged mechanically even when no divergence was measurable.
//! * [`fuzz`] — a **seeded litmus generator**: gadget-composed
//!   mini-ISA programs (mispredict windows, secret-dependent loads and
//!   FP chains, contention noise) drive the checker beyond the fixed
//!   corpus, and a greedy minimizer shrinks every finding to its
//!   essential gadgets.
//!
//! [`campaign`] composes the layers deterministically (same seed ⇒
//! same report, at any `--jobs`), [`policy`] is the single copy of the
//! "which variant closes which channel" ground truth, and [`report`]
//! materializes findings as round-trippable JSONL counterexamples.
//! The `verify` binary drives a campaign from the command line; the
//! `pentest` binary reruns the paper's Section VIII-A attack suite and
//! judges it against the same policy.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod checker;
pub mod fuzz;
pub mod oracle;
pub mod policy;
pub mod report;

pub use campaign::{CampaignConfig, CampaignResult};
pub use checker::{Capture, Checker, SwapOutcome, SECRET_PAIR};
pub use fuzz::{minimize, minimize_with_invariant, Gadget, LitmusSpec};
pub use oracle::{Invariant, Violation};
pub use report::{CexKind, Counterexample};
