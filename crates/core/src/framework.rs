//! The general SDO construction (Section IV of the paper).
//!
//! A microarchitect turns a transmitter `f(args)` into an SDO operation
//! `Obl-f(args)` in two steps:
//!
//! 1. design `N` *data-oblivious variants* `Obl-f_1 … Obl-f_N`, each with
//!    signature `success?, presult ← Obl-f_i(args)` (Equation 1, here
//!    [`DoResult`]);
//! 2. design a *DO predictor* `i ← predict(inp)` / `update((inp, actual i))`
//!    (Equations 2–3) choosing which variant to execute, whose inputs are
//!    untainted (public) information only — in this paper, the PC.
//!
//! Every DO variant must uphold the two definitions of Section IV-A:
//!
//! * **Definition 1** (functional correctness) — on `success`,
//!   `presult == f(args)`; on `fail`, `presult` is ⊥.
//! * **Definition 2** (security) — execution creates the same hardware
//!   resource interference for any two operand assignments. In a
//!   software model this translates to: any *timing/occupancy* the
//!   variant reports to the simulator must be independent of `args`.
//!
//! Figure 2 runs as the two SDO operations the pipeline issues: Obl-Ld,
//! whose variants are the per-level lookups of
//! [`OblLdFsm`](crate::oblld::OblLdFsm) and whose DO predictor is a
//! [`LocationPredictor`](crate::predictor::LocationPredictor), and the FP
//! operation, whose one variant is [`fp_do_execute`](crate::fp::fp_do_execute)
//! under a static "predict normal" predictor.

/// Result of executing one DO variant (Equation 1).
///
/// If `success` is true, `presult` must equal the original transmitter's
/// result (Definition 1); if false, `presult` is ⊥ (`None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoResult<R> {
    /// The `success?` flag.
    pub success: bool,
    /// `presult`: the (possibly ⊥) result.
    pub presult: Option<R>,
}

impl<R> DoResult<R> {
    /// A successful execution returning `value`.
    #[must_use]
    pub fn success(value: R) -> Self {
        DoResult { success: true, presult: Some(value) }
    }

    /// A failed execution (`presult` = ⊥).
    #[must_use]
    pub fn fail() -> Self {
        DoResult { success: false, presult: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn do_result_constructors() {
        assert_eq!(DoResult::success(7).presult, Some(7));
        assert_eq!(DoResult::<u64>::fail().presult, None);
        assert!(!DoResult::<u64>::fail().success);
    }
}
