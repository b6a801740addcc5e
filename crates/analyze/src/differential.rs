//! The static↔dynamic soundness differential.
//!
//! The taint fixpoint is a *may* analysis, so its strong claim is the
//! negative one: a program it calls transmit-free (and training-free)
//! under a variant cannot leak under that variant. The differential
//! puts that claim against `sdo-verify`'s dynamic checker over the
//! same fuzzed `LitmusSpec` population the dynamic campaign uses:
//!
//! * **soundness** — for every (spec, variant) the analyzer calls
//!   clean, the secret-swap check must find observables
//!   indistinguishable and the invariant oracle silent. A dynamic
//!   failure on a statically-clean program means the static model
//!   under-taints somewhere — the worst kind of analyzer bug;
//! * **completeness floor** — a spec containing the guaranteed-leak
//!   gadget (`SpectreCache`) must be flagged as a cache transmitter
//!   under `Unsafe`. Full completeness is impossible (the analysis is
//!   conservative the *other* way), but missing the one gadget that
//!   provably leaks means the analyzer is blind, not conservative.
//!
//! Disagreements are shrunk with
//! [`sdo_verify::minimize_with_invariant`], which re-establishes the
//! static verdict on every shrink candidate — deleting a gadget
//! rebuilds the program and can change its CFG, so the stored verdict
//! must not be assumed to survive. A candidate that still fails
//! dynamically but whose static verdict flips is counted as a finding
//! in its own right ([`DifferentialResult::verdict_flips`]).

use crate::findings::{findings_for, FindingKind};
use crate::taint::{analyze, Analysis};
use sdo_harness::Variant;
use sdo_uarch::AttackModel;
use sdo_verify::fuzz::LitmusSpec;
use sdo_verify::{minimize_with_invariant, CampaignConfig, Checker, Counterexample};
use sdo_workloads::Channel;

/// Outcome of one differential run.
#[derive(Debug)]
pub struct DifferentialResult {
    /// Fuzzed specs analyzed.
    pub specs: usize,
    /// (spec, variant) pairs the analyzer called clean and the dynamic
    /// checker confirmed.
    pub confirmed_clean: usize,
    /// (spec, variant) pairs with static findings, skipped dynamically
    /// (the static claim is one-directional).
    pub skipped: usize,
    /// Guaranteed-leak specs whose cache transmitter the analyzer saw.
    pub completeness_hits: usize,
    /// Static↔dynamic disagreements, minimized. Empty on a sound
    /// analyzer.
    pub disagreements: Vec<Counterexample>,
    /// Shrink candidates that kept the dynamic failure but flipped the
    /// static verdict (see module docs). Non-zero values are reported
    /// but do not gate: the *minimized* counterexample is still valid.
    pub verdict_flips: usize,
}

/// Whether the analyzer calls `spec` clean under `variant`: no
/// transmit finding on an open channel and no tainted-training site
/// the variant leaves unprotected. Dead-untaint findings don't affect
/// eligibility — a dead access cannot reach an observable.
#[must_use]
pub fn statically_clean(analysis: &Analysis, variant: Variant) -> bool {
    findings_for(analysis, variant).iter().all(|f| f.kind == FindingKind::DeadUntaint)
}

/// Runs the differential: `count` fuzzed specs (plus the anchor
/// corpus) from `seed`, each analyzed statically once and checked
/// dynamically under every variant where the analyzer claims
/// cleanliness.
#[must_use]
pub fn run(checker: &Checker, seed: u64, count: usize) -> DifferentialResult {
    let cfg = CampaignConfig { seed, quick: false, fuzz_count: Some(count), variants: None };
    let specs = cfg.fuzz_specs();
    let mut result = DifferentialResult {
        specs: specs.len(),
        confirmed_clean: 0,
        skipped: 0,
        completeness_hits: 0,
        disagreements: Vec::new(),
        verdict_flips: 0,
    };

    for spec in &specs {
        // The instruction stream is secret-independent (asserted in
        // tests), so one analysis covers both swap-check builds.
        let analysis = analyze(&spec.build(0));

        if spec.guaranteed_leak() {
            let unsafe_cache = findings_for(&analysis, Variant::Unsafe).iter().any(|f| {
                f.kind == FindingKind::PotentialTransmitGadget && f.channel == Some(Channel::Cache)
            });
            if unsafe_cache {
                result.completeness_hits += 1;
            } else {
                result.disagreements.push(blindness_cex(spec));
            }
        }

        for variant in Variant::ALL {
            if !statically_clean(&analysis, variant) {
                result.skipped += 1;
                continue;
            }
            match check_clean(checker, spec, variant) {
                CleanCheck::Pass => result.confirmed_clean += 1,
                CleanCheck::Error(detail) => {
                    // A statically-clean spec that can't even simulate is
                    // reported as-is; shrinking against a broken run
                    // would minimize the wrong predicate.
                    result.disagreements.push(error_cex(spec, variant, &detail));
                }
                CleanCheck::Fail(outcome) => {
                    // Shrink while the dynamic check still fails AND the
                    // static verdict is still "clean" — otherwise the
                    // minimized program wouldn't witness a *disagreement*.
                    let (min, flips) = minimize_with_invariant(
                        spec,
                        |cand| !matches!(check_clean(checker, cand, variant), CleanCheck::Pass),
                        |cand| statically_clean(&analyze(&cand.build(0)), variant),
                    );
                    result.verdict_flips += flips;
                    let min_outcome = match check_clean(checker, &min, variant) {
                        CleanCheck::Fail(o) => o,
                        _ => outcome,
                    };
                    result.disagreements.push(Counterexample::from_outcome(
                        &min_outcome,
                        min.seed,
                        min.gadget_names(),
                    ));
                }
            }
        }
    }
    result
}

/// Outcome of dynamically verifying one static "clean" claim.
enum CleanCheck {
    /// Indistinguishable observables, silent oracle: claim confirmed.
    Pass,
    /// The dynamic checker contradicted the claim.
    Fail(sdo_verify::SwapOutcome),
    /// The simulation itself failed (hang/config error).
    Error(String),
}

/// Dynamically verifies the static "clean" claim for one (spec,
/// variant): `leaks_via` is forced to `None` — the analyzer said
/// nothing transmits, so observables must be indistinguishable and the
/// oracle silent.
fn check_clean(checker: &Checker, spec: &LitmusSpec, variant: Variant) -> CleanCheck {
    match checker.swap_check(&spec.name(), None, |s| spec.build(s), variant, AttackModel::Spectre)
    {
        Ok(o) if o.passed() => CleanCheck::Pass,
        Ok(o) => CleanCheck::Fail(o),
        Err(e) => CleanCheck::Error(e.to_string()),
    }
}

fn error_cex(spec: &LitmusSpec, variant: Variant, detail: &str) -> Counterexample {
    Counterexample {
        case: spec.name(),
        variant,
        attack: AttackModel::Spectre,
        kind: sdo_verify::CexKind::UnexpectedDivergence,
        seed: spec.seed,
        gadgets: spec.gadget_names(),
        detail: format!("simulation failed on statically-clean spec: {detail}"),
        window: Vec::new(),
    }
}

fn blindness_cex(spec: &LitmusSpec) -> Counterexample {
    use sdo_verify::CexKind;
    Counterexample {
        case: spec.name(),
        variant: Variant::Unsafe,
        attack: AttackModel::Spectre,
        kind: CexKind::MissingDivergence,
        seed: spec.seed,
        gadgets: spec.gadget_names(),
        detail: "static analyzer blind to guaranteed cache leak (no \
                 potential_transmit_gadget[cache] under Unsafe)"
            .to_string(),
        window: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_is_secret_independent() {
        for seed in [0u64, 7, 99] {
            let spec = LitmusSpec::generate(seed);
            assert_eq!(analyze(&spec.build(0)), analyze(&spec.build(42)), "seed {seed}");
        }
    }

    #[test]
    fn anchor_spectre_cache_is_not_statically_clean_under_unsafe() {
        let spec = LitmusSpec::anchor(0);
        assert!(spec.guaranteed_leak());
        let analysis = analyze(&spec.build(0));
        assert!(!statically_clean(&analysis, Variant::Unsafe));
        assert!(findings_for(&analysis, Variant::Unsafe)
            .iter()
            .any(|f| f.channel == Some(Channel::Cache)));
    }
}
