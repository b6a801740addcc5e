//! Verification campaigns: plan → fan out → judge → minimize.
//!
//! A campaign is the deterministic composition of the other layers: it
//! plans a canonical list of secret-swap checks (the fixed litmus
//! corpus plus seeded fuzz specs, crossed with variants and attack
//! models per the [`policy`]), fans the checks across a
//! [`JobPool`] — results merge in plan order, so the output is
//! byte-identical at any `--jobs` — and then, serially, minimizes every
//! fuzz-spec finding with the greedy [`minimize`] loop before
//! materializing it as a [`Counterexample`].
//!
//! Two kinds of counterexamples come out:
//!
//! * **failures** (`unexpected_divergence`, `missing_divergence`,
//!   `oracle_violation:*`) — the protections or the checker are broken;
//!   the campaign fails.
//! * **demonstrations** (`baseline_leak`) — a positive control leaking
//!   exactly where ground truth says it must (e.g. the unsafe baseline
//!   on a Spectre gadget), kept as an artifact because a campaign whose
//!   positive controls stopped leaking has gone blind.

use crate::checker::{Checker, SwapOutcome};
use crate::fuzz::{minimize, LitmusSpec};
use crate::policy;
use crate::report::Counterexample;
use sdo_harness::{JobPool, SimError, Variant};
use sdo_rng::SdoRng;
use sdo_uarch::AttackModel;
use sdo_workloads::{Channel, CORPUS};

/// What a campaign runs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed: fuzz-spec seeds derive from it deterministically.
    pub seed: u64,
    /// Quick mode: a CI-sized subset of variants, Spectre only, two
    /// fuzz specs. Full mode crosses everything in Table II.
    pub quick: bool,
    /// Overrides the number of fuzz specs (the first is always the
    /// guaranteed-leak anchor; `Some(0)` disables the fuzz phase).
    pub fuzz_count: Option<usize>,
    /// Restricts checking to these variants (`None` = mode default).
    pub variants: Option<Vec<Variant>>,
}

impl CampaignConfig {
    /// The CI-sized campaign for `--quick`.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        CampaignConfig { seed, quick: true, fuzz_count: None, variants: None }
    }

    /// The full campaign (default).
    #[must_use]
    pub fn full(seed: u64) -> Self {
        CampaignConfig { seed, quick: false, fuzz_count: None, variants: None }
    }

    /// Variants the corpus phase crosses with, after the `--variant`
    /// restriction.
    fn corpus_variants(&self) -> Vec<Variant> {
        let base: &[Variant] = if self.quick {
            &[Variant::Unsafe, Variant::SttLd, Variant::SttLdFp, Variant::Hybrid]
        } else {
            &Variant::ALL
        };
        self.restrict(base)
    }

    /// Variants the fuzz phase crosses with. `Unsafe` stays in the
    /// quick set: the anchor's unsafe-baseline leak (and its minimized
    /// counterexample) is the campaign's positive control.
    fn fuzz_variants(&self) -> Vec<Variant> {
        let base: &[Variant] = if self.quick {
            &[Variant::Unsafe, Variant::SttLdFp, Variant::Hybrid]
        } else {
            &Variant::ALL
        };
        self.restrict(base)
    }

    fn restrict(&self, base: &[Variant]) -> Vec<Variant> {
        base.iter()
            .copied()
            .filter(|v| self.variants.as_ref().is_none_or(|keep| keep.contains(v)))
            .collect()
    }

    fn attacks(&self) -> &'static [AttackModel] {
        if self.quick {
            &[AttackModel::Spectre]
        } else {
            &AttackModel::ALL
        }
    }

    /// The effective fuzz-spec count: the override, or the mode default
    /// (2 quick, 8 full).
    #[must_use]
    pub fn fuzz_total(&self) -> usize {
        self.fuzz_count.unwrap_or(if self.quick { 2 } else { 8 })
    }

    /// Generates the campaign's fuzz specs: the guaranteed-leak anchor
    /// first, then seeds drawn from the master seed. Pure function of
    /// `(seed, fuzz_count)`.
    #[must_use]
    pub fn fuzz_specs(&self) -> Vec<LitmusSpec> {
        let n = self.fuzz_total();
        let mut rng = SdoRng::seed_from_u64(self.seed);
        (0..n)
            .map(|i| {
                let s = rng.next_u64();
                if i == 0 {
                    LitmusSpec::anchor(s)
                } else {
                    LitmusSpec::generate(s)
                }
            })
            .collect()
    }

    /// Runs the campaign.
    ///
    /// # Errors
    ///
    /// Returns the canonically-first [`SimError`] if any check's run
    /// exceeds the cycle budget.
    pub fn run(&self, checker: &Checker, pool: &JobPool) -> Result<CampaignResult, SimError> {
        let specs = self.fuzz_specs();
        let plan = self.plan(&specs);

        let outcomes = pool.try_run(&plan, |_, check| {
            let outcome = match check.source {
                Source::Corpus(i) => checker.check_case(&CORPUS[i], check.variant, check.attack)?,
                Source::Fuzz(i) => {
                    let spec = &specs[i];
                    checker.swap_check(
                        &spec.name(),
                        check.leaks_via,
                        |s| spec.build(s),
                        check.variant,
                        check.attack,
                    )?
                }
            };
            Ok::<SwapOutcome, SimError>(outcome)
        })?;

        // Judge + minimize serially over the merged (plan-ordered)
        // results, so counterexamples are jobs-independent.
        let mut counterexamples = Vec::new();
        for (check, outcome) in plan.iter().zip(&outcomes) {
            let spec = match check.source {
                Source::Fuzz(i) => Some(&specs[i]),
                Source::Corpus(_) => None,
            };
            if !outcome.passed() {
                counterexamples.push(self.materialize(checker, check, outcome, spec, false)?);
            } else if outcome.expected_divergence && outcome.divergence.is_some() {
                // A passing positive control: keep the leak it
                // demonstrated as a (minimized) artifact.
                counterexamples.push(self.materialize(checker, check, outcome, spec, true)?);
            }
        }

        Ok(CampaignResult { config: self.clone(), outcomes, counterexamples })
    }

    /// Turns one finding into a counterexample, minimizing the fuzz
    /// spec first (failures shrink while still failing; demonstrations
    /// shrink while still leaking).
    fn materialize(
        &self,
        checker: &Checker,
        check: &Check,
        outcome: &SwapOutcome,
        spec: Option<&LitmusSpec>,
        demo: bool,
    ) -> Result<Counterexample, SimError> {
        let Some(spec) = spec else {
            return Ok(Counterexample::from_outcome(outcome, self.seed, Vec::new()));
        };
        let still_interesting = |s: &LitmusSpec| {
            let Some(lv) = plan_leaks_via(s, check.variant) else { return false };
            match checker.swap_check(&s.name(), lv, |b| s.build(b), check.variant, check.attack) {
                Ok(o) if demo => o.passed() && o.divergence.is_some(),
                Ok(o) => !o.passed(),
                Err(_) => false,
            }
        };
        let min = minimize(spec, still_interesting);
        // Re-check the minimized spec to report its (still failing /
        // still leaking) outcome rather than the noisy original's.
        let lv = plan_leaks_via(&min, check.variant).unwrap_or(check.leaks_via);
        let o = checker.swap_check(&min.name(), lv, |b| min.build(b), check.variant, check.attack)?;
        Ok(Counterexample::from_outcome(&o, min.seed, min.gadget_names()))
    }

    /// The canonical check list: corpus phase in `CORPUS` order, then
    /// the fuzz phase in spec order, each crossed with variants (outer)
    /// and attack models (inner). `Unsafe` ignores the attack model, so
    /// it is checked under Spectre only — same convention as the
    /// pentest harness.
    fn plan(&self, specs: &[LitmusSpec]) -> Vec<Check> {
        let mut plan = Vec::new();
        for (i, _) in CORPUS.iter().enumerate() {
            for &variant in &self.corpus_variants() {
                for &attack in self.attacks() {
                    if variant == Variant::Unsafe && attack != AttackModel::Spectre {
                        continue;
                    }
                    // Skip unverdictable pairings (open channel without
                    // guaranteed divergence, e.g. Perfect × spectre_v1).
                    if policy::expectation(variant, CORPUS[i].leaks_via).is_none() {
                        continue;
                    }
                    plan.push(Check {
                        source: Source::Corpus(i),
                        variant,
                        attack,
                        leaks_via: CORPUS[i].leaks_via,
                    });
                }
            }
        }
        for (i, spec) in specs.iter().enumerate() {
            for &variant in &self.fuzz_variants() {
                for &attack in self.attacks() {
                    if variant == Variant::Unsafe && attack != AttackModel::Spectre {
                        continue;
                    }
                    let Some(leaks_via) = plan_leaks_via(spec, variant) else { continue };
                    plan.push(Check { source: Source::Fuzz(i), variant, attack, leaks_via });
                }
            }
        }
        plan
    }
}

/// What the secret-swap checker should treat as this spec's leak
/// channel under `variant` — or `None` to skip the pairing entirely:
///
/// * a variant that closes **every** channel the spec's gadgets can use
///   is checked with the spec's own ground truth (expectation:
///   indistinguishable);
/// * the unsafe baseline is checked only on specs with a guaranteed
///   cache leak (expectation: divergence) — the FP gadget's timing
///   signal is best-effort, so it can't serve as a positive control;
/// * anything else (`STT{ld}` on a spec with an FP gadget, `Perfect` on
///   one with a cache gadget) is skipped: the channel is open but
///   divergence isn't guaranteed, so neither verdict would be sound.
fn plan_leaks_via(spec: &LitmusSpec, variant: Variant) -> Option<Option<Channel>> {
    if spec.channels().iter().all(|&ch| policy::closes(variant, ch)) {
        Some(spec.leaks_via())
    } else if variant == Variant::Unsafe && spec.guaranteed_leak() {
        Some(Some(Channel::Cache))
    } else {
        None
    }
}

/// Where a planned check's program comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Index into [`CORPUS`].
    Corpus(usize),
    /// Index into the campaign's fuzz specs.
    Fuzz(usize),
}

/// One planned secret-swap check.
#[derive(Debug, Clone, Copy)]
struct Check {
    source: Source,
    variant: Variant,
    attack: AttackModel,
    leaks_via: Option<Channel>,
}

/// Everything a finished campaign produced.
#[derive(Debug)]
pub struct CampaignResult {
    /// The configuration that ran.
    pub config: CampaignConfig,
    /// Every check's outcome, in canonical plan order.
    pub outcomes: Vec<SwapOutcome>,
    /// Materialized findings: failures plus baseline-leak
    /// demonstrations, in plan order.
    pub counterexamples: Vec<Counterexample>,
}

impl CampaignResult {
    /// Number of checks whose verdict was wrong or whose oracle flagged
    /// a violation.
    #[must_use]
    pub fn failures(&self) -> usize {
        self.counterexamples.iter().filter(|c| c.kind.is_failure()).count()
    }

    /// Whether the campaign passed: no failures, and — when any
    /// positive control was planned at all — at least one of them
    /// actually demonstrated its leak (a campaign that never sees any
    /// divergence anywhere can't be trusted to). A run restricted to
    /// protected variants only (`--variant hybrid`) plans no positive
    /// controls and is judged on failures alone.
    #[must_use]
    pub fn passed(&self) -> bool {
        if self.failures() != 0 {
            return false;
        }
        let controls_planned = self.outcomes.iter().any(|o| o.expected_divergence);
        !controls_planned || self.counterexamples.iter().any(|c| !c.kind.is_failure())
    }

    /// Human-readable report.
    #[must_use]
    pub fn render(&self) -> String {
        let mode = if self.config.quick { "quick" } else { "full" };
        let mut out = format!(
            "sdo-verify campaign: seed {} ({mode}, {} checks)\n",
            self.config.seed,
            self.outcomes.len()
        );
        for o in &self.outcomes {
            let mark = if o.passed() { "pass" } else { "FAIL" };
            out.push_str(&format!("  [{mark}] {}\n", o.describe()));
        }
        let demos = self.counterexamples.len() - self.failures();
        out.push_str(&format!(
            "{} checks, {} failure(s), {} baseline-leak demonstration(s): {}\n",
            self.outcomes.len(),
            self.failures(),
            demos,
            if self.passed() { "PASS" } else { "FAIL" },
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::Gadget;

    #[test]
    fn fuzz_specs_are_deterministic_and_anchored() {
        let cfg = CampaignConfig::quick(42);
        let a = cfg.fuzz_specs();
        let b = cfg.fuzz_specs();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert!(a[0].guaranteed_leak(), "first spec is the anchor");
        assert_ne!(CampaignConfig::quick(43).fuzz_specs(), a);
    }

    #[test]
    fn fuzz_count_override_and_disable() {
        let mut cfg = CampaignConfig::full(1);
        assert_eq!(cfg.fuzz_specs().len(), 8);
        cfg.fuzz_count = Some(3);
        assert_eq!(cfg.fuzz_specs().len(), 3);
        cfg.fuzz_count = Some(0);
        assert!(cfg.fuzz_specs().is_empty());
    }

    #[test]
    fn variant_restriction_intersects_mode_defaults() {
        let mut cfg = CampaignConfig::quick(1);
        cfg.variants = Some(vec![Variant::Hybrid, Variant::Perfect]);
        // Perfect is not in the quick set: intersection keeps Hybrid only.
        assert_eq!(cfg.corpus_variants(), vec![Variant::Hybrid]);
        assert_eq!(cfg.fuzz_variants(), vec![Variant::Hybrid]);
    }

    #[test]
    fn plan_skips_unsound_pairings_and_duplicate_unsafe() {
        let cfg = CampaignConfig::full(1);
        let specs =
            vec![LitmusSpec { seed: 5, gadgets: vec![Gadget::SpectreFp] }];
        let plan = cfg.plan(&specs);
        for c in &plan {
            // Unsafe runs under Spectre only.
            assert!(!(c.variant == Variant::Unsafe && c.attack == AttackModel::Futuristic));
            if let Source::Fuzz(_) = c.source {
                // The FP-only spec has no guaranteed leak: Unsafe and
                // STT{ld} pairings are unsound and must be skipped.
                assert!(policy::closes(c.variant, Channel::FpTiming), "{:?}", c.variant);
            }
        }
        // Perfect × spectre_v1 (cache channel, index 0) is
        // unverdictable: open but not guaranteed to diverge.
        assert!(!plan.iter().any(|c| matches!(c.source, Source::Corpus(0))
            && c.variant == Variant::Perfect));
        // Corpus phase: 3 cases × (7 variants × 2 attacks + Unsafe × 1),
        // plus spectre_v1 with Perfect's two pairings skipped.
        let corpus_checks = plan
            .iter()
            .filter(|c| matches!(c.source, Source::Corpus(_)))
            .count();
        assert_eq!(corpus_checks, 3 * (7 * 2 + 1) + (6 * 2 + 1));
    }

    #[test]
    fn plan_gives_unsafe_a_positive_control_on_guaranteed_leaks() {
        let cfg = CampaignConfig::quick(1);
        let specs = cfg.fuzz_specs();
        let plan = cfg.plan(&specs);
        let anchor_unsafe = plan.iter().find(|c| {
            matches!(c.source, Source::Fuzz(0)) && c.variant == Variant::Unsafe
        });
        let c = anchor_unsafe.expect("anchor × Unsafe is planned");
        assert_eq!(c.leaks_via, Some(Channel::Cache));
    }
}
