//! Secret-swap differential checker (the AMuLeT-style harness core).
//!
//! A program parameterized by a secret byte is run twice — once per
//! value of [`SECRET_PAIR`] — under the same variant and attack model,
//! and the two runs' attacker observables ([`ObservableTrace`]: total
//! cycles, cache hit/miss counters, and the per-cycle commit /
//! cache-touch event sequence) are compared byte for byte:
//!
//! * a variant that **closes** the program's channel must produce
//!   indistinguishable observables (any [`Divergence`] is a leak);
//! * the **unsafe baseline** on a leaking program must diverge — the
//!   positive control that proves the checker can actually see leaks.
//!
//! Every run's full event stream is additionally fed to the
//! [invariant oracle](crate::oracle), so a run can fail mechanically
//! (e.g. a tainted load issued) even when no observable divergence was
//! measurable.

use crate::oracle::{self, Violation};
use crate::policy;
use sdo_harness::{RunRequest, SimConfig, SimError, Simulator, Variant};
use sdo_isa::Program;
use sdo_obs::{Divergence, Event, ObsConfig, ObservableTrace};
use sdo_uarch::AttackModel;
use sdo_workloads::{Channel, LitmusCase};

/// The two secret bytes every differential check swaps between. Chosen
/// to drive both channels: on the cache channel they select different
/// probe lines; on the FP channel `0` takes the fast (normal) multiply
/// path while `42` forms a subnormal bit pattern and takes the slow one.
pub const SECRET_PAIR: (u8, u8) = (0, 42);

/// Everything captured from one instrumented run.
#[derive(Debug, Clone)]
pub struct Capture {
    /// The attacker-visible projection.
    pub observable: ObservableTrace,
    /// The full event stream (oracle input; counterexample windows).
    pub events: Vec<Event>,
}

/// The verdict of one secret-swap check: a `(program, variant, attack)`
/// triple judged against the policy's expectation.
#[derive(Debug, Clone)]
pub struct SwapOutcome {
    /// Name of the program checked (litmus case or fuzz spec).
    pub case: String,
    /// Variant the two runs executed under.
    pub variant: Variant,
    /// Attack model in force.
    pub attack: AttackModel,
    /// Channel the program leaks through on an unprotected core.
    pub leaks_via: Option<Channel>,
    /// Whether the policy predicts an observable divergence.
    pub expected_divergence: bool,
    /// First observable difference between the two runs, if any.
    pub divergence: Option<Divergence>,
    /// Invariant-oracle findings across both runs.
    pub violations: Vec<Violation>,
    /// Events around the divergence point (for counterexample reports):
    /// from the run with the first secret.
    pub window: Vec<Event>,
}

impl SwapOutcome {
    /// Whether the check passed: the divergence matched the policy's
    /// expectation and the oracle found no violations.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.divergence.is_some() == self.expected_divergence && self.violations.is_empty()
    }

    /// One-line verdict for reports.
    #[must_use]
    pub fn describe(&self) -> String {
        let verdict = match (self.expected_divergence, &self.divergence) {
            (false, None) => "indistinguishable".to_string(),
            (true, Some(d)) => format!("leaks as expected ({})", d.describe()),
            (false, Some(d)) => format!("LEAK: {}", d.describe()),
            (true, None) => "NO LEAK where one was expected (checker blind?)".to_string(),
        };
        let oracle = if self.violations.is_empty() {
            String::new()
        } else {
            format!("; {} oracle violation(s), first: {}", self.violations.len(),
                self.violations[0].detail)
        };
        format!("{} / {} / {}: {verdict}{oracle}", self.case, self.variant, self.attack)
    }
}

/// The instrumented simulator the verification layers share.
#[derive(Debug, Clone)]
pub struct Checker {
    sim: Simulator,
}

/// Event-trace capacity per run. Litmus programs commit a few thousand
/// instructions; a generous bound keeps `dropped == 0`, which the
/// observable comparison requires for soundness.
const TRACE_CAPACITY: usize = 1 << 20;

impl Checker {
    /// A checker on the paper's Table I machine.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(SimConfig::table_i())
    }

    /// A checker on a caller-chosen machine (tests use `tiny`). The
    /// observability probe is forced on: the checker needs the event
    /// trace regardless of what `cfg` asked for.
    #[must_use]
    pub fn with_config(cfg: SimConfig) -> Self {
        Checker { sim: Simulator::new(cfg.with_obs(ObsConfig::full(TRACE_CAPACITY))) }
    }

    /// Runs one program once and captures observables + full events.
    ///
    /// The run goes through [`Simulator::run`] directly rather than a
    /// `Runner`: obs-carrying results hold an in-process probe and are
    /// deliberately never cached or served.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Hang`] if the program exceeds the cycle
    /// budget.
    pub fn capture(
        &self,
        program: &Program,
        variant: Variant,
        attack: AttackModel,
    ) -> Result<Capture, SimError> {
        let r = self
            .sim
            .run(&RunRequest::program(program).variant(variant).attack(attack))?
            .into_result();
        let obs = r.obs.as_ref().expect("checker always enables the probe");
        let trace = obs.trace().expect("checker always enables the event trace");
        let counters = vec![
            ("mem.l1_hits", r.mem.l1_hits),
            ("mem.l1_misses", r.mem.l1_misses),
            ("mem.l2_hits", r.mem.l2_hits),
            ("mem.l2_misses", r.mem.l2_misses),
            ("mem.l3_hits", r.mem.l3_hits),
            ("mem.l3_misses", r.mem.l3_misses),
        ];
        Ok(Capture {
            observable: ObservableTrace::project(r.cycles, counters, trace),
            events: trace.events().to_vec(),
        })
    }

    /// Secret-swap check of an arbitrary program builder: runs
    /// `build(SECRET_PAIR.0)` and `build(SECRET_PAIR.1)` under
    /// `(variant, attack)`, diffs observables, and runs the oracle over
    /// both event streams.
    ///
    /// The expectation comes from [`policy::expectation`]; for a
    /// pairing the policy calls unverdictable (open channel, no
    /// guaranteed divergence — e.g. `Perfect` on a cache-leaking
    /// program) this defaults to the strict reading (any divergence
    /// fails). The campaign skips those pairings instead of calling in.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Hang`] if either run exceeds the cycle
    /// budget.
    pub fn swap_check(
        &self,
        case: &str,
        leaks_via: Option<Channel>,
        build: impl Fn(u8) -> Program,
        variant: Variant,
        attack: AttackModel,
    ) -> Result<SwapOutcome, SimError> {
        let a = self.capture(&build(SECRET_PAIR.0), variant, attack)?;
        let b = self.capture(&build(SECRET_PAIR.1), variant, attack)?;
        let divergence = a.observable.divergence(&b.observable);
        let mut violations = oracle::check(variant, &a.events);
        violations.extend(oracle::check(variant, &b.events));
        let window = window_around(&a.events, &divergence, &violations);
        Ok(SwapOutcome {
            case: case.to_string(),
            variant,
            attack,
            leaks_via,
            expected_divergence: policy::expectation(variant, leaks_via).unwrap_or(false),
            divergence,
            violations,
            window,
        })
    }

    /// [`Checker::swap_check`] for a corpus [`LitmusCase`], taking the
    /// expectation from the case's ground truth.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Hang`] if either run exceeds the cycle
    /// budget.
    pub fn check_case(
        &self,
        case: &LitmusCase,
        variant: Variant,
        attack: AttackModel,
    ) -> Result<SwapOutcome, SimError> {
        self.swap_check(case.name, case.leaks_via, case.build, variant, attack)
    }
}

impl Default for Checker {
    fn default() -> Self {
        Self::new()
    }
}

/// How many events of context a counterexample window keeps on each
/// side of the point of interest.
const WINDOW_RADIUS: usize = 8;

/// Cuts a context window out of the event stream around the first point
/// of interest: the divergence's event index if it names one, else the
/// first oracle violation, else the stream tail (for cycle/counter
/// divergences, the leak shows at the end).
fn window_around(
    events: &[Event],
    divergence: &Option<Divergence>,
    violations: &[Violation],
) -> Vec<Event> {
    let center = match divergence {
        Some(Divergence::Event { index, .. }) => {
            // Map the observable-stream index back to the full stream:
            // count visible events until we reach it.
            let mut seen = 0usize;
            events
                .iter()
                .position(|e| {
                    if sdo_obs::is_observable(e.kind) {
                        seen += 1;
                        seen > *index
                    } else {
                        false
                    }
                })
                .unwrap_or(events.len().saturating_sub(1))
        }
        _ => match violations.first() {
            Some(v) => v.index,
            None => events.len().saturating_sub(1),
        },
    };
    let start = center.saturating_sub(WINDOW_RADIUS);
    let end = (center + WINDOW_RADIUS + 1).min(events.len());
    events[start..end].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_obs::EventKind;

    fn ev(cycle: u64, kind: EventKind) -> Event {
        Event { cycle, seq: cycle, pc: 0, kind }
    }

    #[test]
    fn window_centers_on_divergent_visible_event() {
        // 20 alternating hidden/visible events; divergence at visible
        // index 5 (the 6th commit).
        let events: Vec<Event> = (0..20)
            .map(|i| {
                ev(i, if i % 2 == 0 { EventKind::Dispatch } else { EventKind::Commit })
            })
            .collect();
        let d = Some(Divergence::Event {
            index: 5,
            a: events[11],
            b: events[11],
        });
        let w = window_around(&events, &d, &[]);
        // Center is full-stream index 11 (the 6th visible event).
        assert!(w.contains(&events[11]));
        assert!(w.len() <= 2 * WINDOW_RADIUS + 1);
    }

    #[test]
    fn window_falls_back_to_tail_for_cycle_divergence() {
        let events: Vec<Event> = (0..30).map(|i| ev(i, EventKind::Commit)).collect();
        let w = window_around(&events, &Some(Divergence::Cycles { a: 1, b: 2 }), &[]);
        assert_eq!(w.last(), events.last());
    }

    #[test]
    fn empty_stream_gives_empty_window() {
        assert!(window_around(&[], &None, &[]).is_empty());
    }

    fn rv32_gadget() -> LitmusCase {
        let cases = sdo_workloads::rv32_litmus_cases();
        cases.into_iter().find(|c| c.name == "rv32_gadget").expect("gadget case")
    }

    #[test]
    fn compiled_gadget_diverges_where_the_policy_keeps_the_channel_open() {
        // Perfect keeps the cache channel open in the static table
        // because its oracle prediction is itself residency-dependent,
        // and the secret-swapped runs diverge dynamically too.
        let checker = Checker::new();
        let case = rv32_gadget();
        for v in [Variant::Unsafe, Variant::Perfect] {
            let outcome = checker.check_case(&case, v, AttackModel::Spectre).expect("completes");
            assert!(outcome.divergence.is_some(), "{v:?} must leak the compiled gadget");
        }
    }

    #[test]
    fn compiled_gadget_shows_no_divergence_under_closed_variants() {
        let checker = Checker::new();
        let case = rv32_gadget();
        for v in [Variant::SttLd, Variant::StaticL1, Variant::Hybrid] {
            let outcome = checker.check_case(&case, v, AttackModel::Spectre).expect("completes");
            assert!(outcome.divergence.is_none(), "{v:?} must close the compiled gadget");
        }
    }
}
