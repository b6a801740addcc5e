//! The leakage policy: which Table II variant closes which covert
//! channel.
//!
//! This is ground truth distilled from the paper, kept in one place so
//! the secret-swap checker, the fuzz campaign and the `pentest` binary
//! all judge outcomes against the same table instead of each hard-coding
//! its own copy:
//!
//! | channel | open under | closed by |
//! |---|---|---|
//! | cache state | `Unsafe`, `Perfect` | STT (both) and every realizable STT+SDO variant |
//! | FP timing | `Unsafe`, `STT{ld}` | `STT{ld+fp}` and every STT+SDO variant |
//!
//! The cache channel is the paper's Section VIII-A penetration test;
//! the FP-timing channel is its Section I-A motivation for treating FP
//! micro-ops as transmitters (which `STT{ld}` deliberately does not).
//!
//! `Perfect` is the odd row out, and the fuzz campaign is what forced
//! the honest classification: its oracle predictor returns the level
//! the data *actually resides in*, which is a function of cache state
//! and therefore — unlike every realizable predictor, which is a
//! function of the PC only (Equation 2) — of the secret. `Perfect`
//! still blocks byte recovery through probe-array residency (Obl-Lds
//! don't fill the cache, so the Section VIII-A receiver reads
//! nothing), but under the strict secret-swap notion its observables
//! can depend on the secret through the predicted probe depth. The
//! paper offers it as a performance upper bound, not a design point.
//!
//! "Open" does not mean "guaranteed to show": a channel can be open
//! while no particular program is guaranteed to produce a measurable
//! divergence through it (FP occupancy under scheduling slack,
//! `Perfect`'s residency-dependent probe depth). [`expectation`]
//! therefore returns three values, and the campaign skips the
//! unverdictable pairings rather than guessing.

use sdo_harness::Variant;
use sdo_workloads::Channel;

/// Whether `variant` closes `channel` under the strict secret-swap
/// notion: every attacker observable is independent of a secret
/// transmitted through that channel.
///
/// This is THE suppression table: `sdo-analyze` projects its static
/// findings per variant through this same function, so the static and
/// dynamic layers can never disagree about policy by construction.
/// Every `(channel, variant)` pairing is listed explicitly — adding a
/// Table II variant is a compile error here, not a silent default.
#[must_use]
pub fn closes(variant: Variant, channel: Channel) -> bool {
    match (channel, variant) {
        // The baseline closes nothing.
        (Channel::Cache | Channel::FpTiming, Variant::Unsafe) => false,
        // Perfect's oracle prediction depends on actual residency,
        // which depends on the secret: not data-oblivious.
        (Channel::Cache, Variant::Perfect) => false,
        (Channel::FpTiming, Variant::Perfect) => true,
        // STT delays a tainted transmitter until its visibility point,
        // so a tainted address never reaches the cache. STT{ld} taints
        // only load results into the cache channel's transmitters; FP
        // latency is deliberately out of scope. STT{ld+fp} also delays
        // tainted FP transmitters.
        (Channel::Cache, Variant::SttLd) => true,
        (Channel::FpTiming, Variant::SttLd) => false,
        (Channel::Cache | Channel::FpTiming, Variant::SttLdFp) => true,
        // Every realizable STT+SDO variant issues predicted-safe accesses
        // obliviously, so both channels are data-oblivious.
        (
            Channel::Cache | Channel::FpTiming,
            Variant::StaticL1 | Variant::StaticL2 | Variant::StaticL3 | Variant::Hybrid,
        ) => true,
    }
}

/// Whether a program leaking via `channel` is *guaranteed* to produce a
/// measurable observable divergence under `variant` — the positive
/// controls. Stronger than `!closes`: `Perfect` leaves the cache
/// channel open but only diverges when the swapped secrets happen to
/// select lines of different residency. Exhaustive over the same
/// `(channel, variant)` grid as [`closes`].
#[must_use]
pub fn guaranteed_divergence(variant: Variant, channel: Channel) -> bool {
    match (channel, variant) {
        (Channel::Cache | Channel::FpTiming, Variant::Unsafe) => true,
        (Channel::FpTiming, Variant::SttLd) => true,
        (Channel::Cache, Variant::SttLd) => false,
        (Channel::Cache | Channel::FpTiming, Variant::SttLdFp) => false,
        (Channel::Cache | Channel::FpTiming, Variant::Perfect) => false,
        (
            Channel::Cache | Channel::FpTiming,
            Variant::StaticL1 | Variant::StaticL2 | Variant::StaticL3 | Variant::Hybrid,
        ) => false,
    }
}

/// What the secret-swap checker should expect for a program that leaks
/// via `leaks_via` (or not at all, for `None`) when run under
/// `variant`: `Some(false)` — observables must be indistinguishable;
/// `Some(true)` — they must diverge (positive control); `None` — the
/// channel is open but divergence is not guaranteed, so neither verdict
/// would be sound and the pairing should be skipped.
#[must_use]
pub fn expectation(variant: Variant, leaks_via: Option<Channel>) -> Option<bool> {
    match leaks_via {
        None => Some(false),
        Some(ch) if closes(variant, ch) => Some(false),
        Some(ch) if guaranteed_divergence(variant, ch) => Some(true),
        Some(_) => None,
    }
}

/// Whether the dynamic invariant oracle's load-side invariants apply:
/// any protection (STT or STT+SDO) must never issue a tainted demand
/// load or train a predictor from tainted state. Exhaustive for the
/// same reason as [`closes`]: a new variant must pick a row here.
#[must_use]
pub fn protects_loads(variant: Variant) -> bool {
    match variant {
        Variant::Unsafe => false,
        Variant::SttLd
        | Variant::SttLdFp
        | Variant::StaticL1
        | Variant::StaticL2
        | Variant::StaticL3
        | Variant::Hybrid
        | Variant::Perfect => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsafe_closes_nothing_and_is_the_cache_positive_control() {
        assert!(!closes(Variant::Unsafe, Channel::Cache));
        assert!(!closes(Variant::Unsafe, Channel::FpTiming));
        assert!(!protects_loads(Variant::Unsafe));
        assert_eq!(expectation(Variant::Unsafe, Some(Channel::Cache)), Some(true));
        assert_eq!(expectation(Variant::Unsafe, Some(Channel::FpTiming)), Some(true));
    }

    #[test]
    fn stt_ld_leaves_fp_open_with_guaranteed_divergence() {
        assert!(closes(Variant::SttLd, Channel::Cache));
        assert!(!closes(Variant::SttLd, Channel::FpTiming));
        assert_eq!(expectation(Variant::SttLd, Some(Channel::FpTiming)), Some(true));
        assert_eq!(expectation(Variant::SttLd, Some(Channel::Cache)), Some(false));
    }

    #[test]
    fn realizable_sdo_variants_close_both_channels() {
        for v in [Variant::StaticL1, Variant::StaticL2, Variant::StaticL3, Variant::Hybrid] {
            assert!(closes(v, Channel::Cache), "{v}");
            assert!(closes(v, Channel::FpTiming), "{v}");
            assert_eq!(expectation(v, Some(Channel::Cache)), Some(false));
            assert_eq!(expectation(v, Some(Channel::FpTiming)), Some(false));
        }
        assert!(closes(Variant::SttLdFp, Channel::FpTiming));
    }

    #[test]
    fn perfect_is_open_on_cache_but_unverdictable() {
        // The oracle predictor's output depends on residency, hence on
        // the secret: not indistinguishable — but not guaranteed to
        // diverge on any particular program either.
        assert!(!closes(Variant::Perfect, Channel::Cache));
        assert!(!guaranteed_divergence(Variant::Perfect, Channel::Cache));
        assert_eq!(expectation(Variant::Perfect, Some(Channel::Cache)), None);
        // FP obliviousness is orthogonal to location prediction.
        assert!(closes(Variant::Perfect, Channel::FpTiming));
        // It still protects loads mechanically (no tainted demand issue).
        assert!(protects_loads(Variant::Perfect));
    }

    #[test]
    fn nonleaking_programs_always_expect_indistinguishable() {
        for v in Variant::ALL {
            assert_eq!(expectation(v, None), Some(false), "{v}");
        }
    }

    #[test]
    fn guaranteed_divergence_implies_open_channel() {
        // The two tables are exhaustive matches over the same grid;
        // check their one cross-table invariant on every cell.
        for v in Variant::ALL {
            for ch in [Channel::Cache, Channel::FpTiming] {
                if guaranteed_divergence(v, ch) {
                    assert!(!closes(v, ch), "{v} guarantees divergence on a closed channel");
                }
            }
        }
    }
}
