//! Design-choice assertions behind the paper's optimizations: these are
//! the claims the `ablations` bin quantifies, enforced as inequalities.

use sdo_sim::harness::{RunRequest, SimConfig, Simulator, Variant};
use sdo_sim::mem::CacheLevel;
use sdo_sim::uarch::{AttackModel, PredictorKind, SdoConfig};
use sdo_sim::workloads::kernels::{hash_lookup, Workload};

/// Cycles of `w` on the Table I machine under STT+SDO with `sdo` in
/// place of the variant's own settings.
fn run_custom(w: &Workload, sdo: SdoConfig, attack: AttackModel) -> u64 {
    let req = RunRequest::workload(w).variant(Variant::Hybrid).attack(attack).sdo(sdo);
    Simulator::new(SimConfig::table_i()).run(&req).expect("kernel completes").result().cycles
}

fn probe_kernel() -> Workload {
    Workload::new("hash_lookup", hash_lookup(1 << 14, 1200, 5))
        .warmed(0x80_0000, (1 << 14) * 8, CacheLevel::L3)
}

#[test]
fn early_forwarding_does_not_hurt_and_usually_helps() {
    // Section V-C2: once safe, forwarding the first success early beats
    // waiting out the full response set.
    let w = probe_kernel();
    let mut sdo = SdoConfig::with_predictor(PredictorKind::Static(CacheLevel::L3));
    sdo.early_forward = true;
    let on = run_custom(&w, sdo, AttackModel::Spectre);
    sdo.early_forward = false;
    let off = run_custom(&w, sdo, AttackModel::Spectre);
    assert!(
        on <= off,
        "early forwarding must not slow things down ({on} vs {off})"
    );
}

#[test]
fn dram_delay_beats_clamp_to_l3_on_cold_data() {
    // Section VI-B: reverting DRAM predictions to delayed execution
    // avoids guaranteed-fail lookups and their squashes.
    let cold = Workload::new("hash_cold", hash_lookup(1 << 14, 800, 6)); // no prewarm
    let mut sdo = SdoConfig::with_predictor(PredictorKind::Hybrid);
    sdo.allow_dram_prediction = true;
    let delay = run_custom(&cold, sdo, AttackModel::Futuristic);
    sdo.allow_dram_prediction = false;
    let clamp = run_custom(&cold, sdo, AttackModel::Futuristic);
    assert!(
        delay <= clamp,
        "delaying DRAM-predicted loads must beat forcing fails ({delay} vs {clamp})"
    );
}

#[test]
fn predictor_choice_changes_behavior_not_results() {
    // Every predictor, including the pattern extension, produces the same
    // committed state; only the timing differs.
    let w = probe_kernel();
    let mut cycle_counts = Vec::new();
    for kind in [
        PredictorKind::Greedy,
        PredictorKind::Loop,
        PredictorKind::Hybrid,
        PredictorKind::Pattern,
        PredictorKind::Perfect,
    ] {
        cycle_counts.push(run_custom(&w, SdoConfig::with_predictor(kind), AttackModel::Spectre));
    }
    // Perfect bounds all of them from below (small tolerance for the
    // delayed-DRAM paths the oracle alone chooses).
    let perfect = *cycle_counts.last().unwrap();
    for (i, &c) in cycle_counts.iter().enumerate() {
        assert!(
            c * 100 >= perfect * 95,
            "predictor #{i} beat the oracle meaningfully: {c} vs {perfect}"
        );
    }
}
