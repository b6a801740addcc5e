//! Cross-core covert-channel test (threat model §II: *CrossCore*): the
//! victim speculates on core 0; the attacker sits on core 1 and measures
//! load latencies to the probe array. A probe line the victim's doomed
//! transmit load pulled into the (shared, inclusive) L3 answers faster
//! than DRAM — leaking the secret across cores on the Unsafe baseline.

use sdo_sim::harness::{RunRequest, SimConfig, Simulator, Variant};
use sdo_sim::isa::Assembler;
use sdo_sim::uarch::AttackModel;
use sdo_sim::workloads::spectre_v1_victim;

/// Runs the victim on core 0 of a 2-core system (core 1 halts at once),
/// then timing-probes the probe array from core 1. Returns the byte
/// values whose lines answered faster than a DRAM access (excluding the
/// trained byte).
fn cross_core_recovered(variant: Variant, attack: AttackModel) -> Vec<u8> {
    let scenario = spectre_v1_victim();
    let cfg = SimConfig::table_i();
    let mut idle = Assembler::named("idle");
    idle.halt();
    let programs = [scenario.program.clone(), idle.finish().expect("idle assembles")];
    let out = Simulator::new(cfg)
        .run(&RunRequest::multi(&programs).variant(variant).attack(attack))
        .expect("victim halts");
    let mut mem = out.memory().clone();

    // Attacker on core 1: time one load per probe line. Anything faster
    // than the fastest possible DRAM round trip must have been on chip.
    let dram_floor = cfg.mem.dram.row_hit_latency;
    let mut t = out.results()[0].cycles + 1000;
    let mut recovered = Vec::new();
    for b in 0..=255u8 {
        let r = mem.load(1, scenario.probe_addr(b), t);
        t = r.complete_at + 50;
        if b != scenario.trained_byte && r.latency() < dram_floor {
            recovered.push(b);
        }
    }
    recovered
}

#[test]
fn cross_core_receiver_recovers_secret_on_unsafe() {
    let secret = spectre_v1_victim().secret;
    let recovered = cross_core_recovered(Variant::Unsafe, AttackModel::Spectre);
    assert_eq!(recovered, vec![secret], "shared-LLC timing must reveal exactly the secret");
}

#[test]
fn cross_core_receiver_defeated_by_stt_and_sdo() {
    for variant in [Variant::SttLd, Variant::SttLdFp, Variant::StaticL1, Variant::Hybrid, Variant::Perfect]
    {
        for attack in AttackModel::ALL {
            let recovered = cross_core_recovered(variant, attack);
            assert!(
                recovered.is_empty(),
                "{variant}/{attack} leaked {recovered:?} across cores"
            );
        }
    }
}
