//! Runs the Spectre V1 attack (the paper's Figure 1 / Section VIII-A
//! penetration test) against every Table II variant and prints which
//! configurations leak the planted secret through the cache covert
//! channel.
//!
//! ```text
//! cargo run --release --example spectre_v1
//! ```

use sdo_sim::harness::experiments::{pentest, pentest_report};
use sdo_sim::harness::{JobPool, RunRequest, SimConfig, Simulator};
use sdo_sim::mem::CacheLevel;
use sdo_sim::workloads::spectre_v1_victim;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = spectre_v1_victim();
    println!(
        "Victim: {} static instructions; secret byte {:#04x} planted out of bounds.\n",
        scenario.program.len(),
        scenario.secret
    );

    let sim = Simulator::new(SimConfig::table_i());
    let outcomes = pentest(&sim, &JobPool::serial())?;
    println!("{}", pentest_report(&outcomes));

    // Show the receiver's view for the insecure baseline.
    let out = sim.run(
        &RunRequest::program(&scenario.program)
            .variant(sdo_sim::harness::Variant::Unsafe)
            .attack(sdo_sim::uarch::AttackModel::Spectre),
    )?;
    println!("Receiver probe of the Unsafe run (byte -> residency):");
    for b in 0..=255u8 {
        let level = out.memory().residency(0, scenario.probe_addr(b));
        if level != CacheLevel::Dram && b != scenario.trained_byte {
            println!("  probe[{b:#04x}] resident in {level}  <-- recovered secret");
        }
    }
    Ok(())
}
