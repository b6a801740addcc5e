//! Ablations of the design choices DESIGN.md §6 calls out:
//!
//! 1. **early forwarding** from the wait buffer on/off (Section V-C2),
//! 2. **hybrid components**: greedy-only vs loop-only vs the hybrid
//!    chooser (Section V-D),
//! 3. **greedy history window** *m* sweep (predictor-level),
//! 4. **DRAM predictions**: allow (revert to delay) vs clamp to L3
//!    (force a fail + squash) (Section VI-B).
//!
//! Each ablation prints its comparison table. The simulated ones are
//! batches of [`RunRequest`]s whose SDO override replaces their
//! variant's own settings, run by the shared [`Runner`] on the suite
//! kernels at reduced trip counts, so `--jobs N` / `SDO_JOBS`,
//! `--no-skip`, `--store`, `--server` and `--no-cache` work as they do
//! on the figure bins. The cache summary goes to stderr.

use sdo_core::predictor::{GreedyPredictor, LocationPredictor};
use sdo_harness::cli::{BinSpec, CommonArgs, CLIENT, JOBS, NO_SKIP};
use sdo_harness::engine::JobPool;
use sdo_harness::{AttackModel, PredictorKind, RunRequest, Runner, SdoConfig, SimConfig, Variant};
use sdo_mem::CacheLevel;
use sdo_workloads::kernels::{
    fp_subnormal, hash_lookup, l1_resident, matmul_blocked, mix_branchy, phase_shift, ptr_chase,
    stencil, stream, stride, Workload,
};

/// The evaluation suite at reduced trip counts (same kernels, same
/// warm-start hints, faster runs).
fn quick_suite() -> Vec<Workload> {
    vec![
        Workload::new("ptr_chase", ptr_chase(1 << 18, 800, 1)).warmed(0x10_0000, 1 << 18, CacheLevel::L3),
        Workload::new("stream", stream(2048, 1, 2)).warmed(0x20_0000, 2048 * 8, CacheLevel::L3),
        Workload::new("stride", stride(512, 3, 2, 3)).warmed(0x40_0000, 512 * 64, CacheLevel::L3),
        Workload::new("mix_branchy", mix_branchy(1 << 13, 800, 4))
            .warmed(0x30_0000, (1 << 13) * 8, CacheLevel::L2),
        Workload::new("hash_lookup", hash_lookup(1 << 14, 800, 5))
            .warmed(0x80_0000, (1 << 14) * 8, CacheLevel::L3),
        Workload::new("stencil", stencil(1024, 2, 6)).warmed(0x50_0000, 1024 * 8 + 16, CacheLevel::L2),
        Workload::new("matmul_blocked", matmul_blocked(10, 7)),
        Workload::new("fp_subnormal", fp_subnormal(800, 16, 8)),
        Workload::new("phase_shift", phase_shift(200, 3, 9))
            .warmed(0xB0_0000, (1 << 16) * 8, CacheLevel::L3),
        Workload::new("l1_resident", l1_resident(1500, 10)),
    ]
}

/// The cycles of each request, run as one batch.
fn cycles(runner: &Runner, pool: &JobPool, reqs: &[RunRequest]) -> Vec<u64> {
    let results =
        runner.run_batch(reqs, pool).unwrap_or_else(|e| SPEC.runtime_error(&e.to_string()));
    results.iter().map(|r| r.cycles).collect()
}

/// The kernel of `kernels` named `name`.
fn kernel<'a>(kernels: &'a [Workload], name: &str) -> &'a Workload {
    kernels.iter().find(|w| w.name() == name).expect("kernel")
}

fn ablation_early_forward(kernels: &[Workload], runner: &Runner, pool: &JobPool) {
    println!("\nABLATION: early forwarding from the wait buffer (Section V-C2)");
    println!("{:14} {:>12} {:>12} {:>8}", "kernel", "early-fwd on", "off", "delta");
    let names = ["hash_lookup", "phase_shift", "stream"];
    let reqs: Vec<RunRequest> = names
        .iter()
        .flat_map(|name| {
            [true, false].map(|early_forward| {
                let sdo = SdoConfig {
                    early_forward,
                    ..SdoConfig::with_predictor(PredictorKind::Static(CacheLevel::L3))
                };
                RunRequest::workload(kernel(kernels, name)).variant(Variant::StaticL3).sdo(sdo)
            })
        })
        .collect();
    for (pair, name) in cycles(runner, pool, &reqs).chunks(2).zip(names) {
        let (on, off) = (pair[0], pair[1]);
        println!(
            "{:14} {:>12} {:>12} {:>7.1}%",
            name,
            on,
            off,
            100.0 * (off as f64 - on as f64) / on as f64
        );
    }
}

fn ablation_hybrid_parts(kernels: &[Workload], runner: &Runner, pool: &JobPool) {
    println!("\nABLATION: hybrid predictor components (Section V-D)");
    println!("{:14} {:>10} {:>10} {:>10} {:>10}", "kernel", "greedy", "loop", "hybrid", "pattern");
    const KINDS: [PredictorKind; 4] =
        [PredictorKind::Greedy, PredictorKind::Loop, PredictorKind::Hybrid, PredictorKind::Pattern];
    let names = ["stream", "phase_shift", "hash_lookup"];
    let reqs: Vec<RunRequest> = names
        .iter()
        .flat_map(|name| {
            KINDS.map(|kind| {
                RunRequest::workload(kernel(kernels, name))
                    .variant(Variant::Hybrid)
                    .sdo(SdoConfig::with_predictor(kind))
            })
        })
        .collect();
    for (row, name) in cycles(runner, pool, &reqs).chunks(KINDS.len()).zip(names) {
        let mut line = format!("{name:14}");
        for c in row {
            line.push_str(&format!(" {c:>10}"));
        }
        println!("{line}");
    }
}

fn ablation_greedy_window() {
    println!("\nABLATION: greedy history window m (predictor-level)");
    // Strided pattern: 7×L1 then one L2, the loop predictor's home turf —
    // larger windows make greedy more accurate but less precise.
    println!("{:>4} {:>10} {:>10}", "m", "precision", "accuracy");
    for m in [1usize, 2, 4, 8, 16] {
        let mut p = GreedyPredictor::new(512, m);
        let pc = 0x40;
        let (mut precise, mut accurate, mut total) = (0u32, 0u32, 0u32);
        for i in 0..4000u32 {
            let actual = if i % 8 == 7 { CacheLevel::L2 } else { CacheLevel::L1 };
            let pred = p.predict(pc, actual);
            total += 1;
            precise += u32::from(pred == actual);
            accurate += u32::from(pred.depth() >= actual.depth());
            p.update(pc, actual);
        }
        println!(
            "{m:>4} {:>9.1}% {:>9.1}%",
            100.0 * f64::from(precise) / f64::from(total),
            100.0 * f64::from(accurate) / f64::from(total)
        );
    }
}

fn ablation_dram_prediction(kernels: &[Workload], runner: &Runner, pool: &JobPool) {
    println!("\nABLATION: DRAM predictions — delay (paper) vs clamp-to-L3 (Section VI-B)");
    println!("{:14} {:>12} {:>12}", "kernel", "delay", "clamp-to-L3");
    let names = ["hash_lookup", "ptr_chase"];
    // Strip the warm-start hints: DRAM-resident data is the point here.
    let reqs: Vec<RunRequest> = names
        .iter()
        .flat_map(|name| {
            [true, false].map(|allow_dram_prediction| {
                let sdo = SdoConfig {
                    allow_dram_prediction,
                    ..SdoConfig::with_predictor(PredictorKind::Hybrid)
                };
                RunRequest::program(kernel(kernels, name).program())
                    .variant(Variant::Hybrid)
                    .attack(AttackModel::Futuristic)
                    .sdo(sdo)
            })
        })
        .collect();
    for (pair, name) in cycles(runner, pool, &reqs).chunks(2).zip(names) {
        println!("{name:14} {:>12} {:>12}", pair[0], pair[1]);
    }
}

const SPEC: BinSpec = BinSpec {
    name: "ablations",
    about: "Ablations of the DESIGN.md §6 design choices.",
    usage_args: "[options]",
    options: &[JOBS, NO_SKIP, CLIENT],
};

fn main() {
    let args = CommonArgs::parse(&SPEC);
    args.reject_positionals(&SPEC);
    let runner = args.runner(&SPEC, SimConfig::table_i());
    let kernels = quick_suite();
    ablation_early_forward(&kernels, &runner, &args.pool);
    ablation_hybrid_parts(&kernels, &runner, &args.pool);
    ablation_greedy_window();
    ablation_dram_prediction(&kernels, &runner, &args.pool);
    args.report_cache(&runner);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_harness::Simulator;

    #[test]
    fn quick_suite_is_complete_and_fast() {
        let q = quick_suite();
        assert_eq!(q.len(), 10);
        // A representative run completes on the Table I machine.
        let sim = Simulator::new(SimConfig::table_i());
        let result = sim.run(&RunRequest::workload(&q[9])).expect("kernel completes");
        assert!(result.into_result().cycles > 0);
    }
}
