//! # sdo-bench — benchmark support for the SDO reproduction
//!
//! Shared helpers for the bench targets (plain `harness = false` mains
//! timed with [`std::time::Instant`] — the workspace builds offline, so
//! no external bench framework):
//!
//! * `busy_cycle` — host throughput of the busy cycle path, fast-forward
//!   off (CI runs it);
//! * `ablations` — early-forwarding, hybrid components, greedy window and
//!   DRAM-prediction design-choice sweeps (DESIGN.md §6).
//!
//! The paper's tables and figures come from the `sdo-harness` binaries
//! (`fig6`, `fig7`, `fig8`, `table3`, `all`); host-time throughput of
//! the same suite kernels is measured by the repository benchmark in
//! `benchmark/`. The ablations run [`quick_suite`] — the suite kernels at
//! reduced trip counts — so they complete in minutes, and honor
//! `--jobs N` / `SDO_JOBS`.

#![warn(missing_docs)]

use sdo_mem::CacheLevel;
use sdo_workloads::kernels::{
    fp_subnormal, hash_lookup, l1_resident, matmul_blocked, mix_branchy, phase_shift, ptr_chase,
    stencil, stream, stride, Workload,
};
use std::time::Instant;

/// The evaluation suite at reduced trip counts (same kernels, same
/// warm-start hints, faster runs).
#[must_use]
pub fn quick_suite() -> Vec<Workload> {
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

/// Times `f` for `samples` iterations (after one untimed warmup run) and
/// prints a `name: mean ± spread` line, mirroring the shape of the old
/// Criterion output closely enough for eyeballing regressions.
pub fn bench_case<T>(name: &str, samples: u32, mut f: impl FnMut() -> T) {
    let samples = samples.max(1);
    std::hint::black_box(f());
    let mut times = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    let mean = times.iter().sum::<f64>() / f64::from(samples);
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    let max = times.iter().copied().fold(0.0f64, f64::max);
    println!(
        "{name:44} {:>10.3} ms  [{:.3} .. {:.3}] x{samples}",
        mean * 1e3,
        min * 1e3,
        max * 1e3
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_harness::{RunRequest, SimConfig, Simulator};

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
