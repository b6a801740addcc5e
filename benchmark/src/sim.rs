//! `sim-busy` and `sim-stall`: suite kernels × 8 variants × 2 attack
//! models through `Runner::local(..).run_batch`, as the figure binaries
//! run them (fast-forward on, `JobPool` of `min(2, nproc)` workers).
//!
//! Inputs: each kernel appears as two instances, one with its size drawn
//! from ×0.75–1.5 of the `suite()` default and one at ×1.5;
//! `sim-stall`'s `ptr_chase` footprint is drawn from 1–4 MiB (up to
//! twice the 2 MiB L3) with the second instance at 4 MiB. The seed sets
//! the drawn sizes and every kernel's seed.
//!
//! `work_per_s` is simulated cycles per host second: the geometric mean
//! over instances of cycles / wall time of the instance's 16-run batch
//! (one unit per instance), so no single instance's size dominates.

use crate::trace::Tracer;
use crate::{geomean, traced_batch, Layers, Sample, Workload};
use sdo_harness::engine::JobPool;
use sdo_harness::experiments::SuiteResults;
use sdo_harness::{AttackModel, RunRequest, RunResult, Runner, SimConfig, Variant};
use sdo_mem::CacheLevel;
use sdo_rng::SdoRng;
use sdo_workloads::kernels::{
    fp_subnormal, hash_lookup, l1_resident, matmul_blocked, mix_branchy, phase_shift, ptr_chase,
    stencil, stream, stride,
};
use sdo_workloads::Workload as Kernel;
use std::time::Instant;

/// Which kernel set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `cache_resident` and `branchy` kernels: few skipped cycles, host
    /// time goes to the core stages and wrong-path fetch.
    Busy,
    /// `dram_bound` and `fp` kernels with multi-MiB footprints: most
    /// cycles fast-forwarded; memory set-up and the event horizon carry
    /// the run.
    Stall,
}

const MIB: u64 = 1 << 20;

/// Draws one kernel instance: `top` = false draws its size from
/// ×0.75–1.5 of the default (`ptr_chase`: a 1–4 MiB footprint), `top` =
/// true takes the largest size, so the largest input — and with it the
/// peak memory — is the same for every seed while the seed still sets
/// every kernel's data.
fn instance(class: Class, kernel: usize, top: bool, rng: &mut SdoRng) -> Kernel {
    let s = if top {
        1.5
    } else {
        0.75 + 0.75 * rng.unit_f64()
    };
    let sized = |base: u64, s: f64| ((base as f64) * s).round() as u64;
    let seed = rng.next_u64();
    match (class, kernel) {
        (Class::Busy, 0) => {
            let words = sized(4096, s);
            Kernel::new("stream", stream(words, 2, seed)).warmed(
                0x20_0000,
                words * 8,
                CacheLevel::L3,
            )
        }
        (Class::Busy, 1) => {
            let lines = sized(1536, s);
            Kernel::new("stride", stride(lines, 3, 3, seed)).warmed(
                0x40_0000,
                lines * 64,
                CacheLevel::L3,
            )
        }
        (Class::Busy, 2) => Kernel::new("mix_branchy", mix_branchy(1 << 14, sized(3000, s), seed))
            .warmed(0x30_0000, (1 << 14) * 8, CacheLevel::L2),
        (Class::Busy, 3) => {
            let words = sized(2048, s);
            Kernel::new("stencil", stencil(words, 3, seed)).warmed(
                0x50_0000,
                words * 8 + 16,
                CacheLevel::L2,
            )
        }
        // Work grows with n³: scale n by the cube root so the work, not
        // the side, spans ×0.75–1.5.
        (Class::Busy, 4) => {
            Kernel::new("matmul_blocked", matmul_blocked(sized(18, s.cbrt()), seed))
        }
        (Class::Busy, 5) => Kernel::new("l1_resident", l1_resident(sized(5000, s), seed)),
        (Class::Stall, 0) => {
            let bytes = if top {
                4 * MIB
            } else {
                rng.gen_range(MIB / 64..4 * MIB / 64) * 64
            };
            Kernel::new("ptr_chase", ptr_chase(bytes, sized(4000, s), seed)).warmed(
                0x10_0000,
                bytes,
                CacheLevel::L3,
            )
        }
        // The table image is dense and each of the 16 requests carries
        // its own copy, so the table stays at ×0.75–1.5 of the default
        // 512 KiB rather than the 1–4 MiB of `ptr_chase`'s sparse ring.
        (Class::Stall, 1) => {
            let words = sized(1 << 16, s);
            Kernel::new("hash_lookup", hash_lookup(words, sized(3000, s), seed)).warmed(
                0x80_0000,
                words * 8,
                CacheLevel::L3,
            )
        }
        (Class::Stall, 2) => Kernel::new("phase_shift", phase_shift(sized(500, s), 5, seed))
            .warmed(0xB0_0000, (1 << 16) * 8, CacheLevel::L3),
        (Class::Stall, 3) => Kernel::new("fp_subnormal", fp_subnormal(sized(3000, s), 16, seed)),
        _ => unreachable!("kernel index out of range"),
    }
}

/// The 16 requests of one instance, attack-major then variant, the
/// order `experiments::run_suite_on` uses.
fn requests(kernel: &Kernel) -> Vec<RunRequest> {
    AttackModel::ALL
        .iter()
        .flat_map(|&a| {
            Variant::ALL
                .iter()
                .map(move |&v| RunRequest::workload(kernel).variant(v).attack(a))
        })
        .collect()
}

/// A prepared `sim-busy` or `sim-stall` run.
#[derive(Debug)]
pub struct Sims {
    class: Class,
    seed: u64,
    runner: Runner,
    pool: JobPool,
    instances: Vec<Kernel>,
    reference: Option<Vec<Vec<RunResult>>>,
}

impl Sims {
    /// Generates the inputs for `seed` under a `workloads.gen` span.
    #[must_use]
    pub fn setup(class: Class, seed: u64, t: &Tracer, parent: usize) -> Sims {
        let kernels = match class {
            Class::Busy => 6,
            Class::Stall => 4,
        };
        let instances: Vec<Kernel> = t.span("workloads.gen", Some(parent), 0, |_| {
            let mut rng = SdoRng::seed_from_u64(seed);
            (0..kernels)
                .flat_map(|k| [false, true].map(|top| (k, top)))
                .map(|(k, top)| instance(class, k, top, &mut rng))
                .collect()
        });
        let jobs = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2);
        Sims {
            class,
            seed,
            runner: Runner::local(SimConfig::table_i()),
            pool: JobPool::new(jobs),
            instances,
            reference: None,
        }
    }

    /// Compares a sample's results with the first sample's; returns the
    /// number of runs that differ, plus any instance whose committed
    /// count is not identical across its 16 runs.
    fn check(&mut self, results: Vec<Vec<RunResult>>) -> u64 {
        let Some(reference) = &self.reference else {
            let bad = results
                .iter()
                .flat_map(|runs| {
                    runs.iter()
                        .map(|r| u64::from(r.core.committed != runs[0].core.committed))
                })
                .sum();
            self.reference = Some(results);
            return bad;
        };
        reference
            .iter()
            .flatten()
            .zip(results.iter().flatten())
            .map(|(a, b)| u64::from(a != b))
            .sum()
    }

    /// The first sample's results as the figure pipeline's per-run CSV.
    fn runs_csv(&self) -> Option<String> {
        let reference = self.reference.as_ref()?;
        let per = Variant::ALL.len();
        let runs = AttackModel::ALL
            .iter()
            .enumerate()
            .map(|(ai, &a)| {
                (
                    a,
                    reference
                        .iter()
                        .map(|r| r[ai * per..(ai + 1) * per].to_vec())
                        .collect(),
                )
            })
            .collect();
        let workloads = self
            .instances
            .iter()
            .map(|k| k.name().to_string())
            .collect();
        Some(sdo_harness::export::runs_csv(&SuiteResults {
            runs,
            workloads,
        }))
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

impl Workload for Sims {
    fn sample(&mut self) -> Result<Sample, String> {
        let mut units = Vec::with_capacity(self.instances.len());
        let mut results = Vec::with_capacity(self.instances.len());
        let mut attempted = 0;
        for kernel in &self.instances {
            // Each request carries its own copy of the program, so only
            // one instance's requests exist at a time (multi-MiB images).
            let batch = requests(kernel);
            attempted += batch.len() as u64;
            let t0 = Instant::now();
            let outcome = self.runner.run_batch(&batch, &self.pool);
            units.push(t0.elapsed().as_secs_f64());
            results.push(outcome.map_err(|e| format!("{} batch failed: {e}", kernel.name()))?);
        }
        let failed = self.check(results);
        Ok(Sample {
            units,
            attempted,
            failed,
            peaks_mb: Vec::new(),
        })
    }

    fn rate(&self, unit_seconds: &[f64]) -> f64 {
        let Some(reference) = &self.reference else {
            return 0.0;
        };
        let rates: Vec<f64> = reference
            .iter()
            .zip(unit_seconds)
            .map(|(runs, s)| runs.iter().map(|r| r.cycles).sum::<u64>() as f64 / s)
            .collect();
        geomean(&rates)
    }

    fn traced(&mut self, t: &Tracer, parent: usize, layers: &Layers) -> Result<f64, String> {
        // `Runner::local(..).run_batch` is `JobPool::try_run` over
        // `Simulator::run`; the same fan-out here makes each job visible.
        let sim = self.runner.simulator().clone();
        let mut seconds = 0.0;
        let mut results = Vec::with_capacity(self.instances.len());
        for (bi, kernel) in self.instances.iter().enumerate() {
            let reqs = t.span("bench.requests", Some(parent), bi as u64, |_| {
                requests(kernel)
            });
            let (runs, dt) = traced_batch(t, parent, bi as u64, &self.pool, &sim, &reqs, layers)?;
            seconds += dt;
            results.push(runs);
            // Each request owns a copy of the (possibly multi-MiB) image.
            t.span("bench.requests", Some(parent), bi as u64, |_| drop(reqs));
        }
        let bad = t.span("bench.check", Some(parent), 0, |_| self.check(results));
        if bad == 0 {
            Ok(seconds)
        } else {
            Err(format!("{bad} traced runs differ from the untraced ones"))
        }
    }

    fn final_checks(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        let Some(csv) = self.runs_csv() else {
            return vec!["no sample completed".to_string()];
        };
        if self.seed == crate::DEFAULT_SEED {
            let digest = hex(&sdo_harness::store::sha256(csv.as_bytes()));
            let pinned = match self.class {
                Class::Busy => include_str!("../golden/sim-busy.sha256"),
                Class::Stall => include_str!("../golden/sim-stall.sha256"),
            };
            if digest != pinned.trim() {
                out.push(format!(
                    "runs_csv digest {digest} differs from the pinned {}",
                    pinned.trim()
                ));
            }
        }
        out
    }

    fn probe_requests(&self) -> Vec<RunRequest> {
        // One request per kernel: its drawn-size instance under Hybrid
        // (the paper's SDO design), Spectre model.
        self.instances
            .iter()
            .step_by(2)
            .map(|k| RunRequest::workload(k).variant(Variant::Hybrid))
            .collect()
    }
}
