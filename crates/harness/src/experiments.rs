//! The paper's experiments: Figures 6–8, Table III and the penetration
//! test.
//!
//! [`run_suite`] simulates the full kernel × variant × attack-model cross
//! product once; each report function derives its artifact from those
//! results, so a single sweep regenerates everything.

use crate::config::{SimConfig, Variant};
use crate::engine::JobPool;
use crate::proto::attack_slug;
use crate::runner::Runner;
use crate::sim::{RunRequest, RunResult, SimError, Simulator};
use crate::table::{norm, pct, BarChart, TextTable};
use sdo_mem::CacheLevel;
use sdo_uarch::{AttackModel, MetricsSnapshot};
use sdo_workloads::{spectre_v1_victim, suite, Workload};

/// Results of the full sweep: `runs[attack][workload][variant]`, with
/// variants in [`Variant::ALL`] order.
#[derive(Debug, Clone)]
pub struct SuiteResults {
    /// Per attack model, per workload, per variant.
    pub runs: Vec<(AttackModel, Vec<Vec<RunResult>>)>,
    /// Workload names, in suite order.
    pub workloads: Vec<String>,
}

impl SuiteResults {
    /// Mean execution time of `variant` normalized to `Unsafe`, averaged
    /// over all workloads, for one attack model.
    #[must_use]
    pub fn mean_normalized(&self, attack: AttackModel, variant: Variant) -> f64 {
        let (_, per_workload) = self
            .runs
            .iter()
            .find(|(a, _)| *a == attack)
            .expect("attack model simulated");
        let vi = Variant::ALL.iter().position(|&v| v == variant).expect("known variant");
        let mut sum = 0.0;
        for runs in per_workload {
            sum += runs[vi].normalized_to(&runs[0]);
        }
        sum / per_workload.len() as f64
    }

    /// Mean overhead (normalized time − 1) of a variant.
    #[must_use]
    pub fn mean_overhead(&self, attack: AttackModel, variant: Variant) -> f64 {
        self.mean_normalized(attack, variant) - 1.0
    }

    /// The paper's improvement metric: the fraction of STT's overhead that
    /// the SDO variant eliminates.
    #[must_use]
    pub fn improvement_vs(&self, attack: AttackModel, sdo: Variant, stt: Variant) -> f64 {
        let stt_over = self.mean_overhead(attack, stt);
        let sdo_over = self.mean_overhead(attack, sdo);
        if stt_over <= 0.0 {
            0.0
        } else {
            (stt_over - sdo_over) / stt_over
        }
    }

    /// Number of simulations in the sweep.
    #[must_use]
    pub fn sims(&self) -> u64 {
        self.runs.iter().map(|(_, pw)| pw.iter().map(|rs| rs.len() as u64).sum::<u64>()).sum()
    }

    /// Total simulated cycles across every run of the sweep.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.runs
            .iter()
            .map(|(_, pw)| {
                pw.iter().map(|rs| rs.iter().map(|r| r.cycles).sum::<u64>()).sum::<u64>()
            })
            .sum()
    }

    /// `(sims, cycles)` counts for throughput accounting
    /// ([`crate::engine::timed`]).
    #[must_use]
    pub fn counts(&self) -> (u64, u64) {
        (self.sims(), self.total_cycles())
    }

    /// Merges every run's metric snapshot ([`RunResult::metrics`]) in
    /// canonical (attack-major, workload, variant) order. Counters sum
    /// and histograms merge bucket-wise; both are commutative, so the
    /// result is byte-identical at any `--jobs` count.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::new();
        for (_, per_workload) in &self.runs {
            for runs in per_workload {
                for r in runs {
                    m.merge(&r.metrics());
                }
            }
        }
        m
    }

    /// Quiescence fast-forward effectiveness per workload class:
    /// skipped and total simulated cycles, aggregated over every run,
    /// in `WORKLOAD_CLASSES` order. All-zero `skipped` fields simply
    /// mean the sweep ran with fast-forward off (`--no-skip`).
    #[must_use]
    pub fn skip_ratios(&self) -> Vec<crate::export::SkipRatio> {
        let mut by_class: Vec<crate::export::SkipRatio> = sdo_workloads::WORKLOAD_CLASSES
            .iter()
            .map(|&class| crate::export::SkipRatio { class, skipped: 0, cycles: 0 })
            .collect();
        for (_, per_workload) in &self.runs {
            for (name, runs) in self.workloads.iter().zip(per_workload) {
                let class = sdo_workloads::workload_class(name);
                let slot =
                    by_class.iter_mut().find(|s| s.class == class).expect("class is canonical");
                for r in runs {
                    slot.skipped += r.skipped_cycles;
                    slot.cycles += r.cycles;
                }
            }
        }
        by_class
    }

    /// Sums a per-run statistic over all workloads of one variant.
    fn sum_stat(&self, attack: AttackModel, variant: Variant, f: impl Fn(&RunResult) -> u64) -> u64 {
        let (_, per_workload) =
            self.runs.iter().find(|(a, _)| *a == attack).expect("attack model simulated");
        let vi = Variant::ALL.iter().position(|&v| v == variant).expect("known variant");
        per_workload.iter().map(|runs| f(&runs[vi])).sum()
    }
}

/// Runs the full suite (10 kernels × 8 variants × 2 attack models),
/// serially.
///
/// # Errors
///
/// Returns the first simulation error (hang) encountered.
pub fn run_suite(runner: &Runner) -> Result<SuiteResults, SimError> {
    run_suite_with(runner, &JobPool::serial())
}

/// Runs the full suite across a [`JobPool`]. Results are byte-identical
/// to [`run_suite`] at any worker count.
///
/// # Errors
///
/// Returns the canonically-first simulation error (hang) encountered.
pub fn run_suite_with(runner: &Runner, pool: &JobPool) -> Result<SuiteResults, SimError> {
    run_suite_on(runner, &suite(), pool)
}

/// Runs `kernels` × [`Variant::ALL`] × [`AttackModel::ALL`] through a
/// [`Runner`], batching one [`RunRequest`] per `(workload, variant,
/// attack)` triple and merging in canonical (attack-major, workload,
/// variant) order. Locally each job owns its own core and memory system,
/// so the merged output is byte-identical to the serial nested loop —
/// and therefore also to a store hit or a daemon-served result.
///
/// # Errors
///
/// Returns the canonically-first simulation error (hang) encountered.
pub fn run_suite_on(
    runner: &Runner,
    kernels: &[Workload],
    pool: &JobPool,
) -> Result<SuiteResults, SimError> {
    let workloads: Vec<String> = kernels.iter().map(|w| w.name().to_string()).collect();
    let mut jobs = Vec::with_capacity(AttackModel::ALL.len() * kernels.len() * Variant::ALL.len());
    for attack in AttackModel::ALL {
        for w in kernels {
            for &variant in &Variant::ALL {
                jobs.push(RunRequest::workload(w).variant(variant).attack(attack));
            }
        }
    }
    let flat = runner.run_batch(&jobs, pool)?;

    let mut flat = flat.into_iter();
    let mut runs = Vec::with_capacity(AttackModel::ALL.len());
    for attack in AttackModel::ALL {
        let per_workload: Vec<Vec<RunResult>> = kernels
            .iter()
            .map(|_| (&mut flat).take(Variant::ALL.len()).collect())
            .collect();
        runs.push((attack, per_workload));
    }
    Ok(SuiteResults { runs, workloads })
}

/// Per-workload-class busy-cycle throughput: each class of the suite
/// simulated serially with quiescence fast-forward off, so the numbers
/// measure the raw per-cycle engine cost (`cycles_per_sec`) rather than
/// how much of a class fast-forward can skip. Returned in
/// [`sdo_workloads::WORKLOAD_CLASSES`] order; lands in the `busy_cycle`
/// section of `BENCH_suite.json`.
///
/// # Errors
///
/// Returns the first simulation error (hang) encountered.
pub fn busy_cycle_throughput(
    cfg: SimConfig,
) -> Result<Vec<(&'static str, crate::engine::Throughput)>, SimError> {
    let runner = Runner::local(cfg.with_fast_forward(false));
    let kernels = suite();
    let mut out = Vec::with_capacity(sdo_workloads::WORKLOAD_CLASSES.len());
    for &class in sdo_workloads::WORKLOAD_CLASSES {
        let group: Vec<Workload> = kernels
            .iter()
            .filter(|w| sdo_workloads::workload_class(w.name()) == class)
            .cloned()
            .collect();
        let start = std::time::Instant::now();
        let results = run_suite_on(&runner, &group, &JobPool::serial())?;
        let wall = start.elapsed();
        let (sims, cycles) = results.counts();
        out.push((class, crate::engine::Throughput { jobs: 1, sims, cycles, wall }));
    }
    Ok(out)
}

/// The RV32 sweep's workload set: the four compiled benchmark kernels
/// plus the compiled Spectre gadget (secret 0 — simulation timing is
/// secret-independent wherever the policy closes the channel, and the
/// secret-swap campaign in `sdo-verify` owns the divergence question).
#[must_use]
pub fn rv32_workloads() -> Vec<Workload> {
    let mut kernels = sdo_workloads::rv32_suite();
    for case in sdo_workloads::rv32_litmus_cases() {
        kernels.push(Workload::new(case.name, (case.build)(0)));
    }
    kernels
}

/// Per-workload-class busy-cycle throughput of the translated RV32
/// corpus, analogous to [`busy_cycle_throughput`] (serial, quiescence
/// fast-forward off) but grouped by [`sdo_workloads::rv32_class`] and
/// skipping classes the corpus doesn't populate. Lands in the `rv32`
/// section of `BENCH_suite.json`.
///
/// # Errors
///
/// Returns the first simulation error (hang) encountered.
pub fn rv32_busy_cycle_throughput(
    cfg: SimConfig,
) -> Result<Vec<(&'static str, crate::engine::Throughput)>, SimError> {
    let runner = Runner::local(cfg.with_fast_forward(false));
    let kernels = rv32_workloads();
    let mut out = Vec::new();
    for &class in sdo_workloads::WORKLOAD_CLASSES {
        let group: Vec<Workload> = kernels
            .iter()
            .filter(|w| sdo_workloads::rv32_class(w.name()) == class)
            .cloned()
            .collect();
        if group.is_empty() {
            continue;
        }
        let start = std::time::Instant::now();
        let results = run_suite_on(&runner, &group, &JobPool::serial())?;
        let wall = start.elapsed();
        let (sims, cycles) = results.counts();
        out.push((class, crate::engine::Throughput { jobs: 1, sims, cycles, wall }));
    }
    Ok(out)
}

// ----------------------------------------------------------------------
// Figure 6
// ----------------------------------------------------------------------

/// Renders Figure 6: execution time normalized to `Unsafe` per benchmark
/// and variant, one half per attack model, averages on the right — plus
/// the headline improvement summary of Section VIII-B.
#[must_use]
pub fn fig6_report(results: &SuiteResults) -> String {
    let mut out = String::from(
        "FIGURE 6: Execution time (normalized to Unsafe) of kernels under\n\
         STT and the SDO design variants (STT+SDO).\n\n",
    );
    for (attack, per_workload) in &results.runs {
        out.push_str(&format!("== {attack} model ==\n"));
        let mut header = vec!["kernel".to_string()];
        header.extend(Variant::ALL.iter().skip(1).map(|v| v.name().to_string()));
        let mut t = TextTable::new(header);
        for (w, runs) in results.workloads.iter().zip(per_workload) {
            let mut row = vec![w.clone()];
            for r in runs.iter().skip(1) {
                row.push(norm(r.normalized_to(&runs[0])));
            }
            t.row(row);
        }
        let mut avg = vec!["average".to_string()];
        for &v in Variant::ALL.iter().skip(1) {
            avg.push(norm(results.mean_normalized(*attack, v)));
        }
        t.row(avg);
        out.push_str(&t.render());
        out.push('\n');
        let mut chart = BarChart::new(format!("average normalized time ({attack})"), 48);
        for &v in Variant::ALL.iter() {
            chart.bar(v.name(), results.mean_normalized(*attack, v));
        }
        out.push_str(&chart.render());
        out.push('\n');
        for &sdo in &[Variant::Hybrid, Variant::StaticL2, Variant::Perfect] {
            out.push_str(&format!(
                "{:10} overhead {:>6}  (improves STT{{ld}} by {}, STT{{ld+fp}} by {})\n",
                sdo.name(),
                pct(results.mean_overhead(*attack, sdo)),
                pct(results.improvement_vs(*attack, sdo, Variant::SttLd)),
                pct(results.improvement_vs(*attack, sdo, Variant::SttLdFp)),
            ));
        }
        out.push('\n');
    }
    out
}

// ----------------------------------------------------------------------
// Figure 7
// ----------------------------------------------------------------------

/// One variant's overhead attribution (fractions of total slowdown,
/// summing to 1 when the variant has any overhead).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Breakdown {
    /// Squashes from inaccurate predictions (obl fail, validation
    /// mismatch, FP fail), at an estimated refill penalty.
    pub inaccurate: f64,
    /// Waiting for deeper-than-needed responses.
    pub imprecise: f64,
    /// ROB-head stalls on validations.
    pub validation: f64,
    /// Obl-Ld failures caused by L1-TLB probe misses.
    pub tlb: f64,
    /// Everything else (no-fill extra misses, contention, delays).
    pub other: f64,
}

/// Estimated cycles lost per squash: frontend refill plus scheduler
/// ramp-up. A proxy — see DESIGN.md §5 on overhead attribution.
const SQUASH_PENALTY: u64 = 15;

/// Computes the Figure 7 breakdown for one SDO variant under one attack
/// model, aggregated over all workloads.
#[must_use]
pub fn breakdown(results: &SuiteResults, attack: AttackModel, variant: Variant) -> Breakdown {
    let total_overhead: u64 = {
        let (_, per_workload) =
            results.runs.iter().find(|(a, _)| *a == attack).expect("attack simulated");
        let vi = Variant::ALL.iter().position(|&v| v == variant).expect("known");
        per_workload.iter().map(|runs| runs[vi].cycles.saturating_sub(runs[0].cycles)).sum()
    };
    if total_overhead == 0 {
        return Breakdown { inaccurate: 0.0, imprecise: 0.0, validation: 0.0, tlb: 0.0, other: 0.0 };
    }
    let squashes = results.sum_stat(attack, variant, |r| {
        r.core.squashes.obl_fail + r.core.squashes.validation + r.core.squashes.fp_fail
    });
    let tlb_fails = results.sum_stat(attack, variant, |r| r.core.obl.tlb_probe_fails);
    let imprecise = results.sum_stat(attack, variant, |r| r.core.obl.imprecision_cycles);
    let validation = results.sum_stat(attack, variant, |r| r.core.obl.validation_stall_cycles);

    let inaccurate = squashes.saturating_sub(tlb_fails) * SQUASH_PENALTY;
    let tlb = tlb_fails * SQUASH_PENALTY;
    let accounted = inaccurate + tlb + imprecise + validation;
    // Scale down proportionally if the proxies over-account.
    let scale = if accounted > total_overhead {
        total_overhead as f64 / accounted as f64
    } else {
        1.0
    };
    let t = total_overhead as f64;
    let inaccurate = inaccurate as f64 * scale / t;
    let imprecise = imprecise as f64 * scale / t;
    let validation = validation as f64 * scale / t;
    let tlb = tlb as f64 * scale / t;
    Breakdown {
        inaccurate,
        imprecise,
        validation,
        tlb,
        other: (1.0 - inaccurate - imprecise - validation - tlb).max(0.0),
    }
}

/// Renders Figure 7: per-variant overhead breakdown.
#[must_use]
pub fn fig7_report(results: &SuiteResults) -> String {
    let mut out = String::from(
        "FIGURE 7: Performance overhead breakdown (vs Unsafe) for the SDO\n\
         variants, averaged over the kernel suite.\n\n",
    );
    for attack in AttackModel::ALL {
        out.push_str(&format!("== {attack} model ==\n"));
        let mut t = TextTable::new(vec![
            "variant".into(),
            "inaccurate".into(),
            "imprecise".into(),
            "validation".into(),
            "TLB".into(),
            "other".into(),
            "total ovh".into(),
        ]);
        for v in Variant::SDO {
            let b = breakdown(results, attack, v);
            t.row(vec![
                v.name().to_string(),
                pct(b.inaccurate),
                pct(b.imprecise),
                pct(b.validation),
                pct(b.tlb),
                pct(b.other),
                pct(results.mean_overhead(attack, v)),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

// ----------------------------------------------------------------------
// Figure 8
// ----------------------------------------------------------------------

/// Renders Figure 8: squash counts vs normalized execution time for every
/// SDO variant (the paper's scatter plot, as a table).
#[must_use]
pub fn fig8_report(results: &SuiteResults) -> String {
    let mut out = String::from(
        "FIGURE 8: Relationship between SDO squashes and execution time\n\
         (normalized to Unsafe), summed/averaged over the kernel suite.\n\n",
    );
    for attack in AttackModel::ALL {
        out.push_str(&format!("== {attack} model ==\n"));
        let mut t = TextTable::new(vec![
            "variant".into(),
            "squashes".into(),
            "norm. time".into(),
        ]);
        for v in Variant::SDO {
            let squashes = results.sum_stat(attack, v, |r| r.core.squashes.sdo_related());
            t.row(vec![
                v.name().to_string(),
                squashes.to_string(),
                norm(results.mean_normalized(attack, v)),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

// ----------------------------------------------------------------------
// Table III
// ----------------------------------------------------------------------

/// Renders Table III: location-predictor precision and accuracy.
#[must_use]
pub fn table3_report(results: &SuiteResults) -> String {
    let mut out = String::from(
        "TABLE III: Precision and Accuracy of the SDO location predictors\n\
         (Spectre / Futuristic), aggregated over the kernel suite.\n\n",
    );
    let mut t = TextTable::new(vec![
        "variant".into(),
        "Spectre prec".into(),
        "Spectre acc".into(),
        "Futur. prec".into(),
        "Futur. acc".into(),
    ]);
    for v in [Variant::StaticL1, Variant::StaticL2, Variant::StaticL3, Variant::Hybrid] {
        let mut cells = vec![v.name().to_string()];
        for attack in AttackModel::ALL {
            let predictions = results.sum_stat(attack, v, |r| r.core.obl.predictions).max(1);
            let precise = results.sum_stat(attack, v, |r| r.core.obl.precise);
            let accurate = results.sum_stat(attack, v, |r| r.core.obl.accurate);
            cells.push(pct(precise as f64 / predictions as f64));
            cells.push(pct(accurate as f64 / predictions as f64));
        }
        t.row(cells);
    }
    out.push_str(&t.render());
    out
}

// ----------------------------------------------------------------------
// Microarchitecture sensitivity (abstract: "depending on the
// microarchitecture and attack model")
// ----------------------------------------------------------------------

/// Sweeps a core parameter and reports STT vs STT+SDO(Hybrid) overhead at
/// each point, on the suite's highest-overhead kernel. Larger speculation
/// windows (deeper ROBs) expose more tainted transmitters, so STT's
/// overhead grows with ROB depth while SDO's stays flat — the sweep makes
/// the abstract's "depending on the microarchitecture" concrete.
///
/// # Errors
///
/// Returns the first simulation error encountered.
pub fn sensitivity_report(base: SimConfig) -> Result<String, SimError> {
    sensitivity_report_with(base, &JobPool::serial())
}

/// [`sensitivity_report`] with the sweep points fanned out across a
/// [`JobPool`].
///
/// # Errors
///
/// Returns the canonically-first simulation error encountered.
pub fn sensitivity_report_with(base: SimConfig, pool: &JobPool) -> Result<String, SimError> {
    Ok(sensitivity_with_metrics(&Runner::local(base), pool)?.0)
}

/// [`sensitivity_report_with`] that also returns the merged metric
/// snapshot of every sweep run (canonical order, `--jobs`-independent).
/// Sweep points ride as [`RunRequest::config`] overrides, so a
/// store-backed or server-backed [`Runner`] caches them like any other
/// request.
///
/// # Errors
///
/// Returns the canonically-first simulation error encountered.
pub fn sensitivity_with_metrics(
    runner: &Runner,
    pool: &JobPool,
) -> Result<(String, MetricsSnapshot), SimError> {
    use sdo_workloads::kernels::hash_lookup;

    let kernel = Workload::new("hash_lookup", hash_lookup(1 << 16, 2000, 5))
        .warmed(0x80_0000, (1 << 16) * 8, CacheLevel::L3);
    sensitivity_for_with_metrics(runner, &kernel, pool)
}

/// [`sensitivity_report`] over a caller-chosen kernel (lets tests and
/// notebooks sweep with smaller inputs).
///
/// # Errors
///
/// Returns the first simulation error encountered.
pub fn sensitivity_report_for(
    base: SimConfig,
    kernel: &sdo_workloads::Workload,
) -> Result<String, SimError> {
    sensitivity_report_for_with(base, kernel, &JobPool::serial())
}

/// The three variants each sensitivity sweep point simulates.
const SENSITIVITY_VARIANTS: [Variant; 3] = [Variant::Unsafe, Variant::SttLd, Variant::Hybrid];

/// [`sensitivity_report_for`] with every `(sweep point, variant)` pair
/// fanned out across a [`JobPool`].
///
/// # Errors
///
/// Returns the canonically-first simulation error encountered.
pub fn sensitivity_report_for_with(
    base: SimConfig,
    kernel: &sdo_workloads::Workload,
    pool: &JobPool,
) -> Result<String, SimError> {
    Ok(sensitivity_for_with_metrics(&Runner::local(base), kernel, pool)?.0)
}

/// [`sensitivity_report_for_with`] that also returns the merged metric
/// snapshot of every sweep run. The runner's base configuration anchors
/// the sweep; each point is a full [`RunRequest::config`] override.
///
/// # Errors
///
/// Returns the canonically-first simulation error encountered.
pub fn sensitivity_for_with_metrics(
    runner: &Runner,
    kernel: &sdo_workloads::Workload,
    pool: &JobPool,
) -> Result<(String, MetricsSnapshot), SimError> {
    let base = runner.config();
    let mut out = String::from(
        "SENSITIVITY: protection overhead vs. microarchitecture
         (hash_lookup kernel, Spectre model; overhead = normalized time - 1)

",
    );

    const ROBS: [usize; 4] = [64, 128, 192, 256];
    const MSHRS: [u32; 4] = [4, 8, 16, 32];
    let mut points: Vec<SimConfig> = Vec::new();
    for rob in ROBS {
        let mut cfg = base;
        cfg.core.rob_entries = rob;
        // Queues scale with the window as on real designs.
        cfg.core.lq_entries = (rob / 6).max(8);
        cfg.core.sq_entries = (rob / 6).max(8);
        points.push(cfg);
    }
    for mshrs in MSHRS {
        let mut cfg = base;
        cfg.mem.l1.mshrs = mshrs;
        cfg.mem.l2.mshrs = mshrs;
        cfg.mem.l3.mshrs = mshrs;
        points.push(cfg);
    }

    // One grid: the whole sweep travels to a daemon as a single request
    // line (and expands to the identical config-major, variant-minor
    // request list locally), so the report is byte-identical whichever
    // backend serves it.
    let template = RunRequest::workload(kernel).attack(AttackModel::Spectre);
    let flat = runner.run_grid(&template, &points, &SENSITIVITY_VARIANTS, pool)?;
    let mut metrics = MetricsSnapshot::new();
    for r in &flat {
        metrics.merge(&r.metrics());
    }
    let per_point: Vec<&[RunResult]> = flat.chunks(SENSITIVITY_VARIANTS.len()).collect();

    let mut rob_table = TextTable::new(vec![
        "ROB entries".into(),
        "Unsafe cycles".into(),
        "STT{ld} ovh".into(),
        "Hybrid ovh".into(),
        "recovered".into(),
    ]);
    for (rob, runs) in ROBS.iter().zip(&per_point[..ROBS.len()]) {
        let [unsafe_, stt, hyb] = runs else { unreachable!("three variants per point") };
        let stt_ovh = stt.normalized_to(unsafe_) - 1.0;
        let hyb_ovh = hyb.normalized_to(unsafe_) - 1.0;
        rob_table.row(vec![
            rob.to_string(),
            unsafe_.cycles.to_string(),
            pct(stt_ovh),
            pct(hyb_ovh),
            if stt_ovh > 0.0 { pct((stt_ovh - hyb_ovh) / stt_ovh) } else { "-".into() },
        ]);
    }
    out.push_str(&rob_table.render());
    out.push('\n');

    let mut mshr_table = TextTable::new(vec![
        "MSHRs/level".into(),
        "Unsafe cycles".into(),
        "STT{ld} ovh".into(),
        "Hybrid ovh".into(),
    ]);
    for (mshrs, runs) in MSHRS.iter().zip(&per_point[ROBS.len()..]) {
        let [unsafe_, stt, hyb] = runs else { unreachable!("three variants per point") };
        mshr_table.row(vec![
            mshrs.to_string(),
            unsafe_.cycles.to_string(),
            pct(stt.normalized_to(unsafe_) - 1.0),
            pct(hyb.normalized_to(unsafe_) - 1.0),
        ]);
    }
    out.push_str(&mshr_table.render());
    Ok((out, metrics))
}

// ----------------------------------------------------------------------
// Penetration test
// ----------------------------------------------------------------------

/// One variant's penetration-test outcome.
#[derive(Debug, Clone)]
pub struct PentestOutcome {
    /// Variant tested.
    pub variant: Variant,
    /// Attack model in force.
    pub attack: AttackModel,
    /// Byte values whose probe line was cache-resident after the run
    /// (excluding the legitimately-trained byte).
    pub recovered: Vec<u8>,
    /// Whether the secret byte was among them.
    pub leaked: bool,
    /// The victim run itself (cycles, stats), for the typed CSV path.
    pub result: RunResult,
}

/// Runs the Spectre V1 attack under every variant and reads out the
/// cache covert channel (flush+reload-style residency probe).
///
/// # Errors
///
/// Returns a [`SimError`] if any victim run hangs.
pub fn pentest(sim: &Simulator) -> Result<Vec<PentestOutcome>, SimError> {
    pentest_with(sim, &JobPool::serial())
}

/// [`pentest`] with each `(variant, attack)` victim run fanned out across
/// a [`JobPool`].
///
/// # Errors
///
/// Returns the canonically-first [`SimError`] if any victim run hangs.
pub fn pentest_with(sim: &Simulator, pool: &JobPool) -> Result<Vec<PentestOutcome>, SimError> {
    let scenario = spectre_v1_victim();
    let mut jobs = Vec::new();
    for attack in AttackModel::ALL {
        for &variant in &Variant::ALL {
            if variant == Variant::Unsafe && attack == AttackModel::Futuristic {
                continue; // Unsafe has no attack model; test it once.
            }
            jobs.push((variant, attack));
        }
    }
    pool.try_run(&jobs, |_, &(variant, attack)| {
        let out =
            sim.run(&RunRequest::program(&scenario.program).variant(variant).attack(attack))?;
        let mut recovered = Vec::new();
        for b in 0..=255u8 {
            if b == scenario.trained_byte {
                continue;
            }
            if out.memory().residency(0, scenario.probe_addr(b)) != CacheLevel::Dram {
                recovered.push(b);
            }
        }
        let leaked = recovered.contains(&scenario.secret);
        Ok(PentestOutcome { variant, attack, recovered, leaked, result: out.into_result() })
    })
}

/// Summarizes penetration-test outcomes as a metric snapshot: per
/// `(attack, variant)` pair, the number of covert-channel-visible bytes
/// and whether the secret leaked, plus suite-level totals.
#[must_use]
pub fn pentest_metrics(outcomes: &[PentestOutcome]) -> MetricsSnapshot {
    let mut m = MetricsSnapshot::new();
    m.add("pentest.runs", outcomes.len() as u64);
    m.add("pentest.leaks", outcomes.iter().filter(|o| o.leaked).count() as u64);
    for o in outcomes {
        let prefix = format!("pentest.{}.{}", attack_slug(o.attack), o.variant.slug());
        m.add(&format!("{prefix}.visible_bytes"), o.recovered.len() as u64);
        m.add(&format!("{prefix}.leaked"), u64::from(o.leaked));
    }
    m
}

/// Renders the penetration-test report.
#[must_use]
pub fn pentest_report(outcomes: &[PentestOutcome]) -> String {
    let mut out = String::from(
        "PENETRATION TEST: Spectre V1 (Section VIII-A)\n\
         The receiver probes the 256-line probe array for cache residency\n\
         after the victim runs; a resident line reveals the secret byte.\n\n",
    );
    let mut t = TextTable::new(vec![
        "variant".into(),
        "model".into(),
        "secret leaked?".into(),
        "bytes visible".into(),
    ]);
    for o in outcomes {
        t.row(vec![
            o.variant.name().to_string(),
            o.attack.to_string(),
            if o.leaked { "LEAKED".into() } else { "blocked".into() },
            o.recovered.len().to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Convenience wrapper: run the sweep on a fresh simulator with `cfg` and
/// return every report concatenated (used by the `all` binary).
///
/// # Errors
///
/// Returns the first simulation error encountered.
pub fn full_report(cfg: SimConfig) -> Result<String, SimError> {
    full_report_with(cfg, &JobPool::serial())
}

/// [`full_report`] with the sweep and pentest fanned out across a
/// [`JobPool`].
///
/// # Errors
///
/// Returns the canonically-first simulation error encountered.
pub fn full_report_with(cfg: SimConfig, pool: &JobPool) -> Result<String, SimError> {
    let runner = Runner::local(cfg);
    let results = run_suite_with(&runner, pool)?;
    let mut out = String::new();
    out.push_str(&cfg.render_table_i());
    out.push_str("\n\n");
    out.push_str(&Variant::render_table_ii());
    out.push('\n');
    out.push_str(&fig6_report(&results));
    out.push_str(&fig7_report(&results));
    out.push_str(&fig8_report(&results));
    out.push_str(&table3_report(&results));
    out.push('\n');
    out.push_str(&pentest_report(&pentest_with(runner.simulator(), pool)?));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast two-kernel mini-suite for unit tests.
    fn mini_results() -> SuiteResults {
        let sim = Simulator::new(SimConfig::tiny());
        let kernels = [
            sdo_workloads::kernels::l1_resident(300, 1),
            sdo_workloads::kernels::stream(256, 1, 2),
        ];
        let workloads = kernels.iter().map(|k| k.name().to_string()).collect();
        let mut runs = Vec::new();
        for attack in AttackModel::ALL {
            let per: Vec<Vec<RunResult>> = kernels
                .iter()
                .map(|k| {
                    Variant::ALL
                        .iter()
                        .map(|&v| {
                            sim.run(&RunRequest::program(k).variant(v).attack(attack))
                                .unwrap()
                                .into_result()
                        })
                        .collect()
                })
                .collect();
            runs.push((attack, per));
        }
        SuiteResults { runs, workloads }
    }

    #[test]
    fn mean_normalized_is_one_for_unsafe() {
        let r = mini_results();
        for attack in AttackModel::ALL {
            assert!((r.mean_normalized(attack, Variant::Unsafe) - 1.0).abs() < 1e-12);
            assert!(r.mean_normalized(attack, Variant::SttLd) >= 1.0);
        }
    }

    #[test]
    fn reports_render_nonempty() {
        let r = mini_results();
        let f6 = fig6_report(&r);
        assert!(f6.contains("Spectre model"));
        assert!(f6.contains("Futuristic model"));
        assert!(f6.contains("average"));
        let f7 = fig7_report(&r);
        assert!(f7.contains("imprecise"));
        let f8 = fig8_report(&r);
        assert!(f8.contains("squashes"));
        let t3 = table3_report(&r);
        assert!(t3.contains("Hybrid"));
    }

    #[test]
    fn breakdown_fractions_are_sane() {
        let r = mini_results();
        for v in Variant::SDO {
            let b = breakdown(&r, AttackModel::Futuristic, v);
            let sum = b.inaccurate + b.imprecise + b.validation + b.tlb + b.other;
            assert!((0.0..=1.0 + 1e-9).contains(&sum), "{v}: components sum to {sum}");
            for part in [b.inaccurate, b.imprecise, b.validation, b.tlb, b.other] {
                assert!((0.0..=1.0).contains(&part));
            }
        }
    }

    #[test]
    fn sensitivity_report_renders() {
        // Smoke the sweep machinery with a small kernel so the debug-mode
        // suite stays fast.
        let kernel = sdo_workloads::kernels::l1_resident(300, 1);
        let w = sdo_workloads::Workload::new("l1_resident", kernel);
        let report = sensitivity_report_for(SimConfig::table_i(), &w).unwrap();
        assert!(report.contains("ROB entries"));
        assert!(report.contains("MSHRs/level"));
        assert!(report.lines().count() > 12);
    }

    #[test]
    fn pentest_blocks_all_protected_variants() {
        let sim = Simulator::new(SimConfig::table_i());
        let outcomes = pentest(&sim).unwrap();
        for o in &outcomes {
            if o.variant == Variant::Unsafe {
                assert!(o.leaked, "the insecure baseline must leak the secret");
            } else {
                assert!(!o.leaked, "{} under {} must block Spectre V1", o.variant, o.attack);
            }
        }
        assert!(pentest_report(&outcomes).contains("LEAKED"));
    }
}
