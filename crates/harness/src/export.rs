//! CSV export of sweep results, for plotting outside the simulator
//! (the figures in the paper are bar/scatter charts of exactly these
//! columns), plus JSON export of harness throughput measurements.

use crate::config::Variant;
use crate::engine::Throughput;
use crate::experiments::{PentestOutcome, SuiteResults};
use crate::sim::RunResult;

/// One column of the per-run CSV: a stable name paired with the
/// extractor that renders its cell, so the header and the rows are
/// derived from the same table and can never drift apart.
#[derive(Debug, Clone, Copy)]
pub struct RunColumn {
    /// Column name, exactly as it appears in the CSV header.
    pub name: &'static str,
    /// Renders the cell for one run; `baseline` is the same workload's
    /// `Unsafe` run (used by derived columns like `normalized`).
    pub extract: fn(r: &RunResult, baseline: &RunResult) -> String,
}

/// The per-run CSV schema, in column order. Adding a column here updates
/// the header, every row, and the schema tests at once.
pub const RUN_COLUMNS: &[RunColumn] = &[
    RunColumn { name: "attack", extract: |r, _| r.attack.to_string() },
    RunColumn { name: "workload", extract: |r, _| r.workload.clone() },
    RunColumn { name: "variant", extract: |r, _| r.variant.name().replace(' ', "_") },
    RunColumn { name: "cycles", extract: |r, _| r.cycles.to_string() },
    RunColumn { name: "normalized", extract: |r, b| format!("{:.6}", r.normalized_to(b)) },
    RunColumn { name: "committed", extract: |r, _| r.core.committed.to_string() },
    RunColumn { name: "ipc", extract: |r, _| format!("{:.4}", r.core.ipc()) },
    RunColumn { name: "delayed_loads", extract: |r, _| r.core.delayed_loads.to_string() },
    RunColumn { name: "delay_cycles", extract: |r, _| r.core.delay_cycles.to_string() },
    RunColumn { name: "obl_issued", extract: |r, _| r.core.obl.issued.to_string() },
    RunColumn { name: "obl_success", extract: |r, _| r.core.obl.success.to_string() },
    RunColumn { name: "obl_fail", extract: |r, _| r.core.obl.fail.to_string() },
    RunColumn { name: "dram_predictions", extract: |r, _| r.core.obl.dram_predictions.to_string() },
    RunColumn { name: "mshr_retries", extract: |r, _| r.core.obl.mshr_retries.to_string() },
    RunColumn { name: "validations", extract: |r, _| r.core.obl.validations.to_string() },
    RunColumn { name: "exposures", extract: |r, _| r.core.obl.exposures.to_string() },
    RunColumn {
        name: "validation_stall_cycles",
        extract: |r, _| r.core.obl.validation_stall_cycles.to_string(),
    },
    RunColumn {
        name: "imprecision_cycles",
        extract: |r, _| r.core.obl.imprecision_cycles.to_string(),
    },
    RunColumn { name: "squash_branch", extract: |r, _| r.core.squashes.branch.to_string() },
    RunColumn { name: "squash_obl_fail", extract: |r, _| r.core.squashes.obl_fail.to_string() },
    RunColumn { name: "squash_validation", extract: |r, _| r.core.squashes.validation.to_string() },
    RunColumn {
        name: "squash_consistency",
        extract: |r, _| r.core.squashes.consistency.to_string(),
    },
    RunColumn { name: "squash_fp", extract: |r, _| r.core.squashes.fp_fail.to_string() },
    RunColumn { name: "predictions", extract: |r, _| r.core.obl.predictions.to_string() },
    RunColumn { name: "precise", extract: |r, _| r.core.obl.precise.to_string() },
    RunColumn { name: "accurate", extract: |r, _| r.core.obl.accurate.to_string() },
    RunColumn { name: "l1_hits", extract: |r, _| r.mem.l1_hits.to_string() },
    RunColumn { name: "l1_misses", extract: |r, _| r.mem.l1_misses.to_string() },
    RunColumn { name: "l2_hits", extract: |r, _| r.mem.l2_hits.to_string() },
    RunColumn { name: "l3_hits", extract: |r, _| r.mem.l3_hits.to_string() },
    RunColumn { name: "l3_misses", extract: |r, _| r.mem.l3_misses.to_string() },
];

/// Header of the per-run CSV produced by [`runs_csv`]: the
/// [`RUN_COLUMNS`] names, comma-joined.
#[must_use]
pub fn runs_csv_header() -> String {
    RUN_COLUMNS.iter().map(|c| c.name).collect::<Vec<_>>().join(",")
}

/// Renders one [`RUN_COLUMNS`] row; `baseline` is the `Unsafe` run the
/// derived columns normalize against.
#[must_use]
pub fn run_row(r: &RunResult, baseline: &RunResult) -> String {
    RUN_COLUMNS.iter().map(|c| (c.extract)(r, baseline)).collect::<Vec<_>>().join(",")
}

/// Serializes every run of a sweep as CSV (one row per
/// attack × workload × variant), normalized against each workload's
/// `Unsafe` run.
#[must_use]
pub fn runs_csv(results: &SuiteResults) -> String {
    let mut out = runs_csv_header();
    out.push('\n');
    for (_, per_workload) in &results.runs {
        for runs in per_workload {
            let baseline = &runs[0];
            for r in runs {
                out.push_str(&run_row(r, baseline));
                out.push('\n');
            }
        }
    }
    out
}

/// One column of a typed CSV table: a stable name paired with the
/// extractor that renders its cell from one row value. The same
/// descriptor-table shape as [`RunColumn`] (whose extractor takes an
/// extra baseline argument and so stays its own type), reusable by any
/// crate exporting rows of its own type — `sdo-analyze` builds its
/// findings CSV from `Column<Finding>`.
pub struct Column<T> {
    /// Column name, exactly as it appears in the CSV header.
    pub name: &'static str,
    /// Renders the cell for one row value.
    pub extract: fn(row: &T) -> String,
}

// Manual impls: derives would demand `T: Debug/Clone/Copy`, which the
// fields (a static str and a fn pointer) never need.
impl<T> std::fmt::Debug for Column<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Column").field("name", &self.name).finish_non_exhaustive()
    }
}

impl<T> Clone for Column<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Column<T> {}

/// Renders a header + one row per value from a [`Column`] table — the
/// shared body of every typed CSV export.
#[must_use]
pub fn table_csv<T>(columns: &[Column<T>], rows: &[T]) -> String {
    let mut out = columns.iter().map(|c| c.name).collect::<Vec<_>>().join(",");
    out.push('\n');
    for row in rows {
        let cells: Vec<String> = columns.iter().map(|c| (c.extract)(row)).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// One column of the pentest verdict CSV.
pub type PentestColumn = Column<PentestOutcome>;

/// The pentest verdict CSV schema, in column order: the per-variant
/// covert-channel readout plus the victim run's headline numbers.
pub const PENTEST_COLUMNS: &[PentestColumn] = &[
    PentestColumn { name: "attack", extract: |o| o.attack.to_string() },
    PentestColumn { name: "variant", extract: |o| o.variant.name().replace(' ', "_") },
    PentestColumn { name: "leaked", extract: |o| u64::from(o.leaked).to_string() },
    PentestColumn { name: "visible_bytes", extract: |o| o.recovered.len().to_string() },
    PentestColumn { name: "cycles", extract: |o| o.result.cycles.to_string() },
    PentestColumn { name: "committed", extract: |o| o.result.core.committed.to_string() },
];

/// Header of the pentest verdict CSV: the [`PENTEST_COLUMNS`] names,
/// comma-joined.
#[must_use]
pub fn pentest_csv_header() -> String {
    PENTEST_COLUMNS.iter().map(|c| c.name).collect::<Vec<_>>().join(",")
}

/// Serializes pentest outcomes as CSV, one row per (attack, variant).
#[must_use]
pub fn pentest_csv(outcomes: &[PentestOutcome]) -> String {
    table_csv(PENTEST_COLUMNS, outcomes)
}

/// Serializes the Figure 6 matrix (normalized execution times) as CSV:
/// one row per workload per attack model, one column per non-baseline
/// variant.
#[must_use]
pub fn fig6_csv(results: &SuiteResults) -> String {
    let mut out = String::from("attack,workload");
    for v in Variant::ALL.iter().skip(1) {
        out.push(',');
        out.push_str(&v.name().replace(' ', "_"));
    }
    out.push('\n');
    for (attack, per_workload) in &results.runs {
        for (w, runs) in results.workloads.iter().zip(per_workload) {
            out.push_str(&format!("{attack},{w}"));
            for r in runs.iter().skip(1) {
                out.push_str(&format!(",{:.6}", r.normalized_to(&runs[0])));
            }
            out.push('\n');
        }
    }
    out
}

/// Serializes one [`Throughput`] as a JSON object (hand-rolled — the
/// workspace has no serde and every field is a plain number).
#[must_use]
pub fn throughput_json(t: &Throughput) -> String {
    format!(
        "{{\"jobs\": {}, \"sims\": {}, \"cycles\": {}, \"wall_secs\": {:.6}, \
         \"sims_per_sec\": {:.3}, \"cycles_per_sec\": {:.1}}}",
        t.jobs,
        t.sims,
        t.cycles,
        t.wall.as_secs_f64(),
        t.sims_per_sec(),
        t.cycles_per_sec(),
    )
}

/// Quiescence fast-forward effectiveness on one workload class:
/// simulated cycles that were skipped (jumped over in one step) out of
/// the class's total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipRatio {
    /// Workload class name (one of `sdo_workloads::WORKLOAD_CLASSES`).
    pub class: &'static str,
    /// Cycles covered by fast-forward jumps.
    pub skipped: u64,
    /// Total simulated cycles of the class.
    pub cycles: u64,
}

impl SkipRatio {
    /// Skipped cycles as a fraction of the class total.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.skipped as f64 / (self.cycles as f64).max(1.0)
    }
}

/// The fast-forward section of `BENCH_suite.json`: the DRAM-bound class
/// timed with skipping on and off (same simulated cycles by the
/// cycle-exactness invariant, so the `cycles_per_sec` ratio is the pure
/// wall-clock win), plus the per-class skip ratios of the full suite.
#[derive(Debug, Clone, PartialEq)]
pub struct FastForwardBench {
    /// DRAM-bound kernels with quiescence fast-forward on.
    pub dram_skip: Throughput,
    /// The same kernels with `--no-skip` semantics.
    pub dram_noskip: Throughput,
    /// Per-class skipped/total cycles from the skip-on suite run.
    pub ratios: Vec<SkipRatio>,
}

/// The serve/result-store section of `BENCH_suite.json`: the identical
/// figure-6 batch timed against a cold store (every run simulated, then
/// saved) and against the warm store it just filled (every run a cache
/// hit, zero simulations), plus the warm pass's hit/miss counts so the
/// speedup can be read against its hit rate.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBench {
    /// The batch against an empty store: simulate + save.
    pub cold: Throughput,
    /// The same batch against the filled store: load only.
    pub warm: Throughput,
    /// Store hits during the warm pass (should equal the batch size).
    pub warm_hits: u64,
    /// Store misses during the warm pass (should be zero).
    pub warm_misses: u64,
}

/// Serializes a benchmark session — named per-phase [`Throughput`]s, an
/// optional `--jobs 1` vs `--jobs N` suite speedup, an optional
/// fast-forward effectiveness section, an optional per-workload-class
/// busy-cycle (skip-off) throughput section, an optional per-class
/// throughput section for the translated RV32 corpus, and an optional
/// cold/warm result-store section — as the `BENCH_suite.json` document
/// the `all` binary emits.
#[must_use]
pub fn bench_suite_json(
    phases: &[(&str, Throughput)],
    speedup: Option<(Throughput, Throughput)>,
    fast_forward: Option<&FastForwardBench>,
    busy_cycle: Option<&[(&'static str, Throughput)]>,
    rv32: Option<&[(&'static str, Throughput)]>,
    serve: Option<&ServeBench>,
) -> String {
    let total_wall: f64 = phases.iter().map(|(_, t)| t.wall.as_secs_f64()).sum();
    let total_sims: u64 = phases.iter().map(|(_, t)| t.sims).sum();
    let total_cycles: u64 = phases.iter().map(|(_, t)| t.cycles).sum();
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"total_wall_secs\": {total_wall:.6},\n"));
    out.push_str(&format!("  \"total_sims\": {total_sims},\n"));
    out.push_str(&format!("  \"total_cycles\": {total_cycles},\n"));
    out.push_str(&format!(
        "  \"total_sims_per_sec\": {:.3},\n",
        total_sims as f64 / total_wall.max(1e-9)
    ));
    // Recorded so a speedup number can be read against the hardware that
    // produced it — 4 jobs on a 1-core host legitimately measure ~1.0x.
    out.push_str(&format!(
        "  \"host_cpus\": {},\n",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    ));
    out.push_str("  \"phases\": {\n");
    for (i, (name, t)) in phases.iter().enumerate() {
        let comma = if i + 1 < phases.len() { "," } else { "" };
        out.push_str(&format!("    \"{name}\": {}{comma}\n", throughput_json(t)));
    }
    out.push_str("  }");
    if let Some((serial, parallel)) = speedup {
        out.push_str(",\n  \"suite_speedup\": {\n");
        out.push_str(&format!("    \"serial\": {},\n", throughput_json(&serial)));
        out.push_str(&format!("    \"parallel\": {},\n", throughput_json(&parallel)));
        out.push_str(&format!(
            "    \"speedup\": {:.3}\n",
            serial.wall.as_secs_f64() / parallel.wall.as_secs_f64().max(1e-9)
        ));
        out.push_str("  }");
    }
    if let Some(ff) = fast_forward {
        out.push_str(",\n  \"fast_forward\": {\n");
        out.push_str(&format!(
            "    \"dram_bound_skip\": {},\n",
            throughput_json(&ff.dram_skip)
        ));
        out.push_str(&format!(
            "    \"dram_bound_noskip\": {},\n",
            throughput_json(&ff.dram_noskip)
        ));
        out.push_str(&format!(
            "    \"dram_cycles_per_sec_speedup\": {:.3},\n",
            ff.dram_skip.cycles_per_sec() / ff.dram_noskip.cycles_per_sec().max(1e-9)
        ));
        out.push_str("    \"skip_ratio\": {\n");
        for (i, r) in ff.ratios.iter().enumerate() {
            let comma = if i + 1 < ff.ratios.len() { "," } else { "" };
            out.push_str(&format!(
                "      \"{}\": {{\"skipped\": {}, \"cycles\": {}, \"ratio\": {:.4}}}{comma}\n",
                r.class,
                r.skipped,
                r.cycles,
                r.ratio(),
            ));
        }
        out.push_str("    }\n  }");
    }
    if let Some(classes) = busy_cycle {
        // Skip-off per class: the raw engine cost baseline that the
        // data-oriented core work targets (and future PRs regress
        // against) — fast-forward cannot mask a slowdown here.
        out.push_str(",\n  \"busy_cycle\": {\n");
        for (i, (class, t)) in classes.iter().enumerate() {
            let comma = if i + 1 < classes.len() { "," } else { "" };
            out.push_str(&format!("    \"{class}\": {}{comma}\n", throughput_json(t)));
        }
        out.push_str("  }");
    }
    if let Some(classes) = rv32 {
        // Same skip-off measurement over the translated RV32 corpus:
        // real compiled programs cost more µops per source instruction
        // (sign-extension, jalr table hops), so this tracks the
        // frontend's lowering overhead separately from the mini-ISA
        // kernels.
        out.push_str(",\n  \"rv32\": {\n");
        for (i, (class, t)) in classes.iter().enumerate() {
            let comma = if i + 1 < classes.len() { "," } else { "" };
            out.push_str(&format!("    \"{class}\": {}{comma}\n", throughput_json(t)));
        }
        out.push_str("  }");
    }
    if let Some(s) = serve {
        // Cold fills the content-addressed store; warm replays the same
        // batch from it. The wall-clock ratio is the figure-regeneration
        // win a persistent daemon (or any `--store` client) gets.
        out.push_str(",\n  \"serve\": {\n");
        out.push_str(&format!("    \"cold\": {},\n", throughput_json(&s.cold)));
        out.push_str(&format!("    \"warm\": {},\n", throughput_json(&s.warm)));
        out.push_str(&format!("    \"warm_hits\": {},\n", s.warm_hits));
        out.push_str(&format!("    \"warm_misses\": {},\n", s.warm_misses));
        out.push_str(&format!(
            "    \"warm_speedup\": {:.3}\n",
            s.cold.wall.as_secs_f64() / s.warm.wall.as_secs_f64().max(1e-9)
        ));
        out.push_str("  }");
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::sim::{RunRequest, Simulator};
    use sdo_uarch::AttackModel;
    use std::time::Duration;

    fn tiny_results() -> SuiteResults {
        let sim = Simulator::new(SimConfig::tiny());
        let prog = sdo_workloads::kernels::l1_resident(200, 1);
        let runs = AttackModel::ALL
            .into_iter()
            .map(|a| {
                let per: Vec<RunResult> = Variant::ALL
                    .iter()
                    .map(|&v| {
                        sim.run(&RunRequest::program(&prog).variant(v).attack(a))
                            .unwrap()
                            .into_result()
                    })
                    .collect();
                (a, vec![per])
            })
            .collect();
        SuiteResults { runs, workloads: vec!["l1_resident".into()] }
    }

    #[test]
    fn runs_csv_has_one_row_per_run_plus_header() {
        let r = tiny_results();
        let csv = runs_csv(&r);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 2 * Variant::ALL.len());
        assert_eq!(lines[0].split(',').count(), RUN_COLUMNS.len());
        for row in &lines[1..] {
            assert_eq!(
                row.split(',').count(),
                lines[0].split(',').count(),
                "ragged row: {row}"
            );
        }
        assert!(csv.contains("Static_L2"));
    }

    /// Pins the schema: the descriptor-table header must stay
    /// byte-identical to the historical format-string export.
    #[test]
    fn runs_csv_header_is_stable() {
        assert_eq!(
            runs_csv_header(),
            "attack,workload,variant,cycles,normalized,committed,ipc,\
             delayed_loads,delay_cycles,obl_issued,obl_success,obl_fail,dram_predictions,\
             mshr_retries,validations,exposures,validation_stall_cycles,imprecision_cycles,\
             squash_branch,squash_obl_fail,squash_validation,squash_consistency,squash_fp,\
             predictions,precise,accurate,l1_hits,l1_misses,l2_hits,l3_hits,l3_misses"
        );
        let mut names: Vec<_> = RUN_COLUMNS.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), RUN_COLUMNS.len(), "duplicate column name");
    }

    /// Pins the pentest verdict schema the same way.
    #[test]
    fn pentest_csv_header_is_stable() {
        assert_eq!(pentest_csv_header(), "attack,variant,leaked,visible_bytes,cycles,committed");
    }

    #[test]
    fn pentest_csv_rows_match_schema() {
        let sim = Simulator::new(SimConfig::tiny());
        let prog = sdo_workloads::kernels::l1_resident(200, 1);
        let result = sim
            .run(&RunRequest::program(&prog).variant(Variant::Unsafe).attack(AttackModel::Spectre))
            .unwrap()
            .into_result();
        let outcome = PentestOutcome {
            variant: Variant::Unsafe,
            attack: AttackModel::Spectre,
            recovered: vec![0x2A],
            leaked: true,
            result,
        };
        let csv = pentest_csv(&[outcome]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].split(',').count(), PENTEST_COLUMNS.len());
        assert!(lines[1].starts_with("Spectre,Unsafe,1,1,"));
    }

    #[test]
    fn fig6_csv_is_a_matrix() {
        let r = tiny_results();
        let csv = fig6_csv(&r);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3); // header + one workload × two models
        assert!(lines[0].starts_with("attack,workload,STT{ld}"));
        // The Unsafe column is the implicit 1.0 baseline and is omitted.
        assert!(!lines[0].contains("Unsafe"));
    }

    #[test]
    fn throughput_json_is_wellformed() {
        let t = Throughput {
            jobs: 4,
            sims: 160,
            cycles: 1_000_000,
            wall: Duration::from_millis(500),
        };
        let j = throughput_json(&t);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"jobs\": 4"));
        assert!(j.contains("\"sims\": 160"));
        assert!(j.contains("\"sims_per_sec\": 320.000"));
    }

    #[test]
    fn bench_suite_json_structure() {
        let t1 = Throughput { jobs: 1, sims: 10, cycles: 100, wall: Duration::from_secs(4) };
        let t4 = Throughput { jobs: 4, sims: 10, cycles: 100, wall: Duration::from_secs(1) };
        let j = bench_suite_json(&[("suite", t4), ("pentest", t1)], Some((t1, t4)), None, None, None, None);
        assert!(j.contains("\"phases\""));
        assert!(j.contains("\"suite\""));
        assert!(j.contains("\"pentest\""));
        assert!(j.contains("\"suite_speedup\""));
        assert!(j.contains("\"speedup\": 4.000"));
        assert!(j.contains("\"total_sims\": 20"));
        assert!(j.contains("\"host_cpus\""));
        assert!(!j.contains("\"fast_forward\""));
        // Balanced braces: crude but effective well-formedness check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn bench_suite_json_fast_forward_section() {
        let t1 = Throughput { jobs: 1, sims: 10, cycles: 100, wall: Duration::from_secs(4) };
        let skip = Throughput { jobs: 1, sims: 48, cycles: 600, wall: Duration::from_secs(1) };
        let noskip = Throughput { jobs: 1, sims: 48, cycles: 600, wall: Duration::from_secs(3) };
        let ff = FastForwardBench {
            dram_skip: skip,
            dram_noskip: noskip,
            ratios: vec![
                SkipRatio { class: "dram_bound", skipped: 75, cycles: 100 },
                SkipRatio { class: "cache_resident", skipped: 0, cycles: 50 },
            ],
        };
        let j = bench_suite_json(&[("suite", t1)], None, Some(&ff), None, None, None);
        assert!(j.contains("\"fast_forward\""));
        assert!(j.contains("\"dram_bound_skip\""));
        assert!(j.contains("\"dram_bound_noskip\""));
        assert!(j.contains("\"dram_cycles_per_sec_speedup\": 3.000"));
        assert!(j.contains("\"dram_bound\": {\"skipped\": 75, \"cycles\": 100, \"ratio\": 0.7500}"));
        assert!(j.contains("\"cache_resident\": {\"skipped\": 0, \"cycles\": 50, \"ratio\": 0.0000}"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn bench_suite_json_busy_cycle_section() {
        let t1 = Throughput { jobs: 1, sims: 10, cycles: 100, wall: Duration::from_secs(4) };
        let branchy = Throughput { jobs: 1, sims: 32, cycles: 2000, wall: Duration::from_secs(1) };
        let cache = Throughput { jobs: 1, sims: 48, cycles: 4000, wall: Duration::from_secs(2) };
        let classes = [("branchy", branchy), ("cache_resident", cache)];
        let j = bench_suite_json(&[("suite", t1)], None, None, Some(&classes), None, None);
        assert!(j.contains("\"busy_cycle\""));
        assert!(j.contains("\"branchy\": {\"jobs\": 1, \"sims\": 32"));
        assert!(j.contains("\"cache_resident\": {\"jobs\": 1, \"sims\": 48"));
        assert!(j.contains("\"cycles_per_sec\": 2000.0"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn bench_suite_json_rv32_section() {
        let t1 = Throughput { jobs: 1, sims: 10, cycles: 100, wall: Duration::from_secs(4) };
        let branchy = Throughput { jobs: 1, sims: 48, cycles: 9000, wall: Duration::from_secs(3) };
        let cache = Throughput { jobs: 1, sims: 32, cycles: 1000, wall: Duration::from_secs(1) };
        let classes = [("branchy", branchy), ("cache_resident", cache)];
        let j = bench_suite_json(&[("suite", t1)], None, None, None, Some(&classes), None);
        assert!(j.contains("\"rv32\""));
        assert!(!j.contains("\"busy_cycle\""));
        assert!(j.contains("\"branchy\": {\"jobs\": 1, \"sims\": 48"));
        assert!(j.contains("\"cache_resident\": {\"jobs\": 1, \"sims\": 32"));
        assert!(j.contains("\"cycles_per_sec\": 3000.0"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn bench_suite_json_serve_section() {
        let t1 = Throughput { jobs: 1, sims: 10, cycles: 100, wall: Duration::from_secs(4) };
        let cold = Throughput { jobs: 4, sims: 160, cycles: 8000, wall: Duration::from_secs(8) };
        let warm = Throughput { jobs: 4, sims: 0, cycles: 8000, wall: Duration::from_secs(1) };
        let serve = ServeBench { cold, warm, warm_hits: 160, warm_misses: 0 };
        let j = bench_suite_json(&[("suite", t1)], None, None, None, None, Some(&serve));
        assert!(j.contains("\"serve\""));
        assert!(j.contains("\"cold\": {\"jobs\": 4, \"sims\": 160"));
        assert!(j.contains("\"warm\": {\"jobs\": 4, \"sims\": 0"));
        assert!(j.contains("\"warm_hits\": 160"));
        assert!(j.contains("\"warm_misses\": 0"));
        assert!(j.contains("\"warm_speedup\": 8.000"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn csv_values_parse_back_as_numbers() {
        let r = tiny_results();
        let csv = runs_csv(&r);
        for row in csv.lines().skip(1) {
            for (i, field) in row.split(',').enumerate() {
                if i >= 3 {
                    assert!(
                        field.parse::<f64>().is_ok(),
                        "field {i} ('{field}') is not numeric in: {row}"
                    );
                }
            }
        }
    }
}
