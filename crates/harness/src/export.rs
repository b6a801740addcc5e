//! CSV export of sweep results, for plotting outside the simulator
//! (the figures in the paper are bar/scatter charts of exactly these
//! columns).

use crate::config::Variant;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::sim::{RunRequest, Simulator};
    use sdo_uarch::AttackModel;

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
        assert_eq!(pentest_csv(&[]), "attack,variant,leaked,visible_bytes,cycles,committed\n");
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
