//! Runs the compiled RV32 corpus (four benchmark kernels plus the
//! compiled Spectre gadget, translated by `sdo-rv32`) through the full
//! variant × attack-model sweep: normalized execution time per program,
//! same shape as Figure 6 but over real machine code.
//!
//! Pass `--csv` to emit machine-readable output (the full per-run dump
//! with `--csv=runs`), `--metrics <path>` to dump the merged metric
//! snapshot, and `--jobs N` (or `SDO_JOBS`) to fan the sweep out across
//! worker threads. `--store <dir>` memoizes the sweep in a
//! content-addressed store (a warm rerun simulates nothing) and
//! `--server <sock>` submits it to a running `sdo-serve` daemon. The
//! cache summary goes to stderr so it never perturbs the figure or CSV
//! stream.
use sdo_harness::cli::{BinSpec, CommonArgs, CsvMode, CLIENT, CSV_RUNS, JOBS, METRICS, NO_SKIP};
use sdo_harness::experiments::{fig6_report, run_suite_on, rv32_workloads};
use sdo_harness::export::{fig6_csv, runs_csv};
use sdo_harness::SimConfig;

const SPEC: BinSpec = BinSpec {
    name: "rv32",
    about: "Runs the compiled RV32 corpus through every variant and attack model.",
    usage_args: "[options]",
    options: &[JOBS, CSV_RUNS, METRICS, NO_SKIP, CLIENT],
};

fn main() {
    let args = CommonArgs::parse(&SPEC);
    args.reject_positionals(&SPEC);
    let runner = args.runner(&SPEC, SimConfig::table_i());
    let results = run_suite_on(&runner, &rv32_workloads(), &args.pool)
        .unwrap_or_else(|e| SPEC.runtime_error(&e.to_string()));
    match args.csv {
        Some(CsvMode::Figure) => print!("{}", fig6_csv(&results)),
        Some(CsvMode::Runs) => print!("{}", runs_csv(&results)),
        None => println!("{}", fig6_report(&results)),
    }
    args.write_metrics(&SPEC, &results.metrics());
    args.report_cache(&runner);
}
