//! Regenerates Figure 7: overhead breakdown for the SDO variants.
//!
//! `--jobs N` (or `SDO_JOBS`) fans the suite out across worker threads;
//! `--metrics <path>` dumps the merged metric snapshot. `--store <dir>` /
//! `--server <sock>` / `--no-cache` select the cache-backed or
//! daemon-backed runner, whose cache summary goes to stderr.
use sdo_harness::cli::{BinSpec, CommonArgs, CsvSupport};
use sdo_harness::experiments::{fig7_report, run_suite_on};
use sdo_harness::SimConfig;
use sdo_workloads::suite;

const SPEC: BinSpec = BinSpec {
    name: "fig7",
    about: "Regenerates Figure 7: performance-overhead breakdown for the SDO variants.",
    usage_args: "[options]",
    jobs: true,
    csv: CsvSupport::None,
    metrics: true,
    seed: false,
    no_skip: true,
    client: true,
    extra_options: &[],
};

fn main() {
    let args = CommonArgs::parse(&SPEC);
    args.reject_rest(&SPEC);
    let runner = args.runner(&SPEC, SimConfig::table_i());
    let results = run_suite_on(&runner, &suite(), &args.pool)
        .unwrap_or_else(|e| SPEC.runtime_error(&e.to_string()));
    println!("{}", fig7_report(&results));
    args.write_metrics(&SPEC, &results.metrics());
    args.report_cache(&runner);
}
