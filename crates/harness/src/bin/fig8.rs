//! Regenerates Figure 8: squashes vs normalized execution time.
//!
//! `--jobs N` (or `SDO_JOBS`) fans the suite out across worker threads;
//! `--metrics <path>` dumps the merged metric snapshot. `--store <dir>` /
//! `--server <sock>` / `--no-cache` select the cache-backed or
//! daemon-backed runner, whose cache summary goes to stderr.
use sdo_harness::cli::{BinSpec, CommonArgs, CLIENT, JOBS, METRICS, NO_SKIP};
use sdo_harness::experiments::{fig8_report, run_suite_on};
use sdo_harness::SimConfig;
use sdo_workloads::suite;

const SPEC: BinSpec = BinSpec {
    name: "fig8",
    about: "Regenerates Figure 8: SDO squashes vs normalized execution time.",
    usage_args: "[options]",
    options: &[JOBS, METRICS, NO_SKIP, CLIENT],
};

fn main() {
    let args = CommonArgs::parse(&SPEC);
    args.reject_positionals(&SPEC);
    let runner = args.runner(&SPEC, SimConfig::table_i());
    let results = run_suite_on(&runner, &suite(), &args.pool)
        .unwrap_or_else(|e| SPEC.runtime_error(&e.to_string()));
    println!("{}", fig8_report(&results));
    args.write_metrics(&SPEC, &results.metrics());
    args.report_cache(&runner);
}
