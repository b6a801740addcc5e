//! Sweeps microarchitecture parameters (ROB depth, MSHR count) and shows
//! how STT's and STT+SDO's overheads move — the abstract's "depending on
//! the microarchitecture" claim, quantified.
//!
//! `--jobs N` (or `SDO_JOBS`) fans the sweep points out across worker
//! threads; `--metrics <path>` dumps the merged metric snapshot.
use sdo_harness::cli::{BinSpec, CommonArgs, CsvSupport};
use sdo_harness::experiments::{sensitivity, sensitivity_kernel};
use sdo_harness::SimConfig;

const SPEC: BinSpec = BinSpec {
    name: "sensitivity",
    about: "Sweeps ROB depth and MSHR count; reports STT vs STT+SDO overhead at each point.",
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
    let (report, metrics) = sensitivity(&runner, &sensitivity_kernel(), &args.pool)
        .unwrap_or_else(|e| SPEC.runtime_error(&e.to_string()));
    println!("{report}");
    args.write_metrics(&SPEC, &metrics);
    args.report_cache(&runner);
}
