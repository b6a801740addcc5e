//! Prints Table I (simulated architecture parameters).
use sdo_harness::cli::{BinSpec, CommonArgs};
use sdo_harness::SimConfig;

const SPEC: BinSpec = BinSpec {
    name: "table1",
    about: "Prints Table I: the simulated architecture parameters (no simulation runs).",
    usage_args: "[options]",
    options: &[],
};

fn main() {
    let args = CommonArgs::parse(&SPEC);
    args.reject_positionals(&SPEC);
    println!("{}", SimConfig::table_i().render_table_i());
}
