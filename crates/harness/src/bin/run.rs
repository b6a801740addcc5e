//! `run` — assemble a text program and simulate it on the Table I machine.
//!
//! ```text
//! cargo run --release -p sdo-harness --bin run -- prog.s [options]
//! ```
//!
//! `--help` lists the options. `--variant` takes any Table II variant
//! name, hyphen/underscore spellings included (`static-l1`, `stt_ld_fp`).

use sdo_harness::cli::{
    parse_attack, parse_variant, BinSpec, CommonArgs, Opt, CLIENT, JOBS, METRICS, NO_SKIP,
};
use sdo_harness::table::TextTable;
use sdo_harness::{RunRequest, SimConfig, Variant};
use sdo_isa::parse_asm;
use sdo_uarch::{AttackModel, MetricsSnapshot};

const VARIANT: Opt =
    Opt::value("--variant", "<name>", "Table II variant to simulate (default: Unsafe)");
const ATTACK: Opt = Opt::value("--attack", "<model>", "spectre | futuristic (default: spectre)");
const ALL: Opt = Opt::switch("--all", "run every Table II variant and tabulate");
const DISASM: Opt = Opt::switch("--disasm", "print the disassembly before running");

const SPEC: BinSpec = BinSpec {
    name: "run",
    about: "Assembles a text program and simulates it on the Table I machine.",
    usage_args: "<file.s> [options]",
    options: &[JOBS, METRICS, NO_SKIP, CLIENT, &[VARIANT, ATTACK, ALL, DISASM]],
};

fn main() {
    let args = CommonArgs::parse(&SPEC);
    let variant = args
        .values(&VARIANT)
        .map(|name| parse_variant(name).unwrap_or_else(|e| SPEC.usage_error(&e)))
        .last()
        .unwrap_or(Variant::Unsafe);
    let attack = args
        .values(&ATTACK)
        .map(|name| parse_attack(name).unwrap_or_else(|e| SPEC.usage_error(&e)))
        .last()
        .unwrap_or(AttackModel::Spectre);
    let file = match args.positionals.as_slice() {
        [] => SPEC.usage_error("missing input file"),
        [file] => file,
        [_, extra, ..] => SPEC.usage_error(&format!("unexpected argument '{extra}'")),
    };

    let source = std::fs::read_to_string(file)
        .unwrap_or_else(|e| SPEC.runtime_error(&format!("cannot read {file}: {e}")));
    let program =
        parse_asm(&source).unwrap_or_else(|e| SPEC.runtime_error(&format!("{file}: {e}")));
    if args.has(&DISASM) {
        println!("{}", program.disassemble());
    }

    let runner = args.runner(&SPEC, SimConfig::table_i());
    let mut metrics = MetricsSnapshot::new();
    if args.has(&ALL) {
        // One request per Table II variant; Variant::ALL starts with the
        // Unsafe baseline, so the canonical first result normalizes the
        // rest.
        let reqs: Vec<RunRequest> = Variant::ALL
            .iter()
            .map(|&v| RunRequest::program(&program).variant(v).attack(attack))
            .collect();
        let runs = runner
            .run_batch(&reqs, &args.pool)
            .unwrap_or_else(|e| SPEC.runtime_error(&e.to_string()));
        let base = &runs[0];
        let mut t = TextTable::new(vec![
            "variant".into(),
            "cycles".into(),
            "norm".into(),
            "IPC".into(),
            "delayed".into(),
            "obl".into(),
            "squashes".into(),
        ]);
        for r in &runs {
            t.row(vec![
                r.variant.name().to_string(),
                r.cycles.to_string(),
                format!("{:.3}", r.normalized_to(base)),
                format!("{:.2}", r.core.ipc()),
                r.core.delayed_loads.to_string(),
                r.core.obl.issued.to_string(),
                r.core.squashes.total().to_string(),
            ]);
            metrics.merge(&r.metrics());
        }
        println!("{} under the {attack} model:\n{}", program.name(), t.render());
    } else {
        let r = runner
            .run_one(&RunRequest::program(&program).variant(variant).attack(attack))
            .unwrap_or_else(|e| SPEC.runtime_error(&e.to_string()));
        println!("{} under {} / {attack}:", program.name(), variant.name());
        println!("{}", r.core);
        metrics.merge(&r.metrics());
    }
    args.write_metrics(&SPEC, &metrics);
    args.report_cache(&runner);
}
