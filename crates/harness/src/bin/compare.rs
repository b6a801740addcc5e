//! `compare` — side-by-side statistics for two Table II variants on one
//! suite kernel, highlighting exactly where the protection overhead (or
//! the SDO recovery) comes from.
//!
//! ```text
//! cargo run --release -p sdo-harness --bin compare -- \
//!     [kernel] [variant-a] [variant-b] [spectre|futuristic] [options]
//! ```
//!
//! Defaults: `hash_lookup STT{ld} Hybrid spectre`. Variant names accept
//! hyphen/underscore spellings (`stt-ld`, `static_l2`, ...).
use sdo_harness::cli::{
    parse_attack, parse_variant, BinSpec, CommonArgs, CLIENT, JOBS, METRICS, NO_SKIP,
};
use sdo_harness::sim::{RunRequest, RunResult};
use sdo_harness::table::TextTable;
use sdo_harness::{SimConfig, Variant};
use sdo_uarch::{AttackModel, MetricsSnapshot};
use sdo_workloads::suite;

const SPEC: BinSpec = BinSpec {
    name: "compare",
    about: "Compares two Table II variants side by side on one suite kernel.",
    usage_args: "[kernel] [variant-a] [variant-b] [spectre|futuristic] [options]",
    options: &[JOBS, METRICS, NO_SKIP, CLIENT],
};

fn main() {
    let args = CommonArgs::parse(&SPEC);
    let pos = &args.positionals;
    if let Some(extra) = pos.get(4) {
        SPEC.usage_error(&format!("unexpected argument '{extra}'"));
    }
    let arg = |i: usize, default: &'static str| pos.get(i).map_or(default, String::as_str);
    let kernel = arg(0, "hash_lookup");
    let va = parse_variant(arg(1, "STT{ld}")).unwrap_or_else(|e| SPEC.usage_error(&e));
    let vb = parse_variant(arg(2, "Hybrid")).unwrap_or_else(|e| SPEC.usage_error(&e));
    let attack: AttackModel =
        parse_attack(arg(3, "spectre")).unwrap_or_else(|e| SPEC.usage_error(&e));

    let kernels = suite();
    let Some(w) = kernels.iter().find(|w| w.name() == kernel) else {
        SPEC.usage_error(&format!(
            "unknown kernel '{kernel}'; options: {}",
            kernels.iter().map(|w| w.name()).collect::<Vec<_>>().join(", ")
        ));
    };

    let runner = args.runner(&SPEC, SimConfig::table_i());
    let reqs: Vec<RunRequest> = [Variant::Unsafe, va, vb]
        .iter()
        .map(|&v| RunRequest::workload(w).variant(v).attack(attack))
        .collect();
    let mut runs = runner
        .run_batch(&reqs, &args.pool)
        .unwrap_or_else(|e| SPEC.runtime_error(&e.to_string()))
        .into_iter();
    let (base, a, b) = (
        runs.next().expect("baseline run"),
        runs.next().expect("variant A run"),
        runs.next().expect("variant B run"),
    );

    let row = |name: &str, f: &dyn Fn(&RunResult) -> String| {
        vec![name.to_string(), f(&a), f(&b)]
    };
    let mut t = TextTable::new(vec![
        format!("{kernel} / {attack}"),
        va.name().to_string(),
        vb.name().to_string(),
    ]);
    t.row(row("cycles", &|r| r.cycles.to_string()));
    t.row(row("normalized to Unsafe", &|r| format!("{:.3}", r.normalized_to(&base))));
    t.row(row("IPC", &|r| format!("{:.2}", r.core.ipc())));
    t.row(row("delayed loads", &|r| r.core.delayed_loads.to_string()));
    t.row(row("delay cycles", &|r| r.core.delay_cycles.to_string()));
    t.row(row("Obl-Ld issued", &|r| r.core.obl.issued.to_string()));
    t.row(row("Obl-Ld success/fail", &|r| {
        format!("{}/{}", r.core.obl.success, r.core.obl.fail)
    }));
    t.row(row("DRAM predictions", &|r| r.core.obl.dram_predictions.to_string()));
    t.row(row("validations/exposures", &|r| {
        format!("{}/{}", r.core.obl.validations, r.core.obl.exposures)
    }));
    t.row(row("validation stall cycles", &|r| r.core.obl.validation_stall_cycles.to_string()));
    t.row(row("squashes (SDO-related)", &|r| r.core.squashes.sdo_related().to_string()));
    t.row(row("squashes (branch)", &|r| r.core.squashes.branch.to_string()));
    t.row(row("predictor precision", &|r| format!("{:.1}%", 100.0 * r.core.obl.precision())));
    t.row(row("predictor accuracy", &|r| format!("{:.1}%", 100.0 * r.core.obl.accuracy())));
    println!("{}", t.render());
    println!("(Unsafe baseline: {} cycles)", base.cycles);

    let mut metrics = MetricsSnapshot::new();
    for r in [&base, &a, &b] {
        metrics.merge(&r.metrics());
    }
    args.write_metrics(&SPEC, &metrics);
    args.report_cache(&runner);
}
