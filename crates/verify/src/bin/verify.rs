//! Drives a leakage-verification campaign from the command line.
//!
//! Runs the litmus corpus and a seeded fuzz batch through the
//! secret-swap differential checker and the invariant oracle, minimizes
//! every finding, and (with `--report <dir>`) writes each one as a
//! round-trippable JSONL counterexample. Exits 1 if any check failed —
//! including the positive controls: a campaign in which the unsafe
//! baseline stops leaking is as broken as one in which a protection
//! starts.
//!
//! The campaign is deterministic: the same `--seed` produces the same
//! report byte for byte, at any `--jobs` count. Its runs carry
//! in-process observability and are never cached, so `verify` takes no
//! `--store`, `--server` or `--no-cache`.

use sdo_harness::cli::{parse_variant, BinSpec, CommonArgs, Opt, JOBS, NO_SKIP, SEED};
use sdo_harness::{SimConfig, Variant};
use sdo_verify::{CampaignConfig, Checker};

const QUICK: Opt =
    Opt::switch("--quick", "CI-sized campaign: fewer variants, Spectre only, two fuzz specs");
const FUZZ: Opt = Opt::value(
    "--fuzz",
    "<N>",
    "number of fuzz specs (first is the leak anchor; 0 disables fuzzing)",
);
const VARIANT: Opt = Opt::value("--variant", "<name>", "restrict to one variant (repeatable)");
const REPORT: Opt =
    Opt::value("--report", "<dir>", "write counterexamples as JSONL files into <dir>");

const SPEC: BinSpec = BinSpec {
    name: "verify",
    about: "Leakage verification: secret-swap differential checks, invariant oracle, fuzzed litmus programs.",
    usage_args: "[options]",
    options: &[JOBS, SEED, NO_SKIP, &[QUICK, FUZZ, VARIANT, REPORT]],
};

fn main() {
    let args = CommonArgs::parse(&SPEC);
    args.reject_positionals(&SPEC);
    let variants: Vec<Variant> = args
        .values(&VARIANT)
        .map(|name| parse_variant(name).unwrap_or_else(|e| SPEC.usage_error(&e)))
        .collect();
    let cfg = CampaignConfig {
        seed: args.seed_or_default(),
        quick: args.has(&QUICK),
        fuzz_count: args.values(&FUZZ).map(parse_fuzz).last(),
        variants: (!variants.is_empty()).then_some(variants),
    };

    let checker = Checker::with_config(args.sim_config(SimConfig::table_i()));
    let result = cfg
        .run(&checker, &args.pool)
        .unwrap_or_else(|e| SPEC.runtime_error(&e.to_string()));
    print!("{}", result.render());

    if let Some(dir) = args.value(&REPORT) {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| SPEC.runtime_error(&format!("cannot create {dir}: {e}")));
        for cex in &result.counterexamples {
            let path = format!("{dir}/{}", cex.file_name());
            std::fs::write(&path, cex.to_jsonl())
                .unwrap_or_else(|e| SPEC.runtime_error(&format!("cannot write {path}: {e}")));
            eprintln!("wrote {path}");
        }
    }

    if !result.passed() {
        std::process::exit(1);
    }
}

fn parse_fuzz(v: &str) -> usize {
    v.parse()
        .unwrap_or_else(|_| SPEC.usage_error(&format!("--fuzz expects an unsigned integer, got '{v}'")))
}
