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

use sdo_harness::cli::{parse_variant, BinSpec, CommonArgs, CsvSupport};
use sdo_harness::SimConfig;
use sdo_verify::{CampaignConfig, Checker};

const SPEC: BinSpec = BinSpec {
    name: "verify",
    about: "Leakage verification: secret-swap differential checks, invariant oracle, fuzzed litmus programs.",
    usage_args: "[options]",
    jobs: true,
    csv: CsvSupport::None,
    metrics: false,
    seed: true,
    no_skip: true,
    client: false,
    extra_options: &[
        ("--quick", "CI-sized campaign: fewer variants, Spectre only, two fuzz specs"),
        ("--fuzz <N>", "number of fuzz specs (first is the leak anchor; 0 disables fuzzing)"),
        ("--variant <name>", "restrict to one variant (repeatable)"),
        ("--report <dir>", "write counterexamples as JSONL files into <dir>"),
    ],
};

fn main() {
    let args = CommonArgs::parse(&SPEC);
    let mut cfg = CampaignConfig::full(args.seed_or_default());
    let mut report_dir: Option<String> = None;
    let mut variants = Vec::new();

    let mut it = args.rest.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().map_or_else(|| SPEC.usage_error(&format!("{flag} requires a value")), String::clone)
        };
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--fuzz" => cfg.fuzz_count = Some(parse_fuzz(&value("--fuzz"))),
            "--variant" => variants.push(
                parse_variant(&value("--variant")).unwrap_or_else(|e| SPEC.usage_error(&e)),
            ),
            "--report" => report_dir = Some(value("--report")),
            other => {
                if let Some(v) = other.strip_prefix("--fuzz=") {
                    cfg.fuzz_count = Some(parse_fuzz(v));
                } else if let Some(v) = other.strip_prefix("--variant=") {
                    variants
                        .push(parse_variant(v).unwrap_or_else(|e| SPEC.usage_error(&e)));
                } else if let Some(v) = other.strip_prefix("--report=") {
                    report_dir = Some(v.to_string());
                } else {
                    SPEC.usage_error(&format!("unexpected argument '{other}'"));
                }
            }
        }
    }
    if !variants.is_empty() {
        cfg.variants = Some(variants);
    }

    let checker = Checker::with_config(args.sim_config(SimConfig::table_i()));
    let result = cfg
        .run(&checker, &args.pool)
        .unwrap_or_else(|e| SPEC.runtime_error(&e.to_string()));
    print!("{}", result.render());

    if let Some(dir) = report_dir {
        std::fs::create_dir_all(&dir)
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
