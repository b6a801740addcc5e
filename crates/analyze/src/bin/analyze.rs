//! `analyze` — static STT taint analysis from the command line.
//!
//! With no positional arguments the default target set (the litmus
//! corpus plus every workload kernel) is analyzed; `.s` files given on
//! the command line are parsed with [`sdo_isa::parse_asm`] and analyzed
//! instead. Per-variant findings go to stdout as a text table or (with
//! `--csv`) as the typed findings CSV; `--report <dir>` additionally
//! writes them as JSONL. `--differential <N>` cross-checks the
//! analyzer's "clean" verdicts against the dynamic secret-swap checker
//! over `N` fuzzed litmus specs.
//!
//! `--scan` switches to the binary-scanner mode: positional arguments
//! are RV32 images (flat binaries at the corpus text base, or static
//! ELF32 — sniffed by magic), defaulting to the in-tree corpus. Each
//! image is lowered with provenance, scanned interprocedurally
//! ([`sdo_analyze::scan_program`]), and every gadget chain is reported
//! with RV32 addresses, projected per variant through the shared
//! suppression table. Corpus entries with an annotated secret are
//! replayed under the dynamic secret-swap checker: each reported
//! gadget is classified CONFIRMED or OVER-APPROX, and a statically
//! clean (entry, variant) that diverges dynamically is an *unsound*
//! disagreement.
//!
//! Exit status is 1 when the static view contradicts itself or the
//! dynamic ground truth: a pinned corpus expectation mismatch, a gating
//! finding on a channel the policy says the variant closes, or a
//! static↔dynamic differential disagreement (fuzzed-spec or gadget
//! replay).

use sdo_analyze::corpus::{analyze_all, default_targets, findings_under, Target, TargetReport};
use sdo_analyze::differential;
use sdo_analyze::findings::{closed_channel_findings, findings_csv};
use sdo_analyze::scan::{gadgets_csv, scan_program, Gadget, ScanResult};
use sdo_analyze::Finding;
use sdo_harness::cli::{parse_variant, BinSpec, CommonArgs, Opt, CSV, JOBS, METRICS, SEED};
use sdo_harness::table::TextTable;
use sdo_harness::{SimConfig, Variant};
use sdo_isa::Program;
use sdo_rv32::{load_elf32, load_flat, translate_with_provenance, Provenance};
use sdo_uarch::{AttackModel, MetricsSnapshot};
use sdo_verify::Checker;
use sdo_workloads::Channel;

const VARIANT: Opt =
    Opt::value("--variant", "<name>", "classify under one variant (repeatable; default: all)");
const REPORT: Opt =
    Opt::value("--report", "<dir>", "write findings (and counterexamples) as JSONL under <dir>");
const DIFFERENTIAL: Opt =
    Opt::value("--differential", "<N>", "cross-check N fuzzed specs against the dynamic checker");
const SCAN: Opt = Opt::switch(
    "--scan",
    "binary-scanner mode: positional args are RV32 images (flat or ELF32; \
     default: the in-tree corpus); reports gadget chains with RV32 addresses \
     and replays annotated gadgets dynamically",
);

const SPEC: BinSpec = BinSpec {
    name: "analyze",
    about: "static STT taint analysis: CFG + taint-lattice fixpoint per program, \
            per-variant transmitter classification, and an optional static\u{2194}dynamic \
            soundness differential",
    usage_args: "[file.s ...] [options]",
    // No CLIENT: static analysis and checker differentials run no
    // cacheable simulations (the dynamic side carries the observability
    // probe).
    options: &[JOBS, CSV, METRICS, SEED, &[VARIANT, REPORT, DIFFERENTIAL, SCAN]],
};

fn main() {
    let args = CommonArgs::parse(&SPEC);
    let mut variants: Vec<Variant> = args
        .values(&VARIANT)
        .map(|name| parse_variant(name).unwrap_or_else(|e| SPEC.usage_error(&e)))
        .collect();
    if variants.is_empty() {
        variants = Variant::ALL.to_vec();
    }
    let report_dir = args.value(&REPORT);
    let differential_count: Option<usize> = args
        .values(&DIFFERENTIAL)
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                SPEC.usage_error(&format!("--differential expects a count, got '{v}'"))
            })
        })
        .last();
    let files = &args.positionals;

    if args.has(&SCAN) {
        run_scan(&args, &variants, files, report_dir);
        return;
    }

    let targets = if files.is_empty() { default_targets() } else { load_files(files) };
    let start = std::time::Instant::now();
    let reports = analyze_all(&targets, &args.pool);
    let elapsed = start.elapsed();

    let findings: Vec<Finding> =
        variants.iter().flat_map(|&v| findings_under(&reports, v)).collect();
    let contradictions = closed_channel_findings(&findings);
    let mismatches: usize = reports.iter().map(|r| r.mismatches.len()).sum();

    if args.csv.is_some() {
        print!("{}", findings_csv(&findings));
    } else {
        print!("{}", summary_table(&reports));
        eprintln!(
            "analyzed {} program(s) in {:.1} ms ({} jobs); {} finding(s) across {} variant(s)",
            reports.len(),
            elapsed.as_secs_f64() * 1e3,
            args.pool.jobs(),
            findings.len(),
            variants.len(),
        );
    }
    for r in &reports {
        for m in &r.mismatches {
            eprintln!("{}: expectation mismatch: {m}", r.name);
        }
    }
    for f in &contradictions {
        eprintln!(
            "{}: pc {}: {} on a closed channel under {}",
            f.program,
            f.pc,
            f.kind,
            f.variant.slug()
        );
    }

    let diff = differential_count.map(|count| {
        let checker = Checker::with_config(args.sim_config(SimConfig::table_i()));
        let result = differential::run(&checker, args.seed_or_default(), count);
        eprintln!(
            "differential: {} spec(s), {} clean claim(s) confirmed, {} skipped, \
             {} completeness hit(s), {} disagreement(s), {} verdict flip(s)",
            result.specs,
            result.confirmed_clean,
            result.skipped,
            result.completeness_hits,
            result.disagreements.len(),
            result.verdict_flips,
        );
        result
    });

    if let Some(dir) = report_dir {
        if let Err(e) = write_report(dir, &findings, diff.as_ref()) {
            SPEC.runtime_error(&format!("cannot write report under {dir}: {e}"));
        }
    }
    args.write_metrics(&SPEC, &metrics(&reports, &findings, diff.as_ref()));

    let disagreements = diff.as_ref().map_or(0, |d| d.disagreements.len());
    if mismatches > 0 || !contradictions.is_empty() || disagreements > 0 {
        std::process::exit(1);
    }
}

/// One binary to scan: a lowered program plus its provenance.
struct ScanTarget {
    name: String,
    program: Program,
    prov: Provenance,
}

/// Loads the scan target set: the given image files (ELF32 by magic,
/// flat binaries at the corpus text base otherwise) or, with none, the
/// whole in-tree RV32 corpus.
fn load_scan_targets(files: &[String]) -> Vec<ScanTarget> {
    if files.is_empty() {
        return sdo_rv32::corpus::CORPUS
            .iter()
            .map(|e| {
                let (program, prov) = translate_with_provenance(&e.image(), e.name)
                    .expect("corpus entries are pinned translatable");
                ScanTarget { name: e.name.to_string(), program, prov }
            })
            .collect();
    }
    files
        .iter()
        .map(|path| {
            let bytes = std::fs::read(path)
                .unwrap_or_else(|e| SPEC.runtime_error(&format!("cannot read {path}: {e}")));
            let image = if bytes.starts_with(b"\x7fELF") {
                load_elf32(&bytes)
            } else {
                load_flat(&bytes, sdo_rv32::corpus::TEXT_BASE)
            }
            .unwrap_or_else(|e| SPEC.runtime_error(&format!("{path}: {e}")));
            let name =
                path.rsplit('/').next().unwrap_or(path).trim_end_matches(".bin").to_string();
            let (program, prov) = translate_with_provenance(&image, &name)
                .unwrap_or_else(|e| SPEC.runtime_error(&format!("{path}: {e}")));
            ScanTarget { name, program, prov }
        })
        .collect()
}

/// The binary-scanner mode: scan every target, report gadget chains
/// per variant, replay annotated corpus gadgets dynamically, and exit
/// 1 on any unsound (statically clean, dynamically divergent)
/// disagreement.
fn run_scan(
    args: &CommonArgs,
    variants: &[Variant],
    files: &[String],
    report_dir: Option<&str>,
) {
    let targets = load_scan_targets(files);
    let start = std::time::Instant::now();
    let scans: Vec<ScanResult> =
        args.pool.run(&targets, |_, t| scan_program(&t.program, &t.prov));
    let elapsed = start.elapsed();

    let gadgets: Vec<Gadget> = scans
        .iter()
        .flat_map(|s| variants.iter().flat_map(|&v| s.gadgets_for(v)))
        .collect();
    let total_insts: usize = scans.iter().map(|s| s.analysis.insts).sum();
    let total_chains: usize = scans.iter().map(ScanResult::chain_count).sum();

    if args.csv.is_some() {
        print!("{}", gadgets_csv(&gadgets));
    } else {
        print!("{}", scan_table(&targets, &scans));
        eprintln!(
            "scanned {} binarie(s), {} insts in {:.1} ms ({} jobs): {} chain(s), \
             {} projected gadget(s) across {} variant(s)",
            scans.len(),
            total_insts,
            elapsed.as_secs_f64() * 1e3,
            args.pool.jobs(),
            total_chains,
            gadgets.len(),
            variants.len(),
        );
    }

    // Static↔dynamic gadget differential over the annotated corpus
    // cases present in the target set. The secretless kernels cannot
    // be replayed (nothing to swap) — their zero-chain claim is
    // covered by the pinned expectations in litmus mode instead.
    let cases = sdo_workloads::rv32_litmus_cases();
    let mut confirmed = 0usize;
    let mut overapprox = 0usize;
    let mut unsound: Vec<String> = Vec::new();
    let checker = Checker::with_config(args.sim_config(SimConfig::table_i()));
    for (t, scan) in targets.iter().zip(&scans) {
        let Some(case) = cases.iter().find(|c| c.name == t.name) else { continue };
        for &v in variants {
            let diverged = match checker.check_case(case, v, AttackModel::Spectre) {
                Ok(outcome) => outcome.divergence.is_some(),
                Err(e) => {
                    eprintln!("scan-differential: {} under {}: replay failed: {e}", t.name, v.slug());
                    continue;
                }
            };
            // A reported gadget is CONFIRMED when the secret-swapped runs
            // diverge and OVER-APPROX (allowed for a may analysis) when
            // they agree; a clean verdict that diverges is unsound.
            if !scan.gadgets_for(v).is_empty() {
                let verdict = if diverged {
                    confirmed += 1;
                    "CONFIRMED"
                } else {
                    overapprox += 1;
                    "OVER-APPROX"
                };
                eprintln!("scan-differential: {} under {}: {verdict}", t.name, v.slug());
            } else if diverged {
                unsound.push(format!(
                    "{} under {}: statically clean but secret-swap divergent",
                    t.name,
                    v.slug()
                ));
            }
        }
    }
    eprintln!(
        "scan-differential: {confirmed} CONFIRMED, {overapprox} OVER-APPROX, {} unsound \
         disagreement(s)",
        unsound.len()
    );
    for u in &unsound {
        eprintln!("scan-differential: UNSOUND: {u}");
    }

    if let Some(dir) = report_dir {
        if let Err(e) = write_scan_report(dir, &gadgets) {
            SPEC.runtime_error(&format!("cannot write report under {dir}: {e}"));
        }
    }

    args.write_metrics(&SPEC, &scan_metrics(&scans, &gadgets, confirmed, overapprox, &unsound));
    if !unsound.is_empty() {
        std::process::exit(1);
    }
}

fn scan_table(targets: &[ScanTarget], scans: &[ScanResult]) -> String {
    let mut t = TextTable::new(
        ["program", "insts", "blocks", "functions", "calls", "chains", "cache", "fp"]
            .map(String::from)
            .to_vec(),
    );
    for (target, s) in targets.iter().zip(scans) {
        t.row(vec![
            target.name.clone(),
            s.analysis.insts.to_string(),
            s.analysis.blocks.to_string(),
            s.functions.to_string(),
            s.call_sites.to_string(),
            s.chain_count().to_string(),
            s.analysis.transmits_via(Channel::Cache).to_string(),
            s.analysis.transmits_via(Channel::FpTiming).to_string(),
        ]);
    }
    t.render()
}

fn write_scan_report(dir: &str, gadgets: &[Gadget]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let lines: String = gadgets.iter().map(|g| g.to_jsonl() + "\n").collect();
    std::fs::write(format!("{dir}/gadgets.jsonl"), lines)?;
    std::fs::write(format!("{dir}/gadgets.csv"), gadgets_csv(gadgets))?;
    Ok(())
}

fn scan_metrics(
    scans: &[ScanResult],
    gadgets: &[Gadget],
    confirmed: usize,
    overapprox: usize,
    unsound: &[String],
) -> MetricsSnapshot {
    let mut m = MetricsSnapshot::new();
    m.add("scan.programs", scans.len() as u64);
    for s in scans {
        m.add("scan.insts", s.analysis.insts as u64);
        m.add("scan.functions", s.functions as u64);
        m.add("scan.call_sites", s.call_sites as u64);
        m.add("scan.chains", s.chain_count() as u64);
    }
    m.add("scan.gadgets", gadgets.len() as u64);
    m.add("scan.confirmed", confirmed as u64);
    m.add("scan.overapprox", overapprox as u64);
    m.add("scan.unsound", unsound.len() as u64);
    m
}

/// Parses each `.s` file into an unannotated [`Target`], printing the
/// position-rich [`sdo_isa::ParseError`] and exiting 1 on failure.
fn load_files(files: &[String]) -> Vec<Target> {
    files
        .iter()
        .map(|path| {
            let source = std::fs::read_to_string(path)
                .unwrap_or_else(|e| SPEC.runtime_error(&format!("cannot read {path}: {e}")));
            let program = sdo_isa::parse_asm(&source)
                .unwrap_or_else(|e| SPEC.runtime_error(&format!("{path}: {e}")));
            let name = if program.name().is_empty() {
                path.rsplit('/').next().unwrap_or(path).trim_end_matches(".s").to_string()
            } else {
                program.name().to_string()
            };
            Target { name, program, expect: None, prov: None }
        })
        .collect()
}

fn summary_table(reports: &[TargetReport]) -> String {
    let mut t = TextTable::new(
        ["program", "insts", "blocks", "roots", "cache", "fp", "training", "dead", "expect"]
            .map(String::from)
            .to_vec(),
    );
    for r in reports {
        let a = &r.analysis;
        t.row(vec![
            r.name.clone(),
            a.insts.to_string(),
            a.blocks.to_string(),
            a.speculative_accesses.to_string(),
            a.transmits_via(Channel::Cache).to_string(),
            a.transmits_via(Channel::FpTiming).to_string(),
            a.trainings.len().to_string(),
            a.dead.len().to_string(),
            if r.mismatches.is_empty() { "ok".into() } else { "MISMATCH".into() },
        ]);
    }
    t.render()
}

fn write_report(
    dir: &str,
    findings: &[Finding],
    diff: Option<&differential::DifferentialResult>,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let lines: String = findings.iter().map(|f| f.to_jsonl() + "\n").collect();
    std::fs::write(format!("{dir}/findings.jsonl"), lines)?;
    if let Some(d) = diff {
        for cex in &d.disagreements {
            std::fs::write(format!("{dir}/{}", cex.file_name()), cex.to_jsonl())?;
        }
    }
    Ok(())
}

fn metrics(
    reports: &[TargetReport],
    findings: &[Finding],
    diff: Option<&differential::DifferentialResult>,
) -> MetricsSnapshot {
    let mut m = MetricsSnapshot::new();
    m.add("analyze.programs", reports.len() as u64);
    for r in reports {
        let a = &r.analysis;
        m.add("analyze.insts", a.insts as u64);
        m.add("analyze.blocks", a.blocks as u64);
        m.add("analyze.edges", a.edges as u64);
        m.add("analyze.fixpoint_visits", a.fixpoint_visits as u64);
        m.add("analyze.speculative_accesses", a.speculative_accesses as u64);
        m.add("analyze.expect_mismatches", r.mismatches.len() as u64);
    }
    for f in findings {
        m.add(&format!("findings.{}", f.kind), 1);
    }
    if let Some(d) = diff {
        m.add("differential.specs", d.specs as u64);
        m.add("differential.confirmed_clean", d.confirmed_clean as u64);
        m.add("differential.skipped", d.skipped as u64);
        m.add("differential.completeness_hits", d.completeness_hits as u64);
        m.add("differential.disagreements", d.disagreements.len() as u64);
        m.add("differential.verdict_flips", d.verdict_flips as u64);
    }
    m
}
