//! `benchmark` — runs one workload with one seed and prints its result
//! as the last line of standard output; or compares two sets of
//! recorded runs.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out <runs.jsonl>] [--spans <spans.jsonl>]
//! benchmark --compare <base.jsonl> <candidate.jsonl>
//! ```
//!
//! `--out` appends the run's result, tagged with workload and seed and
//! with the workload's extra figures, to a file that `--compare` reads.
//! `--spans` names the traced run's span file (default
//! `.bench_run/<workload>-<seed>.spans.jsonl`). A failed correctness
//! check prints the result with `"correct":false` and exits with status
//! 1.

use sdo_benchmark::report::{
    compare, parse_manifest, parse_records, record_line, render_rows, END_TO_END, PER_LAYER,
    WORKLOADS,
};
use sdo_benchmark::{bench_run, run_dir};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--out <file>] [--spans <file>]\n       benchmark --compare <base> <candidate>";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out, mut spans) =
        (None, None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| {
            value
                .parse::<u64>()
                .map_err(|_| format!("{what} expects a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!("unknown workload '{value}' (one of {WORKLOADS:?})"))
            }
            "--seed" => seed = Some(number("--seed")?),
            "--seconds" => match number("--seconds")? {
                0 => return Err("--seconds must be at least 1".to_string()),
                s => seconds = Some(s as f64),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace expects 0 or 1, got '{value}'")),
            },
            "--out" => out = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
        spans,
    })
}

fn run(args: &Args) -> Result<bool, String> {
    let (report, failures) = if args.trace {
        let spans = args.spans.clone().unwrap_or_else(|| {
            run_dir().join(format!("{}-{}.spans.jsonl", args.workload, args.seed))
        });
        bench_run::traced(&args.workload, args.seed, &spans)?
    } else {
        bench_run::measure(&args.workload, args.seed, args.seconds)?
    };
    for f in &failures {
        eprintln!("benchmark: check failed: {f}");
    }
    let line = report.render(if args.trace { PER_LAYER } else { END_TO_END })?;
    if let Some(path) = &args.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        writeln!(
            file,
            "{}",
            record_line(&args.workload, args.seed, args.trace, &line, &report.extra)
        )
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{line}");
    Ok(report.correct)
}

fn compare_files(base: &str, cand: &str) -> Result<String, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
    let manifest = parse_manifest(&read("BENCHMARK.json")?)?;
    let (b, c) = (parse_records(&read(base)?)?, parse_records(&read(cand)?)?);
    let mut out = render_rows(&compare(&manifest, &b, &c));
    for w in &manifest.workloads {
        let failed = |set: &[sdo_benchmark::report::Record]| -> u64 {
            set.iter()
                .filter(|r| &r.workload == w)
                .map(|r| r.failed)
                .sum()
        };
        out.push_str(&format!(
            "{w}: failed operations base {}, candidate {}\n",
            failed(&b),
            failed(&c)
        ));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.as_slice() {
            [_, base, cand] => match compare_files(base, cand) {
                Ok(table) => {
                    print!("{table}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
