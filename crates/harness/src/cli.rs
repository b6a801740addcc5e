//! Shared command-line handling for the harness binaries.
//!
//! Every binary historically parsed its own arguments with a slightly
//! different dialect (panics vs `exit(2)`, `--csv` here but not there,
//! variant names that had to be spelled exactly like the figure labels).
//! This module gives them one dialect:
//!
//! * `--jobs <N>` / `--jobs=N` (or the `SDO_JOBS` environment variable)
//!   selects the worker count, on every simulating binary;
//! * `--csv` / `--csv=runs` selects machine-readable output where the
//!   binary supports it;
//! * `--metrics <path>` writes the merged [`MetricsSnapshot`] of every
//!   simulation the binary ran, as JSON;
//! * `--seed <N>` / `--seed=N` (or the `SDO_SEED` environment variable)
//!   seeds randomized workloads and fuzz campaigns reproducibly, on
//!   binaries that declare support;
//! * `--server <sock>` submits every simulation batch to the
//!   `sdo-serve` daemon listening on that Unix socket, `--store <dir>`
//!   memoizes results in a local content-addressed store, and
//!   `--no-cache` bypasses lookups — the uniform client dialect, on
//!   every simulating binary;
//! * `--help` prints a uniform usage page and exits 0;
//! * usage errors exit 2, runtime errors (I/O, simulation hangs) exit 1.
//!
//! Variant and attack-model names are parsed leniently:
//! `Static L1` == `static-l1` == `static_l1` == `StaticL1`, and
//! `STT{ld+fp}` == `stt-ld-fp` == `stt_ld_fp`.

use crate::config::Variant;
use crate::engine::{JobPool, JOBS_ENV};
use crate::proto::attack_slug;
use sdo_uarch::{AttackModel, MetricsSnapshot};

/// Environment variable consulted when `--seed` is absent (mirrors
/// `SDO_JOBS` for `--jobs`).
pub const SEED_ENV: &str = "SDO_SEED";

/// Which CSV flags a binary accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsvSupport {
    /// No CSV output; `--csv` is a usage error.
    None,
    /// `--csv` only (a single table); `--csv=runs` is a usage error.
    FigureOnly,
    /// `--csv` (the figure matrix) and `--csv=runs` (the per-run dump).
    FigureAndRuns,
}

/// The CSV mode requested on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsvMode {
    /// `--csv`: the figure-shaped matrix.
    Figure,
    /// `--csv=runs`: one row per simulation.
    Runs,
}

/// Static description of one binary: name, summary, and which common
/// flags it supports. Drives both parsing and the `--help` page.
#[derive(Debug, Clone, Copy)]
pub struct BinSpec {
    /// Binary name as invoked (`fig6`, `run`, ...).
    pub name: &'static str,
    /// One-line summary shown at the top of `--help`.
    pub about: &'static str,
    /// Positional-argument syntax for the usage line, e.g.
    /// `"<file.s> [options]"`; use `"[options]"` when there are none.
    pub usage_args: &'static str,
    /// Whether `--jobs` is accepted (false only for non-simulating
    /// binaries like `table1`).
    pub jobs: bool,
    /// Which CSV flags are accepted.
    pub csv: CsvSupport,
    /// Whether `--metrics <path>` is accepted.
    pub metrics: bool,
    /// Whether `--seed <N>` is accepted (binaries with randomized
    /// workloads or fuzz campaigns).
    pub seed: bool,
    /// Whether `--no-skip` is accepted (simulating binaries, where it
    /// disables quiescence fast-forward; outputs are byte-identical
    /// either way, so this is purely a verification escape hatch).
    pub no_skip: bool,
    /// Whether the client flags (`--server`, `--store`, `--no-cache`)
    /// are accepted — binaries whose simulations route through a
    /// [`crate::Runner`] and can therefore run locally, memoized, or as
    /// a thin client of an `sdo-serve` daemon.
    pub client: bool,
    /// Binary-specific options as `(flag, help)` pairs, appended to the
    /// options table of `--help`.
    pub extra_options: &'static [(&'static str, &'static str)],
}

impl BinSpec {
    /// Renders the uniform `--help` page.
    #[must_use]
    pub fn usage(&self) -> String {
        let mut out = format!("usage: {} {}\n\n{}\n\noptions:\n", self.name, self.usage_args, self.about);
        let mut opts: Vec<(&str, String)> = Vec::new();
        if self.jobs {
            opts.push((
                "--jobs <N>",
                format!("worker threads (default: ${JOBS_ENV} or all cores)"),
            ));
        }
        if self.csv != CsvSupport::None {
            opts.push(("--csv", "print the figure as CSV on stdout".into()));
        }
        if self.csv == CsvSupport::FigureAndRuns {
            opts.push(("--csv=runs", "print the full per-run dump as CSV".into()));
        }
        if self.metrics {
            opts.push((
                "--metrics <path>",
                "write the merged metric snapshot as JSON".into(),
            ));
        }
        if self.seed {
            opts.push((
                "--seed <N>",
                format!("RNG seed for reproducible campaigns (default: ${SEED_ENV} or 0)"),
            ));
        }
        if self.no_skip {
            opts.push((
                "--no-skip",
                "disable quiescence fast-forward (byte-identical output, slower)".into(),
            ));
        }
        if self.client {
            opts.push((
                "--server <sock>",
                "submit simulations to the sdo-serve daemon at this Unix socket".into(),
            ));
            opts.push((
                "--store <dir>",
                "memoize results in a content-addressed store at this directory".into(),
            ));
            opts.push((
                "--no-cache",
                "bypass store lookups (fresh results are still saved)".into(),
            ));
        }
        for &(flag, help) in self.extra_options {
            opts.push((flag, help.into()));
        }
        opts.push(("--help", "show this help and exit".into()));
        for (flag, help) in opts {
            out.push_str(&format!("  {flag:<18} {help}\n"));
        }
        out
    }

    /// Prints `msg` and a `--help` pointer to stderr, then exits 2 (the
    /// uniform usage-error path).
    pub fn usage_error(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.name);
        eprintln!("try '{} --help'", self.name);
        std::process::exit(2);
    }

    /// Prints `msg` to stderr and exits 1 (the uniform runtime-error
    /// path: I/O failures, simulation hangs).
    pub fn runtime_error(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.name);
        std::process::exit(1);
    }
}

/// The common flags of one invocation, parsed; binary-specific arguments
/// are left in [`CommonArgs::rest`] in their original order.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Worker pool from `--jobs` / `SDO_JOBS` / available parallelism.
    pub pool: JobPool,
    /// CSV mode, if requested.
    pub csv: Option<CsvMode>,
    /// `--metrics` output path, if requested.
    pub metrics: Option<String>,
    /// RNG seed from `--seed` / `SDO_SEED`, if either was given.
    pub seed: Option<u64>,
    /// `--no-skip`: run with quiescence fast-forward disabled.
    pub no_skip: bool,
    /// `--server`: Unix-socket path of the `sdo-serve` daemon to submit
    /// simulations to.
    pub server: Option<String>,
    /// `--store`: directory of the content-addressed result store.
    pub store: Option<String>,
    /// `--no-cache`: bypass store lookups (fresh results still saved).
    pub no_cache: bool,
    /// Arguments the common layer did not consume.
    pub rest: Vec<String>,
}

/// Why [`CommonArgs::try_parse`] stopped: help requested, or a malformed
/// invocation (with the message to print).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help`/`-h` was present: print usage, exit 0.
    Help,
    /// Malformed invocation: print the message, exit 2.
    Usage(String),
}

impl CommonArgs {
    /// Parses the process arguments against `spec`, handling `--help`
    /// (exit 0) and usage errors (exit 2) uniformly.
    #[must_use]
    pub fn parse(spec: &BinSpec) -> CommonArgs {
        match Self::try_parse(spec, std::env::args().skip(1).collect()) {
            Ok(args) => args,
            Err(CliError::Help) => {
                print!("{}", spec.usage());
                std::process::exit(0);
            }
            Err(CliError::Usage(msg)) => spec.usage_error(&msg),
        }
    }

    /// Pure parsing core of [`CommonArgs::parse`] (testable: no process
    /// exit, no environment reads beyond the `SDO_JOBS` fallback).
    ///
    /// # Errors
    ///
    /// [`CliError::Help`] when `--help` is present; [`CliError::Usage`]
    /// on a malformed or unsupported common flag.
    pub fn try_parse(spec: &BinSpec, args: Vec<String>) -> Result<CommonArgs, CliError> {
        let mut jobs: Option<usize> = None;
        let mut csv = None;
        let mut metrics = None;
        let mut seed: Option<u64> = None;
        let mut no_skip = false;
        let mut server: Option<String> = None;
        let mut store: Option<String> = None;
        let mut no_cache = false;
        let mut rest = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--help" | "-h" => return Err(CliError::Help),
                "--jobs" => {
                    let v = it
                        .next()
                        .ok_or_else(|| CliError::Usage("--jobs requires a value".into()))?;
                    jobs = Some(parse_jobs(spec, &v)?);
                }
                "--csv" => {
                    require_csv(spec)?;
                    csv = Some(CsvMode::Figure);
                }
                "--csv=runs" => {
                    require_csv(spec)?;
                    if spec.csv == CsvSupport::FigureOnly {
                        return Err(CliError::Usage(
                            "--csv=runs is not supported here (use --csv)".into(),
                        ));
                    }
                    csv = Some(CsvMode::Runs);
                }
                "--metrics" => {
                    if !spec.metrics {
                        return Err(CliError::Usage("--metrics is not supported here".into()));
                    }
                    let v = it
                        .next()
                        .ok_or_else(|| CliError::Usage("--metrics requires a path".into()))?;
                    metrics = Some(v);
                }
                "--seed" => {
                    let v = it
                        .next()
                        .ok_or_else(|| CliError::Usage("--seed requires a value".into()))?;
                    seed = Some(parse_seed(spec, &v)?);
                }
                "--no-skip" => {
                    if !spec.no_skip {
                        return Err(CliError::Usage("--no-skip is not supported here".into()));
                    }
                    no_skip = true;
                }
                // The uniform client flags. Bins with `client: false` get
                // them passed through in `rest` instead: either they
                // declare their own meaning (the serve daemon's --store)
                // or `reject_rest` turns them into a usage error.
                "--server" if spec.client => {
                    let v = it
                        .next()
                        .ok_or_else(|| CliError::Usage("--server requires a socket path".into()))?;
                    server = Some(v);
                }
                "--store" if spec.client => {
                    let v = it
                        .next()
                        .ok_or_else(|| CliError::Usage("--store requires a directory".into()))?;
                    store = Some(v);
                }
                "--no-cache" if spec.client => {
                    no_cache = true;
                }
                other => {
                    if let Some(v) = other.strip_prefix("--jobs=") {
                        jobs = Some(parse_jobs(spec, v)?);
                    } else if let Some(v) = other.strip_prefix("--metrics=") {
                        if !spec.metrics {
                            return Err(CliError::Usage(
                                "--metrics is not supported here".into(),
                            ));
                        }
                        metrics = Some(v.to_string());
                    } else if let Some(v) = other.strip_prefix("--seed=") {
                        seed = Some(parse_seed(spec, v)?);
                    } else if let Some(v) = other.strip_prefix("--server=") {
                        if spec.client {
                            server = Some(v.to_string());
                        } else {
                            rest.push(arg);
                        }
                    } else if let Some(v) = other.strip_prefix("--store=") {
                        if spec.client {
                            store = Some(v.to_string());
                        } else {
                            rest.push(arg);
                        }
                    } else if let Some(v) = other.strip_prefix("--csv=") {
                        require_csv(spec)?;
                        return Err(CliError::Usage(format!(
                            "unknown CSV mode '{v}' (expected --csv or --csv=runs)"
                        )));
                    } else {
                        rest.push(arg);
                    }
                }
            }
        }
        if server.is_some() && store.is_some() {
            return Err(CliError::Usage(
                "--store conflicts with --server (the daemon owns its own store)".into(),
            ));
        }
        let pool = jobs.map_or_else(JobPool::from_env, JobPool::new);
        if seed.is_none() {
            // Environment fallback, mirroring --jobs / SDO_JOBS.
            seed = std::env::var(SEED_ENV).ok().and_then(|v| v.parse().ok());
        }
        Ok(CommonArgs { pool, csv, metrics, seed, no_skip, server, store, no_cache, rest })
    }

    /// The machine configuration after applying `--no-skip`: `base` with
    /// quiescence fast-forward disabled when the flag was given.
    #[must_use]
    pub fn sim_config(&self, base: crate::SimConfig) -> crate::SimConfig {
        base.with_fast_forward(!self.no_skip)
    }

    /// The effective campaign seed: `--seed`, else `SDO_SEED`, else 0.
    #[must_use]
    pub fn seed_or_default(&self) -> u64 {
        self.seed.unwrap_or(0)
    }

    /// Builds the [`crate::Runner`] the client flags selected: a thin
    /// client of the daemon at `--server`, a store-memoized local runner
    /// for `--store`, and a plain local runner otherwise. `--no-skip`
    /// applies to `base` first (via [`CommonArgs::sim_config`]).
    ///
    /// # Errors
    ///
    /// [`crate::SimError::Store`] when the `--store` directory cannot be
    /// opened.
    pub fn try_runner(&self, base: crate::SimConfig) -> Result<crate::Runner, crate::SimError> {
        let cfg = self.sim_config(base);
        let runner = match (&self.server, &self.store) {
            (Some(path), _) => crate::Runner::server(cfg, path.clone()),
            (None, Some(dir)) => crate::Runner::with_store(cfg, dir)?,
            (None, None) => crate::Runner::local(cfg),
        };
        Ok(runner.no_cache(self.no_cache))
    }

    /// [`CommonArgs::try_runner`] with the uniform exit-1 path on store
    /// failure — the form the binaries call.
    #[must_use]
    pub fn runner(&self, spec: &BinSpec, base: crate::SimConfig) -> crate::Runner {
        self.try_runner(base).unwrap_or_else(|e| spec.runtime_error(&e.to_string()))
    }

    /// Prints the runner's one-line cache report to stderr, when it has
    /// one (any store- or server-backed invocation). CI greps this line
    /// to assert "second pass: 100% cache hits".
    pub fn report_cache(&self, runner: &crate::Runner) {
        if let Some(line) = runner.cache_report() {
            eprintln!("{line}");
        }
    }

    /// Usage-errors (exit 2) if any unconsumed arguments remain — the
    /// final call of binaries with no positional arguments.
    pub fn reject_rest(&self, spec: &BinSpec) {
        if let Some(extra) = self.rest.first() {
            spec.usage_error(&format!("unexpected argument '{extra}'"));
        }
    }

    /// Writes `m` as JSON to the `--metrics` path, if one was given.
    /// Exits 1 on I/O failure.
    pub fn write_metrics(&self, spec: &BinSpec, m: &MetricsSnapshot) {
        if let Some(path) = &self.metrics {
            if let Err(e) = std::fs::write(path, m.to_json()) {
                spec.runtime_error(&format!("cannot write {path}: {e}"));
            }
            eprintln!("wrote {path}");
        }
    }
}

fn require_csv(spec: &BinSpec) -> Result<(), CliError> {
    if spec.csv == CsvSupport::None {
        return Err(CliError::Usage("--csv is not supported here".into()));
    }
    Ok(())
}

fn parse_jobs(_spec: &BinSpec, v: &str) -> Result<usize, CliError> {
    match v.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(CliError::Usage(format!("--jobs expects a positive integer, got '{v}'"))),
    }
}

fn parse_seed(spec: &BinSpec, v: &str) -> Result<u64, CliError> {
    if !spec.seed {
        return Err(CliError::Usage("--seed is not supported here".into()));
    }
    v.parse::<u64>()
        .map_err(|_| CliError::Usage(format!("--seed expects an unsigned integer, got '{v}'")))
}

/// Normalization used for lenient name matching: lowercase with every
/// separator (space, `-`, `_`, `{`, `}`, `+`) removed, so `Static L1`,
/// `static-l1` and `static_l1` all compare equal.
fn normalize(name: &str) -> String {
    name.chars()
        .filter(|c| !matches!(c, ' ' | '-' | '_' | '{' | '}' | '+'))
        .flat_map(char::to_lowercase)
        .collect()
}

/// Parses a Table II variant name leniently (figure label, `snake_case`
/// slug, or any hyphen/underscore/brace-free spelling of either).
///
/// # Errors
///
/// An error message listing every accepted canonical spelling.
pub fn parse_variant(name: &str) -> Result<Variant, String> {
    let wanted = normalize(name);
    for v in Variant::ALL {
        if normalize(v.name()) == wanted || normalize(v.slug()) == wanted {
            return Ok(v);
        }
    }
    Err(format!(
        "unknown variant '{name}'; options: {} (hyphen/underscore spellings accepted, e.g. {})",
        Variant::ALL.map(Variant::name).join(", "),
        Variant::ALL.map(Variant::slug).join(", "),
    ))
}

/// Parses an attack-model name (case-insensitive).
///
/// # Errors
///
/// An error message listing the accepted names.
pub fn parse_attack(name: &str) -> Result<AttackModel, String> {
    let wanted = normalize(name);
    AttackModel::ALL.into_iter().find(|&a| normalize(attack_slug(a)) == wanted).ok_or_else(|| {
        format!(
            "unknown attack model '{name}'; options: {}",
            AttackModel::ALL.map(attack_slug).join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: BinSpec = BinSpec {
        name: "testbin",
        about: "test",
        usage_args: "[options]",
        jobs: true,
        csv: CsvSupport::FigureAndRuns,
        metrics: true,
        seed: true,
        no_skip: true,
        client: true,
        extra_options: &[],
    };

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_all_common_flags() {
        let a = CommonArgs::try_parse(
            &SPEC,
            strings(&["--jobs", "3", "--csv=runs", "--metrics", "m.json", "pos"]),
        )
        .unwrap();
        assert_eq!(a.pool.jobs(), 3);
        assert_eq!(a.csv, Some(CsvMode::Runs));
        assert_eq!(a.metrics.as_deref(), Some("m.json"));
        assert_eq!(a.rest, strings(&["pos"]));
    }

    #[test]
    fn equals_forms_work() {
        let a = CommonArgs::try_parse(&SPEC, strings(&["--jobs=5", "--metrics=x.json", "--csv"]))
            .unwrap();
        assert_eq!(a.pool.jobs(), 5);
        assert_eq!(a.csv, Some(CsvMode::Figure));
        assert_eq!(a.metrics.as_deref(), Some("x.json"));
        assert!(a.rest.is_empty());
    }

    #[test]
    fn help_and_usage_errors_are_reported() {
        assert!(matches!(
            CommonArgs::try_parse(&SPEC, strings(&["--help"])),
            Err(CliError::Help)
        ));
        assert!(matches!(
            CommonArgs::try_parse(&SPEC, strings(&["--jobs", "zero"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            CommonArgs::try_parse(&SPEC, strings(&["--jobs"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            CommonArgs::try_parse(&SPEC, strings(&["--csv=bogus"])),
            Err(CliError::Usage(_))
        ));
        let no_csv = BinSpec { csv: CsvSupport::None, ..SPEC };
        assert!(matches!(
            CommonArgs::try_parse(&no_csv, strings(&["--csv"])),
            Err(CliError::Usage(_))
        ));
        let figure_only = BinSpec { csv: CsvSupport::FigureOnly, ..SPEC };
        let a = CommonArgs::try_parse(&figure_only, strings(&["--csv"])).unwrap();
        assert_eq!(a.csv, Some(CsvMode::Figure));
        assert!(matches!(
            CommonArgs::try_parse(&figure_only, strings(&["--csv=runs"])),
            Err(CliError::Usage(_))
        ));
        assert!(figure_only.usage().contains("--csv") && !figure_only.usage().contains("--csv=runs"));
        let no_metrics = BinSpec { metrics: false, ..SPEC };
        assert!(matches!(
            CommonArgs::try_parse(&no_metrics, strings(&["--metrics", "m"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn seed_flag_parses_both_forms() {
        let a = CommonArgs::try_parse(&SPEC, strings(&["--seed", "7"])).unwrap();
        assert_eq!(a.seed, Some(7));
        assert_eq!(a.seed_or_default(), 7);
        let a = CommonArgs::try_parse(&SPEC, strings(&["--seed=99"])).unwrap();
        assert_eq!(a.seed, Some(99));
        assert!(matches!(
            CommonArgs::try_parse(&SPEC, strings(&["--seed", "minus-one"])),
            Err(CliError::Usage(_))
        ));
        let no_seed = BinSpec { seed: false, ..SPEC };
        assert!(matches!(
            CommonArgs::try_parse(&no_seed, strings(&["--seed", "7"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn usage_page_lists_supported_flags() {
        let u = SPEC.usage();
        assert!(u.starts_with("usage: testbin"));
        for flag in ["--jobs", "--csv", "--csv=runs", "--metrics", "--seed", "--no-skip", "--help"]
        {
            assert!(u.contains(flag), "missing {flag} in:\n{u}");
        }
        let bare = BinSpec {
            jobs: false,
            csv: CsvSupport::None,
            metrics: false,
            seed: false,
            no_skip: false,
            client: false,
            ..SPEC
        };
        let u = bare.usage();
        assert!(!u.contains("--jobs") && !u.contains("--csv") && !u.contains("--metrics"));
        assert!(!u.contains("--seed"));
        assert!(!u.contains("--no-skip"));
        assert!(!u.contains("--server") && !u.contains("--store") && !u.contains("--no-cache"));
        assert!(u.contains("--help"));
    }

    #[test]
    fn client_flags_parse_and_build_runners() {
        let u = SPEC.usage();
        for flag in ["--server <sock>", "--store <dir>", "--no-cache"] {
            assert!(u.contains(flag), "missing {flag} in:\n{u}");
        }

        let a = CommonArgs::try_parse(&SPEC, strings(&["--server", "/tmp/sdo.sock"])).unwrap();
        assert_eq!(a.server.as_deref(), Some("/tmp/sdo.sock"));
        let a = CommonArgs::try_parse(&SPEC, strings(&["--server=/tmp/s2.sock"])).unwrap();
        assert_eq!(a.server.as_deref(), Some("/tmp/s2.sock"));
        let a =
            CommonArgs::try_parse(&SPEC, strings(&["--store=/tmp/sdo-store", "--no-cache"]))
                .unwrap();
        assert_eq!(a.store.as_deref(), Some("/tmp/sdo-store"));
        assert!(a.no_cache);

        // The flags are mutually exclusive: the daemon owns its store.
        assert!(matches!(
            CommonArgs::try_parse(&SPEC, strings(&["--server", "s", "--store", "d"])),
            Err(CliError::Usage(_))
        ));
        // Gated on the spec — but by pass-through, not a hard error:
        // non-client bins see the raw flags in `rest`, so the serve
        // daemon can give --store its own meaning while everything else
        // rejects them via `reject_rest`.
        let no_client = BinSpec { client: false, ..SPEC };
        for args in [&["--server", "s"][..], &["--store", "d"], &["--no-cache"], &["--store=d"]] {
            let a = CommonArgs::try_parse(&no_client, strings(args)).unwrap();
            assert!(a.server.is_none() && a.store.is_none() && !a.no_cache);
            assert_eq!(a.rest.len(), args.len(), "flags pass through verbatim: {args:?}");
        }

        // Flag-to-backend mapping (plain local runner has no report;
        // store-backed and server-backed runners do).
        let plain = CommonArgs::try_parse(&SPEC, strings(&[])).unwrap();
        let runner = plain.try_runner(crate::SimConfig::tiny()).unwrap();
        assert!(runner.cache_report().is_none());
        let remote = CommonArgs::try_parse(&SPEC, strings(&["--server=/tmp/nowhere"])).unwrap();
        let runner = remote.try_runner(crate::SimConfig::tiny()).unwrap();
        assert!(runner.cache_report().is_some());
    }

    #[test]
    fn no_skip_flag_parses_and_maps_to_sim_config() {
        let a = CommonArgs::try_parse(&SPEC, strings(&[])).unwrap();
        assert!(!a.no_skip);
        assert!(a.sim_config(crate::SimConfig::tiny()).fast_forward);
        let a = CommonArgs::try_parse(&SPEC, strings(&["--no-skip"])).unwrap();
        assert!(a.no_skip);
        assert!(!a.sim_config(crate::SimConfig::tiny()).fast_forward);
        let unsupported = BinSpec { no_skip: false, ..SPEC };
        assert!(matches!(
            CommonArgs::try_parse(&unsupported, strings(&["--no-skip"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn variant_aliases_parse() {
        // Every canonical spelling and the issue's reported aliases.
        for v in Variant::ALL {
            assert_eq!(parse_variant(v.name()).unwrap(), v, "{}", v.name());
            assert_eq!(parse_variant(v.slug()).unwrap(), v, "{}", v.slug());
        }
        assert_eq!(parse_variant("static-l1").unwrap(), Variant::StaticL1);
        assert_eq!(parse_variant("static_l2").unwrap(), Variant::StaticL2);
        assert_eq!(parse_variant("StaticL3").unwrap(), Variant::StaticL3);
        assert_eq!(parse_variant("stt-ld-fp").unwrap(), Variant::SttLdFp);
        assert_eq!(parse_variant("STT{ld}").unwrap(), Variant::SttLd);
        assert_eq!(parse_variant("HYBRID").unwrap(), Variant::Hybrid);
        let err = parse_variant("nope").unwrap_err();
        assert!(err.contains("Static L1") && err.contains("stt_ld_fp"), "{err}");
    }

    #[test]
    fn attack_names_parse() {
        assert_eq!(parse_attack("spectre").unwrap(), AttackModel::Spectre);
        assert_eq!(parse_attack("Futuristic").unwrap(), AttackModel::Futuristic);
        assert!(parse_attack("meltdown").is_err());
    }
}
