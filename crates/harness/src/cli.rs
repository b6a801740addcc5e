//! Shared command-line handling for the harness binaries.
//!
//! Each binary declares every option it takes once, in the `options`
//! table of its [`BinSpec`]: the shared groups below plus entries of
//! its own. That one table renders the `--help` page
//! ([`BinSpec::usage`]) and drives [`CommonArgs::try_parse`], the only
//! code that reads a binary's arguments, so the two cannot drift. The
//! dialect:
//!
//! * every option that takes a value accepts `--flag value` and
//!   `--flag=value`; `--csv=runs` is a spelling of its own;
//! * `--help` or `-h` anywhere prints the usage page and exits 0;
//! * an argument starting with `-` that the binary does not declare, an
//!   option missing its value and a switch given `=value` are usage
//!   errors (exit 2); every other argument is a positional, kept in
//!   order;
//! * runtime errors (I/O, simulation hangs) exit 1.
//!
//! The shared groups a binary may take:
//!
//! * [`JOBS`]: `--jobs <N>` (else the `SDO_JOBS` environment variable)
//!   selects the worker count;
//! * [`CSV`] (`--csv`) and [`CSV_RUNS`] (`--csv` and `--csv=runs`)
//!   select machine-readable output;
//! * [`METRICS`]: `--metrics <path>` writes the merged
//!   [`MetricsSnapshot`] of every simulation the binary ran, as JSON;
//! * [`SEED`]: `--seed <N>` (else the `SDO_SEED` environment variable)
//!   seeds randomized workloads and fuzz campaigns reproducibly;
//! * [`NO_SKIP`]: `--no-skip` disables quiescence fast-forward;
//! * [`CLIENT`]: `--server <sock>` submits every simulation batch to
//!   the `sdo-serve` daemon listening on that Unix socket,
//!   `--store <dir>` memoizes results in a local content-addressed
//!   store, and `--no-cache` bypasses lookups.
//!
//! Variant and attack-model names are parsed leniently:
//! `Static L1` == `static-l1` == `static_l1` == `StaticL1`, and
//! `STT{ld+fp}` == `stt-ld-fp` == `stt_ld_fp`.

use crate::config::Variant;
use crate::engine::JobPool;
use crate::proto::attack_slug;
use sdo_uarch::{AttackModel, MetricsSnapshot};

/// Environment variable consulted when `--seed` is absent (mirrors
/// `SDO_JOBS` for `--jobs`).
pub const SEED_ENV: &str = "SDO_SEED";

/// One option a binary takes: its flag, the placeholder of its value
/// (none for a switch) and its line on the `--help` page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opt {
    flag: &'static str,
    value: Option<&'static str>,
    help: &'static str,
}

impl Opt {
    /// A switch, given as `flag` alone.
    #[must_use]
    pub const fn switch(flag: &'static str, help: &'static str) -> Opt {
        Opt { flag, value: None, help }
    }

    /// An option taking a value, given as `flag value` or `flag=value`;
    /// `placeholder` names the value on the `--help` page (`<dir>`).
    #[must_use]
    pub const fn value(flag: &'static str, placeholder: &'static str, help: &'static str) -> Opt {
        Opt { flag, value: Some(placeholder), help }
    }
}

const JOBS_OPT: Opt =
    Opt::value("--jobs", "<N>", "worker threads (default: $SDO_JOBS or all cores)");
const CSV_OPT: Opt = Opt::switch("--csv", "print the figure as CSV on stdout");
const CSV_RUNS_OPT: Opt = Opt::switch("--csv=runs", "print the full per-run dump as CSV");
const METRICS_OPT: Opt =
    Opt::value("--metrics", "<path>", "write the merged metric snapshot as JSON");
const SEED_OPT: Opt =
    Opt::value("--seed", "<N>", "RNG seed for reproducible campaigns (default: $SDO_SEED or 0)");
const NO_SKIP_OPT: Opt =
    Opt::switch("--no-skip", "disable quiescence fast-forward (byte-identical output, slower)");
const SERVER_OPT: Opt = Opt::value(
    "--server",
    "<sock>",
    "submit simulations to the sdo-serve daemon at this Unix socket",
);
const STORE_OPT: Opt = Opt::value(
    "--store",
    "<dir>",
    "memoize results in a content-addressed store at this directory",
);
const NO_CACHE_OPT: Opt =
    Opt::switch("--no-cache", "bypass store lookups (fresh results are still saved)");
const HELP_OPT: Opt = Opt::switch("--help", "show this help and exit");

/// `--jobs <N>`: the worker count ([`CommonArgs::pool`]).
pub const JOBS: &[Opt] = &[JOBS_OPT];
/// `--csv`: a single CSV table ([`CsvMode::Figure`]).
pub const CSV: &[Opt] = &[CSV_OPT];
/// `--csv` and `--csv=runs`: the figure matrix or the per-run dump.
pub const CSV_RUNS: &[Opt] = &[CSV_OPT, CSV_RUNS_OPT];
/// `--metrics <path>` ([`CommonArgs::write_metrics`]).
pub const METRICS: &[Opt] = &[METRICS_OPT];
/// `--seed <N>` ([`CommonArgs::seed`]).
pub const SEED: &[Opt] = &[SEED_OPT];
/// `--no-skip` ([`CommonArgs::sim_config`]).
pub const NO_SKIP: &[Opt] = &[NO_SKIP_OPT];
/// `--server <sock>`, `--store <dir>` and `--no-cache`: binaries whose
/// simulations route through a [`crate::Runner`]
/// ([`CommonArgs::runner`]) and can therefore run locally, memoized, or
/// as a thin client of an `sdo-serve` daemon.
pub const CLIENT: &[Opt] = &[SERVER_OPT, STORE_OPT, NO_CACHE_OPT];

/// The CSV mode requested on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsvMode {
    /// `--csv`: the figure-shaped matrix.
    Figure,
    /// `--csv=runs`: one row per simulation.
    Runs,
}

/// Static description of one binary: name, summary, and every option it
/// takes. Drives both parsing and the `--help` page.
#[derive(Debug, Clone, Copy)]
pub struct BinSpec {
    /// Binary name as invoked (`fig6`, `run`, ...).
    pub name: &'static str,
    /// One-line summary shown at the top of `--help`.
    pub about: &'static str,
    /// Positional-argument syntax for the usage line, e.g.
    /// `"<file.s> [options]"`; use `"[options]"` when there are none.
    pub usage_args: &'static str,
    /// Every option the binary takes, in `--help` order: the shared
    /// groups it takes ([`JOBS`], [`CLIENT`], ...) and a group of its
    /// own. `--help` is implied.
    pub options: &'static [&'static [Opt]],
}

impl BinSpec {
    /// Renders the uniform `--help` page.
    #[must_use]
    pub fn usage(&self) -> String {
        let mut out =
            format!("usage: {} {}\n\n{}\n\noptions:\n", self.name, self.usage_args, self.about);
        for opt in self.declared().chain([&HELP_OPT]) {
            let flag = match opt.value {
                Some(placeholder) => format!("{} {placeholder}", opt.flag),
                None => opt.flag.to_string(),
            };
            out.push_str(&format!("  {flag:<18} {}\n", opt.help));
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

    fn declared(&self) -> impl Iterator<Item = &'static Opt> {
        self.options.iter().flat_map(|group| group.iter())
    }
}

/// One invocation, parsed against its [`BinSpec`]: the typed results of
/// the shared options, the binary's own options (read with
/// [`CommonArgs::value`], [`CommonArgs::values`] and
/// [`CommonArgs::has`]) and the positionals.
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
    /// The arguments that are not options, in order.
    pub positionals: Vec<String>,
    server: Option<String>,
    store: Option<String>,
    no_cache: bool,
    /// Every option given, in order, with its value (empty for a switch).
    given: Vec<(Opt, String)>,
    /// The binary's spec, whose options every lookup must name.
    spec: BinSpec,
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
    /// exit, no environment reads beyond the `SDO_JOBS` and `SDO_SEED`
    /// fallbacks).
    ///
    /// # Errors
    ///
    /// [`CliError::Help`] when `--help` or `-h` is present;
    /// [`CliError::Usage`] on an undeclared option, a missing or
    /// malformed value, or `--server` with `--store`.
    pub fn try_parse(spec: &BinSpec, args: Vec<String>) -> Result<CommonArgs, CliError> {
        if args.iter().any(|arg| arg == HELP_OPT.flag || arg == "-h") {
            return Err(CliError::Help);
        }
        let find = |flag: &str| spec.declared().find(|opt| opt.flag == flag);
        let mut given = Vec::new();
        let mut positionals = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') {
                positionals.push(arg);
                continue;
            }
            let unexpected = || CliError::Usage(format!("unexpected argument '{arg}'"));
            let (opt, inline) = match find(&arg) {
                Some(opt) => (opt, None),
                None => {
                    let (flag, value) = arg.split_once('=').ok_or_else(unexpected)?;
                    (find(flag).ok_or_else(unexpected)?, Some(value.to_string()))
                }
            };
            let value = match (opt.value, inline) {
                (None, None) => String::new(),
                (None, Some(_)) => {
                    let flag = opt.flag;
                    return Err(CliError::Usage(format!("{flag} takes no value, got '{arg}'")));
                }
                (Some(_), Some(value)) => value,
                (Some(_), None) => it
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("{} requires a value", opt.flag)))?,
            };
            given.push((*opt, value));
        }

        let pool =
            last(&given, &JOBS_OPT, parse_jobs)?.map_or_else(JobPool::from_env, JobPool::new);
        let csv = given.iter().rev().find_map(|(opt, _)| match *opt {
            CSV_OPT => Some(CsvMode::Figure),
            CSV_RUNS_OPT => Some(CsvMode::Runs),
            _ => None,
        });
        let text = |v: &str| Ok(v.to_string());
        let seed = match last(&given, &SEED_OPT, parse_seed)? {
            Some(seed) => Some(seed),
            // Environment fallback, mirroring --jobs / SDO_JOBS.
            None => std::env::var(SEED_ENV).ok().and_then(|v| v.parse().ok()),
        };
        let server = last(&given, &SERVER_OPT, text)?;
        let store = last(&given, &STORE_OPT, text)?;
        if server.is_some() && store.is_some() {
            return Err(CliError::Usage(
                "--store conflicts with --server (the daemon owns its own store)".into(),
            ));
        }
        Ok(CommonArgs {
            pool,
            csv,
            metrics: last(&given, &METRICS_OPT, text)?,
            seed,
            no_skip: given.iter().any(|(opt, _)| *opt == NO_SKIP_OPT),
            positionals,
            server,
            store,
            no_cache: given.iter().any(|(opt, _)| *opt == NO_CACHE_OPT),
            given,
            spec: *spec,
        })
    }

    /// Every value given for `opt`, in order (a repeatable option such
    /// as `--variant`).
    ///
    /// # Panics
    ///
    /// If the binary does not declare `opt`: such a lookup could never
    /// find anything.
    pub fn values<'a>(&'a self, opt: &Opt) -> impl Iterator<Item = &'a str> + 'a {
        let opt = *opt;
        assert!(
            self.spec.declared().any(|o| *o == opt),
            "{} is not among the options of {}",
            opt.flag,
            self.spec.name
        );
        self.given.iter().filter(move |(o, _)| *o == opt).map(|(_, value)| value.as_str())
    }

    /// The last value given for `opt`, if any.
    ///
    /// # Panics
    ///
    /// As [`CommonArgs::values`].
    #[must_use]
    pub fn value(&self, opt: &Opt) -> Option<&str> {
        self.values(opt).last()
    }

    /// Whether the switch `opt` was given.
    ///
    /// # Panics
    ///
    /// As [`CommonArgs::values`].
    #[must_use]
    pub fn has(&self, opt: &Opt) -> bool {
        self.values(opt).next().is_some()
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

    /// Usage-errors (exit 2) on the first positional argument — the
    /// call of binaries that take none.
    pub fn reject_positionals(&self, spec: &BinSpec) {
        if let Some(extra) = self.positionals.first() {
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

/// The last value given for `opt`, every one of them checked by `parse`.
fn last<T>(
    given: &[(Opt, String)],
    opt: &Opt,
    parse: impl Fn(&str) -> Result<T, CliError>,
) -> Result<Option<T>, CliError> {
    let mut last = None;
    for (o, value) in given {
        if o == opt {
            last = Some(parse(value)?);
        }
    }
    Ok(last)
}

fn parse_jobs(v: &str) -> Result<usize, CliError> {
    match v.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(CliError::Usage(format!("--jobs expects a positive integer, got '{v}'"))),
    }
}

fn parse_seed(v: &str) -> Result<u64, CliError> {
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
        options: &[JOBS, CSV_RUNS, METRICS, SEED, NO_SKIP, CLIENT],
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
        assert_eq!(a.positionals, strings(&["pos"]));
    }

    #[test]
    fn equals_forms_work() {
        let a = CommonArgs::try_parse(&SPEC, strings(&["--jobs=5", "--metrics=x.json", "--csv"]))
            .unwrap();
        assert_eq!(a.pool.jobs(), 5);
        assert_eq!(a.csv, Some(CsvMode::Figure));
        assert_eq!(a.metrics.as_deref(), Some("x.json"));
        assert!(a.positionals.is_empty());
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
        let no_csv = BinSpec { options: &[JOBS, METRICS], ..SPEC };
        assert!(matches!(
            CommonArgs::try_parse(&no_csv, strings(&["--csv"])),
            Err(CliError::Usage(_))
        ));
        let figure_only = BinSpec { options: &[CSV], ..SPEC };
        let a = CommonArgs::try_parse(&figure_only, strings(&["--csv"])).unwrap();
        assert_eq!(a.csv, Some(CsvMode::Figure));
        assert!(matches!(
            CommonArgs::try_parse(&figure_only, strings(&["--csv=runs"])),
            Err(CliError::Usage(_))
        ));
        assert!(figure_only.usage().contains("--csv") && !figure_only.usage().contains("--csv=runs"));
        let no_metrics = BinSpec { options: &[JOBS], ..SPEC };
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
        let no_seed = BinSpec { options: &[JOBS], ..SPEC };
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
        let bare = BinSpec { options: &[], ..SPEC };
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
        // Gated on the spec: a binary that does not declare them
        // rejects them like any other undeclared argument.
        let no_client = BinSpec { options: &[JOBS], ..SPEC };
        for args in [&["--server", "s"][..], &["--store", "d"], &["--no-cache"], &["--store=d"]] {
            assert_eq!(
                CommonArgs::try_parse(&no_client, strings(args)).unwrap_err(),
                CliError::Usage(format!("unexpected argument '{}'", args[0])),
            );
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
        let unsupported = BinSpec { options: &[JOBS], ..SPEC };
        assert!(matches!(
            CommonArgs::try_parse(&unsupported, strings(&["--no-skip"])),
            Err(CliError::Usage(_))
        ));
    }

    const REPORT: Opt = Opt::value("--report", "<dir>", "write a report into <dir>");
    const VARIANT: Opt = Opt::value("--variant", "<name>", "one variant (repeatable)");
    const QUICK: Opt = Opt::switch("--quick", "a quick run");
    const OWN: BinSpec = BinSpec { options: &[JOBS, &[REPORT, VARIANT, QUICK]], ..SPEC };

    #[test]
    fn own_options_take_both_spellings_and_keep_every_value() {
        let args = ["a.s", "--report", "r", "--variant=hybrid", "--quick", "b.s", "--variant", "x"];
        let a = CommonArgs::try_parse(&OWN, strings(&args)).unwrap();
        assert_eq!(a.value(&REPORT), Some("r"));
        assert_eq!(a.values(&VARIANT).collect::<Vec<_>>(), ["hybrid", "x"]);
        assert_eq!(a.value(&VARIANT), Some("x"));
        assert!(a.has(&QUICK));
        assert_eq!(a.positionals, strings(&["a.s", "b.s"]));
        let a = CommonArgs::try_parse(&OWN, strings(&["--report=r"])).unwrap();
        assert_eq!(a.value(&REPORT), Some("r"));
        assert!(!a.has(&QUICK) && a.value(&VARIANT).is_none());
    }

    #[test]
    fn the_dialect_is_one_for_every_option() {
        let usage = |args: &[&str]| match CommonArgs::try_parse(&OWN, strings(args)) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("{args:?}: expected a usage error, got {other:?}"),
        };
        // Help anywhere, even where a value is expected.
        for args in [&["a.s", "-h"][..], &["--report", "--help"], &["--bogus", "--help"]] {
            assert_eq!(CommonArgs::try_parse(&OWN, strings(args)).unwrap_err(), CliError::Help);
        }
        assert_eq!(usage(&["--report"]), "--report requires a value");
        assert_eq!(usage(&["--quick=yes"]), "--quick takes no value, got '--quick=yes'");
        // An undeclared argument is named as given, `=value` included.
        for arg in ["--bogus", "--bogus=1", "-x", "--csv", "--seed=3", "--reportx"] {
            assert_eq!(usage(&[arg]), format!("unexpected argument '{arg}'"));
        }
    }

    #[test]
    #[should_panic(expected = "--quick is not among the options of testbin")]
    fn reading_an_undeclared_option_is_a_bug() {
        let a = CommonArgs::try_parse(&SPEC, strings(&[])).unwrap();
        let _ = a.has(&QUICK);
    }

    #[test]
    fn shared_help_lines_name_their_environment_fallbacks() {
        assert!(JOBS_OPT.help.contains(&format!("${}", crate::engine::JOBS_ENV)));
        assert!(SEED_OPT.help.contains(&format!("${SEED_ENV}")));
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
