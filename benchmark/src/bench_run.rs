//! One benchmark run: set up, warm up, measure (untraced) or trace, check.

use crate::probe::{layer_metrics, probe};
use crate::report::RunReport;
use crate::serve::Serve;
use crate::sim::{Class, Sims};
use crate::stats::Summary;
use crate::trace::{to_jsonl, Tracer};
use crate::{peak_rss_mb, reset_peak_rss, Layers, Sample, Workload};
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest timed samples per run, however long each takes.
const MIN_SAMPLES: usize = 5;

/// Generates `workload`'s inputs for `seed` and starts its services.
///
/// # Errors
///
/// Names an unknown workload or a service that would not start.
pub fn setup(
    workload: &str,
    seed: u64,
    t: &Tracer,
    parent: usize,
) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "sim-busy" => Box::new(Sims::setup(Class::Busy, seed, t, parent)),
        "sim-stall" => Box::new(Sims::setup(Class::Stall, seed, t, parent)),
        "serve" => Box::new(Serve::setup(seed, t, parent)?),
        "verify" => Box::new(crate::verify::Verify::setup(seed, t, parent)),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// Counts of operations over a run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, s: &Sample) {
        self.attempted += s.attempted;
        self.failed += s.failed;
    }
}

/// An untraced run: set up [`SETUPS`] times, one warm-up sample, then
/// samples for `seconds` (at least [`MIN_SAMPLES`]), then the
/// correctness checks. Reports the end-to-end metrics; `work_per_s`
/// comes from each unit's median time over the samples.
///
/// # Errors
///
/// Reports a workload that could not run.
pub fn measure(
    workload: &str,
    seed: u64,
    seconds: f64,
) -> Result<(RunReport, Vec<String>), String> {
    let t = Tracer::default();
    let root = t.open("trace.setup", None, 0);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut w: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUPS {
        if let Some(mut old) = w.take() {
            old.shutdown()?;
        }
        let t0 = Instant::now();
        w = Some(setup(workload, seed, &t, root)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");
    let outcome = (|| -> Result<_, String> {
        let mut tally = Tally::default();
        tally.add(&w.sample()?);
        let pid = w.rss_pid().ok_or("the workload's process has stopped")?;
        let (start, mut samples, mut peaks) = (Instant::now(), Vec::new(), Vec::new());
        while samples.len() < MIN_SAMPLES || start.elapsed() < Duration::from_secs_f64(seconds) {
            reset_peak_rss(pid)?;
            let s = w.sample()?;
            if s.peaks_mb.is_empty() {
                peaks.push(peak_rss_mb(pid));
            } else {
                peaks.extend(&s.peaks_mb);
            }
            tally.add(&s);
            samples.push(s.units);
        }
        let failures = w.final_checks();
        let units: Vec<f64> = (0..samples[0].len())
            .map(|i| Summary::of(&samples.iter().map(|s| s[i]).collect::<Vec<_>>()).median)
            .collect();
        let rate = w.rate(&units);
        eprintln!(
            "benchmark: {workload} seed {seed}: {} samples, work_per_s {rate:.6e}",
            samples.len()
        );
        let metrics = vec![
            ("setup_s", Summary::of(&setups).median),
            ("peak_rss_mb", Summary::of(&peaks).median),
            ("work_per_s", rate),
        ];
        let extra = w.extra();
        for (name, value) in &extra {
            eprintln!("benchmark: {workload} seed {seed}: {name} {value:.6}");
        }
        Ok((tally, metrics, extra, failures))
    })();
    let stopped = w.shutdown();
    let (tally, metrics, extra, failures) = outcome?;
    stopped?;
    let report = RunReport {
        correct: tally.failed == 0 && failures.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        extra,
    };
    Ok((report, failures))
}

/// A traced run: set up once, warm up, time one untraced sample, then
/// under a root span the traced pass over the same work and the layer
/// probe. Writes the spans as JSONL to `spans` and reports the
/// per-layer metrics.
///
/// # Errors
///
/// Reports a workload that could not run.
pub fn traced(workload: &str, seed: u64, spans: &Path) -> Result<(RunReport, Vec<String>), String> {
    let t = Tracer::default();
    let layers = Layers::default();
    let setup_span = t.open("trace.setup", None, 0);
    let mut w = setup(workload, seed, &t, setup_span)?;
    t.close(setup_span);
    let outcome = (|| -> Result<_, String> {
        let mut tally = Tally::default();
        tally.add(&w.sample()?);
        let plain = w.sample()?;
        tally.add(&plain);
        let root = t.open("trace.root", None, 0);
        let pass = t.open("trace.pass", Some(root), 0);
        let traced_s = w.traced(&t, pass, &layers)?;
        t.close(pass);
        let probe_span = t.open("trace.probe", Some(root), 0);
        let mut failures = probe(
            &t,
            probe_span,
            seed,
            &w.probe_requests(),
            !w.runs_campaign(),
            &layers,
        )?;
        t.close(probe_span);
        t.close(root);
        failures.extend(w.final_checks());
        Ok((tally, traced_s / plain.seconds() - 1.0, failures))
    })();
    let stopped = w.shutdown();
    let (tally, overhead, failures) = outcome?;
    stopped?;
    let all = t.spans();
    if let Some(dir) = spans.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(spans, to_jsonl(&all)).map_err(|e| format!("write {}: {e}", spans.display()))?;
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let report = RunReport {
        correct: tally.failed == 0 && failures.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: layer_metrics(&all, &layers, workers, overhead),
        extra: Vec::new(),
    };
    Ok((report, failures))
}
