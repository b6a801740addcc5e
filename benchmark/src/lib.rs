//! # sdo-benchmark — the repository's host-time benchmark
//!
//! One command runs one workload with one seed:
//!
//! ```text
//! bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and prints, as its last line, one JSON object with the run's
//! correctness, operation counts and metrics: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1` (see
//! [`report`] and `BENCHMARK.json`). The seed generates every input; the
//! simulator, store, daemon and verifier only ever receive those
//! inputs. Per-layer numbers come from spans the benchmark records
//! around calls into each layer's public functions ([`trace`]).

#![warn(missing_docs)]

pub mod bench_run;
mod probe;
pub mod report;
mod serve;
mod sim;
pub mod stats;
pub mod trace;
mod verify;

use sdo_harness::engine::JobPool;
use sdo_harness::{RunRequest, RunResult, Simulator};
use sdo_mem::MemorySystem;
use sdo_uarch::Core;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;
use trace::Tracer;

/// The seed a workload's pinned digests were recorded with.
pub const DEFAULT_SEED: u64 = 1;

/// One timed sample of a workload's fixed work, split into units (a
/// kernel instance's batch, one request, one campaign) that every sample
/// repeats in the same order.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Wall seconds of each unit.
    pub units: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong output.
    pub failed: u64,
    /// Peak resident set of each unit, MB, for a workload that resets
    /// the peak before each unit; empty when only the whole sample's
    /// peak is read.
    pub peaks_mb: Vec<f64>,
}

impl Sample {
    /// Wall seconds of the whole sample.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.units.iter().sum()
    }
}

/// A workload whose inputs are generated and whose services are up.
pub trait Workload {
    /// Runs the fixed work once, timing it, and checks its outputs
    /// against the first sample's outside the timed part.
    ///
    /// # Errors
    ///
    /// Returns a message when the work cannot run at all (a transport
    /// failure, a batch the simulator refuses); wrong outputs count in
    /// [`Sample::failed`] instead.
    fn sample(&mut self) -> Result<Sample, String>;

    /// `work_per_s` from one time per unit (each unit's median
    /// time over the run's samples).
    fn rate(&self, unit_seconds: &[f64]) -> f64;

    /// Runs the same work with spans under `parent`, returning the
    /// seconds of the part comparable to a sample's timed part.
    ///
    /// # Errors
    ///
    /// As [`Workload::sample`].
    fn traced(&mut self, t: &Tracer, parent: usize, layers: &Layers) -> Result<f64, String>;

    /// Correctness checks that run once, after the samples: one message
    /// per failed check.
    fn final_checks(&mut self) -> Vec<String>;

    /// Requests the layer probe decomposes, drawn from this workload's
    /// inputs.
    fn probe_requests(&self) -> Vec<RunRequest>;

    /// Whether the traced pass already ran a verification campaign (so
    /// the probe need not run one to measure `verify.*`).
    fn runs_campaign(&self) -> bool {
        false
    }

    /// Figures an untraced run records in `--out` beside the declared
    /// metrics (see [`report::EXTRA`]); none by default.
    fn extra(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// The process doing the work, whose resident memory `peak_rss_mb`
    /// reports (`None` once it has stopped).
    fn rss_pid(&self) -> Option<u32> {
        Some(std::process::id())
    }

    /// Stops any service the workload started and waits for it.
    ///
    /// # Errors
    ///
    /// Reports a service that did not stop cleanly.
    fn shutdown(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// Host statistics of one simulation, gathered from outside the
/// simulator: its `Simulator::run` time, the separately timed set-up of
/// its memory system and core, and its result counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimRecord {
    /// `Simulator::run` wall time, ns.
    pub run_ns: u64,
    /// `MemorySystem::new` + `load_image` + `prewarm` on the same
    /// inputs, ns.
    pub setup_ns: u64,
    /// `Core::new` on the same inputs, ns.
    pub core_new_ns: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Cycles fast-forwarded.
    pub skipped: u64,
    /// Instructions fetched.
    pub fetched: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Loads plus stores.
    pub accesses: u64,
    /// Normal loads.
    pub loads: u64,
    /// L1 load misses.
    pub l1_misses: u64,
    /// Loads that went to DRAM.
    pub dram: u64,
}

/// Per-layer data gathered during a traced run beside the spans.
#[derive(Debug, Default)]
pub struct Layers {
    /// Simulations decomposed into run and set-up times.
    pub sims: Mutex<Vec<SimRecord>>,
    /// Events recorded per verifier capture.
    pub events_per_capture: Mutex<Vec<f64>>,
    /// Wire request sizes, bytes.
    pub request_bytes: Mutex<Vec<f64>>,
    /// Client round trip minus `Server::handle_batch`, ms.
    pub transport_ms: Mutex<Vec<f64>>,
    /// Campaign wall minus its re-run check phase, s.
    pub minimize_s: Mutex<Vec<f64>>,
    /// RV32 instructions translated and scanned.
    pub rv32_insts: Mutex<u64>,
}

impl Layers {
    /// Appends `v` to one of the collectors.
    pub fn push<T>(slot: &Mutex<Vec<T>>, v: T) {
        slot.lock().expect("layer collector poisoned").push(v);
    }
}

/// Nanoseconds elapsed since `t0`.
#[must_use]
pub(crate) fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).expect("a run lasts under 584 years")
}

/// Runs `req` through `Simulator::run` inside a `harness.sim.run` span,
/// returning the result and the run's wall time in ns.
///
/// # Errors
///
/// Returns the simulator's error message.
pub(crate) fn traced_run(
    t: &Tracer,
    parent: usize,
    id: u64,
    sim: &Simulator,
    req: &RunRequest,
) -> Result<(RunResult, u64), String> {
    let t0 = Instant::now();
    let result = t
        .span("harness.sim.run", Some(parent), id, |_| sim.run(req))
        .map_err(|e| e.to_string())?
        .into_result();
    Ok((result, ns_since(t0)))
}

/// Times a finished run's memory-system and core set-up separately on
/// the same inputs (`mem.setup`, `uarch.core_new` spans) and records the
/// run's decomposition in `layers`.
pub(crate) fn decompose(
    t: &Tracer,
    parent: usize,
    id: u64,
    sim: &Simulator,
    req: &RunRequest,
    (result, run_ns): (&RunResult, u64),
    layers: &Layers,
) {
    let cfg = req.effective_config(*sim.config());
    let program = &req.programs[0];
    let t0 = Instant::now();
    let mem = t.span("mem.setup", Some(parent), id, |_| {
        let mut mem = MemorySystem::new(cfg.mem, 1);
        mem.load_image(program.data());
        for &(start, bytes, level) in &req.prewarm {
            mem.prewarm(0, start, bytes, level);
        }
        mem
    });
    let setup_ns = ns_since(t0);
    let t0 = Instant::now();
    let core = t.span("uarch.core_new", Some(parent), id, |_| {
        Core::new(
            0,
            cfg.core,
            req.variant.security(req.attack),
            program.clone(),
        )
    });
    let core_new_ns = ns_since(t0);
    t.span("bench.teardown", Some(parent), id, |_| drop((mem, core)));
    Layers::push(
        &layers.sims,
        SimRecord {
            run_ns,
            setup_ns,
            core_new_ns,
            cycles: result.cycles,
            skipped: result.skipped_cycles,
            fetched: result.core.fetched,
            committed: result.core.committed,
            accesses: result.mem.loads() + result.mem.stores,
            loads: result.mem.loads(),
            l1_misses: result.mem.l1_misses,
            dram: result.mem.l3_misses,
        },
    );
}

/// Runs `reqs` on `pool` inside a `harness.engine.batch` span, one
/// `harness.sim.run` span per job, then decomposes each run serially
/// outside the batch. Returns the results and the batch's wall seconds.
///
/// # Errors
///
/// Returns the first simulator error message.
pub(crate) fn traced_batch(
    t: &Tracer,
    parent: usize,
    batch_id: u64,
    pool: &JobPool,
    sim: &Simulator,
    reqs: &[RunRequest],
    layers: &Layers,
) -> Result<(Vec<RunResult>, f64), String> {
    let t0 = Instant::now();
    let runs = t.span("harness.engine.batch", Some(parent), batch_id, |b| {
        pool.try_run(reqs, |i, req| {
            traced_run(t, b, batch_id * 1000 + i as u64, sim, req)
        })
    })?;
    let seconds = t0.elapsed().as_secs_f64();
    let mut results = Vec::with_capacity(runs.len());
    for (i, (req, (result, run_ns))) in reqs.iter().zip(runs).enumerate() {
        decompose(
            t,
            parent,
            batch_id * 1000 + i as u64,
            sim,
            req,
            (&result, run_ns),
            layers,
        );
        results.push(result);
    }
    Ok((results, seconds))
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB (0 when the
/// kernel does not report it).
#[must_use]
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak resident set of process `pid` to its current
/// resident set, so the next [`peak_rss_mb`] reports the peak since now.
///
/// # Errors
///
/// Returns the I/O error (a kernel before 4.0 cannot reset it).
pub fn reset_peak_rss(pid: u32) -> Result<(), String> {
    let path = format!("/proc/{pid}/clear_refs");
    std::fs::write(&path, "5").map_err(|e| format!("reset peak RSS via {path}: {e}"))
}

/// The directory, relative to the working directory (the checkout
/// root), that holds run-time files: daemon sockets and stores, layer
/// probe stores, span files.
#[must_use]
pub fn run_dir() -> PathBuf {
    PathBuf::from(".bench_run")
}

/// A fresh, empty directory under [`run_dir`] named `tag` and this
/// process's id.
///
/// # Errors
///
/// Returns the I/O error.
pub(crate) fn fresh_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = run_dir().join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Geometric mean of positive values (0 for none).
#[must_use]
pub(crate) fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}
