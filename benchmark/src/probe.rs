//! The layer probe of a traced run, and the per-layer metrics.
//!
//! Every workload's traced run ends with the same probe over a handful
//! of requests drawn from that workload's own inputs. It times each
//! layer from outside, around calls to its public functions: the engine
//! fan-out and `Simulator::run` with its `MemorySystem` and `Core`
//! set-up; a run on a hand-built `Core` whose `arch_int` is checked
//! against `sdo_isa::Interpreter`; the wire codec, `parse_asm`, `RunKey`
//! hashing and the store; an in-process `Server` both over its Unix
//! socket and through `handle_batch` directly (the difference is the
//! transport); `Checker::capture` and `oracle::check`; and the RV32
//! translate + scan of the compiled corpus. So every per-layer metric is
//! measured on every workload, on that workload's inputs.

use crate::report::PER_LAYER;
use crate::stats::Summary;
use crate::trace::{self_times, Span, Tracer};
use crate::verify::{capture_and_oracle, traced_scan, Verify};
use crate::{fresh_dir, ns_since, traced_batch, Layers, SimRecord};
use sdo_harness::engine::JobPool;
use sdo_harness::proto::{Reply, Request};
use sdo_harness::store::{ResultStore, RunKey};
use sdo_harness::{RunRequest, SimConfig, Simulator};
use sdo_isa::Interpreter;
use sdo_mem::MemorySystem;
use sdo_serve::{ServeOptions, Server};
use sdo_uarch::Core;
use sdo_verify::{CampaignConfig, Checker};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Request seed that makes a probe request miss every store.
const PROBE_FRESH_SEED: u64 = u64::MAX - 1;

/// Runs the probe over `reqs` under `parent`. Returns one message per
/// failed check.
///
/// # Errors
///
/// Reports a layer that could not run at all.
pub fn probe(
    t: &Tracer,
    parent: usize,
    seed: u64,
    reqs: &[RunRequest],
    campaign: bool,
    layers: &Layers,
) -> Result<Vec<String>, String> {
    let sim = Simulator::new(SimConfig::table_i());
    let jobs = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let (results, _) = traced_batch(
        t,
        parent,
        u64::MAX / 1000,
        &JobPool::new(jobs),
        &sim,
        reqs,
        layers,
    )?;
    let mut failures = Vec::new();
    for (i, req) in reqs.iter().enumerate() {
        if let Some(msg) = arch_check(t, parent, i as u64, &sim, req) {
            failures.push(msg);
        }
    }
    let dir = fresh_dir("probe")?;
    let served = wire_and_store(t, parent, reqs, &results, &dir, layers);
    t.span("bench.cleanup", Some(parent), 0, |_| {
        std::fs::remove_dir_all(&dir).ok()
    });
    failures.extend(served?);

    let checker = Checker::new();
    for (i, req) in reqs.iter().enumerate() {
        capture_and_oracle(
            t,
            parent,
            i as u64,
            &checker,
            &req.programs[0],
            req.variant,
            req.attack,
            layers,
        )
        .map_err(|e| e.to_string())?;
    }
    if campaign {
        let mut quick = t.span("bench.campaign_setup", Some(parent), 0, |_| {
            Verify::new(vec![CampaignConfig::quick(seed)])
        });
        quick.traced_campaigns(t, parent, layers)?;
    }
    traced_scan(t, parent, layers)?;
    Ok(failures)
}

/// Runs `req` on a hand-built core (`uarch.core_run`) and the reference
/// interpreter (`isa.interp`); a mismatch in the architectural integer
/// registers is a failure.
fn arch_check(
    t: &Tracer,
    parent: usize,
    id: u64,
    sim: &Simulator,
    req: &RunRequest,
) -> Option<String> {
    let cfg = req.effective_config(*sim.config());
    let program = &req.programs[0];
    let core = t.span("uarch.core_run", Some(parent), id, |_| {
        let mut mem = MemorySystem::new(cfg.mem, 1);
        mem.load_image(program.data());
        for &(start, bytes, level) in &req.prewarm {
            mem.prewarm(0, start, bytes, level);
        }
        let mut core = Core::new(
            0,
            cfg.core,
            req.variant.security(req.attack),
            program.clone(),
        );
        core.set_fast_forward(cfg.fast_forward);
        core.run(&mut mem, cfg.max_cycles).map(|()| core)
    });
    let interp = t.span("isa.interp", Some(parent), id, |_| {
        let mut interp = Interpreter::new(program);
        interp.run(cfg.max_cycles).map(|_| interp.int_regs())
    });
    match (core, interp) {
        (Ok(core), Ok(regs)) if core.arch_int() == regs => None,
        (Ok(_), Ok(_)) => Some(format!(
            "{}: core registers differ from the interpreter's",
            program.name()
        )),
        _ => Some(format!(
            "{}: core or interpreter did not halt",
            program.name()
        )),
    }
}

/// The wire, store and daemon layers: codec, `parse_asm`, `RunKey`,
/// store load/save, and an in-process `Server` over its socket and
/// through `handle_batch`.
fn wire_and_store(
    t: &Tracer,
    parent: usize,
    reqs: &[RunRequest],
    results: &[sdo_harness::RunResult],
    dir: &Path,
    layers: &Layers,
) -> Result<Vec<String>, String> {
    let cfg = SimConfig::table_i();
    let store_dir = dir.join("store");
    let server = Server::new(
        ServeOptions {
            store: Some(store_dir.to_string_lossy().into_owned()),
            ..ServeOptions::default()
        },
        JobPool::new(1),
    )
    .map_err(|e| e.to_string())?;
    let save_store = ResultStore::open(dir.join("save")).map_err(|e| e.to_string())?;
    let socket = dir.join("s.sock");
    std::thread::scope(|scope| {
        let listener = scope.spawn(|| server.serve_socket(&socket.to_string_lossy()));
        let outcome = (|| {
            let stream = connect(&socket)?;
            let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
            let mut writer = stream;
            let mut exchange = |line: &str| -> Result<String, String> {
                writer
                    .write_all(format!("{line}\n\n").as_bytes())
                    .map_err(|e| e.to_string())?;
                let mut reply = String::new();
                reader.read_line(&mut reply).map_err(|e| e.to_string())?;
                Ok(reply.trim_end().to_string())
            };
            let load_store = ResultStore::open(&store_dir).map_err(|e| e.to_string())?;
            let mut failures = Vec::new();
            for (i, (req, result)) in reqs.iter().zip(results).enumerate() {
                let id = i as u64;
                let (req, run) = t.span("bench.request", Some(parent), id, |_| {
                    let mut req = req.clone();
                    req.config = Some(req.effective_config(cfg));
                    let run = Request::Run {
                        id,
                        request: req.clone(),
                        no_cache: false,
                    };
                    (req, run)
                });
                let line = t.span("harness.proto.request_render", Some(parent), id, |_| {
                    run.render()
                });
                Layers::push(&layers.request_bytes, line.len() as f64);
                t.span("harness.proto.request_parse", Some(parent), id, |_| {
                    Request::parse(&line)
                })?;
                let asm = req.programs[0].disassemble();
                t.span("isa.parse_asm", Some(parent), id, |_| {
                    sdo_isa::parse_asm(&asm)
                })
                .map_err(|e| e.to_string())?;
                let key = t.span("harness.store.runkey", Some(parent), id, |_| {
                    RunKey::of(&req, cfg)
                });

                // Miss: the server simulates and stores.
                t.span("serve.exchange", Some(parent), id, |_| exchange(&line))?;
                let t0 = Instant::now();
                let hit = t.span("serve.exchange", Some(parent), id, |_| exchange(&line))?;
                let rtt_ns = ns_since(t0);
                let t0 = Instant::now();
                t.span("serve.handle_batch_hit", Some(parent), id, |_| {
                    server.handle_batch(std::slice::from_ref(&line))
                });
                let handle_ns = ns_since(t0);
                Layers::push(
                    &layers.transport_ms,
                    (rtt_ns as f64 - handle_ns as f64) / 1e6,
                );
                let fresh = t.span("bench.request", Some(parent), id, |_| {
                    let mut fresh = req.clone();
                    fresh.seed = PROBE_FRESH_SEED;
                    Request::Run {
                        id,
                        request: fresh,
                        no_cache: false,
                    }
                });
                let fresh_line = t.span("harness.proto.request_render", Some(parent), id, |_| {
                    fresh.render()
                });
                t.span("serve.handle_batch_miss", Some(parent), id, |_| {
                    server.handle_batch(&[fresh_line])
                });

                let loaded = t
                    .span("harness.store.load", Some(parent), id, |_| {
                        load_store.load(&key)
                    })
                    .map_err(|e| e.to_string())?;
                t.span("harness.store.save", Some(parent), id, |_| {
                    save_store.save(&key, result)
                })
                .map_err(|e| e.to_string())?;
                let reply = Reply::Result {
                    id,
                    result: result.clone(),
                    cached: true,
                };
                let rendered = t.span("harness.proto.reply_render", Some(parent), id, |_| {
                    reply.render()
                });
                let parsed = t.span("harness.proto.reply_parse", Some(parent), id, |_| {
                    Reply::parse(&hit)
                });
                if loaded.as_ref() != Some(result) || rendered != hit || parsed.is_err() {
                    failures.push(format!(
                        "{}: stored or served result differs from the run",
                        req.programs[0].name()
                    ));
                }
            }
            t.span("harness.store.manifest", Some(parent), 0, |_| {
                load_store.write_manifest()
            })
            .map_err(|e| e.to_string())?;
            exchange(&Request::Shutdown.render()).ok();
            Ok(failures)
        })();
        if outcome.is_err() {
            // Unblock the listener so the scope can join it.
            if let Ok(mut s) = UnixStream::connect(&socket) {
                let _ = s.write_all(format!("{}\n\n", Request::Shutdown.render()).as_bytes());
            }
        }
        let served = listener
            .join()
            .map_err(|_| "in-process server panicked".to_string())?;
        served.map_err(|e| format!("in-process server: {e}"))?;
        outcome
    })
}

fn connect(socket: &Path) -> Result<UnixStream, String> {
    let t0 = Instant::now();
    loop {
        match UnixStream::connect(socket) {
            Ok(s) => return Ok(s),
            Err(e) if t0.elapsed() > Duration::from_secs(10) => {
                return Err(format!("connect {}: {e}", socket.display()))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Names of spans that only structure the trace. They, and the
/// benchmark's own work in `bench.*` spans, are not layer time; every
/// other span times a call into a layer.
const STRUCTURAL: &[&str] = &["trace.root", "trace.pass", "trace.probe"];

/// Share of the `trace.root` span spent inside layer calls: the root's
/// duration minus the self time of structural and `bench.*` spans, over
/// the root's duration (0 without a root).
fn layer_cover(spans: &[Span]) -> f64 {
    let Some(root) = spans.iter().find(|s| s.name == "trace.root") else {
        return 0.0;
    };
    let outside: u64 = spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| STRUCTURAL.contains(&s.name) || s.name.starts_with("bench."))
        .map(|(_, d)| d)
        .sum();
    if root.duration() == 0 {
        0.0
    } else {
        (root.duration() - outside) as f64 / root.duration() as f64
    }
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order.
#[must_use]
pub fn layer_metrics(
    spans: &[Span],
    layers: &Layers,
    workers: usize,
    overhead: f64,
) -> Vec<(&'static str, f64)> {
    let ms = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64 / 1e6)
            .collect()
    };
    let median = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            Summary::of(v).median
        }
    };
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    let total = |name: &str| ms(name).iter().sum::<f64>();

    let (util, tails) = engine(spans, workers);
    let sims: Vec<SimRecord> = layers
        .sims
        .lock()
        .expect("layer collector poisoned")
        .clone();
    let sum = |f: fn(&SimRecord) -> u64| sims.iter().map(f).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let core_ns = sum(|r| r.run_ns) - sum(|r| r.setup_ns + r.core_new_ns);
    let cycles = sum(|r| r.cycles);
    let run = ms("harness.sim.run");
    let bytes = layers
        .request_bytes
        .lock()
        .expect("layer collector poisoned")
        .clone();
    let insts = *layers.rv32_insts.lock().expect("layer collector poisoned") as f64;
    let collected =
        |slot: &std::sync::Mutex<Vec<f64>>| median(&slot.lock().expect("layer collector poisoned"));

    let values = [
        median(&ms("workloads.gen")),
        util,
        median(&tails),
        median(&run),
        max(&run),
        median(&ms("mem.setup")),
        median(&ms("uarch.core_new")) * 1e3,
        ratio(core_ns, cycles - sum(|r| r.skipped)),
        ratio(core_ns, sum(|r| r.fetched)),
        ratio(core_ns, sum(|r| r.committed)),
        ratio(sum(|r| r.skipped), cycles),
        ratio(sum(|r| r.fetched), sum(|r| r.committed)),
        ratio(1e3 * sum(|r| r.accesses), cycles),
        ratio(sum(|r| r.l1_misses), sum(|r| r.loads)),
        ratio(1e3 * sum(|r| r.dram), cycles),
        collected(&layers.events_per_capture),
        median(&bytes),
        max(&bytes),
        median(&ms("harness.proto.request_render")),
        median(&ms("harness.proto.request_parse")),
        median(&ms("isa.parse_asm")),
        median(&ms("harness.store.runkey")),
        median(&ms("harness.store.load")),
        median(&ms("harness.store.save")),
        median(&ms("harness.store.manifest")),
        median(&ms("harness.proto.reply_render")),
        median(&ms("harness.proto.reply_parse")),
        median(&ms("serve.handle_batch_hit")),
        median(&ms("serve.handle_batch_miss")),
        collected(&layers.transport_ms),
        median(&ms("verify.capture")),
        median(&ms("verify.oracle")),
        collected(&layers.minimize_s),
        ratio(total("rv32.translate") * 1e3, insts),
        ratio(total("analyze.scan") * 1e3, insts),
        overhead,
        layer_cover(spans),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, _), v)| (name, v))
        .collect()
}

/// Engine figures over every `harness.engine.batch` span: pool
/// utilization (job busy time over workers × batch wall) and, per batch,
/// the tail: batch end minus the moment the first worker went idle for
/// good (the first job end after the last job started), in ms.
fn engine(spans: &[Span], workers: usize) -> (f64, Vec<f64>) {
    let (mut busy, mut wall, mut tails) = (0u64, 0u64, Vec::new());
    for batch in spans.iter().filter(|s| s.name == "harness.engine.batch") {
        let jobs: Vec<&Span> = spans
            .iter()
            .filter(|s| s.parent == Some(batch.id) && s.name == "harness.sim.run")
            .collect();
        let Some(last_start) = jobs.iter().map(|j| j.start).max() else {
            continue;
        };
        busy += jobs.iter().map(|j| j.duration()).sum::<u64>();
        wall += batch.duration();
        let idle = jobs
            .iter()
            .map(|j| j.end)
            .filter(|&e| e >= last_start)
            .min()
            .unwrap_or(batch.end);
        tails.push(batch.end.saturating_sub(idle) as f64 / 1e6);
    }
    let util = if wall == 0 {
        0.0
    } else {
        busy as f64 / (workers.max(1) as f64 * wall as f64)
    };
    (util, tails)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            request: 0,
            start,
            end,
        }
    }

    #[test]
    fn cover_counts_layer_calls_only() {
        // root [0,100): pass [0,60) holds a layer call [0,30) and the
        // benchmark's own check [30,50); probe [60,100) holds a layer
        // call [60,90). Layer time: 30 + 30 of 100.
        let spans = vec![
            span(0, None, "trace.root", 0, 100),
            span(1, Some(0), "trace.pass", 0, 60),
            span(2, Some(1), "harness.sim.run", 0, 30),
            span(3, Some(1), "bench.check", 30, 50),
            span(4, Some(0), "trace.probe", 60, 100),
            span(5, Some(4), "mem.setup", 60, 90),
        ];
        assert!((layer_cover(&spans) - 0.6).abs() < 1e-12);
        assert_eq!(layer_cover(&spans[1..]), 0.0, "no root, no cover");
    }
}
