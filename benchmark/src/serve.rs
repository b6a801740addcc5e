//! `serve`: the real `serve --socket --store <fresh dir> --jobs 1`
//! daemon as a child process, driven by one client connection in a
//! closed loop (every real client blocks on its batch, and the daemon
//! accepts one connection at a time).
//!
//! Set-up starts the daemon on a store that already holds
//! [`PRIOR_ENTRIES`] results, as many as the figure pipeline's
//! `all --store` leaves behind (its Figure 6 suite: 10 kernels × 8
//! variants × 2 attack models), sent as one batch of small seeded
//! programs. The daemon rewrites its manifest from every stored entry
//! after each batch, so the store's size is part of every request's
//! cost.
//!
//! Inputs: 16 programs — 10 small (KiB images: two size strata each of
//! `l1_resident`, `stream`, `stride`, `matmul_blocked`, `mix_branchy`)
//! and 6 large (three footprint strata each of `ptr_chase` over
//! 256 KiB–1 MiB and `hash_lookup` over 64–256 KiB tables) — under two
//! variants each, with short trip counts. One sample sends the 32 keys
//! [`REPEATS`] times each in a seeded order, one request per batch: 70%
//! repeat an already-stored key (`RunKey::of` + store `load`), 30%, at
//! seeded positions, carry a fresh request seed (simulate, then `save`
//! with fsync). The protocol codec, key hashing, store and socket
//! dominate.
//!
//! `work_per_s` is replies per second (one unit per request of the
//! sample's order). Hit and miss latencies over the first
//! [`LATENCY_SAMPLES`] timed samples go to `--out` (see
//! [`crate::report::EXTRA`]).

use crate::stats::{tail, Summary};
use crate::trace::Tracer;
use crate::{fresh_dir, Layers, Sample, Workload};
use sdo_harness::proto::{result_to_json, Reply, Request};
use sdo_harness::store::ResultStore;
use sdo_harness::{AttackModel, RunRequest, SimConfig, Simulator, Variant};
use sdo_mem::CacheLevel;
use sdo_rng::SdoRng;
use sdo_workloads::kernels::{
    fp_subnormal, hash_lookup, l1_resident, matmul_blocked, mix_branchy, ptr_chase, stencil,
    stream, stride,
};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Times each base key is sent per sample (96 requests).
const REPEATS: usize = 3;
/// Results in the store before the first sample.
const PRIOR_ENTRIES: usize = 160;
/// Timed samples whose request latencies are summarised, so every run
/// summarises the same number of hits and misses.
const LATENCY_SAMPLES: usize = 5;
/// Manifest rewrites of the daemon's store timed in a traced run.
const MANIFEST_WRITES: u64 = 5;
/// Share of a sample's requests that carry a fresh request seed.
const FRESH_SHARE: f64 = 0.3;
/// Request seeds at or above this mark fresh requests.
const FRESH_BASE: u64 = 1 << 32;

/// The 32 base keys: 16 programs, each drawn from its size stratum,
/// under `Unsafe` and `Hybrid`, with the machine configuration resolved
/// client-side as `Runner` sends it.
fn base_requests(rng: &mut SdoRng) -> Vec<RunRequest> {
    let mut programs = Vec::new();
    let pick = |rng: &mut SdoRng, lo: u64, hi: u64| rng.gen_range(lo..hi);
    for half in 0..2u64 {
        let seed = rng.next_u64();
        let (a, b) = (half, half + 1);
        programs.push(RunRequest::program(&l1_resident(
            pick(rng, 150 + 75 * a, 150 + 75 * b),
            seed,
        )));
        let words = pick(rng, 256 + 128 * a, 256 + 128 * b);
        programs.push(RunRequest::program(&stream(words, 1, seed)));
        programs.push(RunRequest::program(&stride(
            pick(rng, 128 + 64 * a, 128 + 64 * b),
            2,
            1,
            seed,
        )));
        programs.push(RunRequest::program(&matmul_blocked(4 + half, seed)));
        programs.push(RunRequest::program(&mix_branchy(
            1 << 10,
            pick(rng, 100 + 50 * a, 100 + 50 * b),
            seed,
        )));
    }
    for third in 0..3u64 {
        let seed = rng.next_u64();
        // Two thirds of the range drawn, the top fixed, so the largest
        // request (and the daemon's peak memory) is the same every seed.
        let kib = |lo: u64, hi: u64, r: &mut SdoRng| {
            let step = (hi - lo) / 3;
            if third == 2 {
                hi * 1024
            } else {
                r.gen_range((lo + step * third) / 64..(lo + step * (third + 1)) / 64) * 64 * 1024
            }
        };
        let bytes = kib(256, 1024, rng);
        let iters = pick(rng, 100, 200);
        programs.push(RunRequest::program(&ptr_chase(bytes, iters, seed)).warmed(
            0x10_0000,
            bytes,
            CacheLevel::L3,
        ));
        let bytes = kib(64, 256, rng);
        let iters = pick(rng, 100, 200);
        programs.push(
            RunRequest::program(&hash_lookup(bytes / 8, iters, seed)).warmed(
                0x80_0000,
                bytes,
                CacheLevel::L3,
            ),
        );
    }
    let cfg = SimConfig::table_i();
    programs
        .into_iter()
        .flat_map(|r| [Variant::Unsafe, Variant::Hybrid].map(|v| r.clone().variant(v).config(cfg)))
        .collect()
}

/// The [`PRIOR_ENTRIES`] requests that fill the store at set-up: ten
/// small seeded programs under every variant and attack model — one per
/// `suite()` kernel except `phase_shift`, whose fixed 512 KiB table
/// would make set-up mostly wire parsing, and `l1_resident` twice.
fn prior_requests(rng: &mut SdoRng) -> Vec<RunRequest> {
    let mut seed = || rng.next_u64();
    let programs = [
        l1_resident(100, seed()),
        l1_resident(200, seed()),
        stream(256, 1, seed()),
        stride(128, 2, 1, seed()),
        matmul_blocked(4, seed()),
        mix_branchy(1 << 10, 100, seed()),
        stencil(256, 1, seed()),
        ptr_chase(64 << 10, 100, seed()),
        hash_lookup(1 << 10, 100, seed()),
        fp_subnormal(100, 16, seed()),
    ];
    let cfg = SimConfig::table_i();
    let reqs: Vec<RunRequest> = programs
        .iter()
        .flat_map(|p| {
            AttackModel::ALL.iter().flat_map(move |&a| {
                Variant::ALL
                    .iter()
                    .map(move |&v| RunRequest::program(p).variant(v).attack(a).config(cfg))
            })
        })
        .collect();
    debug_assert_eq!(reqs.len(), PRIOR_ENTRIES);
    reqs
}

/// The running daemon: killed and reaped on drop if it was not shut
/// down cleanly.
#[derive(Debug)]
struct Daemon {
    child: Child,
    socket: PathBuf,
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Daemon {
    fn start(dir: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let serve = exe.with_file_name("serve");
        let socket = dir.join("s.sock");
        let store = dir.join("store");
        let mut child = Command::new(&serve)
            .arg("--socket")
            .arg(&socket)
            .arg("--store")
            .arg(&store)
            .args(["--jobs", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", serve.display()))?;
        let t0 = Instant::now();
        let stream = loop {
            match UnixStream::connect(&socket) {
                Ok(s) => break s,
                Err(e) => {
                    if t0.elapsed() > Duration::from_secs(30)
                        || child.try_wait().ok().flatten().is_some()
                    {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!(
                            "daemon never listened on {}: {e}",
                            socket.display()
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("socket clone: {e}"))?,
        );
        Ok(Daemon {
            child,
            socket,
            reader,
            writer: stream,
        })
    }

    /// Sends one single-request batch and reads its reply line.
    fn exchange(&mut self, line: &str) -> Result<String, String> {
        Ok(self.exchange_batch(std::slice::from_ref(&line))?.remove(0))
    }

    /// Sends one batch of request lines and reads one reply line per
    /// request.
    fn exchange_batch(&mut self, lines: &[&str]) -> Result<Vec<String>, String> {
        let mut batch = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum::<usize>() + 1);
        for line in lines {
            batch.push_str(line);
            batch.push('\n');
        }
        batch.push('\n');
        self.writer
            .write_all(batch.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let mut replies = Vec::with_capacity(lines.len());
        for _ in lines {
            let mut reply = String::new();
            match self.reader.read_line(&mut reply) {
                Ok(0) => return Err("daemon closed the connection".to_string()),
                Ok(_) => replies.push(reply.trim_end().to_string()),
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        Ok(replies)
    }

    fn shutdown(mut self) -> Result<(), String> {
        let line = Request::Shutdown.render() + "\n\n";
        let sent = self.writer.write_all(line.as_bytes());
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && sent.is_ok() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if t0.elapsed() < Duration::from_secs(30) => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => return Err("daemon did not stop after shutdown".to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.child.try_wait().ok().flatten().is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// A prepared `serve` run.
#[derive(Debug)]
pub struct Serve {
    base: Vec<RunRequest>,
    /// `(base index, fresh)` per request of a sample.
    order: Vec<(usize, bool)>,
    daemon: Option<Daemon>,
    dir: PathBuf,
    /// Each base key's first (miss) reply, rendered.
    reference: Vec<String>,
    /// Store entry files holding the base keys.
    base_entries: Vec<PathBuf>,
    fresh_seed: u64,
    /// Timed samples taken so far.
    timed: usize,
    /// Latencies of the first [`LATENCY_SAMPLES`] timed samples, ms.
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
}

impl Serve {
    /// Generates the request mix for `seed`, starts the daemon on a
    /// fresh store and fills the store with [`PRIOR_ENTRIES`] results.
    ///
    /// # Errors
    ///
    /// Reports a daemon that cannot be started or a store that could not
    /// be filled.
    pub fn setup(seed: u64, t: &Tracer, parent: usize) -> Result<Serve, String> {
        let (base, order, prior) = t.span("workloads.gen", Some(parent), 0, |_| {
            let mut rng = SdoRng::seed_from_u64(seed);
            let base = base_requests(&mut rng);
            let mut order: Vec<(usize, bool)> = (0..base.len())
                .flat_map(|i| std::iter::repeat_n((i, false), REPEATS))
                .collect();
            // A seeded subset of the requests is fresh, at seeded
            // positions of the sample.
            let fresh = (order.len() as f64 * FRESH_SHARE).round() as usize;
            rng.shuffle(&mut order);
            for slot in order.iter_mut().take(fresh) {
                slot.1 = true;
            }
            rng.shuffle(&mut order);
            let prior: Vec<String> = prior_requests(&mut rng)
                .into_iter()
                .enumerate()
                .map(|(i, request)| {
                    Request::Run {
                        id: i as u64,
                        request,
                        no_cache: false,
                    }
                    .render()
                })
                .collect();
            (base, order, prior)
        });
        let dir = fresh_dir("serve")?;
        let mut daemon = Daemon::start(&dir)?;
        let lines: Vec<&str> = prior.iter().map(String::as_str).collect();
        let replies = daemon.exchange_batch(&lines)?;
        let stored = replies
            .iter()
            .filter(|r| matches!(Reply::parse(r), Ok(Reply::Result { cached: false, .. })))
            .count();
        if stored != PRIOR_ENTRIES {
            return Err(format!(
                "filling the store: {stored} of {PRIOR_ENTRIES} requests simulated"
            ));
        }
        Ok(Serve {
            base,
            order,
            daemon: Some(daemon),
            dir,
            reference: Vec::new(),
            base_entries: Vec::new(),
            fresh_seed: FRESH_BASE,
            timed: 0,
            hit_ms: Vec::new(),
            miss_ms: Vec::new(),
        })
    }

    fn daemon(&mut self) -> Result<&mut Daemon, String> {
        self.daemon
            .as_mut()
            .ok_or_else(|| "daemon already stopped".to_string())
    }

    /// Sends every base key once and keeps the replies as the reference.
    fn prime(&mut self) -> Result<u64, String> {
        let mut failed = 0;
        for (i, req) in self.base.clone().into_iter().enumerate() {
            let line = Request::Run {
                id: i as u64,
                request: req,
                no_cache: false,
            }
            .render();
            let reply = self.daemon()?.exchange(&line)?;
            match Reply::parse(&reply) {
                Ok(Reply::Result {
                    result,
                    cached: false,
                    ..
                }) => {
                    self.reference.push(result_to_json(&result).render());
                }
                other => {
                    eprintln!("serve: priming key {i} got {other:?}");
                    failed += 1;
                    self.reference.push(String::new());
                }
            }
        }
        self.base_entries = self.entries()?;
        Ok(failed)
    }

    /// Every entry file in the daemon's store, sorted.
    fn entries(&self) -> Result<Vec<PathBuf>, String> {
        let store = self.dir.join("store");
        let mut out = Vec::new();
        for shard in
            std::fs::read_dir(&store).map_err(|e| format!("list {}: {e}", store.display()))?
        {
            let shard = shard.map_err(|e| e.to_string())?.path();
            if shard.is_dir() {
                for entry in std::fs::read_dir(&shard).map_err(|e| e.to_string())? {
                    out.push(entry.map_err(|e| e.to_string())?.path());
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Deletes the entries a sample's fresh requests added, so every
    /// sample meets the same store: the daemon rewrites its manifest
    /// from every entry after each batch, so a growing store would make
    /// later samples slower than earlier ones.
    fn reset_store(&self) -> Result<(), String> {
        for path in self.entries()? {
            if self.base_entries.binary_search(&path).is_err() {
                std::fs::remove_file(&path)
                    .map_err(|e| format!("remove {}: {e}", path.display()))?;
            }
        }
        Ok(())
    }

    /// One request of the sample order: the request with its seed set.
    fn request(&mut self, k: usize) -> RunRequest {
        let (i, fresh) = self.order[k];
        let mut req = self.base[i].clone();
        if fresh {
            req.seed = self.fresh_seed;
            self.fresh_seed += 1;
        }
        req
    }

    /// Judges one reply against the key's reference: a fresh request
    /// must miss, a repeat must hit, and either way the result must be
    /// byte-identical to the key's first reply.
    fn judge(&self, k: usize, reply: &Result<Reply, String>) -> bool {
        let (i, fresh) = self.order[k];
        matches!(reply, Ok(Reply::Result { id, result, cached })
            if *id == k as u64 && *cached != fresh && result_to_json(result).render() == self.reference[i])
    }
}

impl Workload for Serve {
    fn sample(&mut self) -> Result<Sample, String> {
        let mut failed = 0;
        let warm_up = self.reference.is_empty();
        if warm_up {
            failed += self.prime()?;
        }
        let mut replies = Vec::with_capacity(self.order.len());
        let mut units = Vec::with_capacity(self.order.len());
        for k in 0..self.order.len() {
            let req = self.request(k);
            let t0 = Instant::now();
            let line = Request::Run {
                id: k as u64,
                request: req,
                no_cache: false,
            }
            .render();
            let reply = self.daemon()?.exchange(&line)?;
            let parsed = Reply::parse(&reply);
            units.push(t0.elapsed().as_secs_f64());
            replies.push(parsed);
        }
        if !warm_up && self.timed < LATENCY_SAMPLES {
            self.timed += 1;
            for (&(_, fresh), s) in self.order.iter().zip(&units) {
                let latencies = if fresh {
                    &mut self.miss_ms
                } else {
                    &mut self.hit_ms
                };
                latencies.push(s * 1e3);
            }
        }
        failed += replies
            .iter()
            .enumerate()
            .filter(|(k, r)| !self.judge(*k, r))
            .count() as u64;
        self.reset_store()?;
        Ok(Sample {
            units,
            attempted: self.order.len() as u64,
            failed,
            peaks_mb: Vec::new(),
        })
    }

    fn rate(&self, unit_seconds: &[f64]) -> f64 {
        unit_seconds.len() as f64 / unit_seconds.iter().sum::<f64>()
    }

    fn traced(&mut self, t: &Tracer, parent: usize, _layers: &Layers) -> Result<f64, String> {
        let mut seconds = 0.0;
        let mut replies = Vec::with_capacity(self.order.len());
        for k in 0..self.order.len() {
            let id = k as u64;
            let reply = t.span("bench.request", Some(parent), id, |r| {
                let req = self.request(k);
                let t0 = Instant::now();
                let line = t.span("harness.proto.request_render", Some(r), id, |_| {
                    Request::Run {
                        id,
                        request: req,
                        no_cache: false,
                    }
                    .render()
                });
                let reply = t.span("serve.exchange", Some(r), id, |_| {
                    self.daemon()?.exchange(&line)
                })?;
                let parsed = t.span("harness.proto.reply_parse", Some(r), id, |_| {
                    Reply::parse(&reply)
                });
                seconds += t0.elapsed().as_secs_f64();
                Ok::<_, String>(parsed)
            })?;
            replies.push(reply);
        }
        let bad = t.span("bench.check", Some(parent), 0, |_| {
            let bad = replies
                .iter()
                .enumerate()
                .filter(|(k, r)| !self.judge(*k, r))
                .count();
            self.reset_store().map(|()| bad)
        })?;
        if bad != 0 {
            return Err(format!("{bad} traced replies were wrong"));
        }
        // The rewrite the daemon runs after every batch, on its store.
        let store = ResultStore::open(self.dir.join("store")).map_err(|e| e.to_string())?;
        for i in 0..MANIFEST_WRITES {
            t.span("harness.store.manifest", Some(parent), i, |_| {
                store.write_manifest()
            })
            .map_err(|e| e.to_string())?;
        }
        Ok(seconds)
    }

    fn final_checks(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        let sim = Simulator::new(SimConfig::table_i());
        for (i, req) in self.base.iter().enumerate() {
            let local = sim
                .run(req)
                .map(|o| result_to_json(&o.into_result()).render());
            if self.reference.get(i) != local.as_ref().ok() {
                out.push(format!(
                    "served result for key {i} differs from an in-process run"
                ));
            }
        }
        out
    }

    fn extra(&self) -> Vec<(&'static str, f64)> {
        let mut out = latency_figures(
            &self.hit_ms,
            ["hit_n", "hit_p50_ms", "hit_tail_pct", "hit_tail_ms"],
        );
        out.extend(latency_figures(
            &self.miss_ms,
            ["miss_n", "miss_p50_ms", "miss_tail_pct", "miss_tail_ms"],
        ));
        out
    }

    fn probe_requests(&self) -> Vec<RunRequest> {
        self.base.iter().step_by(4).cloned().collect()
    }

    fn rss_pid(&self) -> Option<u32> {
        self.daemon.as_ref().map(|d| d.child.id())
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let outcome = self.daemon.take().map_or(Ok(()), Daemon::shutdown);
        let _ = std::fs::remove_dir_all(&self.dir);
        outcome
    }
}

/// Count, median, tail percentile and tail value of `ms` under `names`;
/// the tail is the highest percentile with at least ten latencies beyond
/// it, and is left out (with the median) when there are too few.
fn latency_figures(ms: &[f64], names: [&'static str; 4]) -> Vec<(&'static str, f64)> {
    let mut out = vec![(names[0], ms.len() as f64)];
    if let Some((pct, value)) = tail(ms) {
        out.extend([
            (names[1], Summary::of(ms).median),
            (names[2], pct),
            (names[3], value),
        ]);
    }
    out
}
