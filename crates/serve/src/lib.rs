//! # sdo-serve — the cache-backed simulation service
//!
//! A persistent daemon owning a warm [`JobPool`] and (optionally) a
//! content-addressed [`ResultStore`], speaking the line-delimited JSON
//! protocol from `sdo_harness::proto` (DESIGN.md §13) over stdio or a
//! Unix socket. Every figure, campaign or ad-hoc run submitted to it is
//! first looked up by [`RunKey`]; repeated requests are cache hits that
//! return byte-identical [`RunResult`]s without executing a single
//! simulation.
//!
//! ## Batch contract
//!
//! A batch is a sequence of request lines terminated by a blank line.
//! The daemon writes exactly one reply line per request line, in request
//! order, then flushes. Back-pressure is explicit: run requests beyond
//! the configured queue bound, or whose program images would take the
//! batch's admitted runs past [`BATCH_PAGES`] pages, are answered with
//! `Busy` and must be resubmitted in a later batch (the
//! [`Runner`](sdo_harness::Runner) client does this automatically).
//! Lines are parsed one at a time as they are answered, so only admitted
//! runs hold their images until they execute.
//!
//! A batch costs work in proportion to its requests, whatever the size
//! of the store. The store's `manifest.tsv` index is derived from the
//! entries, so it is not rewritten while serving: the `serve` binary
//! writes it once, at exit ([`ResultStore::write_manifest`]).
//!
//! ## Fault containment
//!
//! Malformed lines (not UTF-8, or not a request), hangs, store failures
//! and in-flight worker panics all become typed `Error` replies — the
//! daemon keeps serving. Panics are caught per simulation with
//! [`std::panic::catch_unwind`] and rendered through
//! [`sdo_harness::engine::panic_message`], the same plumbing the
//! in-process pool uses.

#![warn(missing_docs)]

use sdo_harness::engine::{panic_message, JobPool};
use sdo_harness::proto::{Reply, Request, BATCH_ERROR_ID, BATCH_PAGES};
use sdo_harness::store::{ResultStore, RunKey};
use sdo_harness::{RunRequest, RunResult, SimConfig, SimError, Simulator};
use sdo_verify::{CampaignConfig, Checker};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Content-addressed store directory (`None` = serve without
    /// memoization — every run simulates).
    pub store: Option<String>,
    /// Maximum run requests accepted per batch; the rest get `Busy`.
    pub queue: usize,
    /// Base machine configuration for requests with no override.
    pub base: SimConfig,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { store: None, queue: 256, base: SimConfig::table_i() }
    }
}

/// The daemon: a warm pool, an optional store, and hit/miss counters.
#[derive(Debug)]
pub struct Server {
    sim: Simulator,
    store: Option<ResultStore>,
    queue: usize,
    pool: JobPool,
    hits: AtomicU64,
    misses: AtomicU64,
    shutdown: AtomicBool,
}

impl Server {
    /// Builds a daemon from `opts`, executing simulations on `pool`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Store`] if the store directory cannot be
    /// opened.
    pub fn new(opts: ServeOptions, pool: JobPool) -> Result<Self, SimError> {
        let store = match &opts.store {
            Some(dir) => Some(ResultStore::open(dir.as_str())?),
            None => None,
        };
        Ok(Server {
            sim: Simulator::new(opts.base),
            store,
            queue: opts.queue.max(1),
            pool,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        })
    }

    /// Requests served from the store since startup.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests actually simulated since startup.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Whether a `shutdown` request has been received.
    #[must_use]
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// The store the daemon serves, if any.
    #[must_use]
    pub fn store(&self) -> Option<&ResultStore> {
        self.store.as_ref()
    }

    /// Serves one stream (stdio or an accepted socket connection) until
    /// EOF or a `shutdown` request. Each batch costs work in proportion
    /// to its own requests, never to the size of the store: the store's
    /// `manifest.tsv` is not touched here (the `serve` binary writes it
    /// once, at exit).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; protocol-level problems never
    /// surface here (they become typed `Error` replies).
    pub fn serve<R: BufRead, W: Write>(&self, mut reader: R, mut writer: W) -> std::io::Result<()> {
        loop {
            let mut lines = Vec::new();
            let mut eof = false;
            loop {
                // Bytes, not a `String`: a line that is not UTF-8 is one
                // bad request, answered in its slot, not a dead stream.
                let mut line = Vec::new();
                if reader.read_until(b'\n', &mut line)? == 0 {
                    eof = true;
                    break;
                }
                let len = line.iter().rposition(|&b| b != b'\n' && b != b'\r').map_or(0, |i| i + 1);
                if len == 0 {
                    break;
                }
                line.truncate(len);
                lines.push(line);
            }
            if !lines.is_empty() {
                for reply in self.handle_batch(&lines) {
                    writer.write_all(reply.render().as_bytes())?;
                    writer.write_all(b"\n")?;
                }
                writer.flush()?;
            }
            if eof || self.shutting_down() {
                return Ok(());
            }
        }
    }

    /// Binds (replacing any stale socket file) and serves connections
    /// one at a time until a `shutdown` request arrives.
    ///
    /// # Errors
    ///
    /// Returns bind/accept failures; per-connection I/O errors only end
    /// that connection.
    pub fn serve_socket(&self, path: &str) -> std::io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        for conn in listener.incoming() {
            let stream = conn?;
            let reader = BufReader::new(stream.try_clone()?);
            if let Err(e) = self.serve(reader, &stream) {
                eprintln!("serve: connection error: {e}");
            }
            if self.shutting_down() {
                break;
            }
        }
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    /// Answers one batch: exactly one reply per line, in line order
    /// (`shutdown` lines excepted — they carry no id and get no reply).
    /// A line that is not UTF-8 is answered like any other malformed
    /// line.
    #[must_use]
    pub fn handle_batch<L: AsRef<[u8]>>(&self, lines: &[L]) -> Vec<Reply> {
        // Each line is parsed when its turn comes, so a line answered
        // here (an error, Busy) drops its program images at once; only
        // admitted runs keep theirs.
        let parsed = lines.iter().map(|line| {
            std::str::from_utf8(line.as_ref())
                .map_err(|e| format!("invalid UTF-8 at byte {}", e.valid_up_to()))
                .and_then(Request::parse)
        });

        // Queue bound: the first `queue` run requests are accepted, the
        // rest bounced with Busy (the client resubmits them), and so is
        // a run whose images would take the admitted ones past
        // BATCH_PAGES pages.
        //
        // `replies` gets exactly one entry per line — Shutdown lines
        // (which get no reply) hold a None that the final flatten drops —
        // so `AcceptedRun.slot` can index by line number.
        let mut accepted = 0usize;
        let mut held_pages = 0usize;
        let mut replies: Vec<Option<Reply>> = Vec::with_capacity(lines.len());
        let mut runs: Vec<AcceptedRun> = Vec::new();
        let mut grids: Vec<AcceptedGrid> = Vec::new();
        for (i, req) in parsed.enumerate() {
            match req {
                Err(message) => {
                    replies.push(Some(Reply::Error { id: BATCH_ERROR_ID, message }));
                }
                Ok(Request::Run { id, request, no_cache }) => {
                    let pages = image_pages(&request);
                    if id == BATCH_ERROR_ID {
                        replies.push(Some(Reply::Error {
                            id: BATCH_ERROR_ID,
                            message: format!(
                                "request id {id} is reserved for unattributable errors"
                            ),
                        }));
                    } else if let Err(message) = servable(&request) {
                        replies.push(Some(Reply::Error { id, message }));
                    } else if accepted >= self.queue || held_pages + pages > BATCH_PAGES {
                        replies.push(Some(Reply::Busy { id }));
                    } else {
                        accepted += 1;
                        held_pages += pages;
                        runs.push(AcceptedRun { slot: i, id, request, no_cache, grid: None });
                        replies.push(None); // filled after execution
                    }
                }
                Ok(Request::Grid { id, request, configs, variants, no_cache }) => {
                    let points = configs.len() * variants.len();
                    let pages = image_pages(&request);
                    if id == BATCH_ERROR_ID {
                        replies.push(Some(Reply::Error {
                            id: BATCH_ERROR_ID,
                            message: format!(
                                "request id {id} is reserved for unattributable errors"
                            ),
                        }));
                    } else if let Err(message) = servable(&request) {
                        replies.push(Some(Reply::Error { id, message }));
                    } else if points == 0 {
                        replies.push(Some(Reply::Error {
                            id,
                            message: "grid has no points (empty configs or variants)".to_string(),
                        }));
                    } else if accepted + points > self.queue || held_pages + pages > BATCH_PAGES {
                        // The whole grid counts against the queue bound;
                        // it is accepted or bounced atomically so a Busy
                        // grid never half-executes. Its points share the
                        // request's images, so they count once.
                        replies.push(Some(Reply::Busy { id }));
                    } else {
                        accepted += points;
                        held_pages += pages;
                        // Expand config-major, variant-minor. Each point
                        // is the same RunRequest a client would send
                        // individually (config resolved into the
                        // request), so its RunKey — and therefore its
                        // store entry — is identical to the per-point
                        // equivalent.
                        for cfg in &configs {
                            for &v in &variants {
                                runs.push(AcceptedRun {
                                    slot: i,
                                    id,
                                    request: request.clone().variant(v).config(*cfg),
                                    no_cache,
                                    grid: Some(grids.len()),
                                });
                            }
                        }
                        grids.push(AcceptedGrid { slot: i, id, points });
                        replies.push(None); // filled after execution
                    }
                }
                Ok(Request::Stats { id }) => replies.push(Some(self.stats_reply(id))),
                Ok(Request::Campaign { id, seed, quick, fuzz }) => {
                    replies.push(Some(self.run_campaign(id, seed, quick, fuzz)));
                }
                Ok(Request::Shutdown) => {
                    self.shutdown.store(true, Ordering::Relaxed);
                    // No id, no reply — but the slot placeholder keeps
                    // line-number indexing sound for later run replies.
                    replies.push(None);
                }
            }
        }

        // Outcomes come back aligned with `runs`: plain runs fill their
        // reply slot directly, grid points accumulate per grid (the
        // expansion pushed them contiguously in point order, and the
        // alignment preserves that order).
        let mut acc: Vec<Vec<Result<(RunResult, bool), String>>> =
            grids.iter().map(|g| Vec::with_capacity(g.points)).collect();
        for (run, outcome) in runs.iter().zip(self.execute_runs(&runs)) {
            match run.grid {
                None => {
                    replies[run.slot] = Some(match outcome {
                        Ok((result, cached)) => Reply::Result { id: run.id, result, cached },
                        Err(message) => Reply::Error { id: run.id, message },
                    });
                }
                Some(g) => acc[g].push(outcome),
            }
        }
        for (grid, points) in grids.iter().zip(acc) {
            let mut results = Vec::with_capacity(points.len());
            let mut failed = None;
            for point in points {
                match point {
                    Ok(pair) => results.push(pair),
                    Err(message) => {
                        // First failing point wins; a grid is all-or-
                        // nothing so the client can fall back cleanly.
                        failed = Some(message);
                        break;
                    }
                }
            }
            replies[grid.slot] = Some(match failed {
                Some(message) => Reply::Error { id: grid.id, message },
                None => Reply::Grid { id: grid.id, results },
            });
        }
        replies.into_iter().flatten().collect()
    }

    /// Executes the accepted run requests of one batch: store lookups
    /// first, then the remainder fanned out on the warm pool (each
    /// simulation individually panic-guarded), then store writes.
    /// Returns one result-or-error per run, aligned with `runs`.
    fn execute_runs(&self, runs: &[AcceptedRun]) -> Vec<Result<(RunResult, bool), String>> {
        let base = *self.sim.config();
        let keys: Vec<Option<RunKey>> = runs
            .iter()
            .map(|run| cacheable(&run.request, base).then(|| RunKey::of(&run.request, base)))
            .collect();

        let mut out: Vec<Option<Result<(RunResult, bool), String>>> = vec![None; runs.len()];
        let mut todo: Vec<usize> = Vec::new(); // indices into `runs`
        for (j, run) in runs.iter().enumerate() {
            match (&self.store, &keys[j]) {
                (Some(store), Some(key)) if !run.no_cache => match store.load(key) {
                    Ok(Some(result)) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        out[j] = Some(Ok((result, true)));
                    }
                    Ok(None) => todo.push(j),
                    Err(e) => out[j] = Some(Err(e.to_string())),
                },
                _ => todo.push(j),
            }
        }

        // Coalesce in-flight duplicates: requests with the same RunKey
        // in one batch simulate once — the representative runs (and
        // saves), the duplicates clone its result and count as hits.
        // `--no-cache` requests opt out and simulate individually, and
        // uncacheable requests (no key) are never coalesced.
        let mut unique: Vec<usize> = Vec::new(); // indices into `runs`
        let mut assign: Vec<(usize, usize)> = Vec::new(); // (runs idx, unique pos)
        {
            let mut seen: Vec<(&RunKey, usize)> = Vec::new();
            for &j in &todo {
                if let (false, Some(key)) = (runs[j].no_cache, &keys[j]) {
                    if let Some(&(_, pos)) = seen.iter().find(|(k, _)| *k == key) {
                        assign.push((j, pos));
                        continue;
                    }
                    seen.push((key, unique.len()));
                }
                assign.push((j, unique.len()));
                unique.push(j);
            }
        }

        let fresh: Vec<Result<RunResult, String>> = self
            .pool
            .try_run(&unique, |_, &j| {
                Ok::<_, SimError>(self.run_guarded(&runs[j].request))
            })
            .expect("guarded closure never errs");
        let mut results: Vec<Result<(RunResult, bool), String>> =
            Vec::with_capacity(unique.len());
        for (&j, outcome) in unique.iter().zip(fresh) {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let outcome = outcome.and_then(|result| {
                if let (Some(store), Some(key)) = (&self.store, &keys[j]) {
                    store.save(key, &result).map_err(|e| e.to_string())?;
                }
                Ok((result, false))
            });
            results.push(outcome);
        }
        for (j, pos) in assign {
            let outcome = if unique[pos] == j {
                results[pos].clone()
            } else {
                // Served from the in-flight representative, not the
                // simulator — a hit, and flagged `cached` like one.
                self.hits.fetch_add(1, Ordering::Relaxed);
                results[pos].clone().map(|(result, _)| (result, true))
            };
            out[j] = Some(outcome);
        }
        out.into_iter()
            .map(|o| o.expect("every accepted run resolves to exactly one outcome"))
            .collect()
    }

    /// One simulation with the panic boundary drawn *inside* the worker
    /// closure: a panicking run yields an `Err` here instead of
    /// unwinding across the pool and killing the daemon.
    fn run_guarded(&self, req: &RunRequest) -> Result<RunResult, String> {
        match catch_unwind(AssertUnwindSafe(|| self.sim.run(req))) {
            Ok(Ok(output)) => Ok(output.into_result()),
            Ok(Err(e)) => Err(e.to_string()),
            Err(payload) => Err(format!("worker panicked: {}", panic_message(&*payload))),
        }
    }

    fn stats_reply(&self, id: u64) -> Reply {
        let entries = match &self.store {
            Some(store) => match store.len() {
                Ok(n) => n,
                Err(e) => return Reply::Error { id, message: e.to_string() },
            },
            None => 0,
        };
        Reply::Stats { id, hits: self.hits(), misses: self.misses(), entries }
    }

    /// Runs a verification campaign on the daemon's warm pool. Campaign
    /// runs carry in-process observability and never touch the store.
    fn run_campaign(&self, id: u64, seed: u64, quick: bool, fuzz: u64) -> Reply {
        let cfg = CampaignConfig {
            seed,
            quick,
            fuzz_count: Some(fuzz as usize),
            variants: None,
        };
        let checker = Checker::with_config(*self.sim.config());
        let outcome =
            catch_unwind(AssertUnwindSafe(|| cfg.run(&checker, &self.pool)));
        match outcome {
            Ok(Ok(result)) => Reply::Campaign {
                id,
                passed: result.passed(),
                checks: result.outcomes.len() as u64,
                render: result.render(),
            },
            Ok(Err(e)) => Reply::Error { id, message: e.to_string() },
            Err(payload) => Reply::Error {
                id,
                message: format!("campaign panicked: {}", panic_message(&*payload)),
            },
        }
    }
}

/// Why a run request cannot be served, if it cannot: the protocol
/// carries exactly one result per request, so multi-core and
/// PC-recording runs (which need the full in-process `RunOutput`) are
/// rejected with a typed error rather than silently truncated.
fn servable(req: &RunRequest) -> Result<(), String> {
    if req.programs.len() != 1 {
        return Err(format!(
            "multi-core requests ({} programs) are not servable; run them in-process",
            req.programs.len()
        ));
    }
    if req.record {
        return Err("recording runs are not servable; run them in-process".to_string());
    }
    Ok(())
}

/// Data-image pages a request's programs hold.
fn image_pages(req: &RunRequest) -> usize {
    req.programs.iter().map(|p| p.data().pages().len()).sum()
}

/// Whether a request's results may be stored: obs-carrying results
/// cannot be serialized (the probe stays in-process), so they simulate
/// every time.
fn cacheable(req: &RunRequest, base: SimConfig) -> bool {
    !req.effective_config(base).obs.enabled()
}

/// A run request admitted past the queue bound, with its reply slot in
/// the batch and its echoed id. Grid points carry the index of their
/// [`AcceptedGrid`] so outcomes accumulate into one `Grid` reply
/// instead of filling the slot directly.
#[derive(Debug)]
struct AcceptedRun {
    slot: usize,
    id: u64,
    request: RunRequest,
    no_cache: bool,
    grid: Option<usize>,
}

/// An accepted grid request: one reply slot collecting `points`
/// expanded runs.
#[derive(Debug)]
struct AcceptedGrid {
    slot: usize,
    id: u64,
    points: usize,
}
