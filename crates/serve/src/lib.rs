//! # sdo-serve — the cache-backed simulation service
//!
//! A persistent daemon owning a warm [`JobPool`] and (optionally) a
//! content-addressed [`ResultStore`], speaking the line-delimited JSON
//! protocol from `sdo_harness::proto` (DESIGN.md §13) over stdio or a
//! Unix socket. Every figure or ad-hoc run submitted to it is first
//! looked up by its `RunKey`; repeated requests are cache hits that
//! return byte-identical [`RunResult`]s without executing a single
//! simulation.
//!
//! ## Batch contract
//!
//! A batch is a sequence of request lines terminated by a blank line.
//! The daemon writes exactly one reply line per request line, in request
//! order, then flushes. It answers every line itself: run and grid lines
//! are admitted into rounds of at most 256 runs whose program images
//! hold at most [`BATCH_PAGES`] pages, and each round executes before
//! the next is admitted. A grid counts its points as runs and asks for
//! at most 256 of them, so it always fits in one round; a wider grid is
//! refused with an `error` reply before it is expanded. Lines are parsed
//! one at a time as their turn comes, so only a round's admitted runs
//! hold their images, and only until the round has run.
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
//! daemon keeps serving. A `run` or `grid` line that is well-formed JSON
//! with a u64 `id` is answered under that id, whatever else in it fails
//! to decode; any other malformed line gets [`BATCH_ERROR_ID`]. Panics
//! are caught per simulation with [`std::panic::catch_unwind`] and
//! rendered through [`sdo_harness::engine::panic_message`], the same
//! plumbing the in-process pool uses.
//!
//! ## One memoization path
//!
//! Each round's runs, grid points included, execute through
//! [`Executor::execute`], the executor the in-process `--store` runner
//! uses too: it keys each run, looks it up in the store, coalesces equal
//! keys in flight, simulates the misses on the warm pool and saves each
//! fresh result. The daemon computes no key of its own.
//!
//! ## Each distinct program decoded and hashed once
//!
//! The daemon parses lines with [`Executor::parse`], through the table
//! of programs the executor keys runs with. A line repeating a held
//! program's `data` bytes takes the held program without decoding them,
//! and the executor finishes its keys from the held program's hash state
//! over the rest of the request, so a repeated image costs one byte
//! comparison instead of a decode and a hash. Every reply, store entry
//! and key is the one a fresh daemon would produce.

#![warn(missing_docs)]

use sdo_harness::engine::{panic_message, JobPool};
use sdo_harness::proto::{Reply, Request, BATCH_ERROR_ID, BATCH_PAGES};
use sdo_harness::runner::{expand_grid, Executor};
use sdo_harness::store::ResultStore;
use sdo_harness::{RunRequest, RunResult, SimConfig, SimError};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

/// Bytes a socket connection is read in: a large request line (a
/// 1 MiB image is a 1.3 MB line) arrives in a few dozen reads.
const SOCKET_READ_BYTES: usize = 64 << 10;

/// The most runs a round admits, a grid's points counted one by one,
/// and so the most points a grid may ask for: it bounds the requests
/// and results a round holds besides its images (which [`BATCH_PAGES`]
/// bounds). Every in-tree client's batch fits in one round (fig6's is
/// 160 runs, the sensitivity sweep's grid 24 points).
const ROUND_RUNS: usize = 256;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Content-addressed store directory (`None` = serve without
    /// memoization — every run simulates).
    pub store: Option<String>,
    /// Base machine configuration for requests with no override.
    pub base: SimConfig,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { store: None, base: SimConfig::table_i() }
    }
}

/// The daemon: a warm pool and the store-fronted executor, with its
/// hit/miss counters and its table of programs.
#[derive(Debug)]
pub struct Server {
    exec: Executor,
    pool: JobPool,
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
        Ok(Server { exec: Executor::new(opts.base, store), pool, shutdown: AtomicBool::new(false) })
    }

    /// Requests served from the store since startup.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.exec.hits()
    }

    /// Requests actually simulated since startup.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.exec.misses()
    }

    /// Whether a `shutdown` request has been received.
    #[must_use]
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// The store the daemon serves, if any.
    #[must_use]
    pub fn store(&self) -> Option<&ResultStore> {
        self.exec.store()
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
                // The buffer starts no smaller than a socket read and
                // doubles, then is cut to the line, so what it allocates
                // follows the line's length, not how its bytes arrived.
                let mut line = Vec::with_capacity(SOCKET_READ_BYTES);
                if reader.read_until(b'\n', &mut line)? == 0 {
                    eof = true;
                    break;
                }
                let len = line.iter().rposition(|&b| b != b'\n' && b != b'\r').map_or(0, |i| i + 1);
                if len == 0 {
                    break;
                }
                line.truncate(len);
                line.shrink_to_fit();
                lines.push(line);
            }
            if !lines.is_empty() {
                // One write per batch: the socket is unbuffered.
                let mut replies = String::new();
                for reply in self.handle_batch(&lines) {
                    replies.push_str(&reply.render());
                    replies.push('\n');
                }
                writer.write_all(replies.as_bytes())?;
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
            let reader = BufReader::with_capacity(SOCKET_READ_BYTES, stream.try_clone()?);
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
    ///
    /// Run and grid lines are admitted into rounds. A round takes lines
    /// while they keep it within 256 runs, a grid's points counted as
    /// runs, and [`BATCH_PAGES`] pages of images, a grid's counted once.
    /// A grid of more than 256 points is refused, so every grid fits in
    /// one round. A round executes before the next line that does not
    /// fit is admitted, and before a `stats` line is answered, so a
    /// `stats` reply counts every line before it.
    #[must_use]
    pub fn handle_batch<L: AsRef<[u8]>>(&self, lines: &[L]) -> Vec<Reply> {
        // `replies` gets exactly one entry per line — Shutdown lines
        // (which get no reply) hold a None that the final flatten drops —
        // so `Admitted.slot` can index by line number.
        let mut replies: Vec<Option<Reply>> = Vec::with_capacity(lines.len());
        let mut round = Round::default();
        for line in lines {
            // Each line is parsed when its turn comes, so a line answered
            // here (an error) drops its program images at once; only
            // admitted runs keep theirs (the table shares them), until
            // their round has run.
            let parsed = std::str::from_utf8(line.as_ref())
                .map_err(|e| (BATCH_ERROR_ID, format!("invalid UTF-8 at byte {}", e.valid_up_to())))
                .and_then(|text| self.exec.parse(text));
            let (id, request, no_cache, grid) = match parsed {
                Err((id, message)) => {
                    replies.push(Some(Reply::Error { id, message }));
                    continue;
                }
                Ok(Request::Run { id, request, no_cache }) => (id, request, no_cache, None),
                Ok(Request::Grid { id, request, configs, variants, no_cache }) => {
                    (id, request, no_cache, Some((configs, variants)))
                }
                Ok(Request::Stats { id }) => {
                    self.execute(std::mem::take(&mut round), &mut replies);
                    replies.push(Some(self.stats_reply(id)));
                    continue;
                }
                Ok(Request::Shutdown) => {
                    self.shutdown.store(true, Ordering::Relaxed);
                    // No id, no reply — but the slot placeholder keeps
                    // line-number indexing sound for later run replies.
                    replies.push(None);
                    continue;
                }
            };
            let points = grid
                .as_ref()
                .map(|(configs, variants)| configs.len().saturating_mul(variants.len()));
            if let Some(message) = refusal(id, &request, points) {
                replies.push(Some(Reply::Error { id, message }));
                continue;
            }
            // A grid's points share the request's images, so they count once.
            let pages: usize = request.programs.iter().map(|p| p.data().pages().len()).sum();
            let runs = points.unwrap_or(1);
            if !round.admitted.is_empty()
                && (round.runs.len() + runs > ROUND_RUNS || round.pages + pages > BATCH_PAGES)
            {
                self.execute(std::mem::take(&mut round), &mut replies);
            }
            round.pages += pages;
            match grid {
                None => round.runs.push((request, no_cache)),
                Some((configs, variants)) => round.runs.extend(
                    expand_grid(&request, &configs, &variants)
                        .into_iter()
                        .map(|run| (run, no_cache)),
                ),
            }
            round.admitted.push(Admitted { slot: replies.len(), id, points });
            replies.push(None); // filled when the round executes
        }
        self.execute(round, &mut replies);
        replies.into_iter().flatten().collect()
    }

    /// Executes `round` and fills the reply slots of its lines.
    fn execute(&self, round: Round, replies: &mut [Option<Reply>]) {
        // Outcomes come back in run order, so each admitted request
        // takes the next one, or a grid the next `points`.
        let runs: Vec<(&RunRequest, bool)> =
            round.runs.iter().map(|(request, no_cache)| (request, *no_cache)).collect();
        let mut outcomes =
            self.exec.execute(&runs, &self.pool, |req| self.run_guarded(req)).into_iter();
        for Admitted { slot, id, points } in round.admitted {
            replies[slot] = match points {
                // A grid is all-or-nothing: its first failing point
                // fails it. Every point is taken first, so later
                // requests stay aligned.
                Some(points) => {
                    let group: Vec<_> = (&mut outcomes).take(points).collect();
                    Some(match group.into_iter().collect() {
                        Ok(results) => Reply::Grid { id, results },
                        Err(Failure(message)) => Reply::Error { id, message },
                    })
                }
                None => outcomes.next().map(|outcome| match outcome {
                    Ok((result, cached)) => Reply::Result { id, result, cached },
                    Err(Failure(message)) => Reply::Error { id, message },
                }),
            };
        }
    }

    /// One simulation with the panic boundary drawn *inside* the worker
    /// closure: a panicking run yields an `Err` here instead of
    /// unwinding across the pool and killing the daemon.
    fn run_guarded(&self, req: &RunRequest) -> Result<RunResult, Failure> {
        match catch_unwind(AssertUnwindSafe(|| self.exec.simulator().run(req))) {
            Ok(Ok(output)) => Ok(output.into_result()),
            Ok(Err(e)) => Err(e.into()),
            Err(payload) => Err(Failure(format!("worker panicked: {}", panic_message(&*payload)))),
        }
    }

    fn stats_reply(&self, id: u64) -> Reply {
        let entries = match self.store() {
            Some(store) => match store.len() {
                Ok(n) => n,
                Err(e) => return Reply::Error { id, message: e.to_string() },
            },
            None => 0,
        };
        Reply::Stats { id, hits: self.hits(), misses: self.misses(), entries }
    }
}

/// Why a run or grid request is refused before it is admitted: a
/// reserved id, an unservable request, or a grid with no points or more
/// than a round's [`ROUND_RUNS`] (`points` is the grid's point count).
/// `None` admits it.
fn refusal(id: u64, request: &RunRequest, points: Option<usize>) -> Option<String> {
    if id == BATCH_ERROR_ID {
        return Some(format!("request id {id} is reserved for unattributable errors"));
    }
    // The protocol carries exactly one result per request, so
    // multi-core and PC-recording runs (which need the full
    // in-process `RunOutput`) are refused rather than truncated.
    if request.programs.len() != 1 {
        return Some(format!(
            "multi-core requests ({} programs) are not servable; run them in-process",
            request.programs.len()
        ));
    }
    if request.record {
        return Some("recording runs are not servable; run them in-process".to_string());
    }
    match points {
        Some(0) => Some("grid has no points (empty configs or variants)".to_string()),
        Some(points) if points > ROUND_RUNS => Some(format!(
            "grid has {points} points, more than the {ROUND_RUNS} a round runs; split it"
        )),
        _ => None,
    }
}

/// Why an admitted run failed: the text of its `error` reply.
#[derive(Debug, Clone)]
struct Failure(String);

impl From<SimError> for Failure {
    fn from(e: SimError) -> Self {
        Failure(e.to_string())
    }
}

/// The run and grid lines admitted since the last round executed:
/// their runs, each grid expanded into its points, in line order, and
/// the image pages their requests hold.
#[derive(Debug, Default)]
struct Round {
    runs: Vec<(RunRequest, bool)>,
    admitted: Vec<Admitted>,
    pages: usize,
}

/// An admitted run or grid request: its reply slot in the batch, its
/// echoed id, and for a grid its point count.
#[derive(Debug)]
struct Admitted {
    slot: usize,
    id: u64,
    points: Option<usize>,
}
