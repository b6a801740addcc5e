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
//!
//! ## One memoization path
//!
//! Admitted runs, grid points included, execute through
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

/// The daemon: a warm pool and the store-fronted executor, with its
/// hit/miss counters and its table of programs.
#[derive(Debug)]
pub struct Server {
    exec: Executor,
    queue: usize,
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
        Ok(Server {
            exec: Executor::new(opts.base, store),
            queue: opts.queue.max(1),
            pool,
            shutdown: AtomicBool::new(false),
        })
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
    #[must_use]
    pub fn handle_batch<L: AsRef<[u8]>>(&self, lines: &[L]) -> Vec<Reply> {
        // Each line is parsed when its turn comes, so a line answered
        // here (an error, Busy) drops its program images at once; only
        // admitted runs keep theirs (the table shares them).
        let parsed = lines.iter().map(|line| {
            std::str::from_utf8(line.as_ref())
                .map_err(|e| format!("invalid UTF-8 at byte {}", e.valid_up_to()))
                .and_then(|text| self.exec.parse(text))
        });

        // `replies` gets exactly one entry per line — Shutdown lines
        // (which get no reply) hold a None that the final flatten drops —
        // so `Admitted.slot` can index by line number. `runs` holds the
        // admitted runs, each grid expanded into its points.
        let mut replies: Vec<Option<Reply>> = Vec::with_capacity(lines.len());
        let mut runs: Vec<(RunRequest, bool)> = Vec::new();
        let mut admitted: Vec<Admitted> = Vec::new();
        let mut held_pages = 0usize;
        for (slot, req) in parsed.enumerate() {
            let (id, request, no_cache, grid) = match req {
                Err(message) => {
                    replies.push(Some(Reply::Error { id: BATCH_ERROR_ID, message }));
                    continue;
                }
                Ok(Request::Run { id, request, no_cache }) => (id, request, no_cache, None),
                Ok(Request::Grid { id, request, configs, variants, no_cache }) => {
                    (id, request, no_cache, Some((configs, variants)))
                }
                Ok(Request::Stats { id }) => {
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
            let points = grid.as_ref().map(|(configs, variants)| configs.len() * variants.len());
            let pages: usize = request.programs.iter().map(|p| p.data().pages().len()).sum();
            if let Some(reply) = self.refusal(id, &request, points, pages, runs.len(), held_pages) {
                replies.push(Some(reply));
                continue;
            }
            held_pages += pages;
            let expanded = match grid {
                None => vec![request],
                Some((configs, variants)) => expand_grid(&request, &configs, &variants),
            };
            runs.extend(expanded.into_iter().map(|run| (run, no_cache)));
            admitted.push(Admitted { slot, id, points });
            replies.push(None); // filled after execution
        }

        // Outcomes come back in run order, so each admitted request
        // takes the next one, or a grid the next `points`.
        let batch: Vec<(&RunRequest, bool)> =
            runs.iter().map(|(request, no_cache)| (request, *no_cache)).collect();
        let mut outcomes =
            self.exec.execute(&batch, &self.pool, |req| self.run_guarded(req)).into_iter();
        for Admitted { slot, id, points } in admitted {
            replies[slot] = match points {
                // A grid is all-or-nothing, so the client can fall back
                // cleanly: its first failing point fails it. Every point
                // is taken first, so later requests stay aligned.
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
        replies.into_iter().flatten().collect()
    }

    /// The reply refusing a run request, or a grid of `points` runs,
    /// whose images hold `pages` pages, from a batch that has admitted
    /// `accepted` runs holding `held_pages` pages; `None` admits it. A
    /// reserved id, an unservable request and an empty grid are errors.
    /// Past the queue bound or [`BATCH_PAGES`] the request is `Busy`: a
    /// grid is admitted or bounced whole, so a Busy grid never
    /// half-executes, and its points share the request's images, so
    /// they count once.
    fn refusal(
        &self,
        id: u64,
        request: &RunRequest,
        points: Option<usize>,
        pages: usize,
        accepted: usize,
        held_pages: usize,
    ) -> Option<Reply> {
        let error = |message: String| Some(Reply::Error { id, message });
        if id == BATCH_ERROR_ID {
            return error(format!("request id {id} is reserved for unattributable errors"));
        }
        // The protocol carries exactly one result per request, so
        // multi-core and PC-recording runs (which need the full
        // in-process `RunOutput`) are refused rather than truncated.
        if request.programs.len() != 1 {
            return error(format!(
                "multi-core requests ({} programs) are not servable; run them in-process",
                request.programs.len()
            ));
        }
        if request.record {
            return error("recording runs are not servable; run them in-process".to_string());
        }
        if points == Some(0) {
            return error("grid has no points (empty configs or variants)".to_string());
        }
        if accepted + points.unwrap_or(1) > self.queue || held_pages + pages > BATCH_PAGES {
            return Some(Reply::Busy { id });
        }
        None
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

/// Why an admitted run failed: the text of its `error` reply.
#[derive(Debug, Clone)]
struct Failure(String);

impl From<SimError> for Failure {
    fn from(e: SimError) -> Self {
        Failure(e.to_string())
    }
}

/// An admitted run or grid request: its reply slot in the batch, its
/// echoed id, and for a grid its point count.
#[derive(Debug)]
struct Admitted {
    slot: usize,
    id: u64,
    points: Option<usize>,
}
