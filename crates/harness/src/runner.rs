//! The [`Runner`]: one façade for executing batches of [`RunRequest`]s
//! locally, memoized through a content-addressed [`ResultStore`], or
//! submitted to a running `sdo-serve` daemon — selected by the uniform
//! `--store` / `--server` / `--no-cache` client flags every bin exposes.
//!
//! Memoization has one definition, [`Executor::execute`], which the
//! `--store` runner and the `sdo-serve` daemon both run their batches
//! through, and which alone turns a request into its [`RunKey`]; a
//! parameter grid has one expansion, [`expand_grid`]; and every client
//! talks to a daemon through one [`Connection`].
//!
//! Whatever the backend, a batch returns results in request order and
//! the hit/miss counters record how many simulations were actually
//! executed, so callers (and CI) can assert "second pass: 100% cache
//! hits, zero re-simulations".

use crate::engine::JobPool;
use crate::intern::ProgramTable;
use crate::proto::{Reply, Request, BATCH_ERROR_ID};
use crate::sim::{RunOutput, RunRequest, RunResult, SimError, Simulator};
use crate::store::{KeyPrefix, ResultStore, RunKey};
use crate::{SimConfig, Variant};
use sdo_isa::Program;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The store-fronted batch executor: a simulator, an optional store, the
/// hit/miss counters of everything it served, and a bounded table of the
/// programs it keyed or decoded (at most 16 MiB of images), each with
/// the hash state after its part of the [`RunKey`] payload.
#[derive(Debug)]
pub struct Executor {
    sim: Simulator,
    store: Option<ResultStore>,
    hits: AtomicU64,
    misses: AtomicU64,
    programs: Mutex<ProgramTable>,
}

/// Where one run's outcome comes from.
// Most runs of a batch are stored hits, so boxing the large variant
// would buy nothing and cost an allocation per hit.
#[allow(clippy::large_enum_variant)]
enum Source<E> {
    /// Served by the store (or failed before simulating).
    Done(Result<(RunResult, bool), E>),
    /// The fresh simulation at this position; `dup` marks an in-flight
    /// duplicate of an earlier run with the same key.
    Fresh { pos: usize, dup: bool },
}

impl Executor {
    /// An executor simulating under `base`, memoizing into `store` if
    /// there is one.
    #[must_use]
    pub fn new(base: SimConfig, store: Option<ResultStore>) -> Self {
        let (hits, misses) = (AtomicU64::new(0), AtomicU64::new(0));
        let programs = Mutex::new(ProgramTable::new());
        Executor { sim: Simulator::new(base), store, hits, misses, programs }
    }

    /// The simulator requests run on.
    #[must_use]
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// The store results are memoized in, if any.
    #[must_use]
    pub fn store(&self) -> Option<&ResultStore> {
        self.store.as_ref()
    }

    /// Results served without simulating so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Results actually simulated so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn tally(&self, cached: bool) {
        let counter = if cached { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Parses one request line as [`Request::parse`] does, through the
    /// executor's program table: a program the table holds is recognised
    /// by its `data` bytes and taken instead of decoded, and a program
    /// decoded afresh is held.
    ///
    /// # Errors
    ///
    /// Returns exactly the error [`Request::parse`] returns.
    pub fn parse(&self, line: &str) -> Result<Request, String> {
        Request::parse_interned(line, &mut self.programs())
    }

    /// The program table. A thread that panicked while holding it may
    /// have left it half-updated, so it is then emptied, which is always
    /// a valid table.
    pub(crate) fn programs(&self) -> MutexGuard<'_, ProgramTable> {
        self.programs.lock().unwrap_or_else(|poisoned| {
            self.programs.clear_poison();
            let mut table = poisoned.into_inner();
            *table = ProgramTable::new();
            table
        })
    }

    /// The key each run is memoized under, or `None` when its result
    /// cannot be stored: a run carrying an observability probe, whose
    /// output the store cannot hold.
    ///
    /// A key is hashed on from the [`KeyPrefix`] of the run's first
    /// program: the previous run's while that program stays equal (a
    /// grid's points and a suite kernel's variants are contiguous), else
    /// the table's, computed and held when the table lacks it. A program
    /// is thus hashed once while the table holds it, and otherwise (its
    /// image is charged more than the whole table, or the batch's
    /// programs overflow it) at most once per stretch of runs it starts.
    pub(crate) fn keys(&self, runs: &[(&RunRequest, bool)]) -> Vec<Option<RunKey>> {
        let base = *self.sim.config();
        let mut table = self.programs();
        let mut last: Option<(&Program, KeyPrefix)> = None;
        runs.iter()
            .map(|&(req, _)| {
                if !cacheable(req, base) {
                    return None;
                }
                let Some(first) = req.programs.first() else {
                    return Some(RunKey::of(req, base));
                };
                if last.as_ref().is_none_or(|(held, _)| *held != first) {
                    last = Some((first, table.prefix(first)));
                }
                last.as_ref().map(|(_, prefix)| prefix.key(req, base))
            })
            .collect()
    }

    /// Executes one batch of `(request, no_cache)` runs and returns one
    /// outcome per run, in run order, flagged `true` when it was served
    /// without simulating.
    ///
    /// Each run is keyed here unless it carries an observability probe,
    /// whose output the store cannot hold. The key is hashed on from the
    /// state after the run's first program, which the executor's table
    /// keeps, so each distinct program is hashed once. A run with a key
    /// is, unless `no_cache`, looked up in the store. Equal keys in one
    /// batch simulate once: the first is the representative, the rest
    /// take its result as in-flight hits. `no_cache` and keyless runs opt
    /// out and simulate individually. The misses run through `simulate`
    /// on `pool`, and each fresh result is saved under its key. A store
    /// failure is that run's outcome, as `E`.
    pub fn execute<E>(
        &self,
        runs: &[(&RunRequest, bool)],
        pool: &JobPool,
        simulate: impl Fn(&RunRequest) -> Result<RunResult, E> + Sync,
    ) -> Vec<Result<(RunResult, bool), E>>
    where
        E: From<SimError> + Clone + Send,
    {
        let mut fresh: Vec<(usize, Option<RunKey>)> = Vec::new(); // (run index, key)
        let mut seen: HashMap<RunKey, usize> = HashMap::new(); // key → position in `fresh`
        let sources: Vec<Source<E>> = runs
            .iter()
            .zip(self.keys(runs))
            .enumerate()
            .map(|(j, (&(_, no_cache), key))| {
                if let (Some(key), false) = (key, no_cache) {
                    if let Some(&pos) = seen.get(&key) {
                        self.tally(true);
                        return Source::Fresh { pos, dup: true };
                    }
                    match self.store.as_ref().map(|store| store.load(&key)) {
                        Some(Ok(Some(result))) => {
                            self.tally(true);
                            return Source::Done(Ok((result, true)));
                        }
                        Some(Err(e)) => return Source::Done(Err(e.into())),
                        Some(Ok(None)) | None => {
                            seen.insert(key, fresh.len());
                        }
                    }
                }
                fresh.push((j, key));
                Source::Fresh { pos: fresh.len() - 1, dup: false }
            })
            .collect();

        let simulated = pool.run(&fresh, |_, &(j, _)| simulate(runs[j].0));
        let results: Vec<Result<(RunResult, bool), E>> = simulated
            .into_iter()
            .zip(&fresh)
            .map(|(outcome, (_, key))| {
                self.tally(false);
                let result = outcome?;
                if let (Some(store), Some(key)) = (&self.store, key) {
                    store.save(key, &result)?;
                }
                Ok((result, false))
            })
            .collect();
        sources
            .into_iter()
            .map(|source| match source {
                Source::Done(outcome) => outcome,
                Source::Fresh { pos, dup } => {
                    results[pos].clone().map(|(result, cached)| (result, cached || dup))
                }
            })
            .collect()
    }
}

/// Whether a request's result may be stored: obs-carrying results
/// cannot be serialized (the probe stays in-process), so they simulate
/// every time.
fn cacheable(req: &RunRequest, base: SimConfig) -> bool {
    !req.effective_config(base).obs.enabled()
}

/// Expands a parameter grid: every `configs` × `variants` combination of
/// `template`, config-major and variant-minor. Each point is the
/// template with its variant and config substituted — the request a
/// client would send for that point alone — so its [`RunKey`] equals the
/// per-point request's and the two share store entries.
#[must_use]
pub fn expand_grid(
    template: &RunRequest,
    configs: &[SimConfig],
    variants: &[Variant],
) -> Vec<RunRequest> {
    configs
        .iter()
        .flat_map(|&cfg| variants.iter().map(move |&v| template.clone().variant(v).config(cfg)))
        .collect()
}

/// A client's connection to an `sdo-serve` daemon's Unix socket.
#[derive(Debug)]
pub struct Connection {
    path: String,
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Connection {
    /// Connects to the daemon listening at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Server`] if the socket cannot be reached.
    pub fn open(path: &str) -> Result<Self, SimError> {
        let writer = UnixStream::connect(path)
            .map_err(|e| SimError::Server(format!("cannot connect to {path}: {e}")))?;
        let reader = BufReader::new(
            writer.try_clone().map_err(|e| SimError::Server(format!("socket clone: {e}")))?,
        );
        Ok(Connection { path: path.to_string(), reader, writer })
    }

    /// Writes `requests` as one batch and reads its replies, returned in
    /// request order: one per request that carries an id. A reply is
    /// accepted only for an id sent in this batch and not yet answered.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Server`] on I/O failure, a reply line that
    /// does not parse, a batch-level error reply, or a reply for any
    /// other id.
    pub fn exchange(&mut self, requests: &[Request]) -> Result<Vec<Reply>, SimError> {
        let path = &self.path;
        let mut batch = String::new();
        for request in requests {
            request.write(&mut batch);
            batch.push('\n');
        }
        batch.push('\n');
        self.writer
            .write_all(batch.as_bytes())
            .map_err(|e| SimError::Server(format!("write to {path}: {e}")))?;
        let ids: Vec<u64> = requests.iter().filter_map(Request::id).collect();
        let mut replies: Vec<Option<Reply>> = vec![None; ids.len()];
        for _ in 0..ids.len() {
            let mut line = String::new();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| SimError::Server(format!("read from {path}: {e}")))?;
            if n == 0 {
                return Err(SimError::Server(format!(
                    "daemon at {path} closed the connection mid-batch"
                )));
            }
            let reply = Reply::parse(line.trim_end())
                .map_err(|e| SimError::Server(format!("bad reply line: {e}")))?;
            if let Reply::Error { id: BATCH_ERROR_ID, message } = &reply {
                // The daemon could not attribute the error to any
                // request we sent, so no slot can be filled.
                return Err(SimError::Server(format!("daemon rejected a request line: {message}")));
            }
            let id = reply.id();
            match ids.iter().zip(&replies).position(|(&sent, slot)| sent == id && slot.is_none()) {
                Some(k) => replies[k] = Some(reply),
                None => {
                    return Err(SimError::Server(format!(
                        "daemon replied for id {id}, which this batch did not send \
                         or already had answered"
                    )))
                }
            }
        }
        Ok(replies.into_iter().flatten().collect())
    }
}

/// Executes batches of run requests against a selectable backend. See
/// the module docs.
#[derive(Debug)]
pub struct Runner {
    exec: Executor,
    /// The daemon's socket, when batches are submitted rather than run
    /// in-process.
    server: Option<String>,
    no_cache: bool,
}

impl Runner {
    /// A purely local runner (no store, no daemon) — the classic
    /// in-process harness behavior.
    #[must_use]
    pub fn local(cfg: SimConfig) -> Self {
        Runner { exec: Executor::new(cfg, None), server: None, no_cache: false }
    }

    /// A local runner memoizing through the content-addressed store at
    /// `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Store`] if the store cannot be opened.
    pub fn with_store(cfg: SimConfig, dir: &str) -> Result<Self, SimError> {
        Ok(Runner { exec: Executor::new(cfg, Some(ResultStore::open(dir)?)), ..Runner::local(cfg) })
    }

    /// A thin client submitting every batch to the daemon listening on
    /// the Unix socket at `path`.
    #[must_use]
    pub fn server(cfg: SimConfig, path: impl Into<String>) -> Self {
        Runner { server: Some(path.into()), ..Runner::local(cfg) }
    }

    /// Disables store lookups (results are still saved locally when a
    /// store is configured; the daemon honors the flag per request).
    #[must_use]
    pub fn no_cache(mut self, on: bool) -> Self {
        self.no_cache = on;
        self
    }

    /// The base machine configuration requests run under when they carry
    /// no override.
    #[must_use]
    pub fn config(&self) -> SimConfig {
        *self.exec.sim.config()
    }

    /// The underlying local simulator (penetration tests and the
    /// verifier need raw [`Simulator::run`] access for memory residency
    /// and observability, which never route through a store).
    #[must_use]
    pub fn simulator(&self) -> &Simulator {
        &self.exec.sim
    }

    /// Results served from the store (local or daemon-side) or from an
    /// in-flight duplicate so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.exec.hits()
    }

    /// Results actually simulated so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.exec.misses()
    }

    /// A one-line cache report for stderr, or `None` for a plain local
    /// runner (no store, no server — nothing to report).
    #[must_use]
    pub fn cache_report(&self) -> Option<String> {
        if self.server.is_none() && self.exec.store.is_none() {
            return None;
        }
        let hits = self.hits();
        let misses = self.misses();
        let total = hits + misses;
        let pct = if total == 0 { 0.0 } else { 100.0 * hits as f64 / total as f64 };
        Some(format!("cache: {hits} hits, {misses} misses ({pct:.1}% cached)"))
    }

    /// Runs one request (serially).
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`SimError`].
    pub fn run_one(&self, req: &RunRequest) -> Result<RunResult, SimError> {
        Ok(self
            .run_batch(std::slice::from_ref(req), &JobPool::serial())?
            .into_iter()
            .next()
            .expect("one request yields one result"))
    }

    /// Runs a batch, returning one result per request in request order
    /// (the canonical merge — byte-identical at any `--jobs`).
    ///
    /// Requests must be single-program and non-recording; multi-core and
    /// PC-recording runs need the full [`RunOutput`] and go through
    /// [`Simulator::run`] directly.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed failure: a [`SimError::Hang`] from
    /// simulation, [`SimError::Store`] from the store, or
    /// [`SimError::Server`] from the daemon.
    ///
    /// # Panics
    ///
    /// Panics if a request is multi-program or recording.
    pub fn run_batch(
        &self,
        reqs: &[RunRequest],
        pool: &JobPool,
    ) -> Result<Vec<RunResult>, SimError> {
        for req in reqs {
            assert_eq!(req.programs.len(), 1, "Runner batches are single-program");
            assert!(!req.record, "recording runs do not route through a Runner");
        }
        let simulate = |req: &RunRequest| self.exec.sim.run(req).map(RunOutput::into_result);
        match (&self.server, &self.exec.store) {
            (Some(path), _) => self.run_remote(reqs, path),
            (None, Some(_)) => {
                let runs: Vec<(&RunRequest, bool)> =
                    reqs.iter().map(|req| (req, self.no_cache)).collect();
                self.exec
                    .execute(&runs, pool, simulate)
                    .into_iter()
                    .map(|outcome| outcome.map(|(result, _)| result))
                    .collect()
            }
            // Without a store there is nothing to look up, so no key is
            // hashed: every request simulates.
            (None, None) => {
                let results = pool.try_run(reqs, |_, req| simulate(req))?;
                self.exec.misses.fetch_add(reqs.len() as u64, Ordering::Relaxed);
                Ok(results)
            }
        }
    }

    /// Runs a parameter grid — every `configs` × `variants` combination
    /// of `template`, as [`expand_grid`] orders it — returning one
    /// result per point in that order.
    ///
    /// Against a daemon the whole grid travels as a single `grid`
    /// request line (one round-trip, one reply line), and the daemon
    /// expands it with the same [`expand_grid`], so store entries are
    /// shared with per-point runs. A daemon whose queue cannot absorb
    /// the whole grid answers `Busy`, and the client transparently falls
    /// back to submitting the points as an ordinary batch.
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`SimError`], exactly like
    /// [`run_batch`](Self::run_batch).
    ///
    /// # Panics
    ///
    /// Panics if `template` is multi-program or recording.
    pub fn run_grid(
        &self,
        template: &RunRequest,
        configs: &[SimConfig],
        variants: &[Variant],
        pool: &JobPool,
    ) -> Result<Vec<RunResult>, SimError> {
        assert_eq!(template.programs.len(), 1, "Runner grids are single-program");
        assert!(!template.record, "recording runs do not route through a Runner");
        if let Some(path) = &self.server {
            if let Some(results) = self.run_grid_remote(template, configs, variants, path)? {
                return Ok(results);
            }
            // The daemon bounced the grid (queue too small for its point
            // count): per-point submission chunks naturally through the
            // Busy/resubmit protocol.
        }
        self.run_batch(&expand_grid(template, configs, variants), pool)
    }

    /// One grid request over the socket. `Ok(None)` means the daemon
    /// answered `Busy` and the caller should fall back to a per-point
    /// batch.
    fn run_grid_remote(
        &self,
        template: &RunRequest,
        configs: &[SimConfig],
        variants: &[Variant],
        path: &str,
    ) -> Result<Option<Vec<RunResult>>, SimError> {
        let grid = Request::Grid {
            id: 0,
            request: template.clone(),
            configs: configs.to_vec(),
            variants: variants.to_vec(),
            no_cache: self.no_cache,
        };
        match Connection::open(path)?.exchange(&[grid])?.pop() {
            Some(Reply::Grid { results, .. }) => {
                let points = configs.len() * variants.len();
                if results.len() != points {
                    return Err(SimError::Server(format!(
                        "grid reply carries {} points, expected {points}",
                        results.len()
                    )));
                }
                Ok(Some(
                    results
                        .into_iter()
                        .map(|(result, cached)| {
                            self.exec.tally(cached);
                            result
                        })
                        .collect(),
                ))
            }
            Some(Reply::Busy { .. }) => Ok(None),
            Some(Reply::Error { message, .. }) => Err(SimError::Server(message)),
            other => Err(SimError::Server(format!("unexpected reply {other:?} to a grid request"))),
        }
    }

    fn run_remote(&self, reqs: &[RunRequest], path: &str) -> Result<Vec<RunResult>, SimError> {
        let mut conn = Connection::open(path)?;
        let mut slots: Vec<Option<RunResult>> = vec![None; reqs.len()];
        let mut first_error: Option<(usize, String)> = None;
        // Submit everything; resubmit whatever the daemon bounced with
        // `Busy` (its bounded queue is the back-pressure contract) until
        // every id has a terminal reply.
        let mut pending: Vec<usize> = (0..reqs.len()).collect();
        while !pending.is_empty() {
            let batch: Vec<Request> = pending
                .iter()
                .map(|&i| {
                    // Resolve the config client-side: the daemon's base
                    // config is its own (and not ours), so a request
                    // sent with `config: None` would silently run under
                    // whatever the daemon was started with. Resolving
                    // here matches the RunKey canonicalization (the key
                    // hashes the effective config), so cache behavior is
                    // unchanged.
                    let mut request = reqs[i].clone();
                    request.config = Some(request.effective_config(self.config()));
                    Request::Run { id: i as u64, request, no_cache: self.no_cache }
                })
                .collect();
            let mut bounced: Vec<usize> = Vec::new();
            for (&i, reply) in pending.iter().zip(conn.exchange(&batch)?) {
                match reply {
                    Reply::Result { result, cached, .. } => {
                        self.exec.tally(cached);
                        slots[i] = Some(result);
                    }
                    Reply::Busy { .. } => bounced.push(i),
                    Reply::Error { message, .. } => {
                        if first_error.as_ref().is_none_or(|&(prev, _)| i < prev) {
                            first_error = Some((i, message));
                        }
                    }
                    other => {
                        return Err(SimError::Server(format!(
                            "unexpected reply {other:?} to a run batch"
                        )))
                    }
                }
            }
            pending = bounced;
        }
        if let Some((_, message)) = first_error {
            return Err(SimError::Server(message));
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.ok_or_else(|| SimError::Server(format!("no reply for request {i}"))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Variant;
    use sdo_workloads::kernels::l1_resident;

    fn temp_dir(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("sdo-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn local_runner_matches_direct_simulation() {
        let cfg = SimConfig::tiny();
        let prog = l1_resident(120, 1);
        let reqs: Vec<RunRequest> = Variant::ALL
            .iter()
            .map(|&v| RunRequest::program(&prog).variant(v))
            .collect();
        let runner = Runner::local(cfg);
        let batch = runner.run_batch(&reqs, &JobPool::new(4)).unwrap();
        let sim = Simulator::new(cfg);
        for (req, got) in reqs.iter().zip(&batch) {
            assert_eq!(*got, sim.run(req).unwrap().into_result());
        }
        assert_eq!(runner.hits(), 0);
        assert_eq!(runner.misses(), reqs.len() as u64);
        assert!(runner.cache_report().is_none(), "plain local runner has nothing to report");
    }

    #[test]
    fn warm_store_serves_the_whole_batch_with_zero_simulations() {
        let dir = temp_dir("warm");
        let cfg = SimConfig::tiny();
        let prog = l1_resident(120, 1);
        let reqs: Vec<RunRequest> = Variant::ALL
            .iter()
            .map(|&v| RunRequest::program(&prog).variant(v))
            .collect();

        let cold = Runner::with_store(cfg, &dir).unwrap();
        let cold_results = cold.run_batch(&reqs, &JobPool::new(2)).unwrap();
        assert_eq!(cold.hits(), 0);
        assert_eq!(cold.misses(), reqs.len() as u64);

        // A fresh runner (fresh process, in spirit) over the same store:
        // everything is a hit, nothing simulates, bytes are identical.
        let warm = Runner::with_store(cfg, &dir).unwrap();
        let warm_results = warm.run_batch(&reqs, &JobPool::new(2)).unwrap();
        assert_eq!(warm.hits(), reqs.len() as u64);
        assert_eq!(warm.misses(), 0, "warm rerun must execute zero simulations");
        assert_eq!(warm_results, cold_results);
        assert_eq!(
            warm.cache_report().unwrap(),
            format!("cache: {} hits, 0 misses (100.0% cached)", reqs.len())
        );

        // --no-cache forces re-simulation even with a warm store.
        let bypass = Runner::with_store(cfg, &dir).unwrap().no_cache(true);
        let bypass_results = bypass.run_batch(&reqs, &JobPool::serial()).unwrap();
        assert_eq!(bypass.hits(), 0);
        assert_eq!(bypass_results, cold_results);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hang_errors_propagate_through_the_store_path() {
        let dir = temp_dir("hang");
        let mut cfg = SimConfig::tiny();
        cfg.max_cycles = 500;
        let mut asm = sdo_isa::Assembler::named("spin");
        let top = asm.here();
        asm.j(top);
        let spin = asm.finish().unwrap();
        let runner = Runner::with_store(cfg, &dir).unwrap();
        let err = runner.run_one(&RunRequest::program(&spin)).unwrap_err();
        assert!(matches!(err, SimError::Hang { .. }));
        // A failed run must not poison the store.
        assert!(ResultStore::open(&dir).unwrap().is_empty().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A fake daemon on a Unix socket that answers every request line of
    /// one connection with `reply`.
    fn fake_daemon(tag: &str, reply: &'static str) -> (String, std::thread::JoinHandle<()>) {
        let dir = temp_dir(tag);
        std::fs::create_dir_all(&dir).unwrap();
        let path = format!("{dir}/sock");
        let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
        let daemon = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            // The client hangs up at the first bad reply.
            for line in BufReader::new(stream).lines().map_while(Result::ok) {
                if !line.is_empty() && writer.write_all(reply.as_bytes()).is_err() {
                    break;
                }
            }
        });
        (path, daemon)
    }

    #[test]
    fn replies_for_ids_not_sent_or_already_answered_are_server_errors() {
        let prog = l1_resident(60, 1);
        let reqs: Vec<RunRequest> = [Variant::Unsafe, Variant::SttLd, Variant::Hybrid]
            .iter()
            .map(|&v| RunRequest::program(&prog).variant(v))
            .collect();
        for (tag, reply, id) in [
            ("unsent", "{\"id\":999,\"busy\":true}\n", 999),
            ("answered", "{\"id\":0,\"busy\":true}\n", 0),
        ] {
            let (path, daemon) = fake_daemon(tag, reply);
            let err = Runner::server(SimConfig::tiny(), &path)
                .run_batch(&reqs, &JobPool::serial())
                .unwrap_err();
            let SimError::Server(message) = &err else {
                panic!("expected a server error, got {err:?}");
            };
            assert!(message.contains(&format!("replied for id {id},")), "{message}");
            daemon.join().unwrap();
        }
    }
}
