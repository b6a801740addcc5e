//! `serve` — the cache-backed simulation daemon.
//!
//! With no flags the daemon speaks the protocol on stdin/stdout (one
//! process per client, handy for piping and tests); with `--socket
//! <path>` it listens on a Unix socket and serves connections on one
//! warm pool until a `shutdown` request. `--store <dir>` fronts the
//! content-addressed result store: repeated requests are cache hits
//! returning byte-identical results with zero simulations executed.
//! `--queue <N>` bounds how many run requests one batch may carry before
//! the daemon answers `Busy` (explicit back-pressure; clients resubmit).
//! On exit (stdio EOF or a `shutdown` request) the daemon writes the
//! store's `manifest.tsv` index once.

use sdo_harness::cli::{BinSpec, CommonArgs, CsvSupport};
use sdo_harness::store::ResultStore;
use sdo_harness::SimConfig;
use sdo_serve::{ServeOptions, Server};

const SPEC: BinSpec = BinSpec {
    name: "serve",
    about: "cache-backed simulation service: a warm-pool daemon fronting the \
            content-addressed result store over stdio or a Unix socket",
    usage_args: "[options]",
    jobs: true,
    csv: CsvSupport::None,
    metrics: false,
    seed: false,
    no_skip: false,
    // The daemon *is* the server; the uniform client flags would be
    // circular here, so it declares its own --store/--socket/--queue.
    client: false,
    extra_options: &[
        ("--socket <path>", "listen on a Unix socket instead of stdio"),
        ("--store <dir>", "serve (and fill) the content-addressed result store at <dir>"),
        ("--queue <N>", "max run requests per batch before Busy replies (default 256)"),
    ],
};

fn main() {
    let args = CommonArgs::parse(&SPEC);
    let mut opts = ServeOptions { base: SimConfig::table_i(), ..ServeOptions::default() };
    let mut socket: Option<String> = None;

    let mut it = args.rest.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map_or_else(|| SPEC.usage_error(&format!("{flag} requires a value")), String::clone)
        };
        match arg.as_str() {
            "--socket" => socket = Some(value("--socket")),
            "--store" => opts.store = Some(value("--store")),
            "--queue" => opts.queue = parse_queue(&value("--queue")),
            other => {
                if let Some(v) = other.strip_prefix("--socket=") {
                    socket = Some(v.to_string());
                } else if let Some(v) = other.strip_prefix("--store=") {
                    opts.store = Some(v.to_string());
                } else if let Some(v) = other.strip_prefix("--queue=") {
                    opts.queue = parse_queue(v);
                } else {
                    SPEC.usage_error(&format!("unexpected argument '{other}'"));
                }
            }
        }
    }

    let server = Server::new(opts.clone(), args.pool)
        .unwrap_or_else(|e| SPEC.runtime_error(&e.to_string()));
    let outcome = match &socket {
        Some(path) => {
            eprintln!(
                "serve: listening on {path} ({}, queue {})",
                opts.store.as_deref().map_or_else(
                    || "no store".to_string(),
                    |dir| format!("store {dir}")
                ),
                opts.queue,
            );
            server.serve_socket(path)
        }
        None => server.serve(std::io::stdin().lock(), std::io::stdout().lock()),
    };
    // The manifest is derived from the entries, so it is written once,
    // here, rather than after every batch.
    let manifest = server.store().map(ResultStore::write_manifest);
    if let Err(e) = outcome {
        SPEC.runtime_error(&format!("transport failed: {e}"));
    }
    if let Some(Err(e)) = manifest {
        SPEC.runtime_error(&format!("manifest not written: {e}"));
    }
    eprintln!(
        "serve: done ({} hits, {} misses)",
        server.hits(),
        server.misses()
    );
}

fn parse_queue(v: &str) -> usize {
    match v.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => SPEC.usage_error(&format!("--queue expects a positive integer, got '{v}'")),
    }
}
