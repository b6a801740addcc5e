//! `serve` — the cache-backed simulation daemon.
//!
//! With no flags the daemon speaks the protocol on stdin/stdout (one
//! process per client, handy for piping and tests); with `--socket
//! <path>` it listens on a Unix socket and serves connections on one
//! warm pool until a `shutdown` request. `--store <dir>` fronts the
//! content-addressed result store: repeated requests are cache hits
//! returning byte-identical results with zero simulations executed.
//! The daemon answers every line of a batch itself, executing a large
//! batch in rounds. On exit (stdio EOF or a `shutdown` request) the
//! daemon writes the store's `manifest.tsv` index once.

use sdo_harness::cli::{BinSpec, CommonArgs, Opt, JOBS};
use sdo_harness::store::ResultStore;
use sdo_serve::{ServeOptions, Server};

const SOCKET: Opt = Opt::value("--socket", "<path>", "listen on a Unix socket instead of stdio");
const STORE: Opt =
    Opt::value("--store", "<dir>", "serve (and fill) the content-addressed result store at <dir>");

const SPEC: BinSpec = BinSpec {
    name: "serve",
    about: "cache-backed simulation service: a warm-pool daemon fronting the \
            content-addressed result store over stdio or a Unix socket, answering \
            every line of each batch",
    usage_args: "[options]",
    // The daemon *is* the server: the CLIENT group would be circular
    // here, so it declares its own --store.
    options: &[JOBS, &[SOCKET, STORE]],
};

fn main() {
    let args = CommonArgs::parse(&SPEC);
    args.reject_positionals(&SPEC);
    let store = args.value(&STORE);
    let opts = ServeOptions { store: store.map(String::from), ..ServeOptions::default() };

    let server =
        Server::new(opts, args.pool).unwrap_or_else(|e| SPEC.runtime_error(&e.to_string()));
    let outcome = match args.value(&SOCKET) {
        Some(path) => {
            eprintln!(
                "serve: listening on {path} ({})",
                store.map_or_else(|| "no store".to_string(), |dir| format!("store {dir}")),
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
