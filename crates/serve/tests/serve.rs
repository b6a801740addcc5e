//! End-to-end tests for the daemon: the batch contract (one reply per
//! request, in order, a large batch executed in rounds), cache hits with
//! byte-identical results, typed errors for malformed/unservable/hanging
//! requests with the daemon surviving all of them, and the socket
//! transport driven by the `Runner` client.

use sdo_harness::proto::{result_to_json, Reply, Request, BATCH_ERROR_ID, BATCH_PAGES};
use sdo_harness::{
    JobPool, PredictorKind, ResultStore, RunKey, RunRequest, RunResult, Runner, SdoConfig,
    SimConfig, Simulator, Variant,
};
use sdo_serve::{ServeOptions, Server};
use sdo_workloads::kernels::{hash_lookup, l1_resident};
use std::io::Cursor;

fn temp_dir(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("sdo-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_string_lossy().into_owned()
}

fn opts(store: Option<String>) -> ServeOptions {
    ServeOptions { store, base: SimConfig::tiny() }
}

/// Feeds `batches` (already newline-framed) through a stdio server and
/// returns the parsed replies.
fn drive(server: &Server, input: &str) -> Vec<Reply> {
    let mut out = Vec::new();
    server.serve(Cursor::new(input.to_string()), &mut out).expect("stdio serve succeeds");
    String::from_utf8(out)
        .expect("replies are UTF-8")
        .lines()
        .map(|l| Reply::parse(l).expect("every reply line parses"))
        .collect()
}

fn batch(msgs: &[Request]) -> String {
    let mut s = String::new();
    for m in msgs {
        s.push_str(&m.render());
        s.push('\n');
    }
    s.push('\n');
    s
}

#[test]
fn run_requests_hit_the_store_on_the_second_pass() {
    let dir = temp_dir("hits");
    let server = Server::new(opts(Some(dir.clone())), JobPool::new(2)).unwrap();
    let prog = l1_resident(120, 1);
    // Every Table II variant, then a kernel whose timing the loop
    // predictor alone changes, run as Hybrid with an SDO override.
    let hashes = hash_lookup(1 << 10, 100, 5);
    let overridden = RunRequest::program(&hashes)
        .variant(Variant::Hybrid)
        .sdo(SdoConfig::with_predictor(PredictorKind::Loop));
    let reqs: Vec<Request> = Variant::ALL
        .iter()
        .map(|&v| RunRequest::program(&prog).variant(v))
        .chain([overridden.clone()])
        .enumerate()
        .map(|(i, request)| Request::Run { id: i as u64, request, no_cache: false })
        .collect();

    let cold = drive(&server, &batch(&reqs));
    assert_eq!(cold.len(), reqs.len(), "one reply per request");
    for (i, reply) in cold.iter().enumerate() {
        let Reply::Result { id, cached, .. } = reply else {
            panic!("expected a result, got {reply:?}");
        };
        assert_eq!(*id, i as u64, "replies in request order");
        assert!(!cached, "first pass simulates");
    }
    assert_eq!(server.misses(), reqs.len() as u64);
    // The daemon ran the override, as a local run does.
    let sim = Simulator::new(SimConfig::tiny());
    let local = sim.run(&overridden).unwrap().into_result();
    let Some(Reply::Result { result, .. }) = cold.last() else { panic!("expected a result") };
    assert_eq!(*result, local, "the daemon honors the SDO override");
    let plain = sim.run(&RunRequest::program(&hashes).variant(Variant::Hybrid)).unwrap();
    assert_ne!(plain.result().cycles, local.cycles, "the override changes the run");

    let warm = drive(&server, &batch(&reqs));
    for (c, w) in cold.iter().zip(&warm) {
        let (Reply::Result { result: rc, .. }, Reply::Result { result: rw, cached, .. }) = (c, w)
        else {
            panic!("expected results");
        };
        assert!(cached, "second pass is served from the store");
        assert_eq!(rw, rc, "cached result is byte-identical");
    }
    assert_eq!(server.hits(), reqs.len() as u64, "second pass: 100% hits");
    assert_eq!(server.misses(), reqs.len() as u64, "second pass executed nothing new");

    // Serving batches never rescans the store for its manifest; the
    // manifest, written on demand, lists every entry.
    let manifest_path = std::path::Path::new(&dir).join("manifest.tsv");
    assert!(!manifest_path.exists(), "serving batches wrote manifest.tsv");
    let store = server.store().expect("the server has a store");
    assert_eq!(store.write_manifest().unwrap(), manifest_path);
    let manifest = std::fs::read_to_string(&manifest_path).unwrap();
    assert_eq!(manifest.lines().count(), reqs.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn serve_binary_writes_the_manifest_once_at_exit() {
    use std::io::Write;
    use std::process::{Command, Stdio};

    let dir = temp_dir("binary");
    let prog = l1_resident(60, 1);
    let reqs: Vec<Request> = [Variant::Unsafe, Variant::Hybrid]
        .iter()
        .enumerate()
        .map(|(i, &v)| Request::Run {
            id: i as u64,
            request: RunRequest::program(&prog).variant(v),
            no_cache: false,
        })
        .collect();
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--store", &dir, "--jobs", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve binary starts");
    // Closing stdin (EOF) ends the daemon.
    child.stdin.take().unwrap().write_all(batch(&reqs).as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "serve exited with {}", out.status);
    let replies: Vec<Reply> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|l| Reply::parse(l).unwrap())
        .collect();
    assert_eq!(replies.len(), 2);
    assert!(replies.iter().all(|r| matches!(r, Reply::Result { cached: false, .. })));

    let manifest = std::fs::read_to_string(format!("{dir}/manifest.tsv")).unwrap();
    let lines: Vec<&str> = manifest.lines().collect();
    assert_eq!(lines.len(), 2, "one manifest line per stored entry:\n{manifest}");
    for variant in ["unsafe", "hybrid"] {
        assert!(
            lines.iter().any(|l| l.contains(&format!("\tl1_resident\t{variant}\tspectre\t"))),
            "no {variant} line in:\n{manifest}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn identical_in_flight_requests_simulate_once() {
    // In-flight coalescing: N identical requests in one batch must cost
    // exactly one simulation — the duplicates clone the representative's
    // result (flagged `cached`, counted as hits), even with no store.
    let server = Server::new(opts(None), JobPool::new(2)).unwrap();
    let prog = l1_resident(120, 1);
    let reqs: Vec<Request> = (0..6)
        .map(|i| Request::Run { id: i, request: RunRequest::program(&prog), no_cache: false })
        .collect();
    let replies = drive(&server, &batch(&reqs));
    assert_eq!(replies.len(), 6, "one reply per request");
    let Reply::Result { id: 0, cached: false, result: first } = &replies[0] else {
        panic!("representative simulates, got {:?}", replies[0]);
    };
    for (i, reply) in replies.iter().enumerate().skip(1) {
        let Reply::Result { id, cached, result } = reply else {
            panic!("expected a result, got {reply:?}");
        };
        assert_eq!(*id, i as u64, "replies in request order");
        assert!(cached, "duplicate is served from the in-flight representative");
        assert_eq!(result, first, "coalesced result is byte-identical");
    }
    assert_eq!(server.misses(), 1, "6 identical requests => 1 simulation");
    assert_eq!(server.hits(), 5, "the 5 duplicates count as hits");

    // Distinct keys in the same batch still simulate individually...
    let mut mixed: Vec<Request> = Vec::new();
    for (i, &v) in Variant::ALL.iter().enumerate() {
        for k in 0..2 {
            mixed.push(Request::Run {
                id: 100 + 2 * i as u64 + k,
                request: RunRequest::program(&prog).variant(v),
                no_cache: false,
            });
        }
    }
    let replies = drive(&server, &batch(&mixed));
    assert_eq!(replies.len(), mixed.len());
    assert_eq!(
        server.misses(),
        1 + Variant::ALL.len() as u64,
        "one simulation per distinct variant"
    );

    // ...and `no_cache` opts a request out of coalescing entirely.
    let fresh: Vec<Request> = (0..3)
        .map(|i| Request::Run { id: 200 + i, request: RunRequest::program(&prog), no_cache: true })
        .collect();
    let before = server.misses();
    drive(&server, &batch(&fresh));
    assert_eq!(server.misses(), before + 3, "no_cache duplicates each simulate");
}

#[test]
fn grid_requests_expand_server_side_and_share_the_store() {
    let dir = temp_dir("grid");
    let server = Server::new(opts(Some(dir.clone())), JobPool::new(2)).unwrap();
    let prog = l1_resident(120, 1);
    let mut wide = SimConfig::tiny();
    wide.core.rob_entries *= 2;
    let configs = vec![SimConfig::tiny(), wide];
    let variants = vec![Variant::Unsafe, Variant::SttLd];

    // One grid line; one Grid reply carrying configs × variants results
    // in config-major, variant-minor order — every point simulated.
    let grid = Request::Grid {
        id: 0,
        request: RunRequest::program(&prog),
        configs: configs.clone(),
        variants: variants.clone(),
        no_cache: false,
    };
    let replies = drive(&server, &batch(&[grid]));
    assert_eq!(replies.len(), 1, "a grid is one request, one reply");
    let Reply::Grid { id: 0, results } = &replies[0] else {
        panic!("expected a grid reply, got {:?}", replies[0]);
    };
    assert_eq!(results.len(), configs.len() * variants.len());
    assert!(results.iter().all(|(_, cached)| !cached), "cold grid simulates every point");
    assert_eq!(server.misses(), results.len() as u64);

    // Each expanded point carries the RunKey of the equivalent
    // individual request, so per-point runs are now pure store hits.
    let mut points: Vec<Request> = Vec::new();
    for &cfg in &configs {
        for &v in &variants {
            points.push(Request::Run {
                id: points.len() as u64,
                request: RunRequest::program(&prog).variant(v).config(cfg),
                no_cache: false,
            });
        }
    }
    let replies = drive(&server, &batch(&points));
    for ((grid_result, _), reply) in results.iter().zip(&replies) {
        let Reply::Result { cached: true, result, .. } = reply else {
            panic!("per-point rerun must hit the grid's store entry, got {reply:?}");
        };
        assert_eq!(result, grid_result, "store round-trip is byte-identical");
    }
    assert_eq!(server.hits(), points.len() as u64);

    // A pointless grid is a typed error, not a zero-length reply.
    let empty = Request::Grid {
        id: 9,
        request: RunRequest::program(&prog),
        configs: vec![],
        variants: variants.clone(),
        no_cache: false,
    };
    let replies = drive(&server, &batch(&[empty]));
    let Reply::Error { id: 9, message } = &replies[0] else {
        panic!("empty grid must be refused, got {:?}", replies[0]);
    };
    assert!(message.contains("no points"), "got '{message}'");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_grid_wider_than_a_round_gets_one_reply() {
    // A grid asks for at most a round's 256 runs. 2 configs × 150
    // variants is 300 points: an error under the grid's id before
    // anything simulates, and the next line is still answered.
    let server = Server::new(opts(None), JobPool::new(2)).unwrap();
    let prog = l1_resident(60, 1);
    let grid = |id, width| Request::Grid {
        id,
        request: RunRequest::program(&prog),
        configs: vec![SimConfig::tiny(), SimConfig::tiny()],
        variants: Variant::ALL.iter().copied().cycle().take(width).collect(),
        no_cache: false,
    };
    let replies = drive(&server, &batch(&[grid(5, 150), Request::Stats { id: 6 }]));
    assert_eq!(replies.len(), 2, "one reply per line");
    let Reply::Error { id: 5, message } = &replies[0] else {
        panic!("expected an error reply, got {:?}", replies[0]);
    };
    assert!(message.contains("300 points"), "{message}");
    assert!(matches!(replies[1], Reply::Stats { id: 6, misses: 0, .. }), "{:?}", replies[1]);
    assert_eq!(server.misses(), 0, "a refused grid simulates nothing");

    // 2 × 128 is a round's 256 points exactly: one grid reply.
    let replies = drive(&server, &batch(&[grid(7, 128)]));
    assert_eq!(replies.len(), 1, "a grid is one request, one reply");
    let Reply::Grid { id: 7, results } = &replies[0] else {
        panic!("expected a grid reply, got {:?}", replies[0]);
    };
    assert_eq!(results.len(), 256);
    // Equal points coalesce: one simulation per distinct variant.
    assert_eq!(server.misses(), Variant::ALL.len() as u64);
}

#[test]
fn a_batch_past_a_round_is_answered_in_full() {
    // 257 lines of one request: the first 256 are one round, which
    // simulates once, and the 257th opens a second round, which
    // simulates again on this storeless daemon.
    let server = Server::new(opts(None), JobPool::new(2)).unwrap();
    let prog = l1_resident(60, 1);
    let reqs: Vec<Request> = (0..257)
        .map(|i| Request::Run { id: i, request: RunRequest::program(&prog), no_cache: false })
        .collect();
    let replies = drive(&server, &batch(&reqs));
    assert_eq!(replies.len(), 257, "one reply per line");
    for (i, reply) in replies.iter().enumerate() {
        let Reply::Result { id, cached, .. } = reply else {
            panic!("line {i}: expected a result, got {reply:?}");
        };
        assert_eq!(*id, i as u64, "replies in line order");
        assert_eq!(*cached, i % 256 != 0, "line {i}: each round's first line simulates");
    }
    assert_eq!(server.misses(), 2);
}

/// A `run` line for a small kernel whose data image also holds one byte
/// on each of `pages` pages above the kernel's own data: a few bytes of
/// text per 4 KiB page.
fn run_line_with_pages(id: u64, pages: usize) -> String {
    let request = RunRequest::program(&l1_resident(60, 1));
    let line = Request::Run { id, request, no_cache: false }.render();
    let pairs: Vec<String> =
        (0..pages).map(|k| format!("[{},1]", (1u64 << 40) + 4096 * k as u64)).collect();
    let at = line.find("\"data\":[").expect("a run line carries data") + "\"data\":[".len();
    let sep = if line[at..].starts_with(']') { "" } else { "," };
    format!("{}{}{sep}{}\n", &line[..at], pairs.join(","), &line[at..])
}

#[test]
fn a_line_over_the_page_budget_is_an_error_and_the_batch_goes_on() {
    let server = Server::new(opts(None), JobPool::serial()).unwrap();
    // Data on as many pages as a whole round may hold is past what one
    // request may hold: refused while decoding, before its pages exist.
    let input = run_line_with_pages(1, BATCH_PAGES) + &run_line_with_pages(2, 3) + "\n";
    let replies = drive(&server, &input);
    assert_eq!(replies.len(), 2);
    match &replies[0] {
        Reply::Error { id, message } => {
            assert_eq!(*id, 1, "a run line whose id reads is answered under it");
            assert!(message.contains("a request may hold"), "{message}");
        }
        other => panic!("expected an error, got {other:?}"),
    }
    assert!(matches!(replies[1], Reply::Result { id: 2, .. }), "got {:?}", replies[1]);
}

#[test]
fn runs_past_the_round_page_budget_open_the_next_round() {
    let server = Server::new(opts(None), JobPool::serial()).unwrap();
    // Four of these fit in one round's page budget; the fifth does not.
    // All five are one request, so the first round simulates it once and
    // the fifth line's round simulates it again.
    let pages = BATCH_PAGES / 4 - 16;
    let input: String = (0..5).map(|id| run_line_with_pages(id, pages)).collect::<String>() + "\n";
    let replies = drive(&server, &input);
    assert_eq!(replies.len(), 5);
    for (id, reply) in replies.iter().enumerate() {
        let Reply::Result { id: i, cached, .. } = reply else {
            panic!("line {id}: expected a result, got {reply:?}");
        };
        assert_eq!(*i, id as u64, "replies in line order");
        assert_eq!(*cached, id % 4 != 0, "line {id}");
    }
    assert_eq!(server.misses(), 2);
}

#[test]
fn a_run_line_whose_program_fails_to_parse_keeps_its_id() {
    let server = Server::new(opts(None), JobPool::serial()).unwrap();
    let good = |id| {
        Request::Run { id, request: RunRequest::program(&l1_resident(60, 1)), no_cache: false }
            .render()
    };
    let bad = r#"{"op":"run","id":1,"request":{"programs":[{"name":"bad","asm":"frob r1","data":[]}],"prewarm":[],"variant":"unsafe","attack":"spectre","config":null,"seed":0,"record":false},"no_cache":false}"#;
    let replies = drive(&server, &format!("{}\n{bad}\n{}\n\n", good(0), good(2)));
    assert_eq!(replies.len(), 3, "one reply per line: {replies:?}");
    assert!(matches!(replies[0], Reply::Result { id: 0, .. }), "{:?}", replies[0]);
    let Reply::Error { id: 1, message } = &replies[1] else {
        panic!("the bad program's line must be an error under its id, got {:?}", replies[1]);
    };
    assert_eq!(message, "program 'bad': line 1:1: unknown mnemonic 'frob'");
    assert!(matches!(replies[2], Reply::Result { id: 2, .. }), "{:?}", replies[2]);
}

#[test]
fn a_stats_line_counts_the_lines_before_it() {
    let dir = temp_dir("stats-order");
    let server = Server::new(opts(Some(dir.clone())), JobPool::serial()).unwrap();
    let run = |id| Request::Run {
        id,
        request: RunRequest::program(&l1_resident(60, 1)),
        no_cache: false,
    };
    let replies = drive(&server, &batch(&[run(0), Request::Stats { id: 1 }, run(2)]));
    assert!(matches!(replies[0], Reply::Result { id: 0, cached: false, .. }), "{:?}", replies[0]);
    let Reply::Stats { id: 1, hits, misses, entries } = replies[1] else {
        panic!("expected stats, got {:?}", replies[1]);
    };
    assert_eq!((hits, misses, entries), (0, 1, 1), "the run before the stats line has run");
    // The run after it is a new round, served from the store.
    assert!(matches!(replies[2], Reply::Result { id: 2, cached: true, .. }), "{:?}", replies[2]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn faults_become_typed_errors_and_the_daemon_keeps_serving() {
    let server = Server::new(opts(None), JobPool::serial()).unwrap();
    let prog = l1_resident(200, 1);

    // Batch 1: a malformed line, an unservable request, and a hang.
    let mut hang_cfg = SimConfig::tiny();
    hang_cfg.max_cycles = 10;
    let multi = Request::Run {
        id: 7,
        request: RunRequest::multi(&[prog.clone(), prog.clone()]),
        no_cache: false,
    };
    let hang = Request::Run {
        id: 8,
        request: RunRequest::program(&prog).config(hang_cfg),
        no_cache: false,
    };
    let input = format!("{{\"op\":\"launch_missiles\"}}\n{}\n{}\n\n", multi.render(), hang.render());
    let replies = drive(&server, &input);
    assert_eq!(replies.len(), 3, "every line gets a reply, even the broken ones");
    let Reply::Error { id: BATCH_ERROR_ID, message } = &replies[0] else {
        panic!("malformed line must be a typed error, got {:?}", replies[0]);
    };
    assert!(message.contains("unknown op"), "got '{message}'");
    let Reply::Error { id: 7, message } = &replies[1] else {
        panic!("multi-core request must be rejected, got {:?}", replies[1]);
    };
    assert!(message.contains("not servable"), "got '{message}'");
    let Reply::Error { id: 8, message } = &replies[2] else {
        panic!("hang must be a typed error, got {:?}", replies[2]);
    };
    assert!(message.contains("did not halt"), "got '{message}'");

    // Batch 2: a hostile deeply-nested line must be a typed error too —
    // not a parser recursion blowing the daemon's stack.
    let hostile = format!("{}\n\n", "[".repeat(100_000));
    let replies = drive(&server, &hostile);
    let Reply::Error { id: BATCH_ERROR_ID, message } = &replies[0] else {
        panic!("deep nesting must be a typed error, got {:?}", replies[0]);
    };
    assert!(message.contains("nesting deeper"), "got '{message}'");

    // Batch 3: a run claiming the reserved error id is refused.
    let reserved =
        Request::Run { id: BATCH_ERROR_ID, request: RunRequest::program(&prog), no_cache: false };
    let replies = drive(&server, &batch(&[reserved]));
    let Reply::Error { id: BATCH_ERROR_ID, message } = &replies[0] else {
        panic!("reserved id must be refused, got {:?}", replies[0]);
    };
    assert!(message.contains("reserved"), "got '{message}'");

    // Batch 4: the daemon is still alive and well.
    let ok = Request::Run { id: 9, request: RunRequest::program(&prog), no_cache: false };
    let replies = drive(&server, &batch(&[ok]));
    assert!(matches!(replies[0], Reply::Result { id: 9, cached: false, .. }));
}

#[test]
fn shutdown_line_before_run_lines_keeps_reply_slots_aligned() {
    // Regression: shutdown lines get no reply, but they must still
    // occupy a slot internally — a batch of [shutdown, run, run] once
    // made the run replies index out of bounds (daemon panic) instead
    // of answering both runs.
    let server = Server::new(opts(None), JobPool::serial()).unwrap();
    let prog = l1_resident(60, 1);
    let msgs = [
        Request::Shutdown,
        Request::Run { id: 0, request: RunRequest::program(&prog), no_cache: false },
        Request::Run { id: 1, request: RunRequest::program(&prog), no_cache: false },
    ];
    let replies = drive(&server, &batch(&msgs));
    assert_eq!(replies.len(), 2, "both runs answered, shutdown silent");
    assert!(matches!(replies[0], Reply::Result { id: 0, .. }));
    assert!(matches!(replies[1], Reply::Result { id: 1, .. }));
    assert!(server.shutting_down());
}

#[test]
fn stats_and_campaign_requests_are_answered_inline() {
    let dir = temp_dir("stats");
    let server = Server::new(opts(Some(dir.clone())), JobPool::new(2)).unwrap();
    let prog = l1_resident(100, 1);
    let run = Request::Run { id: 0, request: RunRequest::program(&prog), no_cache: false };
    drive(&server, &batch(&[run]));

    let replies = drive(&server, &batch(&[Request::Stats { id: 1 }]));
    let Reply::Stats { id: 1, hits, misses, entries } = replies[0] else {
        panic!("expected stats, got {:?}", replies[0]);
    };
    assert_eq!((hits, misses, entries), (0, 1, 1));

    // The retired `campaign` op is an unknown op, answered in its slot,
    // and the `stats` line after it is still answered.
    let campaign = r#"{"op":"campaign","id":2,"seed":7,"quick":true,"fuzz":0}"#;
    let replies = drive(&server, &format!("{campaign}\n{}\n\n", Request::Stats { id: 3 }.render()));
    assert_eq!(replies.len(), 2, "one reply per line: {replies:?}");
    let Reply::Error { id: BATCH_ERROR_ID, message } = &replies[0] else {
        panic!("a campaign line must be a batch-level error, got {:?}", replies[0]);
    };
    assert_eq!(message, "unknown op 'campaign'");
    assert!(matches!(replies[1], Reply::Stats { id: 3, .. }), "{:?}", replies[1]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A batch with a line that is not UTF-8 between two `stats` lines.
const NON_UTF8_BATCH: &[u8] =
    b"{\"op\":\"stats\",\"id\":1}\n\xff\xfe\n{\"op\":\"stats\",\"id\":2}\n\n";

/// The replies to [`NON_UTF8_BATCH`]: both stats answered, and a
/// batch-level error in the middle slot.
fn assert_non_utf8_replies(out: &[u8]) {
    let replies: Vec<Reply> = std::str::from_utf8(out)
        .expect("replies are UTF-8")
        .lines()
        .map(|l| Reply::parse(l).expect("every reply line parses"))
        .collect();
    assert_eq!(replies.len(), 3, "one reply per line: {replies:?}");
    assert!(matches!(replies[0], Reply::Stats { id: 1, .. }), "{:?}", replies[0]);
    let Reply::Error { id: BATCH_ERROR_ID, message } = &replies[1] else {
        panic!("a non-UTF-8 line must be a batch-level error, got {:?}", replies[1]);
    };
    assert_eq!(message, "invalid UTF-8 at byte 0");
    assert!(matches!(replies[2], Reply::Stats { id: 2, .. }), "{:?}", replies[2]);
}

#[test]
fn a_line_that_is_not_utf8_is_answered_in_its_slot() {
    let server = Server::new(opts(None), JobPool::serial()).unwrap();
    let mut out = Vec::new();
    server.serve(Cursor::new(NON_UTF8_BATCH), &mut out).expect("the stream survives");
    assert_non_utf8_replies(&out);
}

#[test]
fn serve_binary_survives_a_line_that_is_not_utf8() {
    use std::io::Write;
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--jobs", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve binary starts");
    child.stdin.take().unwrap().write_all(NON_UTF8_BATCH).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "serve exited with {}", out.status);
    assert_non_utf8_replies(&out.stdout);
}

#[test]
fn shutdown_ends_the_stream_without_a_reply() {
    let server = Server::new(opts(None), JobPool::serial()).unwrap();
    let replies = drive(&server, &format!("{}\n\n", Request::Shutdown.render()));
    assert!(replies.is_empty(), "shutdown carries no id and gets no reply");
    assert!(server.shutting_down());
}

#[test]
fn socket_transport_serves_the_runner_client() {
    let dir = temp_dir("socket");
    let sock = format!("{}/sock", temp_dir("socket-path"));
    std::fs::create_dir_all(std::path::Path::new(&sock).parent().unwrap()).unwrap();
    let server = Server::new(opts(Some(dir.clone())), JobPool::new(2)).unwrap();

    std::thread::scope(|scope| {
        let server = &server;
        let sock_path = sock.clone();
        scope.spawn(move || server.serve_socket(&sock_path).expect("socket serve succeeds"));
        // Wait for the socket to appear.
        for _ in 0..200 {
            if std::path::Path::new(&sock).exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        let prog = l1_resident(120, 1);
        let reqs: Vec<RunRequest> =
            Variant::ALL.iter().map(|&v| RunRequest::program(&prog).variant(v)).collect();

        let client = Runner::server(SimConfig::tiny(), &sock);
        let remote = client.run_batch(&reqs, &JobPool::serial()).unwrap();
        assert_eq!(client.misses(), reqs.len() as u64);

        let local = Runner::local(SimConfig::tiny());
        let reference = local.run_batch(&reqs, &JobPool::serial()).unwrap();
        assert_eq!(remote, reference, "served results match in-process simulation");

        let warm_client = Runner::server(SimConfig::tiny(), &sock);
        let warm = warm_client.run_batch(&reqs, &JobPool::serial()).unwrap();
        assert_eq!(warm, reference);
        assert_eq!(warm_client.hits(), reqs.len() as u64);
        assert_eq!(warm_client.misses(), 0, "warm pass executed zero simulations");
        assert_eq!(
            warm_client.cache_report().unwrap(),
            format!("cache: {} hits, 0 misses (100.0% cached)", reqs.len())
        );

        // Regression: a client whose base config diverges from the
        // daemon's (the `--no-skip --server` case, plus a latency bump
        // that visibly changes cycle counts) must have ITS config
        // honored — the runner resolves the effective config
        // client-side before sending, so the daemon's own base never
        // silently wins.
        let mut div_cfg = SimConfig::tiny();
        div_cfg.fast_forward = false;
        div_cfg.core.lat.int_alu += 2;
        let div_client = Runner::server(div_cfg, &sock);
        let remote_div = div_client.run_batch(&reqs, &JobPool::serial()).unwrap();
        let local_div = Runner::local(div_cfg).run_batch(&reqs, &JobPool::serial()).unwrap();
        assert_eq!(remote_div, local_div, "client base config must be honored");
        assert_ne!(
            remote_div, reference,
            "divergent client config produced the daemon-base results — the \
             client's config was silently ignored"
        );
        assert!(
            remote_div.iter().all(|r| r.skipped_cycles == 0),
            "fast-forward was disabled by the client, yet the daemon skipped cycles"
        );

        // Shut the daemon down over the wire.
        use std::io::Write;
        let mut stream = std::os::unix::net::UnixStream::connect(&sock).unwrap();
        stream.write_all(format!("{}\n\n", Request::Shutdown.render()).as_bytes()).unwrap();
    });
    assert!(!std::path::Path::new(&sock).exists(), "socket file is removed on shutdown");
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(std::path::Path::new(&sock).parent().unwrap()).unwrap();
}

#[test]
fn sensitivity_sweep_through_the_daemon_is_byte_identical() {
    use sdo_harness::experiments::sensitivity;
    use sdo_workloads::Workload;

    let dir = temp_dir("grid-sweep");
    let sock = format!("{}/sock", temp_dir("grid-sweep-path"));
    std::fs::create_dir_all(std::path::Path::new(&sock).parent().unwrap()).unwrap();
    // Daemon base deliberately differs from the client's: the grid's
    // points carry explicit configs built from the CLIENT base, so the
    // daemon base must never leak into the sweep.
    let server = Server::new(
        ServeOptions { store: Some(dir.clone()), base: SimConfig::table_i() },
        JobPool::new(2),
    )
    .unwrap();

    std::thread::scope(|scope| {
        let server = &server;
        let sock_path = sock.clone();
        scope.spawn(move || server.serve_socket(&sock_path).expect("socket serve succeeds"));
        for _ in 0..200 {
            if std::path::Path::new(&sock).exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        let kernel = Workload::new("l1_resident", l1_resident(120, 1));
        let local = Runner::local(SimConfig::tiny());
        let (reference, ref_metrics) =
            sensitivity(&local, &kernel, &JobPool::serial()).unwrap();

        // The whole sweep rides ONE grid request line: every point
        // simulates daemon-side, and the rendered report is
        // byte-identical to the in-process one.
        let client = Runner::server(SimConfig::tiny(), &sock);
        let (remote, remote_metrics) =
            sensitivity(&client, &kernel, &JobPool::serial()).unwrap();
        assert_eq!(remote, reference, "daemon-served sensitivity report diverged");
        assert_eq!(remote_metrics.to_json(), ref_metrics.to_json());
        let points = client.hits() + client.misses();
        assert_eq!(server.misses(), points, "cold sweep simulated every grid point");
        assert!(points > 0);

        // A warm rerun is a pure cache pass: zero daemon simulations,
        // still byte-identical.
        let warm = Runner::server(SimConfig::tiny(), &sock);
        let (rewarm, _) = sensitivity(&warm, &kernel, &JobPool::serial()).unwrap();
        assert_eq!(rewarm, reference);
        assert_eq!(warm.misses(), 0, "warm sweep executed zero simulations");
        assert_eq!(warm.hits(), points);

        use std::io::Write;
        let mut stream = std::os::unix::net::UnixStream::connect(&sock).unwrap();
        stream.write_all(format!("{}\n\n", Request::Shutdown.render()).as_bytes()).unwrap();
    });
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(std::path::Path::new(&sock).parent().unwrap()).unwrap();
}

/// Run lines for `reqs`, ids in order.
fn run_lines(reqs: &[RunRequest]) -> String {
    let msgs: Vec<Request> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| Request::Run { id: i as u64, request: r.clone(), no_cache: false })
        .collect();
    batch(&msgs)
}

/// The `(result, cached)` pairs of an all-result reply stream.
fn results(replies: &[Reply]) -> Vec<(RunResult, bool)> {
    replies
        .iter()
        .map(|reply| match reply {
            Reply::Result { result, cached, .. } => (result.clone(), *cached),
            other => panic!("expected a result, got {other:?}"),
        })
        .collect()
}

#[test]
fn the_store_runner_and_the_daemon_coalesce_alike() {
    // `--store` and the daemon run batches through one executor: equal
    // keys in a batch simulate once and the duplicate is a hit.
    let prog = l1_resident(120, 1);
    let a = RunRequest::program(&prog);
    let b = RunRequest::program(&prog).variant(Variant::Hybrid);
    let reqs = [a.clone(), a, b];

    let runner_dir = temp_dir("coalesce-runner");
    let runner = Runner::with_store(SimConfig::tiny(), &runner_dir).unwrap();
    let local = runner.run_batch(&reqs, &JobPool::new(2)).unwrap();
    assert_eq!((runner.hits(), runner.misses()), (1, 2), "[a, a, b] simulates a and b once");
    assert_eq!(ResultStore::open(&runner_dir).unwrap().len().unwrap(), 2);

    let server_dir = temp_dir("coalesce-server");
    let server = Server::new(opts(Some(server_dir.clone())), JobPool::new(2)).unwrap();
    let served = results(&drive(&server, &run_lines(&reqs)));
    assert_eq!((server.hits(), server.misses()), (1, 2));
    assert_eq!(served.iter().map(|(_, cached)| *cached).collect::<Vec<_>>(), [false, true, false]);
    let served: Vec<RunResult> = served.into_iter().map(|(result, _)| result).collect();
    assert_eq!(served, local, "both front-ends return the same results");
    std::fs::remove_dir_all(&runner_dir).unwrap();
    std::fs::remove_dir_all(&server_dir).unwrap();
}

#[test]
fn a_translated_seqz_is_served_as_it_runs_locally() {
    // Compilers emit `sltiu rd, rs, 1` for `seqz`; the RV32 frontend
    // lowers it to an immediate `sltu`, whose disassembly the daemon
    // reads back from the run line.
    use sdo_rv32::{enc, lower::translate, Rv32Image};
    let text = vec![enc::addi(10, 0, 7), enc::sltiu(11, 10, 1), enc::ebreak()];
    let image = Rv32Image { entry: 0x1000, text_base: 0x1000, text, data: Vec::new() };
    let request = RunRequest::program(&translate(&image, "seqz").unwrap());
    let local = Simulator::new(SimConfig::tiny()).run(&request).unwrap().into_result();

    let dir = temp_dir("seqz");
    let server = Server::new(opts(Some(dir.clone())), JobPool::new(2)).unwrap();
    let line = run_lines(&[request]);
    assert_eq!(results(&drive(&server, &line)), [(local.clone(), false)]);
    assert_eq!(results(&drive(&server, &line)), [(local, true)], "the second pass is a hit");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_store_filled_by_either_front_end_serves_the_other() {
    let prog = l1_resident(120, 1);
    let reqs: Vec<RunRequest> =
        Variant::ALL.iter().map(|&v| RunRequest::program(&prog).variant(v)).collect();
    let bytes = |results: &[RunResult]| -> Vec<String> {
        results.iter().map(|r| result_to_json(r).render()).collect()
    };

    // Filled in-process, answered by the daemon: all hits, same bytes.
    let dir = temp_dir("fill-runner");
    let filled = Runner::with_store(SimConfig::tiny(), &dir)
        .unwrap()
        .run_batch(&reqs, &JobPool::new(2))
        .unwrap();
    let server = Server::new(opts(Some(dir.clone())), JobPool::new(2)).unwrap();
    let served = results(&drive(&server, &run_lines(&reqs)));
    assert!(served.iter().all(|(_, cached)| *cached), "every run line is a store hit");
    assert_eq!((server.hits(), server.misses()), (reqs.len() as u64, 0));
    let served: Vec<RunResult> = served.into_iter().map(|(result, _)| result).collect();
    assert_eq!(bytes(&served), bytes(&filled));
    std::fs::remove_dir_all(&dir).unwrap();

    // Filled by the daemon, answered in-process: all hits, same bytes.
    let dir = temp_dir("fill-server");
    let server = Server::new(opts(Some(dir.clone())), JobPool::new(2)).unwrap();
    let served: Vec<RunResult> =
        results(&drive(&server, &run_lines(&reqs))).into_iter().map(|(result, _)| result).collect();
    let runner = Runner::with_store(SimConfig::tiny(), &dir).unwrap();
    let local = runner.run_batch(&reqs, &JobPool::new(2)).unwrap();
    assert_eq!((runner.hits(), runner.misses()), (reqs.len() as u64, 0));
    assert_eq!(bytes(&local), bytes(&served));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn worker_panics_and_store_failures_are_typed_error_replies() {
    let prog = l1_resident(60, 1);
    let request = RunRequest::program(&prog);

    // A panicking simulation is answered in its slot; the daemon lives.
    let server = Server::new(opts(None), JobPool::new(2)).unwrap();
    let mut no_rob = SimConfig::tiny();
    no_rob.core.rob_entries = 0;
    let panicking =
        Request::Run { id: 3, request: request.clone().config(no_rob), no_cache: false };
    let ok = Request::Run { id: 4, request: request.clone(), no_cache: false };
    let replies = drive(&server, &batch(&[panicking, ok]));
    assert_eq!(
        replies[0].render(),
        r#"{"id":3,"error":"worker panicked: ROB capacity must be positive"}"#
    );
    assert!(matches!(replies[1], Reply::Result { id: 4, cached: false, .. }), "{:?}", replies[1]);

    // The request's store shard is a file: the lookup fails. A dangling
    // link: the lookup misses and the save fails.
    let key = RunKey::of(&request, SimConfig::tiny()).hex();
    for (tag, expected) in
        [("load", "result store: cannot read "), ("save", "result store: cannot create ")]
    {
        let dir = temp_dir(&format!("store-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        let shard = std::path::Path::new(&dir).join(&key[..2]);
        if tag == "load" {
            std::fs::write(&shard, "").unwrap();
        } else {
            std::os::unix::fs::symlink(std::path::Path::new(&dir).join("missing"), &shard).unwrap();
        }
        let server = Server::new(opts(Some(dir.clone())), JobPool::serial()).unwrap();
        let run = Request::Run { id: 5, request: request.clone(), no_cache: false };
        let replies = drive(&server, &batch(&[run]));
        let Reply::Error { id: 5, message } = &replies[0] else {
            panic!("a store failure must be a typed error, got {:?}", replies[0]);
        };
        assert!(message.starts_with(expected), "{message}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_grid_failing_at_its_first_point_leaves_later_replies_aligned() {
    let server = Server::new(opts(None), JobPool::serial()).unwrap();
    let prog = l1_resident(60, 1);
    let mut hang = SimConfig::tiny();
    hang.max_cycles = 10;
    let grid = Request::Grid {
        id: 1,
        request: RunRequest::program(&prog),
        configs: vec![hang, SimConfig::tiny()],
        variants: vec![Variant::Unsafe],
        no_cache: false,
    };
    let request = RunRequest::program(&prog).variant(Variant::Hybrid);
    let run = Request::Run { id: 2, request, no_cache: false };
    let replies = drive(&server, &batch(&[grid, run.clone()]));
    let Reply::Error { id: 1, message } = &replies[0] else {
        panic!("the grid's failing point fails it, got {:?}", replies[0]);
    };
    assert!(message.contains("did not halt"), "{message}");
    let Reply::Result { id: 2, result, .. } = &replies[1] else {
        panic!("the run after the grid gets its own result, got {:?}", replies[1]);
    };
    let alone = drive(&Server::new(opts(None), JobPool::serial()).unwrap(), &batch(&[run]));
    assert!(matches!(&alone[0], Reply::Result { result: r, .. } if r == result));
}

/// Spellings of a canonical `run` or `grid` line that decode to the same
/// message, the canonical line last: whitespace in and around the data
/// array, its pairs reversed with one written twice, the program's name
/// with a `\u` escape, and the data before the name.
fn spellings(line: &str) -> Vec<String> {
    let at = line.find("\"data\":[").expect("a run line carries data") + "\"data\":".len();
    let end = at + line[at..].find("}]").expect("the program object ends");
    let (head, data, tail) = (&line[..at - "\"data\":".len()], &line[at..end], &line[end..]);
    let pairs = sdo_harness::proto::parse_json(data).unwrap();
    let sdo_harness::proto::Json::Arr(mut pairs) = pairs else { panic!("data is an array") };
    assert!(pairs.len() > 2, "the program writes data");
    // A newline would end the line on the wire: spaces and tabs only.
    let spaced = data.replace("],[", "] ,\t [").replace(",", ", ");
    pairs.reverse();
    pairs.push(pairs[1].clone());
    let shuffled = sdo_harness::proto::Json::Arr(pairs).render();
    let name_at = head.find("\"name\":\"").unwrap() + "\"name\":\"".len();
    let escaped =
        format!("{}\\u{:04x}{}", &line[..name_at], line.as_bytes()[name_at], &line[name_at + 1..]);
    let program_at = head.rfind("[{").unwrap() + 2;
    let data_first = format!(
        "{}\"data\":{data},{}{tail}",
        &head[..program_at],
        &head[program_at..head.len() - 1]
    );
    vec![
        format!("{head}\"data\": {spaced} {tail}"),
        format!("{head}\"data\":{shuffled}{tail}"),
        escaped,
        data_first,
        line.to_string(),
    ]
}

/// The replies to `line` alone, and `cached` flags, from `server`.
fn answer(server: &Server, line: &str) -> Vec<Reply> {
    drive(server, &format!("{line}\n\n"))
}

#[test]
fn non_canonical_spellings_answer_as_a_fresh_daemon_does() {
    // One long-lived daemon, whose table holds the program after the
    // first spelling, and a fresh daemon per line, on stores that see
    // the same keys in the same order: every reply, cached flag and
    // store entry must agree.
    let base = SimConfig::tiny();
    let prog = sdo_workloads::kernels::stream(64, 1, 3);
    let run = Request::Run { id: 1, request: RunRequest::program(&prog), no_cache: false };
    let grid = Request::Grid {
        id: 2,
        request: RunRequest::program(&prog).seed(5),
        configs: vec![SimConfig::tiny(), SimConfig::table_i()],
        variants: vec![Variant::Unsafe, Variant::Hybrid],
        no_cache: false,
    };
    let (lived_dir, fresh_dir) = (temp_dir("spell-lived"), temp_dir("spell-fresh"));
    let lived = Server::new(opts(Some(lived_dir.clone())), JobPool::new(2)).unwrap();
    for message in [&run, &grid] {
        let lines = spellings(&message.render());
        for (k, line) in lines.iter().enumerate() {
            assert_eq!(Request::parse(line).unwrap(), *message, "spelling {k} decodes alike");
            let fresh = Server::new(opts(Some(fresh_dir.clone())), JobPool::new(2)).unwrap();
            let want = answer(&fresh, line);
            assert_eq!(answer(&lived, line), want, "spelling {k}");
            let cached = match &want[..] {
                [Reply::Result { cached, .. }] => vec![*cached],
                [Reply::Grid { results, .. }] => results.iter().map(|(_, c)| *c).collect(),
                other => panic!("spelling {k}: {other:?}"),
            };
            assert!(cached.iter().all(|&c| c == (k > 0)), "spelling {k}: cached {cached:?}");
        }
    }
    // Both stores hold every run and grid point under its `RunKey::of`.
    let points: Vec<RunRequest> = match &grid {
        Request::Grid { request, configs, variants, .. } => {
            sdo_harness::runner::expand_grid(request, configs, variants)
        }
        _ => unreachable!(),
    };
    let Request::Run { request, .. } = &run else { unreachable!() };
    let local = Runner::local(base);
    for point in points.iter().chain([request]) {
        let want = local.run_one(point).unwrap();
        for dir in [&lived_dir, &fresh_dir] {
            let stored = ResultStore::open(dir.as_str()).unwrap().load(&RunKey::of(point, base));
            assert_eq!(stored.unwrap(), Some(want.clone()));
        }
    }
    std::fs::remove_dir_all(&lived_dir).unwrap();
    std::fs::remove_dir_all(&fresh_dir).unwrap();
}

#[test]
fn a_daemon_past_its_program_table_budget_answers_as_a_fresh_one() {
    // Seven programs of about 1,000 pages each, named apart, are charged
    // more than the table's 4,096 pages, so the long-lived daemon drops
    // the least recently used ones; the first three come back afterwards.
    let lived = Server::new(opts(None), JobPool::serial()).unwrap();
    let lines: Vec<String> = (0..7)
        .map(|k| {
            let line = run_line_with_pages(k, 990 + k as usize);
            line.replacen("\"name\":\"l1_resident\"", &format!("\"name\":\"l1_resident {k}\""), 1)
        })
        .collect();
    assert!(lines.iter().all(|line| line.contains("l1_resident ")), "each line is renamed");
    for (k, line) in lines.iter().chain(&lines[..3]).enumerate() {
        let line = line.trim_end();
        let fresh = Server::new(opts(None), JobPool::serial()).unwrap();
        let want = answer(&fresh, line);
        assert!(matches!(want[..], [Reply::Result { .. }]), "line {k}: {want:?}");
        assert_eq!(answer(&lived, line), want, "line {k}");
    }
}
