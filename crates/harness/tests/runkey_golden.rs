//! Golden tests for the content-addressed store key.
//!
//! [`RunKey`] identity is what makes memoization sound: two requests map
//! to the same key exactly when the simulator is guaranteed (by
//! determinism) to produce byte-identical results for them. These tests
//! pin the keys of two fixed requests to literal digests — so any change
//! to the canonical encoding is a *visible* decision that invalidates
//! stores, not a silent one — and walk representative knobs at every
//! config layer proving each one lands in the key.

use sdo_harness::proto::Request;
use sdo_harness::store::{sha256, RunKey};
use sdo_harness::{JobPool, Runner, RunRequest, SimConfig, Variant};
use sdo_mem::CacheLevel;
use sdo_uarch::AttackModel;
use sdo_workloads::kernels::{self, l1_resident};

fn fixed_request() -> (sdo_isa::Program, SimConfig) {
    (l1_resident(120, 1), SimConfig::table_i())
}

/// The pinned digest of `fixed_request()` under `sdo-runkey-v1`. If this
/// test fails, the canonical request encoding changed: bump the domain
/// tag in `store.rs`, re-pin this literal, and note in DESIGN.md §13
/// that existing stores are invalidated.
#[test]
fn runkey_digest_is_pinned() {
    let (prog, base) = fixed_request();
    let req = RunRequest::program(&prog).variant(Variant::Hybrid).seed(7);
    assert_eq!(
        RunKey::of(&req, base).hex(),
        "a6da69c55830cf6ba25b5bfc842f136fdc7e5238c57caf22a61acdd9bd6cd635",
    );
}

/// A large-image request as a `Runner` client sends it: a 64 KiB
/// `hash_lookup` table warmed into L3, the config resolved client-side.
/// Its wire line is 344 KB, mostly a dense data image, so it exercises
/// the codec paths the small `fixed_request()` barely touches.
fn large_image_request() -> RunRequest {
    RunRequest::program(&kernels::hash_lookup(8192, 100, 1))
        .warmed(0x80_0000, 64 << 10, CacheLevel::L3)
        .variant(Variant::Hybrid)
        .config(SimConfig::table_i())
}

/// The large-image request's key and the SHA-256 of its rendered wire
/// line, both pinned: the codec's fast paths must produce exactly the
/// bytes the straightforward encoder did.
#[test]
fn large_image_runkey_and_wire_bytes_are_pinned() {
    let req = large_image_request();
    assert_eq!(
        RunKey::of(&req, SimConfig::table_i()).hex(),
        "0683030f7110dd5f17c872eda276c5a1a0b0b12cebf858e1a73a7f381205ace8",
    );
    let line = Request::Run { id: 0, request: req, no_cache: false }.render();
    assert_eq!(line.len(), 344_429);
    assert_eq!(
        hex(&sha256(line.as_bytes())),
        "8cca8fb0698df7ebcc7e4bfbf1acf6679b880a932c447ab5126d067488c3a2a5",
    );
    // Decoding and re-encoding reproduces the line byte for byte.
    assert_eq!(Request::parse(&line).unwrap().render(), line);
}

fn hex(bytes: &[u8; 32]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn runkey_is_a_pure_function_of_the_request() {
    let (prog, base) = fixed_request();
    let req = RunRequest::program(&prog).variant(Variant::Hybrid).seed(7);
    let again = RunRequest::program(&prog).variant(Variant::Hybrid).seed(7);
    assert_eq!(RunKey::of(&req, base), RunKey::of(&again, base));
    assert_eq!(RunKey::of(&req, base).hex(), RunKey::of(&req, base).hex());
}

/// A request-level config override that equals the base resolves to the
/// same key as no override at all: the key hashes the *effective*
/// config, so clients can't fragment the store by spelling defaults out.
#[test]
fn runkey_hashes_the_effective_config() {
    let (prog, base) = fixed_request();
    let implicit = RunRequest::program(&prog).variant(Variant::Hybrid);
    let explicit = RunRequest::program(&prog).variant(Variant::Hybrid).config(base);
    assert_eq!(RunKey::of(&implicit, base), RunKey::of(&explicit, base));
    // ...and an override that *differs* from the base diverges.
    assert_ne!(RunKey::of(&implicit, base), RunKey::of(&implicit, SimConfig::tiny()));
}

/// Every layer of the machine description reaches the key. One
/// representative knob per subsystem: pipeline, latencies, L1 geometry,
/// DRAM, TLB, cycle budget, observability, fast-forward, mesh shape.
#[test]
fn runkey_diverges_on_every_config_layer() {
    let (prog, base) = fixed_request();
    let req = RunRequest::program(&prog).variant(Variant::Hybrid).seed(7);
    let key = RunKey::of(&req, base);

    let knobs: Vec<(&str, SimConfig)> = vec![
        ("core.width", {
            let mut c = base;
            c.core.width += 1;
            c
        }),
        ("core.rob_entries", {
            let mut c = base;
            c.core.rob_entries += 16;
            c
        }),
        ("core.lat.fp_mul", {
            let mut c = base;
            c.core.lat.fp_mul += 1;
            c
        }),
        ("mem.l1.size_bytes", {
            let mut c = base;
            c.mem.l1.size_bytes *= 2;
            c
        }),
        ("mem.l1.latency", {
            let mut c = base;
            c.mem.l1.latency += 1;
            c
        }),
        ("mem.mesh_cols", {
            let mut c = base;
            c.mem.mesh_cols += 1;
            c
        }),
        ("mem.dram.banks", {
            let mut c = base;
            c.mem.dram.banks += 1;
            c
        }),
        ("mem.tlb.entries", {
            let mut c = base;
            c.mem.tlb.entries *= 2;
            c
        }),
        ("max_cycles", {
            let mut c = base;
            c.max_cycles += 1;
            c
        }),
        ("obs.occupancy", {
            let mut c = base;
            c.obs.occupancy = true;
            c
        }),
        ("fast_forward", {
            let mut c = base;
            c.fast_forward = false;
            c
        }),
    ];
    for (name, cfg) in knobs {
        assert_ne!(
            RunKey::of(&req.clone().config(cfg), base),
            key,
            "changing {name} must change the key"
        );
    }
}

/// Request-level knobs (everything outside the machine config) also
/// reach the key.
#[test]
fn runkey_diverges_on_every_request_knob() {
    let (prog, base) = fixed_request();
    let req = RunRequest::program(&prog).variant(Variant::Hybrid).seed(7);
    let key = RunKey::of(&req, base);

    let other_prog = l1_resident(121, 1);
    let variants = [
        ("variant", RunRequest::program(&prog).variant(Variant::Unsafe).seed(7)),
        (
            "attack",
            RunRequest::program(&prog)
                .variant(Variant::Hybrid)
                .attack(AttackModel::Futuristic)
                .seed(7),
        ),
        ("seed", RunRequest::program(&prog).variant(Variant::Hybrid).seed(8)),
        ("program", RunRequest::program(&other_prog).variant(Variant::Hybrid).seed(7)),
    ];
    for (name, other) in variants {
        assert_ne!(RunKey::of(&other, base), key, "changing {name} must change the key");
    }
}

/// The cache-semantics contract end to end, at suite granularity: a
/// warm-store rerun of a fig6-shaped suite is served entirely from the
/// store (zero simulations) and the exported CSV is byte-identical.
#[test]
fn warm_store_rerun_is_all_hits_and_byte_identical() {
    let dir = std::env::temp_dir()
        .join(format!("sdo-runkey-warm-{}", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let _ = std::fs::remove_dir_all(&dir);
    let suite = &kernels::suite()[..2];
    let pool = JobPool::new(2);

    let cold = Runner::with_store(SimConfig::tiny(), &dir).unwrap();
    let cold_results = sdo_harness::experiments::run_suite_on(&cold, suite, &pool).unwrap();
    let cold_csv = sdo_harness::export::fig6_csv(&cold_results);
    assert_eq!(cold.hits(), 0);
    assert_eq!(cold.misses(), cold_results.sims());

    let warm = Runner::with_store(SimConfig::tiny(), &dir).unwrap();
    let warm_results = sdo_harness::experiments::run_suite_on(&warm, suite, &pool).unwrap();
    let warm_csv = sdo_harness::export::fig6_csv(&warm_results);
    assert_eq!(warm.misses(), 0, "warm rerun must execute zero simulations");
    assert_eq!(warm.hits(), cold_results.sims());
    assert_eq!(warm_csv, cold_csv, "warm-store CSV is byte-identical");
    assert_eq!(
        warm.cache_report().unwrap(),
        format!("cache: {} hits, 0 misses (100.0% cached)", warm.hits())
    );

    // --no-cache re-simulates everything (counted as misses, refreshing
    // the store) but still matches, because the simulator is
    // deterministic.
    let bypass = Runner::with_store(SimConfig::tiny(), &dir).unwrap().no_cache(true);
    let bypass_results = sdo_harness::experiments::run_suite_on(&bypass, suite, &pool).unwrap();
    assert_eq!((bypass.hits(), bypass.misses()), (0, cold_results.sims()));
    assert_eq!(sdo_harness::export::fig6_csv(&bypass_results), cold_csv);
    std::fs::remove_dir_all(&dir).unwrap();
}
