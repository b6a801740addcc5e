//! The `sdo-serve` wire protocol: line-delimited JSON requests and
//! replies, plus the canonical codecs for [`RunRequest`], [`SimConfig`]
//! and [`RunResult`] (DESIGN.md §13).
//!
//! The grammar is deliberately tiny: every message is one JSON object on
//! one line; a blank line terminates a batch. The daemon executes the
//! batch across its warm [`JobPool`](crate::engine::JobPool) and writes
//! one reply line per request, in request order. All numbers on the wire
//! are unsigned integers — the simulator's statistics are exact counters
//! and must survive the round trip bit-for-bit (floats would silently
//! round above 2^53, so the parser rejects them).
//!
//! The [`SimConfig`] codec destructures every configuration struct
//! exhaustively (no `..` patterns): adding a field to any of them without
//! teaching the codec — and therefore the [`RunKey`](crate::store::RunKey)
//! — is a compile error. That is the schema-drift half of the
//! cache-soundness argument.

use crate::config::{SimConfig, Variant};
use crate::sim::{RunRequest, RunResult};
use sdo_uarch::json::obj;
// The JSON value and parser are the workspace's one codec,
// `sdo_obs::json`, reached through `sdo-uarch`'s re-exports.
pub use sdo_uarch::json::{parse_json, Json};

/// The reserved reply id for lines too malformed to carry one. Request
/// ids are client-chosen starting from 0, so a plain 0 would collide
/// with the first request of every `Runner` batch; `u64::MAX` cannot be
/// a legal request id (the daemon refuses `run` requests that claim it)
/// and clients treat an `error` reply carrying it as batch-level.
pub const BATCH_ERROR_ID: u64 = u64::MAX;
use sdo_isa::Program;
use sdo_mem::{
    CacheLevel, CacheParams, DramParams, MemConfig, MemStats, TlbParams,
};
use sdo_uarch::{
    AttackModel, CoreConfig, CoreStats, FuPool, Latencies, OblStats, ObsConfig, SquashCounts,
};

// ---------------------------------------------------------------------------
// SimConfig codec
// ---------------------------------------------------------------------------

/// Encodes a [`SimConfig`] canonically. The rendering of this value is
/// the configuration's contribution to the
/// [`RunKey`](crate::store::RunKey): one representation for transport
/// and hashing, so a served run and a hashed run can never disagree
/// about what configuration they describe.
#[must_use]
pub fn config_to_json(cfg: &SimConfig) -> Json {
    // Exhaustive destructuring, no `..`: adding a field anywhere in the
    // configuration tree breaks this function until the codec (and the
    // RunKey) learn about it.
    let SimConfig { core, mem, max_cycles, obs, fast_forward } = *cfg;
    let CoreConfig {
        width,
        rob_entries,
        lq_entries,
        sq_entries,
        iq_entries,
        phys_int_regs,
        phys_fp_regs,
        frontend_latency,
        fus,
        lat,
        btb_entries,
        ras_entries,
    } = core;
    let FuPool { int_alu, int_muldiv, fp, mem_ports } = fus;
    let Latencies {
        int_alu: lat_int_alu,
        int_mul,
        int_div,
        fp_add,
        fp_mul,
        fp_div,
        fp_sqrt,
        fp_subnormal_penalty,
    } = lat;
    let MemConfig {
        l1i,
        l1,
        l2,
        l3,
        dram,
        tlb,
        mesh_cols,
        mesh_rows,
        hop_latency,
        bank_occupancy,
    } = mem;
    let DramParams { banks: dram_banks, row_bytes, row_hit_latency, row_miss_latency } = dram;
    let TlbParams { entries: tlb_entries, page_bytes, hit_latency, walk_latency } = tlb;
    let ObsConfig { occupancy, trace_capacity } = obs;
    obj(vec![
        (
            "core",
            obj(vec![
                ("width", Json::UInt(width as u64)),
                ("rob_entries", Json::UInt(rob_entries as u64)),
                ("lq_entries", Json::UInt(lq_entries as u64)),
                ("sq_entries", Json::UInt(sq_entries as u64)),
                ("iq_entries", Json::UInt(iq_entries as u64)),
                ("phys_int_regs", Json::UInt(phys_int_regs as u64)),
                ("phys_fp_regs", Json::UInt(phys_fp_regs as u64)),
                ("frontend_latency", Json::UInt(frontend_latency)),
                (
                    "fus",
                    obj(vec![
                        ("int_alu", Json::UInt(u64::from(int_alu))),
                        ("int_muldiv", Json::UInt(u64::from(int_muldiv))),
                        ("fp", Json::UInt(u64::from(fp))),
                        ("mem_ports", Json::UInt(u64::from(mem_ports))),
                    ]),
                ),
                (
                    "lat",
                    obj(vec![
                        ("int_alu", Json::UInt(lat_int_alu)),
                        ("int_mul", Json::UInt(int_mul)),
                        ("int_div", Json::UInt(int_div)),
                        ("fp_add", Json::UInt(fp_add)),
                        ("fp_mul", Json::UInt(fp_mul)),
                        ("fp_div", Json::UInt(fp_div)),
                        ("fp_sqrt", Json::UInt(fp_sqrt)),
                        ("fp_subnormal_penalty", Json::UInt(fp_subnormal_penalty)),
                    ]),
                ),
                ("btb_entries", Json::UInt(btb_entries as u64)),
                ("ras_entries", Json::UInt(ras_entries as u64)),
            ]),
        ),
        (
            "mem",
            obj(vec![
                ("l1i", cache_params_to_json(&l1i)),
                ("l1", cache_params_to_json(&l1)),
                ("l2", cache_params_to_json(&l2)),
                ("l3", cache_params_to_json(&l3)),
                (
                    "dram",
                    obj(vec![
                        ("banks", Json::UInt(u64::from(dram_banks))),
                        ("row_bytes", Json::UInt(row_bytes)),
                        ("row_hit_latency", Json::UInt(row_hit_latency)),
                        ("row_miss_latency", Json::UInt(row_miss_latency)),
                    ]),
                ),
                (
                    "tlb",
                    obj(vec![
                        ("entries", Json::UInt(u64::from(tlb_entries))),
                        ("page_bytes", Json::UInt(page_bytes)),
                        ("hit_latency", Json::UInt(hit_latency)),
                        ("walk_latency", Json::UInt(walk_latency)),
                    ]),
                ),
                ("mesh_cols", Json::UInt(u64::from(mesh_cols))),
                ("mesh_rows", Json::UInt(u64::from(mesh_rows))),
                ("hop_latency", Json::UInt(hop_latency)),
                ("bank_occupancy", Json::UInt(bank_occupancy)),
            ]),
        ),
        ("max_cycles", Json::UInt(max_cycles)),
        (
            "obs",
            obj(vec![
                ("occupancy", Json::Bool(occupancy)),
                ("trace_capacity", Json::UInt(trace_capacity as u64)),
            ]),
        ),
        ("fast_forward", Json::Bool(fast_forward)),
    ])
}

fn cache_params_to_json(p: &CacheParams) -> Json {
    let CacheParams { size_bytes, ways, latency, banks, mshrs } = *p;
    obj(vec![
        ("size_bytes", Json::UInt(size_bytes)),
        ("ways", Json::UInt(u64::from(ways))),
        ("latency", Json::UInt(latency)),
        ("banks", Json::UInt(u64::from(banks))),
        ("mshrs", Json::UInt(u64::from(mshrs))),
    ])
}

/// Decodes a [`SimConfig`] from [`config_to_json`]'s representation.
///
/// # Errors
///
/// Returns a message naming the first missing or mistyped field.
pub fn config_from_json(v: &Json) -> Result<SimConfig, String> {
    let core = v.obj_field("core")?;
    let fus = core.obj_field("fus")?;
    let lat = core.obj_field("lat")?;
    let mem = v.obj_field("mem")?;
    let dram = mem.obj_field("dram")?;
    let tlb = mem.obj_field("tlb")?;
    let obs = v.obj_field("obs")?;
    let as_u32 = |n: u64, what: &str| -> Result<u32, String> {
        u32::try_from(n).map_err(|_| format!("field '{what}' out of range"))
    };
    Ok(SimConfig {
        core: CoreConfig {
            width: core.u64_field("width")? as usize,
            rob_entries: core.u64_field("rob_entries")? as usize,
            lq_entries: core.u64_field("lq_entries")? as usize,
            sq_entries: core.u64_field("sq_entries")? as usize,
            iq_entries: core.u64_field("iq_entries")? as usize,
            phys_int_regs: core.u64_field("phys_int_regs")? as usize,
            phys_fp_regs: core.u64_field("phys_fp_regs")? as usize,
            frontend_latency: core.u64_field("frontend_latency")?,
            fus: FuPool {
                int_alu: as_u32(fus.u64_field("int_alu")?, "fus.int_alu")?,
                int_muldiv: as_u32(fus.u64_field("int_muldiv")?, "fus.int_muldiv")?,
                fp: as_u32(fus.u64_field("fp")?, "fus.fp")?,
                mem_ports: as_u32(fus.u64_field("mem_ports")?, "fus.mem_ports")?,
            },
            lat: Latencies {
                int_alu: lat.u64_field("int_alu")?,
                int_mul: lat.u64_field("int_mul")?,
                int_div: lat.u64_field("int_div")?,
                fp_add: lat.u64_field("fp_add")?,
                fp_mul: lat.u64_field("fp_mul")?,
                fp_div: lat.u64_field("fp_div")?,
                fp_sqrt: lat.u64_field("fp_sqrt")?,
                fp_subnormal_penalty: lat.u64_field("fp_subnormal_penalty")?,
            },
            btb_entries: core.u64_field("btb_entries")? as usize,
            ras_entries: core.u64_field("ras_entries")? as usize,
        },
        mem: MemConfig {
            l1i: cache_params_from_json(mem.obj_field("l1i")?)?,
            l1: cache_params_from_json(mem.obj_field("l1")?)?,
            l2: cache_params_from_json(mem.obj_field("l2")?)?,
            l3: cache_params_from_json(mem.obj_field("l3")?)?,
            dram: DramParams {
                banks: as_u32(dram.u64_field("banks")?, "dram.banks")?,
                row_bytes: dram.u64_field("row_bytes")?,
                row_hit_latency: dram.u64_field("row_hit_latency")?,
                row_miss_latency: dram.u64_field("row_miss_latency")?,
            },
            tlb: TlbParams {
                entries: as_u32(tlb.u64_field("entries")?, "tlb.entries")?,
                page_bytes: tlb.u64_field("page_bytes")?,
                hit_latency: tlb.u64_field("hit_latency")?,
                walk_latency: tlb.u64_field("walk_latency")?,
            },
            mesh_cols: as_u32(mem.u64_field("mesh_cols")?, "mesh_cols")?,
            mesh_rows: as_u32(mem.u64_field("mesh_rows")?, "mesh_rows")?,
            hop_latency: mem.u64_field("hop_latency")?,
            bank_occupancy: mem.u64_field("bank_occupancy")?,
        },
        max_cycles: v.u64_field("max_cycles")?,
        obs: ObsConfig {
            occupancy: obs.bool_field("occupancy")?,
            trace_capacity: obs.u64_field("trace_capacity")? as usize,
        },
        fast_forward: v.bool_field("fast_forward")?,
    })
}

fn cache_params_from_json(v: &Json) -> Result<CacheParams, String> {
    Ok(CacheParams {
        size_bytes: v.u64_field("size_bytes")?,
        ways: u32::try_from(v.u64_field("ways")?).map_err(|_| "ways out of range".to_string())?,
        latency: v.u64_field("latency")?,
        banks: u32::try_from(v.u64_field("banks")?)
            .map_err(|_| "banks out of range".to_string())?,
        mshrs: u32::try_from(v.u64_field("mshrs")?)
            .map_err(|_| "mshrs out of range".to_string())?,
    })
}

// ---------------------------------------------------------------------------
// Enum codecs
// ---------------------------------------------------------------------------

/// Decodes a variant from its [`Variant::slug`].
///
/// # Errors
///
/// Returns a message for an unknown slug.
pub fn variant_from_slug(slug: &str) -> Result<Variant, String> {
    Variant::ALL
        .into_iter()
        .find(|v| v.slug() == slug)
        .ok_or_else(|| format!("unknown variant slug '{slug}'"))
}

/// The attack model's wire name (`spectre` / `futuristic`).
#[must_use]
pub fn attack_slug(attack: AttackModel) -> &'static str {
    match attack {
        AttackModel::Spectre => "spectre",
        AttackModel::Futuristic => "futuristic",
    }
}

/// Decodes an attack model from [`attack_slug`]'s form.
///
/// # Errors
///
/// Returns a message for an unknown slug.
pub fn attack_from_slug(slug: &str) -> Result<AttackModel, String> {
    match slug {
        "spectre" => Ok(AttackModel::Spectre),
        "futuristic" => Ok(AttackModel::Futuristic),
        other => Err(format!("unknown attack slug '{other}'")),
    }
}

/// The cache level's wire name (`l1`/`l2`/`l3`/`dram`).
#[must_use]
pub fn level_slug(level: CacheLevel) -> &'static str {
    match level {
        CacheLevel::L1 => "l1",
        CacheLevel::L2 => "l2",
        CacheLevel::L3 => "l3",
        CacheLevel::Dram => "dram",
    }
}

/// Decodes a cache level from [`level_slug`]'s form.
///
/// # Errors
///
/// Returns a message for an unknown slug.
pub fn level_from_slug(slug: &str) -> Result<CacheLevel, String> {
    match slug {
        "l1" => Ok(CacheLevel::L1),
        "l2" => Ok(CacheLevel::L2),
        "l3" => Ok(CacheLevel::L3),
        "dram" => Ok(CacheLevel::Dram),
        other => Err(format!("unknown cache level slug '{other}'")),
    }
}

// ---------------------------------------------------------------------------
// Program + RunRequest codec
// ---------------------------------------------------------------------------

/// Encodes a program as its name, disassembly text and sparse data
/// image. The round trip through [`sdo_isa::parse_asm`] is
/// instruction-identical (pinned by `crates/workloads/tests/roundtrip.rs`),
/// so this *is* the program's canonical byte representation.
#[must_use]
pub fn program_to_json(program: &Program) -> Json {
    let data: Vec<Json> = program
        .data()
        .iter()
        .map(|(addr, byte)| Json::Arr(vec![Json::UInt(addr), Json::UInt(u64::from(byte))]))
        .collect();
    obj(vec![
        ("name", Json::Str(program.name().to_string())),
        ("asm", Json::Str(program.disassemble())),
        ("data", Json::Arr(data)),
    ])
}

/// Decodes a program from [`program_to_json`]'s representation.
///
/// # Errors
///
/// Returns a message on a missing field or an assembly parse failure.
pub fn program_from_json(v: &Json) -> Result<Program, String> {
    let name = v.str_field("name")?;
    let asm = v.str_field("asm")?;
    let mut program =
        sdo_isa::parse_asm(asm).map_err(|e| format!("program '{name}': {e}"))?;
    program.set_name(name);
    let pairs = v.arr_field("data")?;
    // The assembly's own bytes, then the listed writes in order: built
    // into one image in one pass, the image `set_byte` would leave.
    let mut writes = Vec::with_capacity(program.data().len() + pairs.len());
    writes.extend(program.data().iter());
    for pair in pairs {
        match pair {
            Json::Arr(items) if items.len() == 2 => {
                match (&items[0], &items[1]) {
                    (Json::UInt(addr), Json::UInt(byte)) if *byte <= 0xff => {
                        writes.push((*addr, *byte as u8));
                    }
                    _ => return Err("data pair is not [addr, byte]".to_string()),
                }
            }
            _ => return Err("data entry is not a two-element array".to_string()),
        }
    }
    *program.data_mut() = writes.into_iter().collect();
    Ok(program)
}

/// Encodes a [`RunRequest`] canonically (transport *and*
/// [`RunKey`](crate::store::RunKey) representation).
#[must_use]
pub fn request_to_json(req: &RunRequest) -> Json {
    request_to_json_with_config(req, req.config.as_ref())
}

/// [`request_to_json`] with `config` encoded in place of the request's
/// own `config` field: the [`RunKey`](crate::store::RunKey) hashes the
/// effective configuration this way without cloning the request.
pub(crate) fn request_to_json_with_config(req: &RunRequest, config: Option<&SimConfig>) -> Json {
    // Exhaustive: a new RunRequest field must be added here (and thus to
    // the RunKey) before this compiles again.
    let RunRequest { programs, prewarm, variant, attack, config: _, seed, record } = req;
    let programs_json: Vec<Json> = programs.iter().map(program_to_json).collect();
    let prewarm_json: Vec<Json> = prewarm
        .iter()
        .map(|&(start, bytes, level)| {
            Json::Arr(vec![
                Json::UInt(start),
                Json::UInt(bytes),
                Json::Str(level_slug(level).to_string()),
            ])
        })
        .collect();
    obj(vec![
        ("programs", Json::Arr(programs_json)),
        ("prewarm", Json::Arr(prewarm_json)),
        ("variant", Json::Str(variant.slug().to_string())),
        ("attack", Json::Str(attack_slug(*attack).to_string())),
        (
            "config",
            match config {
                Some(cfg) => config_to_json(cfg),
                None => Json::Null,
            },
        ),
        ("seed", Json::UInt(*seed)),
        ("record", Json::Bool(*record)),
    ])
}

/// Decodes a [`RunRequest`] from [`request_to_json`]'s representation.
///
/// # Errors
///
/// Returns a message on the first malformed field.
pub fn request_from_json(v: &Json) -> Result<RunRequest, String> {
    let programs: Vec<Program> =
        v.arr_field("programs")?.iter().map(program_from_json).collect::<Result<_, _>>()?;
    if programs.is_empty() {
        return Err("request has no programs".to_string());
    }
    let mut prewarm = Vec::new();
    for entry in v.arr_field("prewarm")? {
        match entry {
            Json::Arr(items) if items.len() == 3 => match (&items[0], &items[1], &items[2]) {
                (Json::UInt(start), Json::UInt(bytes), Json::Str(level)) => {
                    prewarm.push((*start, *bytes, level_from_slug(level)?));
                }
                _ => return Err("prewarm entry is not [start, bytes, level]".to_string()),
            },
            _ => return Err("prewarm entry is not a three-element array".to_string()),
        }
    }
    let config = match v.get("config") {
        Some(Json::Null) | None => None,
        Some(cfg) => Some(config_from_json(cfg)?),
    };
    Ok(RunRequest {
        programs,
        prewarm,
        variant: variant_from_slug(v.str_field("variant")?)?,
        attack: attack_from_slug(v.str_field("attack")?)?,
        config,
        seed: v.u64_field("seed")?,
        record: v.bool_field("record")?,
    })
}

// ---------------------------------------------------------------------------
// RunResult codec
// ---------------------------------------------------------------------------

/// Encodes a [`RunResult`]. The observability probe is never carried on
/// the wire or in the store: cacheable/servable requests run with
/// observability off (results are byte-identical either way — the probe
/// is a pure observer), and obs-carrying callers (the verifier's
/// `Checker`) execute locally.
#[must_use]
pub fn result_to_json(r: &RunResult) -> Json {
    let RunResult { workload, variant, attack, cycles, core, mem, obs: _, skipped_cycles } = r;
    let CoreStats {
        cycles: core_cycles,
        committed,
        committed_loads,
        committed_stores,
        fetched,
        squashed_insts,
        squashes,
        branches,
        mispredicts,
        delayed_loads,
        delay_cycles,
        fp_sdo_issued,
        delayed_fp,
        obl,
    } = *core;
    let SquashCounts { branch, obl_fail, validation, consistency, fp_fail } = squashes;
    let OblStats {
        issued,
        mshr_retries,
        success,
        fail,
        dram_predictions,
        sq_forwarded,
        predictions,
        precise,
        accurate,
        imprecision_cycles,
        validation_stall_cycles,
        validations: obl_validations,
        exposures: obl_exposures,
        tlb_probe_fails,
    } = obl;
    let MemStats {
        icache_hits,
        icache_misses,
        l1_hits,
        l1_misses,
        l2_hits,
        l2_misses,
        l3_hits,
        l3_misses,
        remote_hits,
        dram_row_hits,
        dram_row_misses,
        obl_lookups,
        obl_level_hits,
        obl_all_miss,
        obl_mshr_rejects,
        validations,
        validation_mismatches,
        exposures,
        stores,
        invalidations_sent,
        tlb_hits,
        tlb_misses,
        tlb_probe_hits,
        tlb_probe_misses,
    } = *mem;
    obj(vec![
        ("workload", Json::Str(workload.clone())),
        ("variant", Json::Str(variant.slug().to_string())),
        ("attack", Json::Str(attack_slug(*attack).to_string())),
        ("cycles", Json::UInt(*cycles)),
        (
            "core",
            obj(vec![
                ("cycles", Json::UInt(core_cycles)),
                ("committed", Json::UInt(committed)),
                ("committed_loads", Json::UInt(committed_loads)),
                ("committed_stores", Json::UInt(committed_stores)),
                ("fetched", Json::UInt(fetched)),
                ("squashed_insts", Json::UInt(squashed_insts)),
                (
                    "squashes",
                    obj(vec![
                        ("branch", Json::UInt(branch)),
                        ("obl_fail", Json::UInt(obl_fail)),
                        ("validation", Json::UInt(validation)),
                        ("consistency", Json::UInt(consistency)),
                        ("fp_fail", Json::UInt(fp_fail)),
                    ]),
                ),
                ("branches", Json::UInt(branches)),
                ("mispredicts", Json::UInt(mispredicts)),
                ("delayed_loads", Json::UInt(delayed_loads)),
                ("delay_cycles", Json::UInt(delay_cycles)),
                ("fp_sdo_issued", Json::UInt(fp_sdo_issued)),
                ("delayed_fp", Json::UInt(delayed_fp)),
                (
                    "obl",
                    obj(vec![
                        ("issued", Json::UInt(issued)),
                        ("mshr_retries", Json::UInt(mshr_retries)),
                        ("success", Json::UInt(success)),
                        ("fail", Json::UInt(fail)),
                        ("dram_predictions", Json::UInt(dram_predictions)),
                        ("sq_forwarded", Json::UInt(sq_forwarded)),
                        ("predictions", Json::UInt(predictions)),
                        ("precise", Json::UInt(precise)),
                        ("accurate", Json::UInt(accurate)),
                        ("imprecision_cycles", Json::UInt(imprecision_cycles)),
                        ("validation_stall_cycles", Json::UInt(validation_stall_cycles)),
                        ("validations", Json::UInt(obl_validations)),
                        ("exposures", Json::UInt(obl_exposures)),
                        ("tlb_probe_fails", Json::UInt(tlb_probe_fails)),
                    ]),
                ),
            ]),
        ),
        (
            "mem",
            obj(vec![
                ("icache_hits", Json::UInt(icache_hits)),
                ("icache_misses", Json::UInt(icache_misses)),
                ("l1_hits", Json::UInt(l1_hits)),
                ("l1_misses", Json::UInt(l1_misses)),
                ("l2_hits", Json::UInt(l2_hits)),
                ("l2_misses", Json::UInt(l2_misses)),
                ("l3_hits", Json::UInt(l3_hits)),
                ("l3_misses", Json::UInt(l3_misses)),
                ("remote_hits", Json::UInt(remote_hits)),
                ("dram_row_hits", Json::UInt(dram_row_hits)),
                ("dram_row_misses", Json::UInt(dram_row_misses)),
                ("obl_lookups", Json::UInt(obl_lookups)),
                (
                    "obl_level_hits",
                    Json::Arr(obl_level_hits.iter().map(|&n| Json::UInt(n)).collect()),
                ),
                ("obl_all_miss", Json::UInt(obl_all_miss)),
                ("obl_mshr_rejects", Json::UInt(obl_mshr_rejects)),
                ("validations", Json::UInt(validations)),
                ("validation_mismatches", Json::UInt(validation_mismatches)),
                ("exposures", Json::UInt(exposures)),
                ("stores", Json::UInt(stores)),
                ("invalidations_sent", Json::UInt(invalidations_sent)),
                ("tlb_hits", Json::UInt(tlb_hits)),
                ("tlb_misses", Json::UInt(tlb_misses)),
                ("tlb_probe_hits", Json::UInt(tlb_probe_hits)),
                ("tlb_probe_misses", Json::UInt(tlb_probe_misses)),
            ]),
        ),
        ("skipped_cycles", Json::UInt(*skipped_cycles)),
    ])
}

/// Decodes a [`RunResult`] from [`result_to_json`]'s representation
/// (`obs` is always `None`).
///
/// # Errors
///
/// Returns a message on the first malformed field.
pub fn result_from_json(v: &Json) -> Result<RunResult, String> {
    let core = v.obj_field("core")?;
    let squashes = core.obj_field("squashes")?;
    let obl = core.obj_field("obl")?;
    let mem = v.obj_field("mem")?;
    let level_hits = mem.arr_field("obl_level_hits")?;
    if level_hits.len() != 3 {
        return Err("obl_level_hits must have 3 entries".to_string());
    }
    let mut obl_level_hits = [0u64; 3];
    for (slot, item) in obl_level_hits.iter_mut().zip(level_hits) {
        match item {
            Json::UInt(n) => *slot = *n,
            _ => return Err("obl_level_hits entry is not an integer".to_string()),
        }
    }
    Ok(RunResult {
        workload: v.str_field("workload")?.to_string(),
        variant: variant_from_slug(v.str_field("variant")?)?,
        attack: attack_from_slug(v.str_field("attack")?)?,
        cycles: v.u64_field("cycles")?,
        core: CoreStats {
            cycles: core.u64_field("cycles")?,
            committed: core.u64_field("committed")?,
            committed_loads: core.u64_field("committed_loads")?,
            committed_stores: core.u64_field("committed_stores")?,
            fetched: core.u64_field("fetched")?,
            squashed_insts: core.u64_field("squashed_insts")?,
            squashes: SquashCounts {
                branch: squashes.u64_field("branch")?,
                obl_fail: squashes.u64_field("obl_fail")?,
                validation: squashes.u64_field("validation")?,
                consistency: squashes.u64_field("consistency")?,
                fp_fail: squashes.u64_field("fp_fail")?,
            },
            branches: core.u64_field("branches")?,
            mispredicts: core.u64_field("mispredicts")?,
            delayed_loads: core.u64_field("delayed_loads")?,
            delay_cycles: core.u64_field("delay_cycles")?,
            fp_sdo_issued: core.u64_field("fp_sdo_issued")?,
            delayed_fp: core.u64_field("delayed_fp")?,
            obl: OblStats {
                issued: obl.u64_field("issued")?,
                mshr_retries: obl.u64_field("mshr_retries")?,
                success: obl.u64_field("success")?,
                fail: obl.u64_field("fail")?,
                dram_predictions: obl.u64_field("dram_predictions")?,
                sq_forwarded: obl.u64_field("sq_forwarded")?,
                predictions: obl.u64_field("predictions")?,
                precise: obl.u64_field("precise")?,
                accurate: obl.u64_field("accurate")?,
                imprecision_cycles: obl.u64_field("imprecision_cycles")?,
                validation_stall_cycles: obl.u64_field("validation_stall_cycles")?,
                validations: obl.u64_field("validations")?,
                exposures: obl.u64_field("exposures")?,
                tlb_probe_fails: obl.u64_field("tlb_probe_fails")?,
            },
        },
        mem: MemStats {
            icache_hits: mem.u64_field("icache_hits")?,
            icache_misses: mem.u64_field("icache_misses")?,
            l1_hits: mem.u64_field("l1_hits")?,
            l1_misses: mem.u64_field("l1_misses")?,
            l2_hits: mem.u64_field("l2_hits")?,
            l2_misses: mem.u64_field("l2_misses")?,
            l3_hits: mem.u64_field("l3_hits")?,
            l3_misses: mem.u64_field("l3_misses")?,
            remote_hits: mem.u64_field("remote_hits")?,
            dram_row_hits: mem.u64_field("dram_row_hits")?,
            dram_row_misses: mem.u64_field("dram_row_misses")?,
            obl_lookups: mem.u64_field("obl_lookups")?,
            obl_level_hits,
            obl_all_miss: mem.u64_field("obl_all_miss")?,
            obl_mshr_rejects: mem.u64_field("obl_mshr_rejects")?,
            validations: mem.u64_field("validations")?,
            validation_mismatches: mem.u64_field("validation_mismatches")?,
            exposures: mem.u64_field("exposures")?,
            stores: mem.u64_field("stores")?,
            invalidations_sent: mem.u64_field("invalidations_sent")?,
            tlb_hits: mem.u64_field("tlb_hits")?,
            tlb_misses: mem.u64_field("tlb_misses")?,
            tlb_probe_hits: mem.u64_field("tlb_probe_hits")?,
            tlb_probe_misses: mem.u64_field("tlb_probe_misses")?,
        },
        obs: None,
        skipped_cycles: v.u64_field("skipped_cycles")?,
    })
}

// ---------------------------------------------------------------------------
// Wire messages
// ---------------------------------------------------------------------------

/// A client → daemon message (one JSON object per line; a blank line
/// ends a batch).
// Run batches are overwhelmingly the large variant, so boxing the
// request would buy nothing and cost an allocation per message.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute (or serve from the store) one simulation.
    Run {
        /// Client-chosen id echoed in the reply.
        id: u64,
        /// The simulation to run.
        request: RunRequest,
        /// Skip the store for this request (always simulate).
        no_cache: bool,
    },
    /// Execute a sensitivity-style grid: one template request expanded
    /// server-side into `configs.len() × variants.len()` runs
    /// (config-major, variant-minor). Each expanded point carries the
    /// same [`RunKey`](crate::store::RunKey) as the equivalent
    /// individual `run` request, so grids and per-point runs share the
    /// store.
    Grid {
        /// Client-chosen id echoed in the reply.
        id: u64,
        /// The template: program, prewarm, attack and seed. Its
        /// `variant`/`config` fields are overwritten per point.
        request: RunRequest,
        /// The sweep's configuration points (outer loop).
        configs: Vec<SimConfig>,
        /// The variants simulated at each point (inner loop).
        variants: Vec<Variant>,
        /// Skip the store for every expanded run (always simulate).
        no_cache: bool,
    },
    /// Report daemon statistics (hits, misses, store entries).
    Stats {
        /// Client-chosen id echoed in the reply.
        id: u64,
    },
    /// Run a verification campaign on the daemon's warm pool.
    Campaign {
        /// Client-chosen id echoed in the reply.
        id: u64,
        /// Campaign seed.
        seed: u64,
        /// Quick (CI-sized) campaign rather than the full one.
        quick: bool,
        /// Extra fuzz cases on top of the corpus.
        fuzz: u64,
    },
    /// Stop the daemon after replying to the current batch.
    Shutdown,
}

impl Request {
    /// Renders the message as one JSON line (no trailing newline).
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            Request::Run { id, request, no_cache } => obj(vec![
                ("op", Json::Str("run".to_string())),
                ("id", Json::UInt(*id)),
                ("request", request_to_json(request)),
                ("no_cache", Json::Bool(*no_cache)),
            ]),
            Request::Grid { id, request, configs, variants, no_cache } => obj(vec![
                ("op", Json::Str("grid".to_string())),
                ("id", Json::UInt(*id)),
                ("request", request_to_json(request)),
                ("configs", Json::Arr(configs.iter().map(config_to_json).collect())),
                (
                    "variants",
                    Json::Arr(
                        variants.iter().map(|v| Json::Str(v.slug().to_string())).collect(),
                    ),
                ),
                ("no_cache", Json::Bool(*no_cache)),
            ]),
            Request::Stats { id } => obj(vec![
                ("op", Json::Str("stats".to_string())),
                ("id", Json::UInt(*id)),
            ]),
            Request::Campaign { id, seed, quick, fuzz } => obj(vec![
                ("op", Json::Str("campaign".to_string())),
                ("id", Json::UInt(*id)),
                ("seed", Json::UInt(*seed)),
                ("quick", Json::Bool(*quick)),
                ("fuzz", Json::UInt(*fuzz)),
            ]),
            Request::Shutdown => obj(vec![("op", Json::Str("shutdown".to_string()))]),
        }
        .render()
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON or an unknown `op` — the
    /// daemon turns this into a typed `error` reply rather than dying.
    pub fn parse(text: &str) -> Result<Request, String> {
        let v = parse_json(text)?;
        match v.str_field("op")? {
            "run" => Ok(Request::Run {
                id: v.u64_field("id")?,
                request: request_from_json(v.obj_field("request")?)?,
                no_cache: match v.get("no_cache") {
                    Some(Json::Bool(b)) => *b,
                    None => false,
                    Some(_) => return Err("field 'no_cache' is not a bool".to_string()),
                },
            }),
            "grid" => {
                let configs = v
                    .arr_field("configs")?
                    .iter()
                    .map(config_from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                let mut variants = Vec::new();
                for item in v.arr_field("variants")? {
                    match item {
                        Json::Str(slug) => variants.push(variant_from_slug(slug)?),
                        _ => return Err("variants entry is not a string".to_string()),
                    }
                }
                Ok(Request::Grid {
                    id: v.u64_field("id")?,
                    request: request_from_json(v.obj_field("request")?)?,
                    configs,
                    variants,
                    no_cache: match v.get("no_cache") {
                        Some(Json::Bool(b)) => *b,
                        None => false,
                        Some(_) => return Err("field 'no_cache' is not a bool".to_string()),
                    },
                })
            }
            "stats" => Ok(Request::Stats { id: v.u64_field("id")? }),
            "campaign" => Ok(Request::Campaign {
                id: v.u64_field("id")?,
                seed: v.u64_field("seed")?,
                quick: v.bool_field("quick")?,
                fuzz: v.u64_field("fuzz")?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op '{other}'")),
        }
    }
}

/// A daemon → client message (one JSON object per line).
// Reply streams to a run batch are overwhelmingly the large variant;
// see the note on [`Request`].
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A completed simulation.
    Result {
        /// Echoed request id.
        id: u64,
        /// The run's result.
        result: RunResult,
        /// Whether the result came from the content-addressed store.
        cached: bool,
    },
    /// A completed grid: one result per expanded point, in the grid's
    /// canonical (config-major, variant-minor) order, each with its own
    /// cached flag.
    Grid {
        /// Echoed request id.
        id: u64,
        /// `(result, cached)` per expanded point, in expansion order.
        results: Vec<(RunResult, bool)>,
    },
    /// A typed error: malformed request, hang, store failure or an
    /// in-flight panic. The daemon keeps serving after sending one.
    Error {
        /// Echoed request id ([`BATCH_ERROR_ID`] when the line was too
        /// malformed to carry one — clients treat that as batch-level).
        id: u64,
        /// Human-readable cause.
        message: String,
    },
    /// Back-pressure: the batch exceeded the daemon's queue bound; the
    /// client must resubmit this request in a later batch.
    Busy {
        /// Echoed request id.
        id: u64,
    },
    /// Daemon statistics.
    Stats {
        /// Echoed request id.
        id: u64,
        /// Requests served from the store since startup.
        hits: u64,
        /// Requests actually simulated since startup.
        misses: u64,
        /// Entries currently in the store.
        entries: u64,
    },
    /// A completed verification campaign.
    Campaign {
        /// Echoed request id.
        id: u64,
        /// Whether every check passed.
        passed: bool,
        /// Number of checks executed.
        checks: u64,
        /// The campaign's rendered summary.
        render: String,
    },
}

impl Reply {
    /// Renders the message as one JSON line (no trailing newline).
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            Reply::Result { id, result, cached } => obj(vec![
                ("id", Json::UInt(*id)),
                ("result", result_to_json(result)),
                ("cached", Json::Bool(*cached)),
            ]),
            Reply::Grid { id, results } => obj(vec![
                ("id", Json::UInt(*id)),
                (
                    "grid",
                    Json::Arr(
                        results
                            .iter()
                            .map(|(r, cached)| {
                                obj(vec![
                                    ("result", result_to_json(r)),
                                    ("cached", Json::Bool(*cached)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Reply::Error { id, message } => obj(vec![
                ("id", Json::UInt(*id)),
                ("error", Json::Str(message.clone())),
            ]),
            Reply::Busy { id } => {
                obj(vec![("id", Json::UInt(*id)), ("busy", Json::Bool(true))])
            }
            Reply::Stats { id, hits, misses, entries } => obj(vec![
                ("id", Json::UInt(*id)),
                (
                    "stats",
                    obj(vec![
                        ("hits", Json::UInt(*hits)),
                        ("misses", Json::UInt(*misses)),
                        ("entries", Json::UInt(*entries)),
                    ]),
                ),
            ]),
            Reply::Campaign { id, passed, checks, render } => obj(vec![
                ("id", Json::UInt(*id)),
                (
                    "campaign",
                    obj(vec![
                        ("passed", Json::Bool(*passed)),
                        ("checks", Json::UInt(*checks)),
                        ("render", Json::Str(render.clone())),
                    ]),
                ),
            ]),
        }
        .render()
    }

    /// Parses one reply line.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON or an unrecognized shape.
    pub fn parse(text: &str) -> Result<Reply, String> {
        let v = parse_json(text)?;
        let id = v.u64_field("id")?;
        if let Some(Json::Str(message)) = v.get("error") {
            return Ok(Reply::Error { id, message: message.clone() });
        }
        if let Some(Json::Bool(true)) = v.get("busy") {
            return Ok(Reply::Busy { id });
        }
        if let Some(stats) = v.get("stats") {
            return Ok(Reply::Stats {
                id,
                hits: stats.u64_field("hits")?,
                misses: stats.u64_field("misses")?,
                entries: stats.u64_field("entries")?,
            });
        }
        if let Some(campaign) = v.get("campaign") {
            return Ok(Reply::Campaign {
                id,
                passed: campaign.bool_field("passed")?,
                checks: campaign.u64_field("checks")?,
                render: campaign.str_field("render")?.to_string(),
            });
        }
        if let Some(grid) = v.get("grid") {
            let Json::Arr(points) = grid else {
                return Err("grid must be an array".to_string());
            };
            let mut results = Vec::with_capacity(points.len());
            for point in points {
                results.push((
                    result_from_json(
                        point.get("result").ok_or_else(|| "grid point lacks result".to_string())?,
                    )?,
                    point.bool_field("cached")?,
                ));
            }
            return Ok(Reply::Grid { id, results });
        }
        if let Some(result) = v.get("result") {
            return Ok(Reply::Result {
                id,
                result: result_from_json(result)?,
                cached: v.bool_field("cached")?,
            });
        }
        Err("reply carries none of result/error/busy/stats/campaign/grid".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use sdo_workloads::kernels::l1_resident;
    use sdo_workloads::suite;

    #[test]
    fn data_images_decode_exactly_as_byte_writes_in_order() {
        // Zero writes, repeated addresses (last write wins, a final zero
        // removes), out-of-order addresses, on an empty image and on one
        // the assembly already filled.
        let writes = [(0x12, 7), (0x11, 0), (0x20, 3), (0x12, 9), (0x20, 0), (0x10, 0), (0x05, 1)];
        let data = writes.iter().map(|&(a, b)| format!("[{a},{b}]")).collect::<Vec<_>>().join(",");
        for asm in ["halt", ".byte 0x10 5 6\n.byte 0x20 4\nhalt"] {
            let asm_json = Json::Str(asm.to_string()).render();
            let json = format!("{{\"name\":\"t\",\"asm\":{asm_json},\"data\":[{data}]}}");
            let decoded = program_from_json(&parse_json(&json).unwrap()).unwrap();
            let mut expected = sdo_isa::parse_asm(asm).unwrap().data().clone();
            for &(addr, byte) in &writes {
                expected.set_byte(addr, byte);
            }
            assert_eq!(decoded.data(), &expected, "asm {asm:?}");
        }
    }

    #[test]
    fn config_codec_round_trips_table_i_and_tiny() {
        for cfg in [SimConfig::table_i(), SimConfig::tiny()] {
            let encoded = config_to_json(&cfg).render();
            let decoded = config_from_json(&parse_json(&encoded).unwrap()).unwrap();
            assert_eq!(decoded, cfg);
        }
    }

    #[test]
    fn program_codec_round_trips_the_suite() {
        for w in suite() {
            let encoded = program_to_json(w.program()).render();
            let decoded = program_from_json(&parse_json(&encoded).unwrap()).unwrap();
            assert_eq!(decoded.name(), w.program().name());
            assert_eq!(decoded.instructions(), w.program().instructions());
            let orig: Vec<(u64, u8)> = w.program().data().iter().collect();
            let back: Vec<(u64, u8)> = decoded.data().iter().collect();
            assert_eq!(orig, back);
        }
    }

    #[test]
    fn request_codec_round_trips() {
        let w = &suite()[0];
        let req = RunRequest::workload(w)
            .variant(Variant::Hybrid)
            .attack(AttackModel::Futuristic)
            .config(SimConfig::tiny())
            .seed(7);
        let encoded = request_to_json(&req).render();
        let decoded = request_from_json(&parse_json(&encoded).unwrap()).unwrap();
        assert_eq!(decoded.variant, req.variant);
        assert_eq!(decoded.attack, req.attack);
        assert_eq!(decoded.config, req.config);
        assert_eq!(decoded.seed, req.seed);
        assert_eq!(decoded.record, req.record);
        assert_eq!(decoded.prewarm, req.prewarm);
        assert_eq!(decoded.programs[0].instructions(), req.programs[0].instructions());
    }

    #[test]
    fn result_codec_round_trips_a_real_run() {
        let prog = l1_resident(200, 1);
        let sim = Simulator::new(SimConfig::tiny());
        let r = sim
            .run(&RunRequest::program(&prog).variant(Variant::Hybrid))
            .unwrap()
            .into_result();
        let encoded = result_to_json(&r).render();
        let decoded = result_from_json(&parse_json(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, r, "every stats field must survive the wire");
    }

    #[test]
    fn wire_messages_round_trip() {
        let prog = l1_resident(50, 1);
        let run = Request::Run {
            id: 3,
            request: RunRequest::program(&prog).variant(Variant::SttLd),
            no_cache: true,
        };
        assert_eq!(Request::parse(&run.render()).unwrap(), run);
        let stats = Request::Stats { id: 9 };
        assert_eq!(Request::parse(&stats.render()).unwrap(), stats);
        let campaign = Request::Campaign { id: 1, seed: 0, quick: true, fuzz: 4 };
        assert_eq!(Request::parse(&campaign.render()).unwrap(), campaign);
        let grid = Request::Grid {
            id: 8,
            request: RunRequest::program(&prog),
            configs: vec![SimConfig::tiny(), SimConfig::table_i()],
            variants: vec![Variant::Unsafe, Variant::SttLd],
            no_cache: true,
        };
        assert_eq!(Request::parse(&grid.render()).unwrap(), grid);
        assert_eq!(Request::parse(&Request::Shutdown.render()).unwrap(), Request::Shutdown);

        let sim = Simulator::new(SimConfig::tiny());
        let result = sim.run(&RunRequest::program(&prog)).unwrap().into_result();
        for reply in [
            Reply::Grid { id: 8, results: vec![(result.clone(), false), (result.clone(), true)] },
            Reply::Result { id: 3, result, cached: true },
            Reply::Error { id: 4, message: "boom \"quoted\"".to_string() },
            Reply::Busy { id: 5 },
            Reply::Stats { id: 6, hits: 1, misses: 2, entries: 3 },
            Reply::Campaign { id: 7, passed: false, checks: 12, render: "line1\nline2".to_string() },
        ] {
            assert_eq!(Reply::parse(&reply.render()).unwrap(), reply);
        }
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{\"op\":\"launch_missiles\"}").unwrap_err().contains("unknown op"));
        assert!(Request::parse("{\"op\":\"run\",\"id\":1}").unwrap_err().contains("request"));
    }
}
