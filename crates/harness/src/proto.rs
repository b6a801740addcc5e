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
use crate::intern::ProgramTable;
use crate::sim::{RunRequest, RunResult};
use sdo_uarch::json::{digit_pair, obj, put_u64, write_json_string, Reader, U64_DIGITS};
use std::fmt;
// The JSON value and parser are the workspace's one codec,
// `sdo_obs::json`, reached through `sdo-uarch`'s re-exports.
pub use sdo_uarch::json::{parse_json, Json};

/// The reserved reply id for lines too malformed to carry one. Request
/// ids are client-chosen starting from 0, so a plain 0 would collide
/// with the first request of every `Runner` batch; `u64::MAX` cannot be
/// a legal request id (the daemon refuses `run` requests that claim it)
/// and clients treat an `error` reply carrying it as batch-level.
pub const BATCH_ERROR_ID: u64 = u64::MAX;
use sdo_isa::{DataImage, Program, MAX_PARSED_PAGES, PAGE_BYTES, PAGE_SHIFT};
use sdo_mem::{
    CacheLevel, CacheParams, DramParams, MemConfig, MemStats, TlbParams,
};
use sdo_uarch::{
    AttackModel, CoreConfig, CoreStats, FuPool, Latencies, OblStats, ObsConfig, PredictorKind,
    SdoConfig, SquashCounts,
};

/// The most data-image pages (64 MiB) the run requests of one round of
/// a daemon's batch may hold between them; a request that would take
/// the round past it opens the next round. One request holds at most
/// [`MAX_PARSED_PAGES`], so a round's first request always fits.
pub const BATCH_PAGES: usize = 4 * MAX_PARSED_PAGES;

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
    AttackModel::ALL
        .into_iter()
        .find(|&a| attack_slug(a) == slug)
        .ok_or_else(|| format!("unknown attack slug '{slug}'"))
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
    CacheLevel::ALL
        .into_iter()
        .find(|&level| level_slug(level) == slug)
        .ok_or_else(|| format!("unknown cache level slug '{slug}'"))
}

/// The location predictor's wire name: `static_` and a [`level_slug`],
/// or `greedy`/`loop`/`hybrid`/`pattern`/`perfect`.
fn predictor_slug(kind: PredictorKind) -> String {
    match kind {
        PredictorKind::Static(level) => format!("static_{}", level_slug(level)),
        PredictorKind::Greedy => "greedy".to_string(),
        PredictorKind::Loop => "loop".to_string(),
        PredictorKind::Hybrid => "hybrid".to_string(),
        PredictorKind::Pattern => "pattern".to_string(),
        PredictorKind::Perfect => "perfect".to_string(),
    }
}

/// Decodes a location predictor from [`predictor_slug`]'s form.
fn predictor_from_slug(slug: &str) -> Result<PredictorKind, String> {
    use PredictorKind::{Greedy, Hybrid, Loop, Pattern, Perfect, Static};
    [Greedy, Loop, Hybrid, Pattern, Perfect]
        .into_iter()
        .chain(CacheLevel::ALL.map(Static))
        .find(|&kind| predictor_slug(kind) == slug)
        .ok_or_else(|| format!("unknown predictor slug '{slug}'"))
}

/// Encodes a request's SDO override.
fn sdo_to_json(sdo: &SdoConfig) -> Json {
    // Exhaustive, as `config_to_json` is: a new knob must reach the key.
    let SdoConfig { predictor, early_forward, allow_dram_prediction } = *sdo;
    obj(vec![
        ("predictor", Json::Str(predictor_slug(predictor))),
        ("early_forward", Json::Bool(early_forward)),
        ("allow_dram_prediction", Json::Bool(allow_dram_prediction)),
    ])
}

/// Decodes [`sdo_to_json`]'s representation.
fn sdo_from_json(v: &Json) -> Result<SdoConfig, String> {
    Ok(SdoConfig {
        predictor: predictor_from_slug(v.str_field("predictor")?)?,
        early_forward: v.bool_field("early_forward")?,
        allow_dram_prediction: v.bool_field("allow_dram_prediction")?,
    })
}

// ---------------------------------------------------------------------------
// RunRequest codec
// ---------------------------------------------------------------------------
//
// The request is the one message that carries program images (up to a
// few MB of `[addr, byte]` pairs), so it is written and read in one
// pass, never as a `Json` tree: `write_request` streams each image
// straight from its `Program` into any `fmt::Write` sink — the wire
// line, the RunKey's hash, or the daemon's comparison of a line with a
// program it already holds — and `read_request` decodes each `data`
// array pair by pair. Every other field is written and read as a small
// `Json` value, decoded by the typed decoders above.

/// Writes the canonical encoding of `req`, with `config` and `sdo`
/// encoded in place of the request's own fields of those names. These
/// bytes are both the wire form and what the
/// [`RunKey`](crate::store::RunKey) hashes (with the effective
/// configuration and SDO override, substituted here without cloning the
/// request): [`write_request_head`], then [`write_request_tail`].
fn write_request<W: fmt::Write>(
    req: &RunRequest,
    config: Option<&SimConfig>,
    sdo: Option<&SdoConfig>,
    out: &mut W,
) -> fmt::Result {
    write_request_head(req.programs.first(), out)?;
    write_request_tail(req, config, sdo, out)
}

/// Writes the head of a request's encoding that only its first program
/// decides: `{"programs":[` and that program.
pub(crate) fn write_request_head<W: fmt::Write>(
    first: Option<&Program>,
    out: &mut W,
) -> fmt::Result {
    out.write_str("{\"programs\":[")?;
    first.map_or(Ok(()), |program| write_program(program, out))
}

/// Writes the rest of a request's encoding after
/// [`write_request_head`]: the later programs, then every other field.
/// An SDO override is written last, and only when `sdo` is set, so a
/// request without one encodes as it did before the field existed.
pub(crate) fn write_request_tail<W: fmt::Write>(
    req: &RunRequest,
    config: Option<&SimConfig>,
    sdo: Option<&SdoConfig>,
    out: &mut W,
) -> fmt::Result {
    // Exhaustive: a new RunRequest field must be added here (and thus to
    // the RunKey) before this compiles again.
    let RunRequest { programs, prewarm, variant, attack, config: _, sdo: _, seed, record } = req;
    for program in programs.iter().skip(1) {
        out.write_char(',')?;
        write_program(program, out)?;
    }
    out.write_char(']')?;
    let prewarm: Vec<Json> = prewarm
        .iter()
        .map(|&(start, bytes, level)| {
            Json::Arr(vec![
                Json::UInt(start),
                Json::UInt(bytes),
                Json::Str(level_slug(level).to_string()),
            ])
        })
        .collect();
    write_fields(
        out,
        vec![
            ("prewarm", Json::Arr(prewarm)),
            ("variant", Json::Str(variant.slug().to_string())),
            ("attack", Json::Str(attack_slug(*attack).to_string())),
            ("config", config.map_or(Json::Null, config_to_json)),
            ("seed", Json::UInt(*seed)),
            ("record", Json::Bool(*record)),
        ],
    )?;
    if let Some(sdo) = sdo {
        write_fields(out, vec![("sdo", sdo_to_json(sdo))])?;
    }
    out.write_char('}')
}

/// Writes a program as its name, disassembly text and sparse data
/// image. The round trip through [`sdo_isa::parse_asm`] is
/// instruction-identical for every instruction, since both read one
/// spelling table (pinned by `sdo-isa`'s
/// `every_instruction_survives_disassembly`; sqrt's ignored `rhs` comes
/// back as `lhs`), so this *is* the program's canonical byte
/// representation.
fn write_program<W: fmt::Write>(program: &Program, out: &mut W) -> fmt::Result {
    write_object(
        out,
        vec![
            ("name", Json::Str(program.name().to_string())),
            ("asm", Json::Str(program.disassemble())),
        ],
        ("data", |out: &mut W| write_data(program.data(), out)),
        Vec::new(),
    )
}

/// Writes a data image as its `[addr,byte]` pairs in address order
/// (DESIGN.md §13). The image is walked page by page, and each page's
/// base address is split at 10^4 once: an address is then the page's
/// decimal prefix and four more digits (from the page's next multiple of
/// 10^4 on, the next prefix's). The text reaches `out` in chunks of at
/// most [`CHUNK`] bytes, one write each.
pub(crate) fn write_data<W: fmt::Write>(data: &DataImage, out: &mut W) -> fmt::Result {
    let mut text = Chunks { out, buf: [0; CHUNK], len: 1 };
    text.buf[0] = b'[';
    for (number, page) in data.pages() {
        let base = number << PAGE_SHIFT;
        let (high, low) = (base / 10_000, (base % 10_000) as usize);
        // `low` is a multiple of 16, the largest power of two dividing
        // both 10^4 and the page size, so the split falls on a word.
        let split = (10_000 - low).min(PAGE_BYTES) / 8;
        let words = page.as_chunks::<8>().0;
        text.run(&words[..split], high, low)?;
        text.run(&words[split..], high + 1, 0)?;
    }
    text.finish()
}

/// Bytes of a data image's text a sink is handed in one write, at most.
const CHUNK: usize = 16 << 10;

/// The fixed-size head a pair's text starts with: `[` and up to
/// [`U64_DIGITS`] digits of its address's prefix.
const HEAD: usize = 1 + U64_DIGITS;

/// The most bytes writing one pair touches: its head, then four digits
/// and an eight-byte [`BYTE_TAILS`] entry after the head's text.
const PAIR_ROOM: usize = HEAD + 4 + 8;

/// The text after a pair's address for each byte value `b`, `,b],`, in
/// the first bytes of eight, with its length.
const BYTE_TAILS: [([u8; 8], usize); 256] = {
    let mut tails = [([0; 8], 0); 256];
    let mut b = 0;
    while b < 256 {
        let [tens, ones] = digit_pair(b % 100);
        let digits = [b'0' + (b / 100) as u8, tens, ones];
        // The hundreds and tens digits a shorter value drops.
        let mut i = (b < 100) as usize + (b < 10) as usize;
        let mut tail = [b','; 8];
        let mut len = 1;
        while i < 3 {
            tail[len] = digits[i];
            len += 1;
            i += 1;
        }
        tail[len] = b']';
        tails[b] = (tail, len + 2);
        b += 1;
    }
    tails
};

/// A data image's text on its way to a sink, gathered in `buf`. The
/// text always ends in the `[` that opens the array or in the `,` after
/// a pair.
struct Chunks<'a, W> {
    out: &'a mut W,
    buf: [u8; CHUNK],
    len: usize,
}

impl<W: fmt::Write> Chunks<'_, W> {
    /// Writes a pair for each non-zero byte of `words`. The first byte's
    /// address is `high` * 10^4 + `low`, and the last's is below
    /// (`high` + 1) * 10^4, so each address is `high`'s digits and four
    /// more, or at most four when `high` is 0.
    fn run(&mut self, words: &[[u8; 8]], high: u64, low: usize) -> fmt::Result {
        if high == 0 {
            return self.pairs::<false>(words, &[], low);
        }
        let mut digits = [0u8; U64_DIGITS];
        let first = put_u64(high, &mut digits);
        self.pairs::<true>(words, &digits[first..], low)
    }

    /// [`run`](Self::run)'s pairs, each address written as `prefix` and
    /// four digits; without a prefix, the digits' leading zeros are
    /// dropped.
    fn pairs<const PREFIXED: bool>(
        &mut self,
        words: &[[u8; 8]],
        prefix: &[u8],
        low: usize,
    ) -> fmt::Result {
        let mut head = [0u8; HEAD];
        head[0] = b'[';
        let head_len = 1 + prefix.len();
        head[1..head_len].copy_from_slice(prefix);
        let mut len = self.len;
        for (i, word) in words.iter().enumerate() {
            let mut word = u64::from_le_bytes(*word);
            while word != 0 {
                // The lowest non-zero byte is the lowest address still to
                // write.
                let shift = word.trailing_zeros() & !7;
                let byte = usize::from((word >> shift) as u8);
                word &= !(0xff << shift);
                let rest = low + 8 * i + (shift / 8) as usize;
                let zeros = if PREFIXED {
                    0
                } else {
                    usize::from(rest < 1000) + usize::from(rest < 100) + usize::from(rest < 10)
                };
                let [a, b] = digit_pair(rest / 100);
                let [c, d] = digit_pair(rest % 100);
                let digits = u32::from_le_bytes([a, b, c, d]) >> (8 * zeros);
                if len + PAIR_ROOM > CHUNK {
                    self.len = len;
                    self.flush()?;
                    len = 0;
                }
                let pair = &mut self.buf[len..len + PAIR_ROOM];
                pair[..HEAD].copy_from_slice(&head);
                pair[head_len..head_len + 4].copy_from_slice(&digits.to_le_bytes());
                let at = head_len + 4 - zeros;
                let (tail, tail_len) = &BYTE_TAILS[byte];
                pair[at..at + 8].copy_from_slice(tail);
                len += at + tail_len;
            }
        }
        self.len = len;
        Ok(())
    }

    /// Closes the array and writes the rest of the text.
    fn finish(mut self) -> fmt::Result {
        if self.buf[self.len - 1] == b',' {
            self.buf[self.len - 1] = b']';
        } else {
            self.buf[self.len] = b']';
            self.len += 1;
        }
        self.flush()
    }

    /// Hands the text gathered so far to the sink.
    fn flush(&mut self) -> fmt::Result {
        let text = std::str::from_utf8(&self.buf[..self.len]).map_err(|_| fmt::Error)?;
        self.out.write_str(text)?;
        self.len = 0;
        Ok(())
    }
}

/// Writes `,"key":value` for each field.
fn write_fields<W: fmt::Write>(out: &mut W, fields: Vec<(&str, Json)>) -> fmt::Result {
    for (k, v) in fields {
        out.write_char(',')?;
        write_json_string(k, out)?;
        out.write_char(':')?;
        v.write(out)?;
    }
    Ok(())
}

/// Writes an object: the `head` fields, then `key` with its value
/// written by `write`, then the `tail` fields — in that (rendered)
/// order.
fn write_object<W: fmt::Write>(
    out: &mut W,
    head: Vec<(&str, Json)>,
    (key, write): (&str, impl FnOnce(&mut W) -> fmt::Result),
    tail: Vec<(&str, Json)>,
) -> fmt::Result {
    out.write_char('{')?;
    for (k, v) in head {
        write_json_string(k, out)?;
        out.write_char(':')?;
        v.write(out)?;
        out.write_char(',')?;
    }
    write_json_string(key, out)?;
    out.write_char(':')?;
    write(out)?;
    write_fields(out, tail)?;
    out.write_char('}')
}

/// Writes a `run` or `grid` message: its `op` and `id`, the
/// [`write_request`] encoding of `request`, then the `tail` fields.
fn write_message_with_request(
    out: &mut String,
    op: &str,
    id: u64,
    request: &RunRequest,
    tail: Vec<(&str, Json)>,
) -> fmt::Result {
    write_object(
        out,
        vec![("op", Json::Str(op.to_string())), ("id", Json::UInt(id))],
        ("request", |out: &mut String| {
            write_request(request, request.config.as_ref(), request.sdo.as_ref(), out)
        }),
        tail,
    )
}

/// A value read in one pass: the outer `Result` fails on malformed
/// JSON, the inner one on well-formed JSON that does not decode.
/// Keeping them apart lets a decoder go on validating a line after a
/// field fails to decode (or is never used): malformed JSON anywhere in
/// the line is the error, as it is for `parse_json`.
type Decoded<T> = Result<Result<T, String>, String>;

/// Reads the `request` field of a message as a [`RunRequest`]. Its
/// programs stream through [`read_program`], with `table` when the
/// daemon decodes; every other field is read as a [`Json`] value.
/// Unknown keys are validated and skipped, and a repeated key keeps its
/// first value, as [`Json::get`] does.
fn read_request(r: &mut Reader, mut table: Option<&mut ProgramTable>) -> Decoded<RunRequest> {
    let mut programs = None;
    let mut pages = MAX_PARSED_PAGES;
    let mut fields = Vec::new();
    let is_object = r.object(|r, key| {
        match key.as_str() {
            "programs" if programs.is_none() => {
                programs = Some(read_list(r, "programs", |r| {
                    read_program(r, &mut pages, table.as_deref_mut())
                })?);
            }
            "prewarm" | "variant" | "attack" | "config" | "seed" | "record" | "sdo" => {
                fields.push((key, r.value()?));
            }
            _ => r.skip()?,
        }
        Ok(())
    })?;
    if !is_object {
        return Ok(Err("field 'request' is not an object".to_string()));
    }
    Ok(request_from_parts(programs, &Json::Obj(fields)))
}

/// Checks a request's streamed programs and its other fields, in the
/// order they are encoded, and builds the [`RunRequest`].
fn request_from_parts(
    programs: Option<Result<Vec<Program>, String>>,
    v: &Json,
) -> Result<RunRequest, String> {
    let programs = programs.unwrap_or_else(|| Err("missing field 'programs'".to_string()))?;
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
        sdo: match v.get("sdo") {
            None => None,
            Some(_) => Some(sdo_from_json(v.obj_field("sdo")?)?),
        },
    })
}

/// Reads the array under `field` item by item with `item`; the first
/// item that does not decode is the error, and the rest are only
/// validated.
fn read_list<T>(
    r: &mut Reader,
    field: &str,
    mut item: impl FnMut(&mut Reader) -> Decoded<T>,
) -> Decoded<Vec<T>> {
    let mut list = Ok(Vec::new());
    let is_array = r.array(|r| {
        let next = item(r)?;
        if let Ok(items) = &mut list {
            match next {
                Ok(next) => items.push(next),
                Err(e) => list = Err(e),
            }
        }
        Ok(())
    })?;
    Ok(if is_array { list } else { Err(format!("field '{field}' is not an array")) })
}

/// Reads one program object: `name` and `asm` as values, `data` pair
/// by pair into the write list `DataImage::from_iter` takes. `pages` is
/// what is left of the request's page budget.
///
/// With a `table`, a `data` array read after the program's `name` and
/// `asm` strings is first compared with the programs the table holds for
/// them: on an exact match the held program is taken, and its pages are
/// charged as its decoded writes would be. Any other program that
/// decodes, its assembly writing no data, is interned.
fn read_program(
    r: &mut Reader,
    pages: &mut usize,
    mut table: Option<&mut ProgramTable>,
) -> Decoded<Program> {
    let mut data = None;
    let mut held = None;
    let mut fields = Vec::new();
    r.object(|r, key| {
        match key.as_str() {
            "data" if data.is_none() && held.is_none() => {
                if let (Some(table), Some(name), Some(asm)) =
                    (table.as_deref_mut(), first_str(&fields, "name"), first_str(&fields, "asm"))
                {
                    held = table.recognise(r, name, asm);
                }
                if held.is_none() {
                    data = Some(read_list(r, "data", read_pair)?);
                }
            }
            "name" | "asm" => fields.push((key, r.value()?)),
            _ => r.skip()?,
        }
        Ok(())
    })?;
    if let Some(program) = held {
        let touched = program.data().pages().len();
        return Ok(charge(pages, touched, program.name()).map(|()| program));
    }
    let v = Json::Obj(fields);
    Ok(program_from_parts(&v, data, pages).map(|(program, own_data)| {
        if let (Some(table), false, Ok(name), Ok(asm)) =
            (table, own_data, v.str_field("name"), v.str_field("asm"))
        {
            table.intern(name, asm, &program);
        }
        program
    }))
}

/// The first value of `key` among `fields`, if it is a string.
fn first_str<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a str> {
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, Json::Str(s))) => Some(s),
        _ => None,
    }
}

/// Assembles a program from its `name` and `asm` fields and applies its
/// streamed data writes. The pages the writes touch are counted, and
/// taken from `pages`, before the image allocates any of them. Also says
/// whether the assembly wrote data of its own.
fn program_from_parts(
    v: &Json,
    data: Option<Result<Vec<(u64, u8)>, String>>,
    pages: &mut usize,
) -> Result<(Program, bool), String> {
    let name = v.str_field("name")?;
    let asm = v.str_field("asm")?;
    let mut program = sdo_isa::parse_asm(asm).map_err(|e| format!("program '{name}': {e}"))?;
    program.set_name(name);
    let own_data = !program.data().is_empty();
    let writes = data.unwrap_or_else(|| Err("missing field 'data'".to_string()))?;
    // The assembly's own bytes, then the listed writes in order: built
    // into one image in one pass, the image `set_byte` would leave. The
    // sort is stable, so the build keeps each address's writes in order;
    // a canonical line's writes ascend already, and are not sorted (the
    // sort would allocate scratch as large as them even then). An
    // assembly that wrote no data leaves the listed writes as they are,
    // so a large image is not copied once more.
    let mut writes: Vec<(u64, u8)> =
        if own_data { program.data().iter().chain(writes).collect() } else { writes };
    if !writes.is_sorted_by_key(|&(addr, _)| addr) {
        writes.sort_by_key(|&(addr, _)| addr);
    }
    let touched = writes.chunk_by(|a, b| a.0 >> PAGE_SHIFT == b.0 >> PAGE_SHIFT).count();
    charge(pages, touched, name)?;
    *program.data_mut() = DataImage::from_sorted(&writes);
    Ok((program, own_data))
}

/// Takes the `touched` pages of program `name`'s data from what is left
/// of its request's page budget.
fn charge(pages: &mut usize, touched: usize, name: &str) -> Result<(), String> {
    *pages = pages.checked_sub(touched).ok_or_else(|| {
        format!(
            "program '{name}': data on {touched} pages, over the {MAX_PARSED_PAGES} a request may hold"
        )
    })?;
    Ok(())
}

/// Reads one `[addr, byte]` data pair.
fn read_pair(r: &mut Reader) -> Decoded<(u64, u8)> {
    let mut items = [None; 2];
    let mut len = 0usize;
    let is_array = r.array(|r| {
        let item = r.u64()?;
        if let Some(slot) = items.get_mut(len) {
            *slot = item;
        }
        len += 1;
        Ok(())
    })?;
    Ok(match items {
        _ if !is_array || len != 2 => Err("data entry is not a two-element array".to_string()),
        [Some(addr), Some(byte)] if byte <= 0xff => Ok((addr, byte as u8)),
        _ => Err("data pair is not [addr, byte]".to_string()),
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
    /// Stop the daemon after replying to the current batch.
    Shutdown,
}

impl Request {
    /// The id the reply echoes; `shutdown` carries none and gets no
    /// reply.
    #[must_use]
    pub(crate) fn id(&self) -> Option<u64> {
        match *self {
            Request::Run { id, .. } | Request::Grid { id, .. } | Request::Stats { id } => Some(id),
            Request::Shutdown => None,
        }
    }

    /// Renders the message as one JSON line (no trailing newline).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends the [`render`](Request::render)ing of the message to
    /// `out`.
    pub(crate) fn write(&self, out: &mut String) {
        // Writing to a `String` cannot fail.
        let _ = match self {
            Request::Run { id, request, no_cache } => write_message_with_request(
                out,
                "run",
                *id,
                request,
                vec![("no_cache", Json::Bool(*no_cache))],
            ),
            Request::Grid { id, request, configs, variants, no_cache } => {
                write_message_with_request(
                    out,
                    "grid",
                    *id,
                    request,
                    vec![
                        ("configs", Json::Arr(configs.iter().map(config_to_json).collect())),
                        (
                            "variants",
                            Json::Arr(
                                variants.iter().map(|v| Json::Str(v.slug().to_string())).collect(),
                            ),
                        ),
                        ("no_cache", Json::Bool(*no_cache)),
                    ],
                )
            }
            Request::Stats { id } => {
                obj(vec![("op", Json::Str("stats".to_string())), ("id", Json::UInt(*id))])
                    .write(out)
            }
            Request::Shutdown => obj(vec![("op", Json::Str("shutdown".to_string()))]).write(out),
        };
    }

    /// Parses one request line.
    ///
    /// The line is read in one pass: the `request`'s program images
    /// stream into their typed value, every other field is read as a
    /// small [`Json`] value for the typed decoders, and unknown keys are
    /// validated and skipped. A repeated key keeps its first value, as
    /// [`Json::get`] does. `request` may precede `op`, so it is decoded
    /// wherever it appears; an op without one ignores the outcome, its
    /// decoding errors included.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, an unknown `op` or a
    /// request whose data touches more than [`MAX_PARSED_PAGES`] pages —
    /// the daemon turns this into a typed `error` reply rather than
    /// dying.
    pub fn parse(text: &str) -> Result<Request, String> {
        Self::decode(text, None).map_err(|(_, message)| message)
    }

    /// Parses one request line as [`parse`](Request::parse) does, with a
    /// `table` of programs: a program the table holds is recognised by
    /// its `data` bytes and taken from it instead of decoded, and a
    /// program decoded afresh is interned.
    ///
    /// # Errors
    ///
    /// Returns the id to answer the line under, with exactly the message
    /// [`parse`](Request::parse) returns: the line's own id when the line
    /// is well-formed JSON whose `op` is `run` or `grid` and whose `id`
    /// is a u64, else [`BATCH_ERROR_ID`].
    pub(crate) fn parse_interned(
        text: &str,
        table: &mut ProgramTable,
    ) -> Result<Request, (u64, String)> {
        Self::decode(text, Some(table))
    }

    fn decode(text: &str, mut table: Option<&mut ProgramTable>) -> Result<Request, (u64, String)> {
        let unattributable = |message| (BATCH_ERROR_ID, message);
        let mut r = Reader::new(text);
        let mut request = None;
        let mut fields = Vec::new();
        r.object(|r, key| {
            match key.as_str() {
                "request" if request.is_none() => {
                    request = Some(read_request(r, table.as_deref_mut())?);
                }
                "op" | "id" | "no_cache" | "configs" | "variants" => {
                    fields.push((key, r.value()?));
                }
                _ => r.skip()?,
            }
            Ok(())
        })
        .map_err(unattributable)?;
        r.finish().map_err(unattributable)?;
        // A line that is not an object leaves no fields: "missing field 'op'".
        let v = Json::Obj(fields);
        let op = v.str_field("op").map_err(unattributable)?;
        // A run or grid line whose id reads is answered under it,
        // whatever else in it fails to decode.
        let id = match op {
            "run" | "grid" => v.u64_field("id").unwrap_or(BATCH_ERROR_ID),
            _ => BATCH_ERROR_ID,
        };
        Self::from_fields(op, &v, request).map_err(|message| (id, message))
    }

    /// The message a line's decoded fields ask for: `op`, the fields
    /// `v` read as values, and the outcome of decoding its `request`.
    fn from_fields(
        op: &str,
        v: &Json,
        request: Option<Result<RunRequest, String>>,
    ) -> Result<Request, String> {
        let request = || request.unwrap_or_else(|| Err("missing field 'request'".to_string()));
        match op {
            "run" => Ok(Request::Run {
                id: v.u64_field("id")?,
                request: request()?,
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
                    request: request()?,
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
}

impl Reply {
    /// The echoed request id.
    #[must_use]
    pub(crate) fn id(&self) -> u64 {
        match *self {
            Reply::Result { id, .. }
            | Reply::Grid { id, .. }
            | Reply::Error { id, .. }
            | Reply::Stats { id, .. } => id,
        }
    }

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
        if let Some(stats) = v.get("stats") {
            return Ok(Reply::Stats {
                id,
                hits: stats.u64_field("hits")?,
                misses: stats.u64_field("misses")?,
                entries: stats.u64_field("entries")?,
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
        Err("reply carries none of result/error/stats/grid".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{rv32_workloads, sensitivity_kernel};
    use crate::runner::Executor;
    use crate::sim::Simulator;
    use crate::store::{sha256, RunKey, Sha256, KEY_SCHEMA};
    use sdo_mem::CacheLevel;
    use sdo_rng::SdoRng;
    use sdo_workloads::kernels::{self, l1_resident};
    use sdo_workloads::suite;

    // -----------------------------------------------------------------
    // The tree codec: the reference the one-pass codec is checked
    // against. Each message is a whole `Json` tree, built and rendered
    // (or parsed and decoded) with the workspace's `Json` value.
    // -----------------------------------------------------------------

    fn program_to_json(program: &Program) -> Json {
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

    fn program_from_json(v: &Json) -> Result<Program, String> {
        let name = v.str_field("name")?;
        let asm = v.str_field("asm")?;
        let mut program = sdo_isa::parse_asm(asm).map_err(|e| format!("program '{name}': {e}"))?;
        program.set_name(name);
        let pairs = v.arr_field("data")?;
        let mut writes = Vec::with_capacity(program.data().len() + pairs.len());
        writes.extend(program.data().iter());
        for pair in pairs {
            match pair {
                Json::Arr(items) if items.len() == 2 => match (&items[0], &items[1]) {
                    (Json::UInt(addr), Json::UInt(byte)) if *byte <= 0xff => {
                        writes.push((*addr, *byte as u8));
                    }
                    _ => return Err("data pair is not [addr, byte]".to_string()),
                },
                _ => return Err("data entry is not a two-element array".to_string()),
            }
        }
        *program.data_mut() = writes.into_iter().collect();
        Ok(program)
    }

    fn request_to_json(req: &RunRequest) -> Json {
        request_to_json_with(req, req.config.as_ref(), req.sdo.as_ref())
    }

    fn request_to_json_with(
        req: &RunRequest,
        config: Option<&SimConfig>,
        sdo: Option<&SdoConfig>,
    ) -> Json {
        let RunRequest { programs, prewarm, variant, attack, config: _, sdo: _, seed, record } =
            req;
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
        let mut fields = vec![
            ("programs", Json::Arr(programs_json)),
            ("prewarm", Json::Arr(prewarm_json)),
            ("variant", Json::Str(variant.slug().to_string())),
            ("attack", Json::Str(attack_slug(*attack).to_string())),
            ("config", config.map_or(Json::Null, config_to_json)),
            ("seed", Json::UInt(*seed)),
            ("record", Json::Bool(*record)),
        ];
        if let Some(sdo) = sdo {
            fields.push(("sdo", sdo_to_json(sdo)));
        }
        obj(fields)
    }

    fn request_from_json(v: &Json) -> Result<RunRequest, String> {
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
            sdo: match v.get("sdo") {
                None => None,
                Some(_) => Some(sdo_from_json(v.obj_field("sdo")?)?),
            },
        })
    }

    /// The reference rendering of a `run` or `grid` message.
    fn render_tree(msg: &Request) -> String {
        match msg {
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
                    Json::Arr(variants.iter().map(|v| Json::Str(v.slug().to_string())).collect()),
                ),
                ("no_cache", Json::Bool(*no_cache)),
            ]),
            other => panic!("the reference renders only run and grid messages, not {other:?}"),
        }
        .render()
    }

    /// The reference decoder: the whole line as a tree, then the fields.
    fn parse_tree(text: &str) -> Result<Request, String> {
        let v = parse_json(text)?;
        let no_cache = |v: &Json| match v.get("no_cache") {
            Some(Json::Bool(b)) => Ok(*b),
            None => Ok(false),
            Some(_) => Err("field 'no_cache' is not a bool".to_string()),
        };
        match v.str_field("op")? {
            "run" => Ok(Request::Run {
                id: v.u64_field("id")?,
                request: request_from_json(v.obj_field("request")?)?,
                no_cache: no_cache(&v)?,
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
                    no_cache: no_cache(&v)?,
                })
            }
            "stats" => Ok(Request::Stats { id: v.u64_field("id")? }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op '{other}'")),
        }
    }

    fn written(write: impl FnOnce(&mut String) -> fmt::Result) -> String {
        let mut out = String::new();
        write(&mut out).unwrap();
        out
    }

    /// The per-pair data writer that the chunked [`write_data`] replaced,
    /// kept as its reference: each pair, with the comma before it, is
    /// formatted in a stack buffer, two digits per division, and written
    /// on its own.
    fn write_data_per_pair<W: fmt::Write>(data: &DataImage, out: &mut W) -> fmt::Result {
        // `,[` + address + `,` + byte + `]`
        const PAIR: usize = 2 + U64_DIGITS + 1 + 3 + 1;
        out.write_char('[')?;
        let mut buf = [0u8; PAIR];
        for (i, (addr, byte)) in data.iter().enumerate() {
            buf[PAIR - 1] = b']';
            let mut at = put_u64(u64::from(byte), &mut buf[..PAIR - 1]) - 1;
            buf[at] = b',';
            at = put_u64(addr, &mut buf[..at]) - 1;
            buf[at] = b'[';
            if i > 0 {
                at -= 1;
                buf[at] = b',';
            }
            out.write_str(std::str::from_utf8(&buf[at..]).map_err(|_| fmt::Error)?)?;
        }
        out.write_char(']')
    }

    /// A sink that keeps the length of each write.
    #[derive(Default)]
    struct Writes(Vec<usize>);

    impl fmt::Write for Writes {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0.push(s.len());
            Ok(())
        }
    }

    /// Checks [`write_data`] against the per-pair reference on `data`,
    /// byte for byte: into a `String`, into the SHA-256 of a RunKey, and
    /// as the daemon recognises a held image's text. Returns the lengths
    /// of the writer's chunks.
    fn check_writer(data: &DataImage, what: &str) -> Vec<usize> {
        let want = written(|out| write_data_per_pair(data, out));
        let got = written(|out| write_data(data, out));
        if got != want {
            let at = got.bytes().zip(want.bytes()).take_while(|(a, b)| a == b).count();
            panic!("{what}: the text differs from the reference's at byte {at} of {}", want.len());
        }
        let mut hash = Sha256::new();
        write_data(data, &mut hash).unwrap();
        assert_eq!(hash.finish(), sha256(want.as_bytes()), "{what}: the digests differ");
        let mut r = Reader::new(&want);
        assert!(r.skip_if_rendered(2, |out| write_data(data, out)), "{what}: not recognised");
        r.finish().unwrap();
        let mut chunks = Writes::default();
        write_data(data, &mut chunks).unwrap();
        // Each chunk but the last is full up to the room of one pair.
        let (last, full) = chunks.0.split_last().unwrap();
        assert!(*last <= CHUNK, "{what}: chunks {:?}", chunks.0);
        assert!(
            full.iter().all(|&n| n <= CHUNK && n > CHUNK - PAIR_ROOM),
            "{what}: {:?}",
            chunks.0
        );
        chunks.0
    }

    /// A seeded image with bytes where the writer splits addresses:
    /// below 10^4 (no prefix), on both sides of a power of ten from 10^4
    /// up, on a page's first and last byte, on the top page up to
    /// `u64::MAX`, and in dense runs, some of whose text is longer than
    /// one chunk.
    fn edge_image(rng: &mut SdoRng) -> DataImage {
        let mut data = DataImage::new();
        for _ in 0..rng.gen_range(1..6) {
            let mut set = |addr: u64, rng: &mut SdoRng| data.set_byte(addr, rng.gen_range(1..=255));
            match rng.gen_range(0..6) {
                0 => {
                    for _ in 0..rng.gen_range(1..40) {
                        let addr = [0, rng.gen_range(0..100), rng.gen_range(0..10_000)];
                        set(addr[rng.gen_range(0..3)], rng);
                    }
                }
                1 => {
                    let power = 10u64.pow(rng.gen_range(4..20));
                    for addr in power - rng.gen_range(1..20)..power + rng.gen_range(1..20) {
                        set(addr, rng);
                    }
                }
                2 => {
                    let base = rng.gen::<u64>() & !(PAGE_BYTES as u64 - 1);
                    set(base, rng);
                    set(base + PAGE_BYTES as u64 - 1, rng);
                }
                3 => {
                    set(u64::MAX, rng);
                    for _ in 0..rng.gen_range(0..30) {
                        set(u64::MAX - rng.gen_range(0..PAGE_BYTES as u64), rng);
                    }
                }
                4 => {
                    // Zero bytes leave holes.
                    let start: u64 = rng.gen();
                    let len = if rng.gen_range(0..8) == 0 { 3000 } else { rng.gen_range(1..300) };
                    for i in 0..len {
                        data.set_byte(start.wrapping_add(i), rng.gen());
                    }
                }
                _ => {
                    for _ in 0..rng.gen_range(1..8) {
                        set(rng.gen(), rng);
                    }
                }
            }
        }
        data
    }

    #[test]
    fn the_chunked_writer_matches_the_per_pair_reference() {
        // Every in-tree program, and the `serve` benchmark's large
        // shapes: `ptr_chase` over 256 KiB-1 MiB and `hash_lookup` over
        // 64-256 KiB tables.
        let workloads = suite().into_iter().chain(rv32_workloads()).chain([sensitivity_kernel()]);
        let mut programs: Vec<Program> = workloads.map(|w| w.program().clone()).collect();
        for kib in [256, 640, 1024] {
            programs.push(kernels::ptr_chase(kib << 10, 100, 7));
        }
        for kib in [64, 160, 256] {
            programs.push(kernels::hash_lookup((kib << 10) / 8, 100, 7));
        }
        for program in &programs {
            check_writer(program.data(), program.name());
        }
        let mut every_byte = DataImage::new();
        for b in 1..=255 {
            every_byte.set_byte(9_900 + u64::from(b), b);
        }
        check_writer(&every_byte, "every byte value");
        let mut rng = SdoRng::seed_from_u64(0xc4_a2c5);
        let mut long = 0;
        for case in 0..1200 {
            long +=
                usize::from(check_writer(&edge_image(&mut rng), &format!("case {case}")).len() > 1);
        }
        assert!(long >= 20, "only {long} images were longer than one chunk");
    }

    #[test]
    fn held_lines_changed_or_cut_at_chunk_edges_are_decoded_afresh() {
        let program = kernels::hash_lookup(1024, 100, 3);
        let line = Request::Run { id: 1, request: RunRequest::program(&program), no_cache: false }
            .render();
        let exec = Executor::new(SimConfig::tiny(), None);
        exec.parse(&line).unwrap();
        let hits = exec.programs().hits();
        exec.parse(&line).unwrap();
        assert_eq!(exec.programs().hits(), hits + 1, "the held program's line is recognised");
        let mut chunks = Writes::default();
        write_data(program.data(), &mut chunks).unwrap();
        assert!(chunks.0.len() >= 3, "chunks {:?}", chunks.0);
        // Where each chunk of the line's data array ends; a byte past the
        // array leaves it whole, and recognised.
        let start = line.find("\"data\":[").unwrap() + "\"data\":".len();
        let end = start + chunks.0.iter().sum::<usize>();
        let edges = chunks.0.iter().scan(start, |edge, len| {
            *edge += len;
            Some(*edge)
        });
        let mut outcomes = [0; 2];
        for edge in edges {
            for at in [edge - 1, edge, edge + 1].into_iter().filter(|&at| at < end) {
                let mut changed = line.clone().into_bytes();
                changed[at] = match changed[at] {
                    digit @ b'0'..=b'8' => digit + 1,
                    b'9' => b'0',
                    _ => b' ',
                };
                for variant in [String::from_utf8(changed).unwrap(), line[..at].to_string()] {
                    let hits = exec.programs().hits();
                    let got = exec.parse(&variant).map_err(|(_, message)| message);
                    assert_eq!(got, Request::parse(&variant), "byte {at}");
                    assert_eq!(exec.programs().hits(), hits, "byte {at} was recognised");
                    outcomes[usize::from(got.is_ok())] += 1;
                }
            }
        }
        assert!(outcomes.iter().all(|&n| n > 0), "errors and decoded lines: {outcomes:?}");
    }

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
            let decoded =
                read_program(&mut Reader::new(&json), &mut { MAX_PARSED_PAGES }, None)
                    .unwrap()
                    .unwrap();
            let mut expected = sdo_isa::parse_asm(asm).unwrap().data().clone();
            for &(addr, byte) in &writes {
                expected.set_byte(addr, byte);
            }
            assert_eq!(decoded.data(), &expected, "asm {asm:?}");
        }
    }

    /// A `run` line for one program per entry of `pages`, each writing
    /// one byte on each of its pages (zero bytes on every other page).
    fn sparse_run_line(pages: &[usize]) -> String {
        let programs: Vec<Program> =
            pages.iter().map(|_| sdo_isa::parse_asm("halt").unwrap()).collect();
        let line =
            Request::Run { id: 1, request: RunRequest::multi(&programs), no_cache: false }.render();
        let mut next = 0;
        pages.iter().fold(line, |line, &n| {
            let data: Vec<String> = (0..n)
                .map(|k| format!("[{},{}]", (next + k) * sdo_isa::PAGE_BYTES, k % 2))
                .collect();
            next += n;
            line.replacen("\"data\":[]", &format!("\"data\":[{}]", data.join(",")), 1)
        })
    }

    #[test]
    fn requests_over_the_page_budget_are_refused_while_decoding() {
        let pages = |request: Request| match request {
            Request::Run { request, .. } => {
                request.programs.iter().map(|p| p.data().pages().len()).sum::<usize>()
            }
            other => panic!("not a run: {other:?}"),
        };
        // Pages touched only by zero writes count too: the budget is
        // checked before the image is built.
        assert_eq!(pages(Request::parse(&sparse_run_line(&[MAX_PARSED_PAGES])).unwrap()), 2048);
        let half = MAX_PARSED_PAGES / 2;
        assert_eq!(pages(Request::parse(&sparse_run_line(&[half, half])).unwrap()), 2048);
        for split in [vec![MAX_PARSED_PAGES + 1], vec![half, half + 1], vec![1, MAX_PARSED_PAGES]] {
            let e = Request::parse(&sparse_run_line(&split)).unwrap_err();
            assert!(e.contains("over the 4096 a request may hold"), "{split:?}: {e}");
        }
    }

    /// Characters a program name may carry: plain ASCII, everything the
    /// writer escapes, and multi-byte UTF-8 up to four bytes.
    const NAME_CHARS: &str =
        "aZ7 _/\"\\\n\r\t\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}éß€\u{2028}\u{fffd}\u{1f642}";

    fn random_program(rng: &mut SdoRng) -> Program {
        let insts = sdo_workloads::random::random_program(rng.next_u64(), rng.gen_range(1..4));
        let chars: Vec<char> = NAME_CHARS.chars().collect();
        let name: String =
            (0..rng.gen_range(0..12)).map(|_| chars[rng.gen_range(0..chars.len())]).collect();
        let mut data = DataImage::new();
        // One program in four has an empty image.
        for _ in 0..rng.gen_range(0..6) * usize::from(rng.gen_range(0..4) != 0) {
            match rng.gen_range(0..4) {
                0 => {
                    for addr in [0, 1, u64::MAX] {
                        if rng.gen_bool(0.7) {
                            data.set_byte(addr, rng.gen_range(1..=255));
                        }
                    }
                }
                1 => {
                    // A dense run, zero bytes (which leave holes) included.
                    let start: u64 = rng.gen();
                    for i in 0..rng.gen_range(1..300) {
                        data.set_byte(start.wrapping_add(i), rng.gen());
                    }
                }
                2 => {
                    for _ in 0..rng.gen_range(1..8) {
                        data.set_byte(rng.gen(), rng.gen_range(1..=255));
                    }
                }
                _ => data.set_word(rng.gen_range(0..1 << 20), rng.gen()),
            }
        }
        Program::new(name, insts.instructions().to_vec(), data)
    }

    fn random_config(rng: &mut SdoRng) -> SimConfig {
        let mut cfg = if rng.gen_bool(0.5) { SimConfig::tiny() } else { SimConfig::table_i() };
        if rng.gen_bool(0.5) {
            cfg.max_cycles = rng.gen();
            cfg.mem.l2.ways = rng.gen_range(1..64);
            cfg.obs.occupancy = rng.gen();
        }
        cfg
    }

    /// Every location predictor, each static level included.
    const PREDICTORS: [PredictorKind; 9] = [
        PredictorKind::Static(CacheLevel::L1),
        PredictorKind::Static(CacheLevel::L2),
        PredictorKind::Static(CacheLevel::L3),
        PredictorKind::Static(CacheLevel::Dram),
        PredictorKind::Greedy,
        PredictorKind::Loop,
        PredictorKind::Hybrid,
        PredictorKind::Pattern,
        PredictorKind::Perfect,
    ];

    fn random_sdo(rng: &mut SdoRng) -> SdoConfig {
        SdoConfig {
            predictor: PREDICTORS[rng.gen_range(0..PREDICTORS.len())],
            early_forward: rng.gen(),
            allow_dram_prediction: rng.gen(),
        }
    }

    fn random_request(rng: &mut SdoRng) -> RunRequest {
        const LEVELS: [CacheLevel; 4] =
            [CacheLevel::L1, CacheLevel::L2, CacheLevel::L3, CacheLevel::Dram];
        RunRequest {
            programs: (0..rng.gen_range(1..=3)).map(|_| random_program(rng)).collect(),
            prewarm: (0..rng.gen_range(0..4))
                .map(|_| (rng.gen(), rng.gen(), LEVELS[rng.gen_range(0..LEVELS.len())]))
                .collect(),
            variant: Variant::ALL[rng.gen_range(0..Variant::ALL.len())],
            attack: if rng.gen() { AttackModel::Spectre } else { AttackModel::Futuristic },
            config: rng.gen_bool(0.5).then(|| random_config(rng)),
            sdo: rng.gen_bool(0.5).then(|| random_sdo(rng)),
            seed: [0, u64::MAX, rng.gen()][rng.gen_range(0..3)],
            record: rng.gen(),
        }
    }

    #[test]
    fn one_pass_codec_matches_the_tree_codec_on_random_requests() {
        let mut rng = SdoRng::seed_from_u64(0x5d0_c0dec);
        for case in 0..1200 {
            let request = random_request(&mut rng);
            let msg = if case % 8 == 0 {
                let configs = (0..rng.gen_range(0..3)).map(|_| random_config(&mut rng)).collect();
                let variants = Variant::ALL[..rng.gen_range(0..Variant::ALL.len())].to_vec();
                Request::Grid {
                    id: rng.gen(),
                    request: request.clone(),
                    configs,
                    variants,
                    no_cache: rng.gen(),
                }
            } else {
                Request::Run { id: rng.gen(), request: request.clone(), no_cache: rng.gen() }
            };
            let line = msg.render();
            assert_eq!(line, render_tree(&msg), "case {case}: rendering differs from the tree's");
            assert_eq!(Request::parse(&line), Ok(msg), "case {case}: no round trip");
            let base = random_config(&mut rng);
            let mut payload = format!("{KEY_SCHEMA}\n");
            let (config, sdo) = (request.effective_config(base), request.effective_sdo());
            request_to_json_with(&request, Some(&config), sdo.as_ref())
                .write(&mut payload)
                .unwrap();
            let digest: String =
                sha256(payload.as_bytes()).iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(RunKey::of(&request, base).hex(), digest, "case {case}: RunKey differs");
        }
    }

    /// Request lines as clients send them: the 344,429-byte large-image
    /// request of `runkey_golden.rs`, small runs (one warmed, one
    /// multi-core, one with an SDO override), a grid, a line of the
    /// retired `campaign` op, and a `stats` line whose junk `request`
    /// arrives before its `op`.
    fn recorded_lines() -> Vec<String> {
        let large = Request::Run {
            id: 0,
            request: RunRequest::program(&kernels::hash_lookup(8192, 100, 1))
                .warmed(0x80_0000, 64 << 10, CacheLevel::L3)
                .variant(Variant::Hybrid)
                .config(SimConfig::table_i()),
            no_cache: false,
        }
        .render();
        assert_eq!(large.len(), 344_429);
        let prog = l1_resident(50, 1);
        let small = [
            Request::Run {
                id: 3,
                request: RunRequest::program(&prog).variant(Variant::SttLd),
                no_cache: true,
            },
            Request::Run {
                id: 4,
                request: RunRequest::program(&kernels::stream(64, 1, 3))
                    .warmed(0x1000, 4096, CacheLevel::L2)
                    .config(SimConfig::tiny())
                    .seed(9),
                no_cache: false,
            },
            Request::Run {
                id: 5,
                request: RunRequest::multi(&[prog.clone(), l1_resident(20, 2)]),
                no_cache: false,
            },
            Request::Run {
                id: 6,
                request: RunRequest::program(&prog).variant(Variant::StaticL3).sdo(SdoConfig {
                    early_forward: false,
                    ..SdoConfig::with_predictor(PredictorKind::Static(CacheLevel::L3))
                }),
                no_cache: false,
            },
            Request::Grid {
                id: 8,
                request: RunRequest::program(&prog),
                configs: vec![SimConfig::tiny(), SimConfig::table_i()],
                variants: vec![Variant::Unsafe, Variant::SttLd],
                no_cache: true,
            },
        ];
        let mut lines = vec![large];
        lines.extend(small.iter().map(Request::render));
        lines.push(r#"{"op":"campaign","id":1,"seed":0,"quick":true,"fuzz":4}"#.to_string());
        lines.push(
            r#"{"request":{"programs":[{"name":7,"data":[[1,256],[2]]}],"x":[{},[]]},"op":"stats","id":2}"#
                .to_string(),
        );
        lines
    }

    /// The first index at or after `from` (wrapping once) where `hit` holds.
    fn find_from(len: usize, from: usize, hit: impl Fn(usize) -> bool) -> Option<usize> {
        (from..len).chain(0..from).find(|&i| hit(i))
    }

    /// Reorders, duplicates or adds keys of one object (or reorders one
    /// array) on a random path down the message's tree.
    fn restructure(rng: &mut SdoRng, line: &str) -> Vec<u8> {
        let mut root = parse_json(line).expect("recorded lines parse");
        let depth = rng.gen_range(0..5);
        restructure_at(rng, &mut root, depth);
        root.render().into_bytes()
    }

    fn restructure_at(rng: &mut SdoRng, node: &mut Json, depth: usize) {
        if depth > 0 {
            let mut children: Vec<&mut Json> = match node {
                Json::Obj(pairs) => pairs.iter_mut().map(|(_, v)| v).collect(),
                Json::Arr(items) => items.iter_mut().collect(),
                _ => Vec::new(),
            };
            children.retain(|c| matches!(c, Json::Obj(_) | Json::Arr(_)));
            if !children.is_empty() {
                let k = rng.gen_range(0..children.len());
                return restructure_at(rng, children.swap_remove(k), depth - 1);
            }
        }
        match node {
            Json::Obj(pairs) if !pairs.is_empty() => match rng.gen_range(0..3) {
                0 => rng.shuffle(pairs),
                1 => {
                    let (key, value) = pairs[rng.gen_range(0..pairs.len())].clone();
                    let value = match rng.gen_range(0..3) {
                        0 => value,
                        1 => Json::Str("dup".to_string()),
                        _ => Json::Arr(vec![Json::UInt(1), Json::Null]),
                    };
                    pairs.insert(rng.gen_range(0..=pairs.len()), (key, value));
                }
                _ => {
                    let junk = obj(vec![("data", Json::Arr(vec![Json::Bool(true)]))]);
                    pairs.insert(rng.gen_range(0..=pairs.len()), ("zz".to_string(), junk));
                }
            },
            Json::Arr(items) if items.len() > 1 => {
                let (i, j) = (rng.gen_range(0..items.len()), rng.gen_range(0..items.len()));
                items.swap(i, j);
            }
            _ => {}
        }
    }

    /// One mutation of `line`, with its name for failure messages.
    fn mutate(rng: &mut SdoRng, line: &str) -> (&'static str, Vec<u8>) {
        let mut b = line.as_bytes().to_vec();
        let at = rng.gen_range(0..b.len());
        let digit = |b: &[u8], i: usize| b[i].is_ascii_digit();
        match rng.gen_range(0..9) {
            0 => {
                b.truncate(at);
                ("truncation", b)
            }
            1 => {
                b[at] ^= 1 << rng.gen_range(0..8);
                ("bit flip", b)
            }
            2 => {
                const BYTES: &[u8] = b"{}[],:\"\\/0123456789-.eEtrufalsn xu\x00\x7f\xc3\xff";
                b.insert(at, BYTES[rng.gen_range(0..BYTES.len())]);
                ("byte insertion", b)
            }
            3 => {
                b.remove(at);
                ("byte deletion", b)
            }
            4 => {
                // 20 more digits overflow any u64.
                if let Some(i) = find_from(b.len(), at, |i| digit(&b, i)) {
                    b.splice(i..i, b"99999999999999999999".iter().copied());
                }
                ("u64 overflow", b)
            }
            5 => {
                // The byte of a data pair (a digit run closed by `],[`).
                let end = find_from(b.len() - 2, at.min(b.len() - 3), |i| {
                    i > 0 && &b[i..i + 3] == b"],[" && digit(&b, i - 1)
                });
                if let Some(end) = end {
                    let start = (0..end).rev().find(|&i| !digit(&b, i)).map_or(0, |i| i + 1);
                    let byte: &[u8] = if rng.gen() { b"255" } else { b"256" };
                    b.splice(start..end, byte.iter().copied());
                }
                ("data byte 255/256", b)
            }
            6 => {
                // Bracket runs around and far past the depth bound.
                let data = b.windows(8).position(|w| w == b"\"data\":[");
                let n = if rng.gen_range(0..10) == 0 { 100_000 } else { rng.gen_range(100..300) };
                let i = data.map_or(at, |i| i + 8);
                b.splice(i..i, std::iter::repeat_n(b'[', n));
                ("[ run inside data", b)
            }
            7 => {
                for _ in 0..rng.gen_range(1..4) {
                    b.insert(at, b" \t\n\r"[rng.gen_range(0..4)]);
                }
                ("whitespace insertion", b)
            }
            _ => ("reordered or duplicated keys", restructure(rng, line)),
        }
    }

    /// The runs a decoded message asks for, each grid expanded.
    fn runs_of(message: &Request) -> Vec<RunRequest> {
        match message {
            Request::Run { request, .. } => vec![request.clone()],
            Request::Grid { request, configs, variants, .. } => {
                crate::runner::expand_grid(request, configs, variants)
            }
            _ => Vec::new(),
        }
    }

    #[test]
    fn mutated_lines_decode_exactly_as_the_tree_decoder_does() {
        let lines = recorded_lines();
        // The daemon's decoder meets each mutation with the recorded
        // lines' programs held, so every near miss of a held data array
        // is compared with it; a long-lived table also holds what earlier
        // mutations decoded. Every recorded line but the retired op's
        // decodes, and its runs are keyed through the table, so the held
        // programs carry their key prefixes.
        let mut held = ProgramTable::new();
        for line in &lines {
            match Request::parse_interned(line, &mut held) {
                Ok(message) => runs_of(&message).iter().for_each(|run| {
                    held.prefix(&run.programs[0]);
                }),
                Err(e) => assert_eq!(e, (BATCH_ERROR_ID, "unknown op 'campaign'".to_string())),
            }
        }
        let mut long_lived = held.clone();
        let base = SimConfig::tiny();
        let mut rng = SdoRng::seed_from_u64(0xf022_11e5);
        let (mut accepted, mut rejected, mut taken, mut attributed) = (0, 0, 0, 0);
        for case in 0..10_240 {
            // One case in 128 mutates the large line: it is 99% of the
            // bytes, and most of the test's time.
            let line =
                if case % 128 == 0 { &lines[0] } else { &lines[1 + case % (lines.len() - 1)] };
            let (mutation, bytes) = mutate(&mut rng, line);
            // The daemon answers a non-UTF-8 line before parsing it.
            let text = String::from_utf8_lossy(&bytes);
            let want = parse_tree(&text);
            // A failing line is answered under its own id when it is
            // well-formed JSON with op run or grid and a u64 id.
            let want_id = match parse_json(&text) {
                Ok(v) if matches!(v.str_field("op"), Ok("run" | "grid")) => {
                    v.u64_field("id").unwrap_or(BATCH_ERROR_ID)
                }
                _ => BATCH_ERROR_ID,
            };
            let mut table = held.clone();
            let interned = Request::parse_interned(&text, &mut table);
            taken += table.hits() - held.hits();
            let lived = Request::parse_interned(&text, &mut long_lived);
            for (decoder, got) in [("interned", &interned), ("long-lived", &lived)] {
                if let Err((id, _)) = got {
                    assert_eq!(*id, want_id, "case {case} ({mutation}, {decoder})");
                }
            }
            attributed += usize::from(matches!(interned, Err((id, _)) if id != BATCH_ERROR_ID));
            let message = |got: Result<Request, (u64, String)>| got.map_err(|(_, message)| message);
            let (interned, lived) = (message(interned), message(lived));
            for (decoder, got) in [
                ("one pass", Request::parse(&text)),
                ("interned", interned.clone()),
                ("long-lived", lived),
            ] {
                match (got, &want) {
                    (Ok(got), Ok(want)) => {
                        assert!(got == *want, "case {case} ({mutation}, {decoder}): values differ");
                    }
                    // The contract allows another error first only on a
                    // line with two defects; these lines get the tree's
                    // own error.
                    (Err(got), Err(want)) => {
                        assert_eq!(&got, want, "case {case} ({mutation}, {decoder})");
                    }
                    (got, want) => panic!(
                        "case {case} ({mutation}): {decoder} {:?}, tree {:?}",
                        got.err(),
                        want.as_ref().err()
                    ),
                }
            }
            match interned {
                Ok(message) => {
                    // Every run's key taken through the table is its
                    // `RunKey::of`.
                    for run in runs_of(&message) {
                        let prefix = table.prefix(&run.programs[0]);
                        assert_eq!(prefix.key(&run, base), RunKey::of(&run, base), "case {case}");
                    }
                    accepted += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        assert!(accepted > 1000 && rejected > 1000, "{accepted} accepted, {rejected} rejected");
        assert!(attributed > 500, "only {attributed} rejected lines were answered under their id");
        assert!(taken > 1000, "only {taken} lines took a held program");
        assert!(long_lived.pages() <= MAX_PARSED_PAGES);
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
            let encoded = written(|out| write_program(w.program(), out));
            assert_eq!(encoded, program_to_json(w.program()).render());
            let decoded =
                read_program(&mut Reader::new(&encoded), &mut { MAX_PARSED_PAGES }, None)
                    .unwrap()
                    .unwrap();
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
        let encoded =
            written(|out| write_request(&req, req.config.as_ref(), req.sdo.as_ref(), out));
        assert_eq!(encoded, request_to_json(&req).render());
        assert_eq!(read_request(&mut Reader::new(&encoded), None).unwrap(), Ok(req));
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
        let grid = Request::Grid {
            id: 8,
            request: RunRequest::program(&prog),
            configs: vec![SimConfig::tiny(), SimConfig::table_i()],
            variants: vec![Variant::Unsafe, Variant::SttLd],
            no_cache: true,
        };
        assert_eq!(Request::parse(&grid.render()).unwrap(), grid);
        // An SDO override with every predictor and both flags.
        for predictor in PREDICTORS {
            for (early_forward, allow_dram_prediction) in
                [(false, false), (false, true), (true, false), (true, true)]
            {
                let sdo = SdoConfig { predictor, early_forward, allow_dram_prediction };
                let run = Request::Run {
                    id: 7,
                    request: RunRequest::program(&prog).variant(Variant::Hybrid).sdo(sdo),
                    no_cache: false,
                };
                assert_eq!(Request::parse(&run.render()).unwrap(), run, "{sdo:?}");
            }
        }
        assert_eq!(Request::parse(&Request::Shutdown.render()).unwrap(), Request::Shutdown);

        let sim = Simulator::new(SimConfig::tiny());
        let result = sim.run(&RunRequest::program(&prog)).unwrap().into_result();
        for reply in [
            Reply::Grid { id: 8, results: vec![(result.clone(), false), (result.clone(), true)] },
            Reply::Result { id: 3, result, cached: true },
            Reply::Error { id: 4, message: "boom \"quoted\"".to_string() },
            Reply::Stats { id: 6, hits: 1, misses: 2, entries: 3 },
        ] {
            assert_eq!(Reply::parse(&reply.render()).unwrap(), reply);
        }
    }

    #[test]
    fn reply_lines_match_the_documented_grammar() {
        // DESIGN.md §13's reply block, one line per shape: no `op` key,
        // and the key beside `id` names the shape.
        for (reply, line) in [
            (Reply::Error { id: 4, message: "boom".to_string() }, r#"{"id":4,"error":"boom"}"#),
            (
                Reply::Stats { id: 6, hits: 1, misses: 2, entries: 3 },
                r#"{"id":6,"stats":{"hits":1,"misses":2,"entries":3}}"#,
            ),
        ] {
            assert_eq!(reply.render(), line);
            assert_eq!(Reply::parse(line).unwrap().id(), reply.id());
        }
        assert_eq!(Request::Stats { id: 9 }.id(), Some(9));
        assert_eq!(Request::Shutdown.id(), None);
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{\"op\":\"launch_missiles\"}").unwrap_err().contains("unknown op"));
        assert!(Request::parse("{\"op\":\"run\",\"id\":1}").unwrap_err().contains("request"));
        // A bad SDO override: an unknown predictor, or not an object.
        let run = Request::Run {
            id: 1,
            request: RunRequest::program(&l1_resident(10, 1))
                .variant(Variant::Hybrid)
                .sdo(SdoConfig::with_predictor(PredictorKind::Static(CacheLevel::L2))),
            no_cache: false,
        }
        .render();
        let sdo =
            r#""sdo":{"predictor":"static_l2","early_forward":true,"allow_dram_prediction":true}"#;
        assert!(run.contains(sdo), "{run}");
        for (to, error) in [
            (sdo.replace("static_l2", "static_l4"), "unknown predictor slug 'static_l4'"),
            (sdo.replace("static_l2", "oracle"), "unknown predictor slug 'oracle'"),
            (r#""sdo":[]"#.to_string(), "field 'sdo' is not an object"),
            (r#""sdo":null"#.to_string(), "field 'sdo' is not an object"),
            (r#""sdo":"hybrid""#.to_string(), "field 'sdo' is not an object"),
        ] {
            let line = run.replacen(sdo, &to, 1);
            assert_eq!(Request::parse(&line), Err(error.to_string()), "{line}");
        }
    }
}
