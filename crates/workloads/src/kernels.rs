//! The ten SPEC17-stand-in kernels (see crate docs and DESIGN.md §4).
//!
//! Every generator is deterministic (seeded) and returns a self-contained
//! [`Program`] (code + initial data image). Loop trip counts are sized so
//! each kernel commits a few tens of thousands of instructions — enough
//! for caches and predictors to reach steady state while keeping the full
//! Table II × kernel sweep fast.

use sdo_rng::SdoRng;
use sdo_isa::{Assembler, FReg, Program, Reg};
use sdo_mem::CacheLevel;

/// A named benchmark kernel, with its cache warm-start hints.
///
/// The paper simulates SimPoint checkpoints whose caches are warmed by
/// the preceding billions of instructions; a fresh simulator would charge
/// every first touch to DRAM instead. `prewarm` lists the byte ranges
/// (and levels) the harness installs before measuring — see DESIGN.md §5.
#[derive(Debug, Clone)]
pub struct Workload {
    name: &'static str,
    program: Program,
    prewarm: Vec<(u64, u64, CacheLevel)>,
}

impl Workload {
    /// Wraps a program as a named workload with no warm-start hints.
    #[must_use]
    pub fn new(name: &'static str, program: Program) -> Self {
        Workload { name, program, prewarm: Vec::new() }
    }

    /// Adds a warm-start range `(start, bytes)` at `level`.
    #[must_use]
    pub fn warmed(mut self, start: u64, bytes: u64, level: CacheLevel) -> Self {
        self.prewarm.push((start, bytes, level));
        self
    }

    /// The kernel's display name (row label in Figure 6).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The executable program.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Warm-start ranges `(start, bytes, level)` to install before
    /// simulation.
    #[must_use]
    pub fn prewarm_ranges(&self) -> &[(u64, u64, CacheLevel)] {
        &self.prewarm
    }

    /// Consumes the workload, returning the program.
    #[must_use]
    pub fn into_program(self) -> Program {
        self.program
    }
}

fn r(i: u8) -> Reg {
    Reg::new(i)
}
fn fr(i: u8) -> FReg {
    FReg::new(i)
}

/// Writes a Sattolo-cycle permutation of `lines` cache lines starting at
/// `base` into the image: `mem[p]` holds the next pointer, forming a
/// single cycle visiting every line.
fn pointer_ring(asm: &mut Assembler, base: u64, lines: u64, rng: &mut SdoRng) -> u64 {
    let mut order: Vec<u64> = (0..lines).collect();
    // Sattolo's algorithm: a single n-cycle.
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..i);
        order.swap(i, j);
    }
    for k in 0..order.len() {
        let from = base + order[k] * 64;
        let to = base + order[(k + 1) % order.len()] * 64;
        asm.data_mut().set_word(from, to);
    }
    base + order[0] * 64
}

/// `ptr_chase` — mcf-like random pointer chasing over `footprint` bytes.
///
/// Each iteration loads the next pointer, bounds-checks the *loaded*
/// value (Figure-1 shape; never actually taken) and chases one more step
/// through the tainted pointer. With the default 1 MiB footprint the
/// chain lives mostly in the L3.
#[must_use]
pub fn ptr_chase(footprint: u64, iters: u64, seed: u64) -> Program {
    let mut rng = SdoRng::seed_from_u64(seed);
    let mut asm = Assembler::named("ptr_chase");
    let base = 0x10_0000;
    let start = pointer_ring(&mut asm, base, footprint / 64, &mut rng);
    let (ptr, val, acc) = (r(1), r(2), r(7));
    asm.li(ptr, start as i64);
    let iter = r(10);
    asm.li(iter, iters as i64);
    let esc = asm.label();
    let top = asm.here();
    asm.ld(val, ptr, 0); // access: next pointer
    asm.blt(val, Reg::ZERO, esc); // bounds check on loaded data (never taken)
    asm.ld(ptr, val, 0); // transmit: chase through the tainted pointer
    asm.add(acc, acc, val);
    asm.addi(iter, iter, -1);
    asm.bne(iter, Reg::ZERO, top);
    asm.bind(esc);
    asm.halt();
    asm.finish().expect("ptr_chase assembles")
}

/// `stream` — lbm-like unit-stride streaming with one L1 miss per 8
/// words, plus an indirect access into a small hot table gated by a
/// bounds check on the streamed value.
#[must_use]
pub fn stream(words: u64, passes: u64, seed: u64) -> Program {
    let mut rng = SdoRng::seed_from_u64(seed);
    let mut asm = Assembler::named("stream");
    let a_base = 0x20_0000u64;
    let t_base = 0x1000u64; // 4 KiB hot table
    for i in 0..words {
        asm.data_mut().set_word(a_base + i * 8, rng.gen_range(0u64..1 << 20));
    }
    for i in 0..512 {
        asm.data_mut().set_word(t_base + i * 8, i * 3);
    }
    let (ap, av, tv, acc, limit, tb) = (r(1), r(2), r(3), r(7), r(8), r(9));
    asm.li(limit, 1 << 30);
    asm.li(tb, t_base as i64);
    let pass = r(11);
    asm.li(pass, passes as i64);
    let esc = asm.label();
    let pass_top = asm.here();
    asm.li(ap, a_base as i64);
    let iter = r(10);
    asm.li(iter, words as i64);
    let top = asm.here();
    asm.ld(av, ap, 0); // streamed access
    asm.bge(av, limit, esc); // bounds check on the data (never taken)
    asm.andi(r(4), av, 0xff8);
    asm.add(r(4), r(4), tb);
    asm.ld(tv, r(4), 0); // transmit: indirect into the hot table
    asm.add(acc, acc, tv);
    asm.addi(ap, ap, 8);
    asm.addi(iter, iter, -1);
    asm.bne(iter, Reg::ZERO, top);
    asm.addi(pass, pass, -1);
    asm.bne(pass, Reg::ZERO, pass_top);
    asm.bind(esc);
    asm.halt();
    asm.finish().expect("stream assembles")
}

/// `stride` — cactuBSSN-like constant non-unit stride: every access
/// touches a new line, so the location pattern is uniform (all deep).
#[must_use]
pub fn stride(lines: u64, stride_lines: u64, passes: u64, seed: u64) -> Program {
    let mut rng = SdoRng::seed_from_u64(seed);
    let mut asm = Assembler::named("stride");
    let a_base = 0x40_0000u64;
    for i in 0..lines {
        asm.data_mut().set_word(a_base + i * 64, rng.gen_range(0u64..1 << 20));
    }
    let t_base = 0x1000u64;
    for i in 0..512 {
        asm.data_mut().set_word(t_base + i * 8, i);
    }
    let (ap, av, acc, limit, tb) = (r(1), r(2), r(7), r(8), r(9));
    asm.li(limit, 1 << 30);
    asm.li(tb, t_base as i64);
    let pass = r(11);
    asm.li(pass, passes as i64);
    let esc = asm.label();
    let pass_top = asm.here();
    asm.li(ap, a_base as i64);
    let iter = r(10);
    asm.li(iter, (lines / stride_lines) as i64);
    let top = asm.here();
    asm.ld(av, ap, 0);
    asm.bge(av, limit, esc); // never taken
    asm.andi(r(4), av, 0xff8);
    asm.add(r(4), r(4), tb);
    asm.ld(r(5), r(4), 0); // transmit
    asm.add(acc, acc, r(5));
    asm.addi(ap, ap, (stride_lines * 64) as i64);
    asm.addi(iter, iter, -1);
    asm.bne(iter, Reg::ZERO, top);
    asm.addi(pass, pass, -1);
    asm.bne(pass, Reg::ZERO, pass_top);
    asm.bind(esc);
    asm.halt();
    asm.finish().expect("stride assembles")
}

/// `mix_branchy` — gcc/perlbench-like: the same taint-serialization
/// idiom as `hash_lookup` but over an L2-sized table, plus a genuinely
/// unpredictable 50/50 branch on the probed value (mispredicts mix with
/// protection overhead).
#[must_use]
pub fn mix_branchy(table_words: u64, iters: u64, seed: u64) -> Program {
    let mut rng = SdoRng::seed_from_u64(seed);
    let mut asm = Assembler::named("mix_branchy");
    let t_base = 0x30_0000u64;
    for i in 0..table_words {
        asm.data_mut().set_word(t_base + i * 8, rng.gen::<u64>() >> 1);
    }
    let i_base = 0x1000u64;
    let idx_words = 512u64;
    for i in 0..idx_words {
        asm.data_mut().set_word(i_base + i * 8, rng.gen_range(0..table_words) * 8);
    }
    let (io, iv, tv, acc, tb, ib, thr) = (r(1), r(2), r(3), r(7), r(8), r(9), r(12));
    asm.li(tb, t_base as i64);
    asm.li(ib, i_base as i64);
    asm.li(thr, (u64::MAX / 4) as i64);
    asm.li(io, 0);
    let iter = r(10);
    asm.li(iter, iters as i64);
    let top = asm.here();
    asm.add(r(4), ib, io);
    asm.ld(iv, r(4), 0); // access: streamed index
    asm.add(r(5), tb, iv);
    asm.ld(tv, r(5), 0); // transmit: independent L2/L3 probe
    let other = asm.label();
    let join = asm.label();
    asm.blt(tv, thr, other); // data-dependent, ~50/50 on the slow value
    asm.addi(acc, acc, 3);
    asm.j(join);
    asm.bind(other);
    asm.xori(acc, acc, 0x55);
    asm.bind(join);
    asm.addi(io, io, 8);
    asm.andi(io, io, ((idx_words - 1) * 8) as i64);
    asm.addi(iter, iter, -1);
    asm.bne(iter, Reg::ZERO, top);
    asm.halt();
    asm.finish().expect("mix_branchy assembles")
}

/// `hash_lookup` — xalancbmk-like. The paper's high-overhead idiom: a
/// streamed index feeds an *independent* indirect probe of an L3-sized
/// table, and the loop branches on the probed (slow) value. On the
/// insecure baseline the probes enjoy full memory-level parallelism;
/// under STT each probe's address is tainted until the previous probe's
/// branch resolves, serializing the misses — exactly the overhead SDO
/// recovers by issuing the probes as Obl-Lds.
#[must_use]
pub fn hash_lookup(table_words: u64, iters: u64, seed: u64) -> Program {
    let mut rng = SdoRng::seed_from_u64(seed);
    let mut asm = Assembler::named("hash_lookup");
    let t_base = 0x80_0000u64;
    for i in 0..table_words {
        asm.data_mut().set_word(t_base + i * 8, rng.gen_range(0u64..1 << 24));
    }
    // Streamed index array (hot after the first lap).
    let i_base = 0x1000u64;
    let idx_words = 512u64;
    for i in 0..idx_words {
        asm.data_mut().set_word(i_base + i * 8, rng.gen_range(0..table_words) * 8);
    }
    let (io, iv, tv, acc, tb, ib, magic) = (r(1), r(2), r(3), r(7), r(8), r(9), r(12));
    asm.li(tb, t_base as i64);
    asm.li(ib, i_base as i64);
    asm.li(magic, -1); // never matches (table values are small positives)
    asm.li(io, 0);
    let iter = r(10);
    asm.li(iter, iters as i64);
    let esc = asm.label();
    let top = asm.here();
    asm.add(r(4), ib, io);
    asm.ld(iv, r(4), 0); // access: streamed index (hot)
    asm.add(r(5), tb, iv);
    asm.ld(tv, r(5), 0); // transmit: independent L3 probe, tainted address
    asm.beq(tv, magic, esc); // branch on the slow probed value (never taken)
    asm.add(acc, acc, tv);
    asm.addi(io, io, 8);
    asm.andi(io, io, ((idx_words - 1) * 8) as i64);
    asm.addi(iter, iter, -1);
    asm.bne(iter, Reg::ZERO, top);
    asm.bind(esc);
    asm.halt();
    asm.finish().expect("hash_lookup assembles")
}

/// `stencil` — fotonik3d-like 3-point stencil with a guard branch on the
/// loaded center value; high spatial locality with periodic line misses.
#[must_use]
pub fn stencil(words: u64, passes: u64, seed: u64) -> Program {
    let mut rng = SdoRng::seed_from_u64(seed);
    let mut asm = Assembler::named("stencil");
    let a_base = 0x50_0000u64;
    let b_base = 0x60_0000u64;
    for i in 0..words + 2 {
        asm.data_mut().set_word(a_base + i * 8, rng.gen_range(0u64..1 << 16));
    }
    let (ap, bp, c, l, rr, acc, limit) = (r(1), r(2), r(3), r(4), r(5), r(7), r(12));
    asm.li(limit, 1 << 30);
    let pass = r(11);
    asm.li(pass, passes as i64);
    let esc = asm.label();
    let pass_top = asm.here();
    asm.li(ap, (a_base + 8) as i64);
    asm.li(bp, b_base as i64);
    let iter = r(10);
    asm.li(iter, words as i64);
    let top = asm.here();
    asm.ld(c, ap, 0); // center
    asm.bge(c, limit, esc); // guard on loaded value (never taken)
    asm.ld(l, ap, -8);
    asm.ld(rr, ap, 8);
    asm.add(r(6), l, rr);
    asm.add(r(6), r(6), c);
    asm.st(r(6), bp, 0);
    asm.add(acc, acc, r(6));
    asm.addi(ap, ap, 8);
    asm.addi(bp, bp, 8);
    asm.addi(iter, iter, -1);
    asm.bne(iter, Reg::ZERO, top);
    asm.addi(pass, pass, -1);
    asm.bne(pass, Reg::ZERO, pass_top);
    asm.bind(esc);
    asm.halt();
    asm.finish().expect("stencil assembles")
}

/// `matmul_blocked` — FP-heavy blocked matrix kernel: `C[i][j] +=
/// A[i][k] * B[k][j]` over `n × n` binary64 matrices (FP multiply is a
/// transmit op under `STT{ld+fp}` and FP-SDO).
#[must_use]
pub fn matmul_blocked(n: u64, seed: u64) -> Program {
    let mut rng = SdoRng::seed_from_u64(seed);
    let mut asm = Assembler::named("matmul_blocked");
    let a_base = 0x70_0000u64;
    let b_base = a_base + n * n * 8;
    let c_base = b_base + n * n * 8;
    for i in 0..n * n {
        asm.data_mut().set_f64(a_base + i * 8, rng.gen_range(0.5f64..2.0));
        asm.data_mut().set_f64(b_base + i * 8, rng.gen_range(0.5f64..2.0));
    }
    let (ai, bj, ci) = (r(1), r(2), r(3));
    let (i, j, k) = (r(10), r(11), r(12));
    let (fa, fb, fc) = (fr(1), fr(2), fr(3));
    let nn = r(9);
    asm.li(nn, n as i64);

    asm.li(i, 0);
    let i_top = asm.here();
    asm.li(j, 0);
    let j_top = asm.here();
    // ci = &C[i][j]
    asm.mul(r(4), i, nn);
    asm.add(r(4), r(4), j);
    asm.slli(r(4), r(4), 3);
    asm.li(ci, c_base as i64);
    asm.add(ci, ci, r(4));
    asm.fld(fc, ci, 0);
    asm.li(k, 0);
    let k_top = asm.here();
    // ai = &A[i][k], bj = &B[k][j]
    asm.mul(r(5), i, nn);
    asm.add(r(5), r(5), k);
    asm.slli(r(5), r(5), 3);
    asm.li(ai, a_base as i64);
    asm.add(ai, ai, r(5));
    asm.mul(r(6), k, nn);
    asm.add(r(6), r(6), j);
    asm.slli(r(6), r(6), 3);
    asm.li(bj, b_base as i64);
    asm.add(bj, bj, r(6));
    asm.fld(fa, ai, 0);
    asm.fld(fb, bj, 0);
    asm.fmul(fr(4), fa, fb);
    asm.fadd(fc, fc, fr(4));
    asm.addi(k, k, 1);
    asm.blt(k, nn, k_top);
    asm.fst(fc, ci, 0);
    asm.addi(j, j, 1);
    asm.blt(j, nn, j_top);
    asm.addi(i, i, 1);
    asm.blt(i, nn, i_top);
    asm.halt();
    asm.finish().expect("matmul assembles")
}

/// `fp_subnormal` — FP multiply stream with a controllable fraction of
/// subnormal inputs (`one subnormal per `sub_period` elements; 0 = none),
/// executed in the shadow of slow bounds loads so the FP transmit ops are
/// tainted. Exercises the predict-normal FP DO variant and its squashes.
#[must_use]
pub fn fp_subnormal(elements: u64, sub_period: u64, seed: u64) -> Program {
    let mut rng = SdoRng::seed_from_u64(seed);
    let mut asm = Assembler::named("fp_subnormal");
    let x_base = 0x1000u64; // hot ring of FP inputs (4 KiB)
    let ring = 256u64;
    for i in 0..ring {
        let v = if sub_period > 0 && i % sub_period == 0 {
            f64::MIN_POSITIVE / 8.0
        } else {
            rng.gen_range(0.5f64..2.0)
        };
        asm.data_mut().set_f64(x_base + i * 8, v);
    }
    let bounds = 0xA0_0000u64; // cold bound lines open the windows
    let (bp, bound, xo, xb, xp) = (r(1), r(2), r(3), r(4), r(5));
    asm.li(bp, bounds as i64);
    asm.li(xb, x_base as i64);
    asm.li(xo, 0);
    let (f1, f2, facc) = (fr(1), fr(2), fr(7));
    let iter = r(10);
    asm.li(iter, elements as i64);
    let esc = asm.label();
    let top = asm.here();
    asm.ld(bound, bp, 0); // slow access opens the window
    asm.bne(bound, Reg::ZERO, esc); // never taken
    asm.add(xp, xb, xo);
    asm.fld(f1, xp, 0);
    asm.fld(f2, xp, 8);
    asm.fmul(fr(3), f1, f2); // tainted FP transmit
    asm.fadd(facc, facc, fr(3));
    // Ring advance: `ring` is a power of two, so `(ring - 1) * 8` is a
    // contiguous bit mask over the word offsets (the `xp + 8` read of the
    // final slot falls one word past the ring and reads 0.0, which is
    // harmless and identical in the golden model).
    asm.addi(xo, xo, 8);
    asm.andi(xo, xo, ((ring - 1) * 8) as i64);
    asm.addi(bp, bp, 512);
    asm.addi(iter, iter, -1);
    asm.bne(iter, Reg::ZERO, top);
    asm.bind(esc);
    asm.halt();
    asm.finish().expect("fp_subnormal assembles")
}

/// `phase_shift` — omnetpp-like: the hash-probe idiom where the probed
/// table alternates between an L1-resident 4 KiB table and an L3-sized
/// 1 MiB table every `phase_len` iterations, so the right location
/// prediction changes at coarse granularity (Section V-D pattern 1).
#[must_use]
pub fn phase_shift(phase_len: u64, phases: u64, seed: u64) -> Program {
    let mut rng = SdoRng::seed_from_u64(seed);
    let mut asm = Assembler::named("phase_shift");
    let small_base = 0x2000u64;
    let small_words = 512u64; // 4 KiB
    for i in 0..small_words {
        asm.data_mut().set_word(small_base + i * 8, rng.gen_range(0u64..1 << 16));
    }
    let big_base = 0xB0_0000u64;
    let big_words = 64 * 1024u64; // 512 KiB
    for i in 0..big_words {
        asm.data_mut().set_word(big_base + i * 8, rng.gen_range(0u64..1 << 16));
    }
    let i_base = 0x1000u64;
    let idx_words = 256u64;
    for i in 0..idx_words {
        asm.data_mut().set_word(i_base + i * 8, rng.gen::<u64>());
    }
    let (io, iv, tv, acc, ib, magic, tbase, tmask) = (r(1), r(2), r(3), r(7), r(9), r(12), r(13), r(14));
    asm.li(ib, i_base as i64);
    asm.li(magic, -1);
    asm.li(io, 0);
    let (phase, iter) = (r(11), r(10));
    asm.li(phase, (phases * 2) as i64);
    let esc = asm.label();
    let phase_top = asm.here();
    // Select the table for this phase.
    let use_small = asm.label();
    let selected = asm.label();
    asm.andi(r(4), phase, 1);
    asm.bne(r(4), Reg::ZERO, use_small);
    asm.li(tbase, big_base as i64);
    asm.li(tmask, ((big_words - 1) * 8) as i64);
    asm.j(selected);
    asm.bind(use_small);
    asm.li(tbase, small_base as i64);
    asm.li(tmask, ((small_words - 1) * 8) as i64);
    asm.bind(selected);
    asm.li(iter, phase_len as i64);
    let top = asm.here();
    asm.add(r(4), ib, io);
    asm.ld(iv, r(4), 0); // access: streamed pseudo-random index
    asm.and_(r(5), iv, tmask);
    asm.add(r(5), r(5), tbase);
    asm.ld(tv, r(5), 0); // transmit: probe of the phase's table
    asm.beq(tv, magic, esc); // branch on the probed value (never taken)
    asm.add(acc, acc, tv);
    asm.addi(io, io, 8);
    asm.andi(io, io, ((idx_words - 1) * 8) as i64);
    asm.addi(iter, iter, -1);
    asm.bne(iter, Reg::ZERO, top);
    asm.addi(phase, phase, -1);
    asm.bne(phase, Reg::ZERO, phase_top);
    asm.bind(esc);
    asm.halt();
    asm.finish().expect("phase_shift assembles")
}

/// `l1_resident` — exchange2-like control: the probe idiom with a tiny
/// (2 KiB) table and plenty of ALU work. Windows are short and every
/// prediction is trivially "L1", so protection overhead should be small.
#[must_use]
pub fn l1_resident(iters: u64, seed: u64) -> Program {
    let mut rng = SdoRng::seed_from_u64(seed);
    let mut asm = Assembler::named("l1_resident");
    let t_base = 0x2000u64;
    let t_words = 256u64;
    for i in 0..t_words {
        asm.data_mut().set_word(t_base + i * 8, rng.gen_range(0u64..1 << 12));
    }
    let (h, tv, acc, tb, magic) = (r(1), r(2), r(7), r(8), r(12));
    asm.li(tb, t_base as i64);
    asm.li(magic, -1);
    asm.li(h, 0x1234);
    let iter = r(10);
    asm.li(iter, iters as i64);
    let esc = asm.label();
    let top = asm.here();
    asm.muli(h, h, 6364136223846793005);
    asm.addi(h, h, 1442695040888963407);
    asm.srli(r(4), h, 40);
    asm.andi(r(4), r(4), ((t_words - 1) * 8) as i64);
    asm.add(r(4), r(4), tb);
    asm.ld(tv, r(4), 0); // L1-resident probe
    asm.beq(tv, magic, esc); // never taken
    asm.xor(r(5), tv, acc);
    asm.srli(r(6), r(5), 3);
    asm.add(acc, r(6), tv);
    asm.addi(iter, iter, -1);
    asm.bne(iter, Reg::ZERO, top);
    asm.bind(esc);
    asm.halt();
    asm.finish().expect("l1_resident assembles")
}

/// `bst_search` — binary-search-tree lookups (extra kernel, not in the
/// default suite): every step loads a node key, branches on it (a
/// genuinely data-dependent direction) and follows a child pointer with a
/// tainted address. Node layout: `[key, left, right]` at 64-byte-aligned
/// addresses.
#[must_use]
pub fn bst_search(nodes: u64, searches: u64, seed: u64) -> Program {
    let mut rng = SdoRng::seed_from_u64(seed);
    let mut asm = Assembler::named("bst_search");
    let base = 0xC0_0000u64;
    // Build a balanced BST over sorted keys 0, 2, 4, ... (even), so odd
    // probe keys always walk to a leaf.
    let node_addr = |i: u64| base + i * 64;
    fn place(
        asm: &mut Assembler,
        node_addr: &dyn Fn(u64) -> u64,
        next: &mut u64,
        lo: u64,
        hi: u64,
    ) -> u64 {
        if lo >= hi {
            return 0;
        }
        let mid = (lo + hi) / 2;
        let me = *next;
        *next += 1;
        let addr = node_addr(me);
        asm.data_mut().set_word(addr, mid * 2); // key
        let left = place(asm, node_addr, next, lo, mid);
        let right = place(asm, node_addr, next, mid + 1, hi);
        asm.data_mut().set_word(addr + 8, left);
        asm.data_mut().set_word(addr + 16, right);
        addr
    }
    let mut next = 0;
    let root = place(&mut asm, &node_addr, &mut next, 0, nodes);

    // Probe keys: random odd values (never found => full-depth walks).
    let k_base = 0x1000u64;
    let k_words = 256u64;
    for i in 0..k_words {
        asm.data_mut().set_word(k_base + i * 8, rng.gen_range(0..nodes) * 2 + 1);
    }

    let (node, key, probe, acc, kb, ko) = (r(1), r(2), r(3), r(7), r(8), r(9));
    asm.li(kb, k_base as i64);
    asm.li(ko, 0);
    let iter = r(10);
    asm.li(iter, searches as i64);
    let search_top = asm.here();
    asm.add(r(4), kb, ko);
    asm.ld(probe, r(4), 0); // the key to search for
    asm.li(node, root as i64);
    let walk = asm.label();
    let left = asm.label();
    let step_done = asm.label();
    let found = asm.label();
    asm.bind(walk);
    asm.ld(key, node, 0); // access: node key (output tainted in-walk)
    asm.beq(key, probe, found); // data-dependent
    asm.blt(probe, key, left);
    asm.ld(node, node, 16); // transmit: right child (tainted address)
    asm.j(step_done);
    asm.bind(left);
    asm.ld(node, node, 8); // transmit: left child
    asm.bind(step_done);
    asm.bne(node, Reg::ZERO, walk);
    asm.bind(found);
    asm.add(acc, acc, key);
    asm.addi(ko, ko, 8);
    asm.andi(ko, ko, ((k_words - 1) * 8) as i64);
    asm.addi(iter, iter, -1);
    asm.bne(iter, Reg::ZERO, search_top);
    asm.halt();
    asm.finish().expect("bst_search assembles")
}

/// `sparse_matvec` — CSR sparse matrix-vector product `y = A·x` (extra
/// kernel): column indices are loaded, then used to gather `x` (tainted
/// indirect FP loads) feeding FP multiply-adds — the FP-transmit-heavy
/// cousin of `hash_lookup`.
#[must_use]
pub fn sparse_matvec(rows: u64, nnz_per_row: u64, seed: u64) -> Program {
    let mut rng = SdoRng::seed_from_u64(seed);
    let mut asm = Assembler::named("sparse_matvec");
    let cols = rows;
    let col_base = 0xD0_0000u64; // column indices, row-major
    let val_base = 0xD8_0000u64; // matrix values
    let x_base = 0xE0_0000u64; // dense vector
    let y_base = 0xE8_0000u64; // result
    for i in 0..rows * nnz_per_row {
        asm.data_mut().set_word(col_base + i * 8, rng.gen_range(0..cols) * 8);
        asm.data_mut().set_f64(val_base + i * 8, rng.gen_range(0.5f64..1.5));
    }
    for c in 0..cols {
        asm.data_mut().set_f64(x_base + c * 8, rng.gen_range(0.5f64..1.5));
    }

    let (cp, vp, yp, xb, cidx) = (r(1), r(2), r(3), r(4), r(5));
    let (fv, fx, facc) = (fr(1), fr(2), fr(3));
    asm.li(cp, col_base as i64);
    asm.li(vp, val_base as i64);
    asm.li(yp, y_base as i64);
    asm.li(xb, x_base as i64);
    let (row, k) = (r(10), r(11));
    asm.li(row, rows as i64);
    let row_top = asm.here();
    asm.fsub(facc, facc, facc); // facc = 0
    asm.li(k, nnz_per_row as i64);
    let k_top = asm.here();
    asm.ld(cidx, cp, 0); // access: column index
    asm.blt(cidx, Reg::ZERO, k_top); // bounds check on the index (never taken)
    asm.add(r(6), xb, cidx);
    asm.fld(fx, r(6), 0); // transmit: gather x[col] (tainted address)
    asm.fld(fv, vp, 0);
    asm.fmul(fr(4), fv, fx); // FP transmit op
    asm.fadd(facc, facc, fr(4));
    asm.addi(cp, cp, 8);
    asm.addi(vp, vp, 8);
    asm.addi(k, k, -1);
    asm.bne(k, Reg::ZERO, k_top);
    asm.fst(facc, yp, 0);
    asm.addi(yp, yp, 8);
    asm.addi(row, row, -1);
    asm.bne(row, Reg::ZERO, row_top);
    asm.halt();
    asm.finish().expect("sparse_matvec assembles")
}

/// The behavioural class of a suite kernel: `dram_bound` kernels spend
/// most cycles stalled on memory beyond L2, `branchy` on
/// mispredictions, `fp` on long-latency FP units, and the rest are
/// `cache_resident`.
#[must_use]
pub fn workload_class(name: &str) -> &'static str {
    match name {
        "ptr_chase" | "hash_lookup" | "phase_shift" => "dram_bound",
        "mix_branchy" => "branchy",
        "fp_subnormal" => "fp",
        _ => "cache_resident",
    }
}

/// The pinned static verdict of a suite kernel under `sdo-analyze`'s
/// taint fixpoint (`None` for kernels without a pinned expectation).
/// The verdicts are conservative by nature: a kernel whose loop loads
/// feed a later load address (pointer chasing, hash probing) is a
/// *potential* cache transmitter even though no secret is involved —
/// exactly the access patterns STT pays its overhead delaying.
#[must_use]
pub fn kernel_expect(name: &str) -> Option<crate::litmus::StaticExpect> {
    use crate::litmus::{Channel, StaticExpect};
    let e = |transmit, training, dead_access| {
        Some(StaticExpect { transmit, training, dead_access })
    };
    const CACHE: &[Channel] = &[Channel::Cache];
    const FP: &[Channel] = &[Channel::FpTiming];
    match name {
        "ptr_chase" => e(CACHE, true, false),
        "stream" => e(CACHE, true, false),
        "stride" => e(CACHE, true, false),
        "mix_branchy" => e(CACHE, true, false),
        "hash_lookup" => e(CACHE, true, false),
        "stencil" => e(&[], true, false),
        "matmul_blocked" => e(FP, false, false),
        "fp_subnormal" => e(FP, true, false),
        "phase_shift" => e(CACHE, true, false),
        "l1_resident" => e(&[], true, false),
        _ => None,
    }
}

/// The full evaluation suite with default sizes (used by Figures 6–8 and
/// Table III).
#[must_use]
pub fn suite() -> Vec<Workload> {
    vec![
        Workload::new("ptr_chase", ptr_chase(1 << 20, 4000, 1))
            .warmed(0x10_0000, 1 << 20, CacheLevel::L3),
        Workload::new("stream", stream(4096, 2, 2))
            .warmed(0x20_0000, 4096 * 8, CacheLevel::L3),
        Workload::new("stride", stride(1536, 3, 3, 3))
            .warmed(0x40_0000, 1536 * 64, CacheLevel::L3),
        Workload::new("mix_branchy", mix_branchy(1 << 14, 3000, 4))
            .warmed(0x30_0000, (1 << 14) * 8, CacheLevel::L2),
        Workload::new("hash_lookup", hash_lookup(1 << 16, 3000, 5))
            .warmed(0x80_0000, (1 << 16) * 8, CacheLevel::L3),
        Workload::new("stencil", stencil(2048, 3, 6))
            .warmed(0x50_0000, 2048 * 8 + 16, CacheLevel::L2),
        Workload::new("matmul_blocked", matmul_blocked(18, 7)),
        Workload::new("fp_subnormal", fp_subnormal(3000, 16, 8)),
        Workload::new("phase_shift", phase_shift(500, 5, 9))
            .warmed(0xB0_0000, (1 << 16) * 8, CacheLevel::L3),
        Workload::new("l1_resident", l1_resident(5000, 10)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_isa::Interpreter;

    #[test]
    fn suite_has_ten_distinct_kernels() {
        let s = suite();
        assert_eq!(s.len(), 10);
        let mut names: Vec<_> = s.iter().map(Workload::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10, "kernel names must be unique");
    }

    #[test]
    fn every_suite_kernel_has_a_known_class() {
        assert_eq!(workload_class("ptr_chase"), "dram_bound");
        assert_eq!(workload_class("hash_lookup"), "dram_bound");
        assert_eq!(workload_class("phase_shift"), "dram_bound");
        assert_eq!(workload_class("l1_resident"), "cache_resident");
        assert_eq!(workload_class("mix_branchy"), "branchy");
        assert_eq!(workload_class("fp_subnormal"), "fp");
    }

    #[test]
    fn every_kernel_halts_in_golden_model() {
        for w in suite() {
            let mut interp = Interpreter::new(w.program());
            let executed = interp
                .run(20_000_000)
                .unwrap_or_else(|e| panic!("{} did not halt: {e}", w.name()));
            assert!(
                executed > 10_000,
                "{} should run a meaningful number of instructions, got {executed}",
                w.name()
            );
        }
    }

    #[test]
    fn kernels_are_deterministic() {
        let a = ptr_chase(1 << 16, 100, 42);
        let b = ptr_chase(1 << 16, 100, 42);
        assert_eq!(a, b);
        let c = ptr_chase(1 << 16, 100, 43);
        assert_ne!(a, c, "different seeds give different rings");
    }

    #[test]
    fn pointer_rings_are_single_cycles() {
        for seed in 0..5u64 {
            let mut asm = Assembler::new();
            let mut rng = SdoRng::seed_from_u64(seed);
            let lines = 64;
            let start = pointer_ring(&mut asm, 0x4000, lines, &mut rng);
            asm.halt();
            let p = asm.finish().unwrap();
            // Walk the ring: must visit every line exactly once.
            let mut seen = std::collections::HashSet::new();
            let mut cur = start;
            for _ in 0..lines {
                assert!(seen.insert(cur), "ring revisits {cur:#x} early");
                cur = p.data().word(cur);
            }
            assert_eq!(cur, start, "ring closes after {lines} steps");
        }
    }

    #[test]
    fn fp_subnormal_controls_fraction() {
        let with = fp_subnormal(10, 4, 0);
        // Every 4th ring slot subnormal.
        let sub_count = (0..256u64)
            .filter(|i| f64::from_bits(with.data().word(0x1000 + i * 8)).is_subnormal())
            .count();
        assert_eq!(sub_count, 64);
        let without = fp_subnormal(10, 0, 0);
        let none = (0..256u64)
            .filter(|i| f64::from_bits(without.data().word(0x1000 + i * 8)).is_subnormal())
            .count();
        assert_eq!(none, 0);
    }

    #[test]
    fn bst_search_halts_and_walks_full_depth() {
        let prog = bst_search(255, 200, 11);
        let mut interp = Interpreter::new(&prog);
        let executed = interp.run(10_000_000).unwrap();
        // 255-node balanced tree => ~8 levels per search, ~7 insts/level.
        assert!(executed > 200 * 8 * 5, "searches must walk the tree: {executed}");
    }

    #[test]
    fn sparse_matvec_matches_reference() {
        let rows = 16u64;
        let nnz = 4u64;
        let prog = sparse_matvec(rows, nnz, 3);
        let mut interp = Interpreter::new(&prog);
        interp.run(10_000_000).unwrap();
        // Recompute row 0 from the image.
        let col = |i: u64| prog.data().word(0xD0_0000 + i * 8);
        let val = |i: u64| f64::from_bits(prog.data().word(0xD8_0000 + i * 8));
        let x = |off: u64| f64::from_bits(prog.data().word(0xE0_0000 + off));
        for row in 0..rows {
            let mut want = 0.0;
            for k in 0..nnz {
                let i = row * nnz + k;
                want += val(i) * x(col(i));
            }
            let got = f64::from_bits(interp.mem_word(0xE8_0000 + row * 8));
            assert!((got - want).abs() < 1e-9, "y[{row}] = {got}, want {want}");
        }
    }

    #[test]
    fn matmul_matches_reference() {
        let n = 6u64;
        let prog = matmul_blocked(n, 7);
        let mut interp = Interpreter::new(&prog);
        interp.run(10_000_000).unwrap();
        // Recompute in Rust from the same image.
        let a = |i: u64, k: u64| f64::from_bits(prog.data().word(0x70_0000 + (i * n + k) * 8));
        let b_base = 0x70_0000 + n * n * 8;
        let c_base = b_base + n * n * 8;
        let b = |k: u64, j: u64| f64::from_bits(prog.data().word(b_base + (k * n + j) * 8));
        for i in 0..n {
            for j in 0..n {
                let mut c = 0.0;
                for k in 0..n {
                    c += a(i, k) * b(k, j);
                }
                let got = f64::from_bits(interp.mem_word(c_base + (i * n + j) * 8));
                assert!((got - c).abs() < 1e-9, "C[{i}][{j}] = {got}, want {c}");
            }
        }
    }
}
