//! The in-tree RV32 benchmark corpus: real compiled C kernels checked
//! in as raw RV32I+M instruction words, with pinned expected outputs.
//!
//! Each entry is a complete bare-metal program following one
//! convention: execution starts at `_start` (= [`TEXT_BASE`]), which
//! sets up the stack at [`STACK_TOP`], calls `main` and executes
//! `ebreak` to halt; `main` stores the kernel's 32-bit result at
//! [`RESULT_ADDR`]. The C source each kernel was compiled from is
//! quoted in the `gen` module alongside the assembly that pins the
//! checked-in words (the `corpus_words_match_generators` test keeps
//! the two in lockstep). Programs avoid `x3`/`x4`, which the lowering
//! reserves as scratch (`-ffixed-x3 -ffixed-x4` in compiler terms).
//!
//! The fifth entry, `rv32_gadget`, is a Spectre-v1 victim with an
//! annotated secret byte ([`CorpusEntry::secret_addr`]) used by the
//! `sdo-verify` secret-swap checker: the secret is never read
//! architecturally, so the architectural results are
//! secret-independent, but the mis-speculated window transmits it
//! through the cache unless the variant closes that channel.

use crate::loader::Rv32Image;
use crate::lower::translate;
use sdo_isa::Program;

/// Byte address of `_start` — the base of every corpus text segment.
pub const TEXT_BASE: u32 = 0x1000;

/// Where each kernel stores its 32-bit result.
pub const RESULT_ADDR: u32 = 0x2_0000;

/// Initial stack pointer (grows down).
pub const STACK_TOP: u32 = 0x8_0000;

/// One checked-in corpus program.
pub struct CorpusEntry {
    /// Kernel name (doubles as the workload name in the harness).
    pub name: &'static str,
    /// The raw RV32I+M instruction words, in address order from
    /// [`TEXT_BASE`].
    pub words: &'static [u32],
    /// Builds the initialised data segments.
    pub data: fn() -> Vec<(u32, Vec<u8>)>,
    /// The pinned 32-bit value at [`RESULT_ADDR`] after a run.
    pub expected_result: u32,
    /// Byte address of the secret for gadget entries (`None` for the
    /// plain benchmarks). The byte is *outside* the initialised data
    /// and never read architecturally.
    pub secret_addr: Option<u32>,
}

impl CorpusEntry {
    /// The entry as a loaded [`Rv32Image`].
    #[must_use]
    pub fn image(&self) -> Rv32Image {
        Rv32Image {
            entry: TEXT_BASE,
            text_base: TEXT_BASE,
            text: self.words.to_vec(),
            data: (self.data)(),
        }
    }

    /// Translates the entry to a mini-ISA program (secret byte 0).
    #[must_use]
    pub fn program(&self) -> Program {
        self.with_secret(0)
    }

    /// Translates the entry with the secret byte set to `secret`
    /// (identical to [`CorpusEntry::program`] for entries without a
    /// secret).
    #[must_use]
    pub fn with_secret(&self, secret: u8) -> Program {
        let mut program =
            translate(&self.image(), self.name).expect("corpus entries are pinned translatable");
        if let Some(addr) = self.secret_addr {
            program.data_mut().set_byte(u64::from(addr), secret);
        }
        program
    }
}

/// Reads the 32-bit result a corpus kernel stored at [`RESULT_ADDR`].
#[must_use]
pub fn read_result(interp: &sdo_isa::Interpreter<'_>) -> u32 {
    let a = u64::from(RESULT_ADDR);
    u32::from_le_bytes([
        interp.mem_byte(a),
        interp.mem_byte(a + 1),
        interp.mem_byte(a + 2),
        interp.mem_byte(a + 3),
    ])
}

// ---------------------------------------------------------------------
// Data segments
// ---------------------------------------------------------------------

/// crc32: 96 message bytes at 0x10000.
fn crc32_data() -> Vec<(u32, Vec<u8>)> {
    vec![(0x1_0000, (0..96u32).map(|i| ((i * 31 + 7) & 0xff) as u8).collect())]
}

fn le_words(values: &[i32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// matmul: two 8×8 i32 matrices at 0x10100 (A) and 0x10200 (B); the
/// product is written to zero-initialised memory at 0x10300.
fn matmul_data() -> Vec<(u32, Vec<u8>)> {
    let a: Vec<i32> = (0..64).map(|t| (t * 7 + 3) % 23 - 11).collect();
    let b: Vec<i32> = (0..64).map(|t| (t * 5 + 1) % 19 - 9).collect();
    vec![(0x1_0100, le_words(&a)), (0x1_0200, le_words(&b))]
}

/// sort: 48 pseudo-random i32 (negatives included) at 0x10400.
fn sort_data() -> Vec<(u32, Vec<u8>)> {
    let mut x: u32 = 0x1234;
    let v: Vec<i32> = (0..48)
        .map(|_| {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            i32::from((x >> 16) as i16)
        })
        .collect();
    vec![(0x1_0400, le_words(&v))]
}

/// strsearch: a 160-byte haystack over {a,b,c} at 0x10600 and the
/// 4-byte needle "abca" at 0x106C0.
fn strsearch_data() -> Vec<(u32, Vec<u8>)> {
    let hay: Vec<u8> = (0..160usize).map(|i| b"abcab"[i % 5]).collect();
    vec![(0x1_0600, hay), (0x1_06c0, b"abca".to_vec())]
}

/// gadget: `array1[16]` = 0..15 at 0x10700; the secret byte lives at
/// 0x10740 (= `array1 + 64`, the out-of-bounds index the victim is
/// coaxed into) and is *not* part of the initialised data.
fn gadget_data() -> Vec<(u32, Vec<u8>)> {
    vec![(0x1_0700, (0..16u8).collect())]
}

/// Out-of-bounds byte the gadget's mis-speculated access reads.
pub const GADGET_SECRET_ADDR: u32 = 0x1_0740;

// ---------------------------------------------------------------------
// The corpus
// ---------------------------------------------------------------------

/// The checked-in corpus: four compiled benchmark kernels plus the
/// Spectre-v1 gadget.
pub const CORPUS: &[CorpusEntry] = &[
    CorpusEntry {
        name: "rv32_crc32",
        words: CRC32_WORDS,
        data: crc32_data,
        expected_result: CRC32_EXPECTED,
        secret_addr: None,
    },
    CorpusEntry {
        name: "rv32_matmul",
        words: MATMUL_WORDS,
        data: matmul_data,
        expected_result: MATMUL_EXPECTED,
        secret_addr: None,
    },
    CorpusEntry {
        name: "rv32_sort",
        words: SORT_WORDS,
        data: sort_data,
        expected_result: SORT_EXPECTED,
        secret_addr: None,
    },
    CorpusEntry {
        name: "rv32_strsearch",
        words: STRSEARCH_WORDS,
        data: strsearch_data,
        expected_result: STRSEARCH_EXPECTED,
        secret_addr: None,
    },
    CorpusEntry {
        name: "rv32_gadget",
        words: GADGET_WORDS,
        data: gadget_data,
        expected_result: GADGET_EXPECTED,
        secret_addr: Some(GADGET_SECRET_ADDR),
    },
];

/// Looks a corpus entry up by name.
#[must_use]
pub fn entry(name: &str) -> Option<&'static CorpusEntry> {
    CORPUS.iter().find(|e| e.name == name)
}

const CRC32_WORDS: &[u32] = &[
    0x00080137, 0x008000ef, 0x00100073, 0xff010113,
    0x00112623, 0x00010537, 0x06000593, 0x018000ef,
    0x000207b7, 0x00a7a023, 0x00c12083, 0x01010113,
    0x00008067, 0xfff00793, 0x00000713, 0xedb886b7,
    0x32068693, 0x02b75a63, 0x00e502b3, 0x0002c283,
    0x0057c7b3, 0x00800313, 0x0017f393, 0x0017d793,
    0x00038463, 0x00d7c7b3, 0xfff30313, 0xfe0316e3,
    0x00170713, 0xfd1ff06f, 0xfff7c513, 0x00008067,
];
const CRC32_EXPECTED: u32 = 0xfc60bc11;
const MATMUL_WORDS: &[u32] = &[
    0x00080137, 0x008000ef, 0x00100073, 0xff010113,
    0x00112623, 0x00010537, 0x10050513, 0x000105b7,
    0x20058593, 0x00010637, 0x30060613, 0x00800693,
    0x050000ef, 0x00010637, 0x30060613, 0x00000293,
    0x00000313, 0x04000393, 0x0272d263, 0x00229e13,
    0x01c60e33, 0x000e2e03, 0x00128e93, 0x03de0e33,
    0x01c30333, 0x00128293, 0xfddff06f, 0x000207b7,
    0x0067a023, 0x00c12083, 0x01010113, 0x00008067,
    0x00000e13, 0x06de5a63, 0x00000e93, 0x06ded263,
    0x00000f13, 0x00000f93, 0x02df5e63, 0x02de02b3,
    0x01e282b3, 0x00229293, 0x005502b3, 0x0002a283,
    0x02df0333, 0x01d30333, 0x00231313, 0x00658333,
    0x00032303, 0x026282b3, 0x005f8fb3, 0x001f0f13,
    0xfc9ff06f, 0x02de02b3, 0x01d282b3, 0x00229293,
    0x005602b3, 0x01f2a023, 0x001e8e93, 0xfa1ff06f,
    0x001e0e13, 0xf91ff06f, 0x00008067,
];
const MATMUL_EXPECTED: u32 = 0xffffe99e;
const SORT_WORDS: &[u32] = &[
    0x00080137, 0x008000ef, 0x00100073, 0xff010113,
    0x00112623, 0x00010537, 0x40050513, 0x03000593,
    0x044000ef, 0x00000293, 0x00000313, 0x02b2d263,
    0x00229e13, 0x01c50e33, 0x000e2e03, 0x00128e93,
    0x03de0e33, 0x01c30333, 0x00128293, 0xfe1ff06f,
    0x000207b7, 0x0067a023, 0x00c12083, 0x01010113,
    0x00008067, 0x00100293, 0x04b2d463, 0x00229e13,
    0x01c50e33, 0x000e2303, 0xfff28393, 0x0203c063,
    0x00239e13, 0x01c50e33, 0x000e2e83, 0x01d35863,
    0x01de2223, 0xfff38393, 0xfe5ff06f, 0x00239e13,
    0x01c50e33, 0x006e2223, 0x00128293, 0xfbdff06f,
    0x00008067,
];
const SORT_EXPECTED: u32 = 0x008a7293;
const STRSEARCH_WORDS: &[u32] = &[
    0x00080137, 0x008000ef, 0x00100073, 0xff010113,
    0x00112623, 0x00010537, 0x60050513, 0x0a000593,
    0x00010637, 0x6c060613, 0x00400693, 0x018000ef,
    0x000207b7, 0x00a7a023, 0x00c12083, 0x01010113,
    0x00008067, 0x00000393, 0x00000293, 0x00d28e33,
    0x03c5cc63, 0x00000313, 0x02d35263, 0x00628e33,
    0x01c50e33, 0x000e4e03, 0x00660eb3, 0x000ece83,
    0x01de1863, 0x00130313, 0xfe1ff06f, 0x00138393,
    0x00128293, 0xfc9ff06f, 0x00700533, 0x00008067,
];
const STRSEARCH_EXPECTED: u32 = 0x00000020;
const GADGET_WORDS: &[u32] = &[
    0x00080137, 0x008000ef, 0x00100073, 0xff010113,
    0x00112623, 0x000105b7, 0x70058593, 0x00030637,
    0x03000e13, 0x007e7513, 0x02c000ef, 0xfffe0e13,
    0xfe0e1ae3, 0x04000513, 0x01c000ef, 0x000207b7,
    0x00100293, 0x0057a023, 0x00c12083, 0x01010113,
    0x00008067, 0x0081c2b7, 0xf1028293, 0x00300313,
    0x0262c2b3, 0x0262c2b3, 0x0262c2b3, 0x0262c2b3,
    0x0262c2b3, 0x0262c2b3, 0x0262c2b3, 0x0262c2b3,
    0x0262c2b3, 0x0262c2b3, 0x0262c2b3, 0x0262c2b3,
    0x00557c63, 0x00a583b3, 0x0003c383, 0x00639393,
    0x007603b3, 0x0003c383, 0x00008067,
];
const GADGET_EXPECTED: u32 = 0x00000001;

// ---------------------------------------------------------------------
// Generators: the assembly each kernel was compiled to, kept in
// lockstep with the checked-in words by `corpus_words_match_generators`.
// ---------------------------------------------------------------------

#[cfg(test)]
pub(crate) mod gen {
    use crate::enc;
    use std::collections::HashMap;

    // RV32 ABI register numbers used by the kernels (x3/x4 excluded:
    // the lowering reserves them).
    pub const RA: u8 = 1;
    pub const SP: u8 = 2;
    pub const T0: u8 = 5;
    pub const T1: u8 = 6;
    pub const T2: u8 = 7;
    pub const A0: u8 = 10;
    pub const A1: u8 = 11;
    pub const A2: u8 = 12;
    pub const A3: u8 = 13;
    pub const A4: u8 = 14;
    pub const A5: u8 = 15;
    pub const T3: u8 = 28;
    pub const T4: u8 = 29;
    pub const T5: u8 = 30;
    pub const T6: u8 = 31;

    enum Slot {
        Word(u32),
        Branch { f: fn(u8, u8, i32) -> u32, rs1: u8, rs2: u8, label: &'static str },
        Jal { rd: u8, label: &'static str },
    }

    /// A tiny two-pass assembler over the `enc` word encoders, just
    /// enough to express the corpus kernels with symbolic branch
    /// targets.
    pub struct Asm {
        base: u32,
        slots: Vec<Slot>,
        labels: HashMap<&'static str, u32>,
    }

    impl Asm {
        pub fn new(base: u32) -> Self {
            Asm { base, slots: Vec::new(), labels: HashMap::new() }
        }

        fn pc(&self) -> u32 {
            self.base + 4 * self.slots.len() as u32
        }

        pub fn label(&mut self, name: &'static str) {
            assert!(self.labels.insert(name, self.pc()).is_none(), "duplicate label {name}");
        }

        pub fn i(&mut self, word: u32) {
            self.slots.push(Slot::Word(word));
        }

        pub fn li(&mut self, rd: u8, value: i32) {
            for word in enc::li(rd, value) {
                self.i(word);
            }
        }

        pub fn br(&mut self, f: fn(u8, u8, i32) -> u32, rs1: u8, rs2: u8, label: &'static str) {
            self.slots.push(Slot::Branch { f, rs1, rs2, label });
        }

        pub fn jal(&mut self, rd: u8, label: &'static str) {
            self.slots.push(Slot::Jal { rd, label });
        }

        pub fn words(self) -> Vec<u32> {
            let Asm { base, slots, labels } = self;
            slots
                .iter()
                .enumerate()
                .map(|(i, slot)| {
                    let pc = base + 4 * i as u32;
                    let target = |label: &'static str| {
                        let at = *labels.get(label).unwrap_or_else(|| panic!("label {label}"));
                        at.wrapping_sub(pc) as i32
                    };
                    match slot {
                        Slot::Word(w) => *w,
                        Slot::Branch { f, rs1, rs2, label } => f(*rs1, *rs2, target(label)),
                        Slot::Jal { rd, label } => enc::jal(*rd, target(label)),
                    }
                })
                .collect()
        }
    }

    /// Shared `_start`: set up the stack, call main, halt.
    fn start(asm: &mut Asm) {
        asm.li(SP, super::STACK_TOP as i32);
        asm.jal(RA, "main");
        asm.i(enc::ebreak());
    }

    /// Shared main prologue/epilogue around a kernel call.
    fn main_prologue(asm: &mut Asm) {
        asm.i(enc::addi(SP, SP, -16));
        asm.i(enc::sw(RA, 12, SP));
    }

    fn main_epilogue(asm: &mut Asm) {
        asm.i(enc::lw(RA, 12, SP));
        asm.i(enc::addi(SP, SP, 16));
        asm.i(enc::jalr(0, RA, 0));
    }

    /// ```c
    /// unsigned crc32(const unsigned char *p, int n) {
    ///     unsigned crc = 0xFFFFFFFF;
    ///     for (int i = 0; i < n; i++) {
    ///         crc ^= p[i];
    ///         for (int j = 0; j < 8; j++) {
    ///             unsigned lsb = crc & 1;
    ///             crc >>= 1;
    ///             if (lsb) crc ^= 0xEDB88320;
    ///         }
    ///     }
    ///     return ~crc;
    /// }
    /// void main() { *(unsigned *)0x20000 = crc32((void *)0x10000, 96); }
    /// ```
    pub fn crc32() -> Vec<u32> {
        let mut asm = Asm::new(super::TEXT_BASE);
        start(&mut asm);
        asm.label("main");
        main_prologue(&mut asm);
        asm.li(A0, 0x1_0000);
        asm.i(enc::addi(A1, 0, 96));
        asm.jal(RA, "crc32");
        asm.li(A5, super::RESULT_ADDR as i32);
        asm.i(enc::sw(A0, 0, A5));
        main_epilogue(&mut asm);

        asm.label("crc32");
        asm.i(enc::addi(A5, 0, -1)); // crc
        asm.i(enc::addi(A4, 0, 0)); // i
        asm.li(A3, 0xEDB8_8320u32 as i32); // polynomial
        asm.label("loop_i");
        asm.br(enc::bge, A4, A1, "done");
        asm.i(enc::add(T0, A0, A4));
        asm.i(enc::lbu(T0, 0, T0));
        asm.i(enc::xor(A5, A5, T0));
        asm.i(enc::addi(T1, 0, 8)); // j
        asm.label("loop_j");
        asm.i(enc::andi(T2, A5, 1));
        asm.i(enc::srli(A5, A5, 1));
        asm.br(enc::beq, T2, 0, "skip");
        asm.i(enc::xor(A5, A5, A3));
        asm.label("skip");
        asm.i(enc::addi(T1, T1, -1));
        asm.br(enc::bne, T1, 0, "loop_j");
        asm.i(enc::addi(A4, A4, 1));
        asm.jal(0, "loop_i");
        asm.label("done");
        asm.i(enc::xori(A0, A5, -1));
        asm.i(enc::jalr(0, RA, 0));
        asm.words()
    }

    /// ```c
    /// void matmul(const int *a, const int *b, int *c, int n) {
    ///     for (int i = 0; i < n; i++)
    ///         for (int j = 0; j < n; j++) {
    ///             int s = 0;
    ///             for (int k = 0; k < n; k++) s += a[i*n+k] * b[k*n+j];
    ///             c[i*n+j] = s;
    ///         }
    /// }
    /// void main() {
    ///     matmul((int *)0x10100, (int *)0x10200, (int *)0x10300, 8);
    ///     int acc = 0;
    ///     for (int t = 0; t < 64; t++) acc += ((int *)0x10300)[t] * (t + 1);
    ///     *(int *)0x20000 = acc;
    /// }
    /// ```
    pub fn matmul() -> Vec<u32> {
        let mut asm = Asm::new(super::TEXT_BASE);
        start(&mut asm);
        asm.label("main");
        main_prologue(&mut asm);
        asm.li(A0, 0x1_0100);
        asm.li(A1, 0x1_0200);
        asm.li(A2, 0x1_0300);
        asm.i(enc::addi(A3, 0, 8));
        asm.jal(RA, "matmul");
        asm.li(A2, 0x1_0300);
        asm.i(enc::addi(T0, 0, 0)); // t
        asm.i(enc::addi(T1, 0, 0)); // acc
        asm.label("cs_loop");
        asm.i(enc::addi(T2, 0, 64));
        asm.br(enc::bge, T0, T2, "cs_done");
        asm.i(enc::slli(T3, T0, 2));
        asm.i(enc::add(T3, A2, T3));
        asm.i(enc::lw(T3, 0, T3));
        asm.i(enc::addi(T4, T0, 1));
        asm.i(enc::mul(T3, T3, T4));
        asm.i(enc::add(T1, T1, T3));
        asm.i(enc::addi(T0, T0, 1));
        asm.jal(0, "cs_loop");
        asm.label("cs_done");
        asm.li(A5, super::RESULT_ADDR as i32);
        asm.i(enc::sw(T1, 0, A5));
        main_epilogue(&mut asm);

        asm.label("matmul");
        asm.i(enc::addi(T3, 0, 0)); // i
        asm.label("mm_i");
        asm.br(enc::bge, T3, A3, "mm_done");
        asm.i(enc::addi(T4, 0, 0)); // j
        asm.label("mm_j");
        asm.br(enc::bge, T4, A3, "mm_ni");
        asm.i(enc::addi(T5, 0, 0)); // k
        asm.i(enc::addi(T6, 0, 0)); // s
        asm.label("mm_k");
        asm.br(enc::bge, T5, A3, "mm_st");
        asm.i(enc::mul(T0, T3, A3));
        asm.i(enc::add(T0, T0, T5));
        asm.i(enc::slli(T0, T0, 2));
        asm.i(enc::add(T0, A0, T0));
        asm.i(enc::lw(T0, 0, T0)); // a[i*n+k]
        asm.i(enc::mul(T1, T5, A3));
        asm.i(enc::add(T1, T1, T4));
        asm.i(enc::slli(T1, T1, 2));
        asm.i(enc::add(T1, A1, T1));
        asm.i(enc::lw(T1, 0, T1)); // b[k*n+j]
        asm.i(enc::mul(T0, T0, T1));
        asm.i(enc::add(T6, T6, T0));
        asm.i(enc::addi(T5, T5, 1));
        asm.jal(0, "mm_k");
        asm.label("mm_st");
        asm.i(enc::mul(T0, T3, A3));
        asm.i(enc::add(T0, T0, T4));
        asm.i(enc::slli(T0, T0, 2));
        asm.i(enc::add(T0, A2, T0));
        asm.i(enc::sw(T6, 0, T0));
        asm.i(enc::addi(T4, T4, 1));
        asm.jal(0, "mm_j");
        asm.label("mm_ni");
        asm.i(enc::addi(T3, T3, 1));
        asm.jal(0, "mm_i");
        asm.label("mm_done");
        asm.i(enc::jalr(0, RA, 0));
        asm.words()
    }

    /// ```c
    /// void sort(int *a, int n) { // insertion sort
    ///     for (int i = 1; i < n; i++) {
    ///         int key = a[i], j = i - 1;
    ///         while (j >= 0 && a[j] > key) { a[j + 1] = a[j]; j--; }
    ///         a[j + 1] = key;
    ///     }
    /// }
    /// void main() {
    ///     int *a = (int *)0x10400;
    ///     sort(a, 48);
    ///     int acc = 0;
    ///     for (int i = 0; i < 48; i++) acc += a[i] * (i + 1);
    ///     *(int *)0x20000 = acc;
    /// }
    /// ```
    pub fn sort() -> Vec<u32> {
        let mut asm = Asm::new(super::TEXT_BASE);
        start(&mut asm);
        asm.label("main");
        main_prologue(&mut asm);
        asm.li(A0, 0x1_0400);
        asm.i(enc::addi(A1, 0, 48));
        asm.jal(RA, "sort");
        asm.i(enc::addi(T0, 0, 0)); // i
        asm.i(enc::addi(T1, 0, 0)); // acc
        asm.label("ck_loop");
        asm.br(enc::bge, T0, A1, "ck_done");
        asm.i(enc::slli(T3, T0, 2));
        asm.i(enc::add(T3, A0, T3));
        asm.i(enc::lw(T3, 0, T3));
        asm.i(enc::addi(T4, T0, 1));
        asm.i(enc::mul(T3, T3, T4));
        asm.i(enc::add(T1, T1, T3));
        asm.i(enc::addi(T0, T0, 1));
        asm.jal(0, "ck_loop");
        asm.label("ck_done");
        asm.li(A5, super::RESULT_ADDR as i32);
        asm.i(enc::sw(T1, 0, A5));
        main_epilogue(&mut asm);

        asm.label("sort");
        asm.i(enc::addi(T0, 0, 1)); // i
        asm.label("so_i");
        asm.br(enc::bge, T0, A1, "so_done");
        asm.i(enc::slli(T3, T0, 2));
        asm.i(enc::add(T3, A0, T3));
        asm.i(enc::lw(T1, 0, T3)); // key
        asm.i(enc::addi(T2, T0, -1)); // j
        asm.label("so_w");
        asm.br(enc::blt, T2, 0, "so_ins");
        asm.i(enc::slli(T3, T2, 2));
        asm.i(enc::add(T3, A0, T3));
        asm.i(enc::lw(T4, 0, T3)); // a[j]
        asm.br(enc::bge, T1, T4, "so_ins"); // key >= a[j]: stop shifting
        asm.i(enc::sw(T4, 4, T3)); // a[j+1] = a[j]
        asm.i(enc::addi(T2, T2, -1));
        asm.jal(0, "so_w");
        asm.label("so_ins");
        asm.i(enc::slli(T3, T2, 2));
        asm.i(enc::add(T3, A0, T3));
        asm.i(enc::sw(T1, 4, T3)); // a[j+1] = key
        asm.i(enc::addi(T0, T0, 1));
        asm.jal(0, "so_i");
        asm.label("so_done");
        asm.i(enc::jalr(0, RA, 0));
        asm.words()
    }

    /// ```c
    /// int search(const unsigned char *h, int n, const unsigned char *p, int m) {
    ///     int count = 0;
    ///     for (int i = 0; i + m <= n; i++) {
    ///         int j = 0;
    ///         while (j < m && h[i + j] == p[j]) j++;
    ///         if (j == m) count++;
    ///     }
    ///     return count;
    /// }
    /// void main() {
    ///     *(int *)0x20000 =
    ///         search((void *)0x10600, 160, (void *)0x106C0, 4);
    /// }
    /// ```
    pub fn strsearch() -> Vec<u32> {
        let mut asm = Asm::new(super::TEXT_BASE);
        start(&mut asm);
        asm.label("main");
        main_prologue(&mut asm);
        asm.li(A0, 0x1_0600);
        asm.i(enc::addi(A1, 0, 160));
        asm.li(A2, 0x1_06c0);
        asm.i(enc::addi(A3, 0, 4));
        asm.jal(RA, "search");
        asm.li(A5, super::RESULT_ADDR as i32);
        asm.i(enc::sw(A0, 0, A5));
        main_epilogue(&mut asm);

        asm.label("search");
        asm.i(enc::addi(T2, 0, 0)); // count
        asm.i(enc::addi(T0, 0, 0)); // i
        asm.label("se_i");
        asm.i(enc::add(T3, T0, A3));
        asm.br(enc::blt, A1, T3, "se_done"); // i + m > n: done
        asm.i(enc::addi(T1, 0, 0)); // j
        asm.label("se_j");
        asm.br(enc::bge, T1, A3, "se_hit");
        asm.i(enc::add(T3, T0, T1));
        asm.i(enc::add(T3, A0, T3));
        asm.i(enc::lbu(T3, 0, T3)); // h[i+j]
        asm.i(enc::add(T4, A2, T1));
        asm.i(enc::lbu(T4, 0, T4)); // p[j]
        asm.br(enc::bne, T3, T4, "se_next");
        asm.i(enc::addi(T1, T1, 1));
        asm.jal(0, "se_j");
        asm.label("se_hit");
        asm.i(enc::addi(T2, T2, 1));
        asm.label("se_next");
        asm.i(enc::addi(T0, T0, 1));
        asm.jal(0, "se_i");
        asm.label("se_done");
        asm.i(enc::add(A0, 0, T2));
        asm.i(enc::jalr(0, RA, 0));
        asm.words()
    }

    /// ```c
    /// // Spectre v1. bound == 16 always, but takes ~12 chained divides
    /// // to resolve, opening the speculation window; the final call
    /// // passes idx = 64, whose mis-speculated access reads the secret
    /// // at array1 + 64 and transmits it via the probe line it touches.
    /// void victim(unsigned idx, const unsigned char *array1,
    ///             const unsigned char *probe) {
    ///     unsigned bound = 8503056; // 16 * 3^12
    ///     for (int d = 0; d < 12; d++) bound /= 3;  // unrolled
    ///     if (idx < bound) (void)probe[array1[idx] << 6];
    /// }
    /// void main() {
    ///     for (int t = 48; t != 0; t--) victim(t & 7, a1, pr); // train
    ///     victim(64, a1, pr);                                  // attack
    ///     *(int *)0x20000 = 1;
    /// }
    /// ```
    pub fn gadget() -> Vec<u32> {
        let mut asm = Asm::new(super::TEXT_BASE);
        start(&mut asm);
        asm.label("main");
        main_prologue(&mut asm);
        asm.li(A1, 0x1_0700); // array1
        asm.li(A2, 0x3_0000); // probe
        asm.i(enc::addi(T3, 0, 48)); // t
        asm.label("tr_loop");
        asm.i(enc::andi(A0, T3, 7)); // in-bounds idx
        asm.jal(RA, "victim");
        asm.i(enc::addi(T3, T3, -1));
        asm.br(enc::bne, T3, 0, "tr_loop");
        asm.i(enc::addi(A0, 0, 64)); // out-of-bounds idx
        asm.jal(RA, "victim");
        asm.li(A5, super::RESULT_ADDR as i32);
        asm.i(enc::addi(T0, 0, 1));
        asm.i(enc::sw(T0, 0, A5));
        main_epilogue(&mut asm);

        asm.label("victim");
        asm.li(T0, 8_503_056); // 16 * 3^12
        asm.i(enc::addi(T1, 0, 3));
        for _ in 0..12 {
            asm.i(enc::div(T0, T0, T1)); // slow bound chain
        }
        asm.br(enc::bgeu, A0, T0, "v_skip"); // bounds check
        asm.i(enc::add(T2, A1, A0));
        asm.i(enc::lbu(T2, 0, T2)); // access (secret when idx OOB)
        asm.i(enc::slli(T2, T2, 6));
        asm.i(enc::add(T2, A2, T2));
        asm.i(enc::lbu(T2, 0, T2)); // transmit
        asm.label("v_skip");
        asm.i(enc::jalr(0, RA, 0));
        asm.words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_words_match_generators() {
        let generated: &[(&str, Vec<u32>)] = &[
            ("rv32_crc32", gen::crc32()),
            ("rv32_matmul", gen::matmul()),
            ("rv32_sort", gen::sort()),
            ("rv32_strsearch", gen::strsearch()),
            ("rv32_gadget", gen::gadget()),
        ];
        for (name, words) in generated {
            let entry = entry(name).expect("corpus entry exists");
            assert_eq!(entry.words, words.as_slice(), "{name}: checked-in words drifted");
        }
    }

    /// Regenerates the `*_WORDS`/`*_EXPECTED` consts (run with
    /// `--nocapture` and paste when a kernel changes).
    #[test]
    fn print_corpus() {
        for (name, words) in [
            ("CRC32", gen::crc32()),
            ("MATMUL", gen::matmul()),
            ("SORT", gen::sort()),
            ("STRSEARCH", gen::strsearch()),
            ("GADGET", gen::gadget()),
        ] {
            println!("const {name}_WORDS: &[u32] = &[");
            for chunk in words.chunks(4) {
                let row: Vec<String> = chunk.iter().map(|w| format!("{w:#010x},")).collect();
                println!("    {}", row.join(" "));
            }
            println!("];");
            let lower = name.to_lowercase();
            let image = Rv32Image {
                entry: TEXT_BASE,
                text_base: TEXT_BASE,
                text: words,
                data: match lower.as_str() {
                    "crc32" => crc32_data(),
                    "matmul" => matmul_data(),
                    "sort" => sort_data(),
                    "strsearch" => strsearch_data(),
                    "gadget" => gadget_data(),
                    other => panic!("unknown kernel {other}"),
                },
            };
            let program = translate(&image, &lower).expect("kernel translates");
            let mut interp = sdo_isa::Interpreter::new(&program);
            interp.run(50_000_000).expect("kernel halts");
            println!("const {name}_EXPECTED: u32 = {:#010x};", read_result(&interp));
        }
    }
}
