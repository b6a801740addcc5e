//! A label-based program builder.

use crate::inst::{AluOp, BranchCond, FpuOp, Instruction, MemWidth};
use crate::program::{DataImage, Program};
use crate::reg::{FReg, Reg};
use std::error::Error;
use std::fmt;

/// A forward-referenceable code label, created by [`Assembler::label`] and
/// placed by [`Assembler::bind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Error produced by [`Assembler::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was used as a branch/jump target but never bound to a
    /// location.
    UnboundLabel {
        /// The offending label's internal id.
        label: usize,
        /// Index of the first instruction referencing it.
        used_at: usize,
    },
    /// A label was bound twice.
    Rebound {
        /// The offending label's internal id.
        label: usize,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel { label, used_at } => {
                write!(f, "label L{label} used at instruction {used_at} was never bound")
            }
            AsmError::Rebound { label } => write!(f, "label L{label} bound more than once"),
        }
    }
}

impl Error for AsmError {}

/// Builds a [`Program`] instruction-by-instruction with forward labels.
///
/// This is the API the workload generators and tests use to write mini-ISA
/// programs in Rust. All emit methods append one instruction and return the
/// assembler for chaining.
///
/// # Examples
///
/// A count-down loop:
///
/// ```rust
/// use sdo_isa::{Assembler, Reg};
///
/// # fn main() -> Result<(), sdo_isa::AsmError> {
/// let mut asm = Assembler::new();
/// let (n, acc) = (Reg::new(1), Reg::new(2));
/// asm.li(n, 10);
/// let top = asm.label();
/// asm.bind(top);
/// asm.add(acc, acc, n);
/// asm.addi(n, n, -1);
/// asm.bne(n, Reg::ZERO, top);
/// asm.halt();
/// let prog = asm.finish()?;
/// assert_eq!(prog.len(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Assembler {
    name: String,
    insts: Vec<Inst>,
    labels: Vec<Option<u64>>,
    data: DataImage,
}

/// An instruction under construction: targets may still be symbolic.
#[derive(Debug, Clone, Copy)]
enum Inst {
    Ready(Instruction),
    Branch { cond: BranchCond, lhs: Reg, rhs: Reg, target: Label },
    Jal { dst: Reg, target: Label },
}

impl Assembler {
    /// Creates an empty assembler for an unnamed program.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty assembler for a named program.
    #[must_use]
    pub fn named(name: impl Into<String>) -> Self {
        Assembler { name: name.into(), ..Self::default() }
    }

    /// Names the program (the text parser's `.name` directive).
    pub(crate) fn set_name(&mut self, name: String) {
        self.name = name;
    }

    /// Allocates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the *next* emitted instruction's index.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound (re-binding is always a bug in
    /// the generator; the error is also reported by [`finish`]).
    ///
    /// [`finish`]: Assembler::finish
    pub fn bind(&mut self, label: Label) -> &mut Self {
        let slot = &mut self.labels[label.0];
        assert!(slot.is_none(), "label L{} bound more than once", label.0);
        *slot = Some(self.insts.len() as u64);
        self
    }

    /// Binds `label` to an explicit instruction index (used by the text
    /// parser for absolute `@N` targets).
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind_at(&mut self, label: Label, pc: u64) -> &mut Self {
        let slot = &mut self.labels[label.0];
        assert!(slot.is_none(), "label L{} bound more than once", label.0);
        *slot = Some(pc);
        self
    }

    /// Allocates a label already bound to the next instruction.
    pub fn here(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    /// The index the next emitted instruction will occupy.
    #[must_use]
    pub fn next_pc(&self) -> u64 {
        self.insts.len() as u64
    }

    /// Mutable access to the program's initial data image.
    pub fn data_mut(&mut self) -> &mut DataImage {
        &mut self.data
    }

    /// Emits an already-resolved instruction.
    pub fn emit(&mut self, inst: Instruction) -> &mut Self {
        self.insts.push(Inst::Ready(inst));
        self
    }

    /// Branch to `target` iff `cond` holds of `lhs` and `rhs` (the
    /// `beq` … `bgeu` methods, for a condition chosen at run time).
    pub fn branch(&mut self, cond: BranchCond, lhs: Reg, rhs: Reg, target: Label) -> &mut Self {
        self.insts.push(Inst::Branch { cond, lhs, rhs, target });
        self
    }

    /// Resolves labels and produces the program.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::UnboundLabel`] if any referenced label was never
    /// bound.
    pub fn finish(&mut self) -> Result<Program, AsmError> {
        let mut out = Vec::with_capacity(self.insts.len());
        for (idx, inst) in self.insts.iter().enumerate() {
            let resolved = match *inst {
                Inst::Ready(i) => i,
                Inst::Branch { cond, lhs, rhs, target } => Instruction::Branch {
                    cond,
                    lhs,
                    rhs,
                    target: self.resolve(target, idx)?,
                },
                Inst::Jal { dst, target } => {
                    Instruction::Jal { dst, target: self.resolve(target, idx)? }
                }
            };
            out.push(resolved);
        }
        let name = if self.name.is_empty() { "anonymous".to_string() } else { self.name.clone() };
        Ok(Program::new(name, out, std::mem::take(&mut self.data)))
    }

    fn resolve(&self, label: Label, used_at: usize) -> Result<u64, AsmError> {
        self.labels[label.0].ok_or(AsmError::UnboundLabel { label: label.0, used_at })
    }
}

macro_rules! alu_rr {
    ($($(#[$doc:meta])* $name:ident => $op:ident),* $(,)?) => {
        impl Assembler {
            $(
                $(#[$doc])*
                pub fn $name(&mut self, dst: Reg, lhs: Reg, rhs: Reg) -> &mut Self {
                    self.emit(Instruction::Alu { op: AluOp::$op, dst, lhs, rhs })
                }
            )*
        }
    };
}

alu_rr! {
    /// `dst = lhs + rhs` (wrapping).
    add => Add,
    /// `dst = lhs - rhs` (wrapping).
    sub => Sub,
    /// `dst = lhs & rhs`.
    and_ => And,
    /// `dst = lhs | rhs`.
    or_ => Or,
    /// `dst = lhs ^ rhs`.
    xor => Xor,
    /// `dst = lhs << (rhs & 63)`.
    sll => Sll,
    /// `dst = lhs >> (rhs & 63)` (logical).
    srl => Srl,
    /// `dst = lhs >> (rhs & 63)` (arithmetic).
    sra => Sra,
    /// `dst = (lhs < rhs) as u64`, signed.
    slt => Slt,
    /// `dst = (lhs < rhs) as u64`, unsigned.
    sltu => Sltu,
    /// `dst = lhs * rhs` (wrapping, low 64 bits).
    mul => Mul,
    /// `dst = lhs / rhs` unsigned; division by zero yields `u64::MAX`.
    divu => Divu,
    /// `dst = sext32(lhs + rhs)` (32-bit wrapping, RV64 `addw`).
    addw => AddW,
    /// `dst = sext32(lhs - rhs)` (32-bit wrapping).
    subw => SubW,
    /// `dst = sext32(lhs << (rhs & 31))` (32-bit logical).
    sllw => SllW,
    /// `dst = sext32(lhs32 >> (rhs & 31))` (32-bit logical).
    srlw => SrlW,
    /// `dst = sext32(lhs32 >> (rhs & 31))` (32-bit arithmetic).
    sraw => SraW,
    /// `dst = sext32(lhs * rhs)` (32-bit wrapping, low half).
    mulw => MulW,
    /// `dst = sext32(lhs32 / rhs32)` signed, RISC-V edge rules.
    divw => DivW,
    /// `dst = sext32(lhs32 / rhs32)` unsigned; by-zero yields all ones.
    divuw => DivuW,
    /// `dst = sext32(lhs32 % rhs32)` signed, RISC-V edge rules.
    remw => RemW,
    /// `dst = sext32(lhs32 % rhs32)` unsigned; by-zero yields the dividend.
    remuw => RemuW,
}

macro_rules! alu_ri {
    ($($(#[$doc:meta])* $name:ident => $op:ident),* $(,)?) => {
        impl Assembler {
            $(
                $(#[$doc])*
                pub fn $name(&mut self, dst: Reg, src: Reg, imm: i64) -> &mut Self {
                    self.emit(Instruction::AluImm { op: AluOp::$op, dst, src, imm })
                }
            )*
        }
    };
}

alu_ri! {
    /// `dst = src + imm` (wrapping).
    addi => Add,
    /// `dst = src & imm`.
    andi => And,
    /// `dst = src | imm`.
    ori => Or,
    /// `dst = src ^ imm`.
    xori => Xor,
    /// `dst = src << (imm & 63)`.
    slli => Sll,
    /// `dst = src >> (imm & 63)` (logical).
    srli => Srl,
    /// `dst = src * imm` (wrapping).
    muli => Mul,
    /// `dst = (src < imm) as u64`, signed.
    slti => Slt,
    /// `dst = src >> (imm & 63)` (arithmetic).
    srai => Sra,
    /// `dst = sext32(src + imm)` (32-bit wrapping, RV64 `addiw`).
    addwi => AddW,
    /// `dst = sext32(src << (imm & 31))` (32-bit logical).
    sllwi => SllW,
    /// `dst = sext32(src32 >> (imm & 31))` (32-bit logical).
    srlwi => SrlW,
    /// `dst = sext32(src32 >> (imm & 31))` (32-bit arithmetic).
    srawi => SraW,
}

macro_rules! branches {
    ($($(#[$doc:meta])* $name:ident => $cond:ident),* $(,)?) => {
        impl Assembler {
            $(
                $(#[$doc])*
                pub fn $name(&mut self, lhs: Reg, rhs: Reg, target: Label) -> &mut Self {
                    self.branch(BranchCond::$cond, lhs, rhs, target)
                }
            )*
        }
    };
}

branches! {
    /// Branch to `target` iff `lhs == rhs`.
    beq => Eq,
    /// Branch to `target` iff `lhs != rhs`.
    bne => Ne,
    /// Branch to `target` iff `lhs < rhs` (signed).
    blt => Lt,
    /// Branch to `target` iff `lhs >= rhs` (signed).
    bge => Ge,
    /// Branch to `target` iff `lhs < rhs` (unsigned).
    bltu => LtU,
    /// Branch to `target` iff `lhs >= rhs` (unsigned).
    bgeu => GeU,
}

macro_rules! fpu_rr {
    ($($(#[$doc:meta])* $name:ident => $op:ident),* $(,)?) => {
        impl Assembler {
            $(
                $(#[$doc])*
                pub fn $name(&mut self, dst: FReg, lhs: FReg, rhs: FReg) -> &mut Self {
                    self.emit(Instruction::Fpu { op: FpuOp::$op, dst, lhs, rhs })
                }
            )*
        }
    };
}

fpu_rr! {
    /// `dst = lhs + rhs` (binary64).
    fadd => Add,
    /// `dst = lhs - rhs` (binary64).
    fsub => Sub,
    /// `dst = lhs * rhs` (binary64; FP transmit op).
    fmul => Mul,
    /// `dst = lhs / rhs` (binary64; FP transmit op).
    fdiv => Div,
}

impl Assembler {
    /// `dst = imm`.
    pub fn li(&mut self, dst: Reg, imm: i64) -> &mut Self {
        self.emit(Instruction::Li { dst, imm })
    }

    /// Word load: `dst = mem64[base + offset]`.
    pub fn ld(&mut self, dst: Reg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Instruction::Load { dst, base, offset, width: MemWidth::Word })
    }

    /// Byte load (zero-extended): `dst = mem8[base + offset]`.
    pub fn ldb(&mut self, dst: Reg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Instruction::Load { dst, base, offset, width: MemWidth::Byte })
    }

    /// Halfword load (zero-extended): `dst = mem16[base + offset]`.
    pub fn ldh(&mut self, dst: Reg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Instruction::Load { dst, base, offset, width: MemWidth::Half })
    }

    /// 32-bit load (zero-extended): `dst = mem32[base + offset]`.
    pub fn ldw(&mut self, dst: Reg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Instruction::Load { dst, base, offset, width: MemWidth::Word4 })
    }

    /// Word store: `mem64[base + offset] = src`.
    pub fn st(&mut self, src: Reg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Instruction::Store { src, base, offset, width: MemWidth::Word })
    }

    /// Byte store: `mem8[base + offset] = src & 0xff`.
    pub fn stb(&mut self, src: Reg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Instruction::Store { src, base, offset, width: MemWidth::Byte })
    }

    /// Halfword store: `mem16[base + offset] = src & 0xffff`.
    pub fn sth(&mut self, src: Reg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Instruction::Store { src, base, offset, width: MemWidth::Half })
    }

    /// 32-bit store: `mem32[base + offset] = src & 0xffff_ffff`.
    pub fn stw(&mut self, src: Reg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Instruction::Store { src, base, offset, width: MemWidth::Word4 })
    }

    /// FP word load: `dst = mem64[base + offset]` (bit-exact).
    pub fn fld(&mut self, dst: FReg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Instruction::FLoad { dst, base, offset })
    }

    /// FP word store: `mem64[base + offset] = bits(src)`.
    pub fn fst(&mut self, src: FReg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Instruction::FStore { src, base, offset })
    }

    /// `dst = sqrt(src)` (binary64; FP transmit op).
    pub fn fsqrt(&mut self, dst: FReg, src: FReg) -> &mut Self {
        self.emit(Instruction::Fpu { op: FpuOp::Sqrt, dst, lhs: src, rhs: src })
    }

    /// Bit-move FP → integer register.
    pub fn fmv_to_int(&mut self, dst: Reg, src: FReg) -> &mut Self {
        self.emit(Instruction::FMvToInt { dst, src })
    }

    /// Bit-move integer → FP register.
    pub fn fmv_from_int(&mut self, dst: FReg, src: Reg) -> &mut Self {
        self.emit(Instruction::FMvFromInt { dst, src })
    }

    /// Unconditional direct jump, link in `dst` (use [`Reg::ZERO`] to
    /// discard the link).
    pub fn jal(&mut self, dst: Reg, target: Label) -> &mut Self {
        self.insts.push(Inst::Jal { dst, target });
        self
    }

    /// Unconditional direct jump with no link: `j target`.
    pub fn j(&mut self, target: Label) -> &mut Self {
        self.jal(Reg::ZERO, target)
    }

    /// Indirect jump to `base + offset`, link in `dst`.
    pub fn jalr(&mut self, dst: Reg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Instruction::Jalr { dst, base, offset })
    }

    /// Return through `base` with no link: `jr base`.
    pub fn jr(&mut self, base: Reg) -> &mut Self {
        self.jalr(Reg::ZERO, base, 0)
    }

    /// No operation.
    pub fn nop(&mut self) -> &mut Self {
        self.emit(Instruction::Nop)
    }

    /// Architectural halt.
    pub fn halt(&mut self) -> &mut Self {
        self.emit(Instruction::Halt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Instruction;

    #[test]
    fn forward_label_resolves() {
        let mut asm = Assembler::new();
        let end = asm.label();
        asm.beq(Reg::ZERO, Reg::ZERO, end);
        asm.nop();
        asm.bind(end);
        asm.halt();
        let p = asm.finish().unwrap();
        assert_eq!(p.fetch(0).direct_target(), Some(2));
    }

    #[test]
    fn backward_label_resolves() {
        let mut asm = Assembler::new();
        let top = asm.here();
        asm.nop();
        asm.j(top);
        let p = asm.finish().unwrap();
        assert_eq!(p.fetch(1).direct_target(), Some(0));
    }

    #[test]
    fn unbound_label_is_error() {
        let mut asm = Assembler::new();
        let dangling = asm.label();
        asm.j(dangling);
        let err = asm.finish().unwrap_err();
        assert!(matches!(err, AsmError::UnboundLabel { used_at: 0, .. }));
        assert!(err.to_string().contains("never bound"));
    }

    #[test]
    #[should_panic(expected = "bound more than once")]
    fn rebinding_panics() {
        let mut asm = Assembler::new();
        let l = asm.label();
        asm.bind(l);
        asm.bind(l);
    }

    #[test]
    fn named_program_keeps_name() {
        let mut asm = Assembler::named("kernel");
        asm.halt();
        assert_eq!(asm.finish().unwrap().name(), "kernel");
    }

    #[test]
    fn anonymous_program_gets_placeholder_name() {
        let mut asm = Assembler::new();
        asm.halt();
        assert_eq!(asm.finish().unwrap().name(), "anonymous");
    }

    #[test]
    fn emit_helpers_produce_expected_forms() {
        let mut asm = Assembler::new();
        let (r1, r2) = (Reg::new(1), Reg::new(2));
        let f1 = FReg::new(1);
        asm.li(r1, 5).ld(r2, r1, 8).st(r2, r1, 16).fld(f1, r1, 0).fsqrt(f1, f1);
        asm.halt();
        let p = asm.finish().unwrap();
        assert!(matches!(p.fetch(0), Instruction::Li { .. }));
        assert!(p.fetch(1).is_load());
        assert!(p.fetch(2).is_store());
        assert!(p.fetch(3).is_load());
        assert!(p.fetch(4).is_fp_transmit());
    }

    #[test]
    fn data_image_travels_with_program() {
        let mut asm = Assembler::new();
        asm.data_mut().set_word(0x40, 77);
        asm.halt();
        let p = asm.finish().unwrap();
        assert_eq!(p.data().word(0x40), 77);
    }

    #[test]
    fn next_pc_tracks_emission() {
        let mut asm = Assembler::new();
        assert_eq!(asm.next_pc(), 0);
        asm.nop().nop();
        assert_eq!(asm.next_pc(), 2);
    }
}
