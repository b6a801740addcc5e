//! Instruction set definition.

use crate::reg::{FReg, Reg};
use std::fmt;

/// Width of a data-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemWidth {
    /// A single byte (zero-extended on load).
    Byte,
    /// A 16-bit halfword (zero-extended on load).
    Half,
    /// A 32-bit word (zero-extended on load); the natural width of the
    /// RV32 frontend's `lw`/`sw`.
    Word4,
    /// A 64-bit word. Word accesses must be 8-byte aligned.
    #[default]
    Word,
}

impl MemWidth {
    /// Every width, in declaration order.
    pub const ALL: [MemWidth; 4] =
        [MemWidth::Byte, MemWidth::Half, MemWidth::Word4, MemWidth::Word];

    /// The access size in bytes (1, 2, 4 or 8).
    #[must_use]
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Half => 2,
            MemWidth::Word4 => 4,
            MemWidth::Word => 8,
        }
    }

    /// The load/store mnemonic suffix (`ld`/`ldb`/`ldh`/`ldw`).
    #[must_use]
    pub fn suffix(self) -> &'static str {
        match self {
            MemWidth::Byte => "b",
            MemWidth::Half => "h",
            MemWidth::Word4 => "w",
            MemWidth::Word => "",
        }
    }
}

/// Comparison performed by a conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Taken iff `lhs == rhs`.
    Eq,
    /// Taken iff `lhs != rhs`.
    Ne,
    /// Taken iff `lhs < rhs` as signed 64-bit integers.
    Lt,
    /// Taken iff `lhs >= rhs` as signed 64-bit integers.
    Ge,
    /// Taken iff `lhs < rhs` as unsigned 64-bit integers.
    LtU,
    /// Taken iff `lhs >= rhs` as unsigned 64-bit integers.
    GeU,
}

impl BranchCond {
    /// Every condition, in declaration order.
    pub const ALL: [BranchCond; 6] = [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Ge,
        BranchCond::LtU,
        BranchCond::GeU,
    ];

    /// The branch mnemonic's suffix: the branch is spelled `b` and this
    /// (`beq` … `bgeu`).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "eq",
            BranchCond::Ne => "ne",
            BranchCond::Lt => "lt",
            BranchCond::Ge => "ge",
            BranchCond::LtU => "ltu",
            BranchCond::GeU => "geu",
        }
    }

    /// Evaluates the condition on two register values.
    ///
    /// ```rust
    /// use sdo_isa::BranchCond;
    /// assert!(BranchCond::Lt.eval(u64::MAX, 0)); // -1 < 0 signed
    /// assert!(!BranchCond::LtU.eval(u64::MAX, 0));
    /// ```
    #[must_use]
    pub fn eval(self, lhs: u64, rhs: u64) -> bool {
        match self {
            BranchCond::Eq => lhs == rhs,
            BranchCond::Ne => lhs != rhs,
            BranchCond::Lt => (lhs as i64) < (rhs as i64),
            BranchCond::Ge => (lhs as i64) >= (rhs as i64),
            BranchCond::LtU => lhs < rhs,
            BranchCond::GeU => lhs >= rhs,
        }
    }
}

/// Two-operand integer ALU operation selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left by `rhs & 63`.
    Sll,
    /// Logical shift right by `rhs & 63`.
    Srl,
    /// Arithmetic shift right by `rhs & 63`.
    Sra,
    /// Set-less-than, signed: `dst = (lhs < rhs) as u64`.
    Slt,
    /// Set-less-than, unsigned.
    Sltu,
    /// Wrapping 64-bit multiplication (low half).
    Mul,
    /// Unsigned division; division by zero yields `u64::MAX` (RISC-V rule).
    Divu,
    /// 32-bit wrapping addition, result sign-extended to 64 bits
    /// (RV64 `addw`; the RV32 frontend keeps every register value
    /// sign-extended from 32 bits, see DESIGN.md §14).
    AddW,
    /// 32-bit wrapping subtraction, result sign-extended.
    SubW,
    /// 32-bit logical shift left by `rhs & 31`, result sign-extended.
    SllW,
    /// 32-bit logical shift right by `rhs & 31`, result sign-extended.
    SrlW,
    /// 32-bit arithmetic shift right by `rhs & 31`, result sign-extended.
    SraW,
    /// 32-bit wrapping multiplication (low half), result sign-extended.
    MulW,
    /// 32-bit signed division with the RISC-V edge rules: division by
    /// zero yields `-1`; `i32::MIN / -1` yields `i32::MIN`.
    DivW,
    /// 32-bit unsigned division; division by zero yields `-1` (all
    /// ones); result sign-extended from 32 bits.
    DivuW,
    /// 32-bit signed remainder: remainder by zero yields the dividend;
    /// `i32::MIN % -1` yields `0`.
    RemW,
    /// 32-bit unsigned remainder; remainder by zero yields the dividend;
    /// result sign-extended from 32 bits.
    RemuW,
}

/// Sign-extends the low 32 bits of a value to 64 bits — the result
/// normalization every `*W` op applies (RV64 register convention).
fn sext32(x: u32) -> u64 {
    x as i32 as i64 as u64
}

impl AluOp {
    /// Every op, in declaration order.
    pub const ALL: [AluOp; 22] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Slt,
        AluOp::Sltu,
        AluOp::Mul,
        AluOp::Divu,
        AluOp::AddW,
        AluOp::SubW,
        AluOp::SllW,
        AluOp::SrlW,
        AluOp::SraW,
        AluOp::MulW,
        AluOp::DivW,
        AluOp::DivuW,
        AluOp::RemW,
        AluOp::RemuW,
    ];

    /// The op's mnemonic: the register form is spelled this, the
    /// immediate form this and `i` (`add`/`addi` … `remuw`/`remuwi`).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Mul => "mul",
            AluOp::Divu => "divu",
            AluOp::AddW => "addw",
            AluOp::SubW => "subw",
            AluOp::SllW => "sllw",
            AluOp::SrlW => "srlw",
            AluOp::SraW => "sraw",
            AluOp::MulW => "mulw",
            AluOp::DivW => "divw",
            AluOp::DivuW => "divuw",
            AluOp::RemW => "remw",
            AluOp::RemuW => "remuw",
        }
    }

    /// Evaluates the operation on two 64-bit values.
    #[must_use]
    pub fn eval(self, lhs: u64, rhs: u64) -> u64 {
        match self {
            AluOp::Add => lhs.wrapping_add(rhs),
            AluOp::Sub => lhs.wrapping_sub(rhs),
            AluOp::And => lhs & rhs,
            AluOp::Or => lhs | rhs,
            AluOp::Xor => lhs ^ rhs,
            AluOp::Sll => lhs << (rhs & 63),
            AluOp::Srl => lhs >> (rhs & 63),
            AluOp::Sra => ((lhs as i64) >> (rhs & 63)) as u64,
            AluOp::Slt => u64::from((lhs as i64) < (rhs as i64)),
            AluOp::Sltu => u64::from(lhs < rhs),
            AluOp::Mul => lhs.wrapping_mul(rhs),
            AluOp::Divu => lhs.checked_div(rhs).unwrap_or(u64::MAX),
            AluOp::AddW => sext32((lhs as u32).wrapping_add(rhs as u32)),
            AluOp::SubW => sext32((lhs as u32).wrapping_sub(rhs as u32)),
            AluOp::SllW => sext32((lhs as u32) << (rhs & 31)),
            AluOp::SrlW => sext32((lhs as u32) >> (rhs & 31)),
            AluOp::SraW => sext32(((lhs as i32) >> (rhs & 31)) as u32),
            AluOp::MulW => sext32((lhs as u32).wrapping_mul(rhs as u32)),
            AluOp::DivW => {
                // RISC-V: x / 0 = -1; i32::MIN / -1 = i32::MIN.
                let fallback = if rhs as i32 == 0 { -1 } else { i32::MIN };
                sext32((lhs as i32).checked_div(rhs as i32).unwrap_or(fallback) as u32)
            }
            AluOp::DivuW => sext32((lhs as u32).checked_div(rhs as u32).unwrap_or(u32::MAX)),
            AluOp::RemW => {
                // RISC-V: x % 0 = x; i32::MIN % -1 = 0.
                let fallback = if rhs as i32 == 0 { lhs as i32 } else { 0 };
                sext32((lhs as i32).checked_rem(rhs as i32).unwrap_or(fallback) as u32)
            }
            AluOp::RemuW => {
                sext32((lhs as u32).checked_rem(rhs as u32).unwrap_or(lhs as u32))
            }
        }
    }

    /// Whether the op uses the long-latency multiply unit.
    #[must_use]
    pub fn is_mul(self) -> bool {
        matches!(self, AluOp::Mul | AluOp::MulW)
    }

    /// Whether the op uses the long-latency divide unit.
    #[must_use]
    pub fn is_div(self) -> bool {
        matches!(
            self,
            AluOp::Divu | AluOp::DivW | AluOp::DivuW | AluOp::RemW | AluOp::RemuW
        )
    }
}

/// Floating-point operation selector.
///
/// `Mul`, `Div` and `Sqrt` are the FP *transmit* micro-ops of the paper's
/// `STT{ld+fp}` configuration (Table II): their hardware latency depends on
/// whether an operand is subnormal, which forms a covert channel
/// (Section I-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpuOp {
    /// IEEE-754 binary64 addition.
    Add,
    /// IEEE-754 binary64 subtraction.
    Sub,
    /// IEEE-754 binary64 multiplication (transmit op).
    Mul,
    /// IEEE-754 binary64 division (transmit op).
    Div,
    /// IEEE-754 binary64 square root of `lhs`; `rhs` is ignored (transmit op).
    Sqrt,
}

impl FpuOp {
    /// Every op, in declaration order.
    pub const ALL: [FpuOp; 5] = [FpuOp::Add, FpuOp::Sub, FpuOp::Mul, FpuOp::Div, FpuOp::Sqrt];

    /// The FP mnemonic's suffix: the op is spelled `f` and this
    /// (`fadd` … `fsqrt`).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpuOp::Add => "add",
            FpuOp::Sub => "sub",
            FpuOp::Mul => "mul",
            FpuOp::Div => "div",
            FpuOp::Sqrt => "sqrt",
        }
    }

    /// Evaluates the operation on two binary64 values.
    #[must_use]
    pub fn eval(self, lhs: f64, rhs: f64) -> f64 {
        match self {
            FpuOp::Add => lhs + rhs,
            FpuOp::Sub => lhs - rhs,
            FpuOp::Mul => lhs * rhs,
            FpuOp::Div => lhs / rhs,
            FpuOp::Sqrt => lhs.sqrt(),
        }
    }

    /// Whether this FP op is a transmitter under `STT{ld+fp}`
    /// (operand-dependent latency: subnormal slow path).
    #[must_use]
    pub fn is_transmit(self) -> bool {
        matches!(self, FpuOp::Mul | FpuOp::Div | FpuOp::Sqrt)
    }
}

/// Coarse functional classification of an instruction.
///
/// The out-of-order core uses this to pick a functional unit and the STT
/// layer uses it to classify transmitters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Single-cycle integer ALU op.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide.
    IntDiv,
    /// FP add/sub.
    FpAdd,
    /// FP multiply (transmit op in `STT{ld+fp}`).
    FpMul,
    /// FP divide (transmit op in `STT{ld+fp}`).
    FpDiv,
    /// FP square root (transmit op in `STT{ld+fp}`).
    FpSqrt,
    /// Data-memory load (integer or FP destination).
    Load,
    /// Data-memory store.
    Store,
    /// Conditional branch.
    Branch,
    /// Unconditional direct or indirect jump.
    Jump,
    /// No-op.
    Nop,
    /// Architectural halt.
    Halt,
}

/// A single architectural instruction.
///
/// Program counters are *instruction indices* (the pc steps by 1); branch
/// and jump targets are absolute instruction indices. Data memory is
/// byte-addressed and disjoint from instruction memory (Harvard-style),
/// which keeps the simulator's wrong-path execution well-defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Register-register integer ALU operation: `dst = op(lhs, rhs)`.
    Alu {
        /// Operation selector.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Left-hand source.
        lhs: Reg,
        /// Right-hand source.
        rhs: Reg,
    },
    /// Register-immediate integer ALU operation: `dst = op(src, imm)`.
    AluImm {
        /// Operation selector.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Register source.
        src: Reg,
        /// Immediate operand (sign interpreted by the op).
        imm: i64,
    },
    /// Load immediate: `dst = imm`.
    Li {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// Integer load: `dst = mem[src(base) + offset]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i64,
        /// Access width.
        width: MemWidth,
    },
    /// Integer store: `mem[src(base) + offset] = src`.
    Store {
        /// Data source register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i64,
        /// Access width.
        width: MemWidth,
    },
    /// FP load (always word width): `fdst = mem[base + offset]`.
    FLoad {
        /// Destination FP register.
        dst: FReg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i64,
    },
    /// FP store (always word width): `mem[base + offset] = fsrc`.
    FStore {
        /// Data source FP register.
        src: FReg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i64,
    },
    /// Conditional branch to absolute instruction index `target`.
    Branch {
        /// Comparison.
        cond: BranchCond,
        /// Left comparison source.
        lhs: Reg,
        /// Right comparison source.
        rhs: Reg,
        /// Absolute target (instruction index) when taken.
        target: u64,
    },
    /// Direct jump-and-link: `dst = pc + 1; pc = target`.
    Jal {
        /// Link register (use [`Reg::ZERO`] to discard).
        dst: Reg,
        /// Absolute target (instruction index).
        target: u64,
    },
    /// Indirect jump-and-link: `dst = pc + 1; pc = base + offset`.
    Jalr {
        /// Link register (use [`Reg::ZERO`] to discard).
        dst: Reg,
        /// Register holding the target instruction index.
        base: Reg,
        /// Signed offset added to the register value.
        offset: i64,
    },
    /// Two-operand FP operation: `dst = op(lhs, rhs)`; `Sqrt` ignores `rhs`,
    /// and its text (`fsqrt dst, lhs`) names `lhs` alone, so a parsed
    /// sqrt has `rhs == lhs`, as [`crate::Assembler::fsqrt`] builds it.
    Fpu {
        /// Operation selector.
        op: FpuOp,
        /// Destination FP register.
        dst: FReg,
        /// Left-hand FP source.
        lhs: FReg,
        /// Right-hand FP source.
        rhs: FReg,
    },
    /// Move FP bits to an integer register: `dst = bits(src)`.
    FMvToInt {
        /// Destination integer register.
        dst: Reg,
        /// Source FP register.
        src: FReg,
    },
    /// Move integer bits to an FP register: `dst = bits(src)`.
    FMvFromInt {
        /// Destination FP register.
        dst: FReg,
        /// Source integer register.
        src: Reg,
    },
    /// No operation.
    Nop,
    /// Stops the program; the interpreter and simulator treat this as
    /// normal termination.
    Halt,
}

impl Instruction {
    /// The instruction's functional class.
    #[must_use]
    pub fn class(&self) -> OpClass {
        match self {
            Instruction::Alu { op, .. } | Instruction::AluImm { op, .. } => {
                if op.is_mul() {
                    OpClass::IntMul
                } else if op.is_div() {
                    OpClass::IntDiv
                } else {
                    OpClass::IntAlu
                }
            }
            Instruction::Li { .. } | Instruction::FMvToInt { .. } | Instruction::FMvFromInt { .. } => {
                OpClass::IntAlu
            }
            Instruction::Load { .. } | Instruction::FLoad { .. } => OpClass::Load,
            Instruction::Store { .. } | Instruction::FStore { .. } => OpClass::Store,
            Instruction::Branch { .. } => OpClass::Branch,
            Instruction::Jal { .. } | Instruction::Jalr { .. } => OpClass::Jump,
            Instruction::Fpu { op, .. } => match op {
                FpuOp::Add | FpuOp::Sub => OpClass::FpAdd,
                FpuOp::Mul => OpClass::FpMul,
                FpuOp::Div => OpClass::FpDiv,
                FpuOp::Sqrt => OpClass::FpSqrt,
            },
            Instruction::Nop => OpClass::Nop,
            Instruction::Halt => OpClass::Halt,
        }
    }

    /// Whether this is a data-memory load (an *access instruction* in STT
    /// terminology — its output gets tainted while speculative).
    #[must_use]
    pub fn is_load(&self) -> bool {
        matches!(self, Instruction::Load { .. } | Instruction::FLoad { .. })
    }

    /// Whether this is a data-memory store.
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(self, Instruction::Store { .. } | Instruction::FStore { .. })
    }

    /// Whether this is a control-flow instruction (branch or jump).
    #[must_use]
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instruction::Branch { .. } | Instruction::Jal { .. } | Instruction::Jalr { .. }
        )
    }

    /// Whether this is a conditional branch.
    #[must_use]
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, Instruction::Branch { .. })
    }

    /// Whether this is an *indirect* control transfer (target from a
    /// register).
    #[must_use]
    pub fn is_indirect(&self) -> bool {
        matches!(self, Instruction::Jalr { .. })
    }

    /// Whether this is one of the FP transmit micro-ops of `STT{ld+fp}`
    /// (`fmul`/`fdiv`/`fsqrt`).
    #[must_use]
    pub fn is_fp_transmit(&self) -> bool {
        matches!(self, Instruction::Fpu { op, .. } if op.is_transmit())
    }

    /// The integer destination register, if any (excluding `r0` writes,
    /// which are architectural no-ops).
    #[must_use]
    pub fn int_dst(&self) -> Option<Reg> {
        let dst = match *self {
            Instruction::Alu { dst, .. }
            | Instruction::AluImm { dst, .. }
            | Instruction::Li { dst, .. }
            | Instruction::Load { dst, .. }
            | Instruction::Jal { dst, .. }
            | Instruction::Jalr { dst, .. }
            | Instruction::FMvToInt { dst, .. } => dst,
            _ => return None,
        };
        (!dst.is_zero()).then_some(dst)
    }

    /// The FP destination register, if any.
    #[must_use]
    pub fn fp_dst(&self) -> Option<FReg> {
        match *self {
            Instruction::FLoad { dst, .. }
            | Instruction::Fpu { dst, .. }
            | Instruction::FMvFromInt { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// Integer source registers, in operand order (at most 2).
    #[must_use]
    pub fn int_srcs(&self) -> [Option<Reg>; 2] {
        match *self {
            Instruction::Alu { lhs, rhs, .. } => [Some(lhs), Some(rhs)],
            Instruction::AluImm { src, .. } => [Some(src), None],
            Instruction::Load { base, .. }
            | Instruction::FLoad { base, .. }
            | Instruction::Jalr { base, .. } => [Some(base), None],
            Instruction::Store { src, base, .. } => [Some(src), Some(base)],
            Instruction::FStore { base, .. } => [Some(base), None],
            Instruction::Branch { lhs, rhs, .. } => [Some(lhs), Some(rhs)],
            Instruction::FMvFromInt { src, .. } => [Some(src), None],
            _ => [None, None],
        }
    }

    /// FP source registers, in operand order (at most 2).
    #[must_use]
    pub fn fp_srcs(&self) -> [Option<FReg>; 2] {
        match *self {
            Instruction::Fpu { op, lhs, rhs, .. } => {
                if matches!(op, FpuOp::Sqrt) {
                    [Some(lhs), None]
                } else {
                    [Some(lhs), Some(rhs)]
                }
            }
            Instruction::FStore { src, .. } => [Some(src), None],
            Instruction::FMvToInt { src, .. } => [Some(src), None],
            _ => [None, None],
        }
    }

    /// For loads/stores: the `(base, offset, width)` triple of the memory
    /// access, if this is a memory instruction.
    #[must_use]
    pub fn mem_operands(&self) -> Option<(Reg, i64, MemWidth)> {
        match *self {
            Instruction::Load { base, offset, width, .. }
            | Instruction::Store { base, offset, width, .. } => Some((base, offset, width)),
            Instruction::FLoad { base, offset, .. } | Instruction::FStore { base, offset, .. } => {
                Some((base, offset, MemWidth::Word))
            }
            _ => None,
        }
    }

    /// For direct control transfers, the static target.
    #[must_use]
    pub fn direct_target(&self) -> Option<u64> {
        match *self {
            Instruction::Branch { target, .. } | Instruction::Jal { target, .. } => Some(target),
            _ => None,
        }
    }
}

/// The instruction's assembly text, the form [`crate::parse_asm`]
/// reads back: an op's mnemonic comes from the spelling tables above
/// ([`AluOp::mnemonic`], [`BranchCond::mnemonic`], [`FpuOp::mnemonic`],
/// [`MemWidth::suffix`]), which the parser reads too, and targets are
/// absolute `@N`. Parsing the text gives the instruction back, except
/// that `fsqrt` names one source: sqrt's ignored `rhs` comes back equal
/// to `lhs`.
impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::Alu { op, dst, lhs, rhs } => {
                write!(f, "{} {dst}, {lhs}, {rhs}", op.mnemonic())
            }
            Instruction::AluImm { op, dst, src, imm } => {
                write!(f, "{}i {dst}, {src}, {imm}", op.mnemonic())
            }
            Instruction::Li { dst, imm } => write!(f, "li {dst}, {imm}"),
            Instruction::Load { dst, base, offset, width } => {
                write!(f, "ld{} {dst}, {offset}({base})", width.suffix())
            }
            Instruction::Store { src, base, offset, width } => {
                write!(f, "st{} {src}, {offset}({base})", width.suffix())
            }
            Instruction::FLoad { dst, base, offset } => write!(f, "fld {dst}, {offset}({base})"),
            Instruction::FStore { src, base, offset } => write!(f, "fst {src}, {offset}({base})"),
            Instruction::Branch { cond, lhs, rhs, target } => {
                write!(f, "b{} {lhs}, {rhs}, @{target}", cond.mnemonic())
            }
            Instruction::Jal { dst, target } => write!(f, "jal {dst}, @{target}"),
            Instruction::Jalr { dst, base, offset } => write!(f, "jalr {dst}, {offset}({base})"),
            Instruction::Fpu { op: op @ FpuOp::Sqrt, dst, lhs, .. } => {
                write!(f, "f{} {dst}, {lhs}", op.mnemonic())
            }
            Instruction::Fpu { op, dst, lhs, rhs } => {
                write!(f, "f{} {dst}, {lhs}, {rhs}", op.mnemonic())
            }
            Instruction::FMvToInt { dst, src } => write!(f, "fmv.x {dst}, {src}"),
            Instruction::FMvFromInt { dst, src } => write!(f, "fmv.f {dst}, {src}"),
            Instruction::Nop => write!(f, "nop"),
            Instruction::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }
    fn fr(i: u8) -> FReg {
        FReg::new(i)
    }

    #[test]
    fn alu_eval_basics() {
        assert_eq!(AluOp::Add.eval(3, 4), 7);
        assert_eq!(AluOp::Sub.eval(3, 4), u64::MAX); // wraps
        assert_eq!(AluOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.eval(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Sll.eval(1, 3), 8);
        assert_eq!(AluOp::Srl.eval(u64::MAX, 63), 1);
        assert_eq!(AluOp::Sra.eval(u64::MAX, 63), u64::MAX); // -1 >> 63 = -1
        assert_eq!(AluOp::Mul.eval(6, 7), 42);
    }

    #[test]
    fn alu_shift_amount_masked_to_6_bits() {
        assert_eq!(AluOp::Sll.eval(1, 64), 1);
        assert_eq!(AluOp::Srl.eval(2, 65), 1);
    }

    #[test]
    fn alu_div_by_zero_is_all_ones() {
        assert_eq!(AluOp::Divu.eval(5, 0), u64::MAX);
        assert_eq!(AluOp::Divu.eval(42, 6), 7);
    }

    #[test]
    fn alu_slt_signed_vs_unsigned() {
        assert_eq!(AluOp::Slt.eval(u64::MAX, 0), 1); // -1 < 0
        assert_eq!(AluOp::Sltu.eval(u64::MAX, 0), 0);
    }

    #[test]
    fn branch_cond_eval_all() {
        assert!(BranchCond::Eq.eval(5, 5));
        assert!(BranchCond::Ne.eval(5, 6));
        assert!(BranchCond::Lt.eval(u64::MAX, 0));
        assert!(BranchCond::Ge.eval(0, u64::MAX));
        assert!(BranchCond::LtU.eval(0, u64::MAX));
        assert!(BranchCond::GeU.eval(u64::MAX, 0));
    }

    #[test]
    fn fpu_eval_and_transmit_classification() {
        assert_eq!(FpuOp::Add.eval(1.5, 2.5), 4.0);
        assert_eq!(FpuOp::Mul.eval(3.0, 4.0), 12.0);
        assert_eq!(FpuOp::Sqrt.eval(9.0, 0.0), 3.0);
        assert!(FpuOp::Mul.is_transmit());
        assert!(FpuOp::Div.is_transmit());
        assert!(FpuOp::Sqrt.is_transmit());
        assert!(!FpuOp::Add.is_transmit());
        assert!(!FpuOp::Sub.is_transmit());
    }

    #[test]
    fn class_of_each_form() {
        let ld = Instruction::Load { dst: r(1), base: r(2), offset: 0, width: MemWidth::Word };
        assert_eq!(ld.class(), OpClass::Load);
        assert!(ld.is_load());
        let st = Instruction::Store { src: r(1), base: r(2), offset: 8, width: MemWidth::Word };
        assert_eq!(st.class(), OpClass::Store);
        assert!(st.is_store());
        let br = Instruction::Branch { cond: BranchCond::Eq, lhs: r(1), rhs: r(2), target: 3 };
        assert_eq!(br.class(), OpClass::Branch);
        assert!(br.is_control() && br.is_cond_branch());
        let mul = Instruction::Alu { op: AluOp::Mul, dst: r(1), lhs: r(2), rhs: r(3) };
        assert_eq!(mul.class(), OpClass::IntMul);
        let fsqrt = Instruction::Fpu { op: FpuOp::Sqrt, dst: fr(0), lhs: fr(1), rhs: fr(2) };
        assert_eq!(fsqrt.class(), OpClass::FpSqrt);
        assert!(fsqrt.is_fp_transmit());
        assert_eq!(Instruction::Halt.class(), OpClass::Halt);
    }

    #[test]
    fn r0_destination_is_discarded() {
        let i = Instruction::Alu { op: AluOp::Add, dst: Reg::ZERO, lhs: r(1), rhs: r(2) };
        assert_eq!(i.int_dst(), None);
        let j = Instruction::Jal { dst: Reg::ZERO, target: 0 };
        assert_eq!(j.int_dst(), None);
    }

    #[test]
    fn sources_of_store_include_data_and_base() {
        let st = Instruction::Store { src: r(3), base: r(4), offset: 0, width: MemWidth::Word };
        assert_eq!(st.int_srcs(), [Some(r(3)), Some(r(4))]);
        let fst = Instruction::FStore { src: fr(5), base: r(6), offset: 0 };
        assert_eq!(fst.int_srcs(), [Some(r(6)), None]);
        assert_eq!(fst.fp_srcs(), [Some(fr(5)), None]);
    }

    #[test]
    fn sqrt_has_single_fp_source() {
        let i = Instruction::Fpu { op: FpuOp::Sqrt, dst: fr(1), lhs: fr(2), rhs: fr(3) };
        assert_eq!(i.fp_srcs(), [Some(fr(2)), None]);
        let m = Instruction::Fpu { op: FpuOp::Mul, dst: fr(1), lhs: fr(2), rhs: fr(3) };
        assert_eq!(m.fp_srcs(), [Some(fr(2)), Some(fr(3))]);
    }

    #[test]
    fn mem_operands_for_all_memory_forms() {
        let ld = Instruction::Load { dst: r(1), base: r(2), offset: -8, width: MemWidth::Byte };
        assert_eq!(ld.mem_operands(), Some((r(2), -8, MemWidth::Byte)));
        let fld = Instruction::FLoad { dst: fr(1), base: r(2), offset: 16 };
        assert_eq!(fld.mem_operands(), Some((r(2), 16, MemWidth::Word)));
        assert_eq!(Instruction::Nop.mem_operands(), None);
    }

    #[test]
    fn direct_target_only_for_direct_transfers() {
        let br = Instruction::Branch { cond: BranchCond::Ne, lhs: r(1), rhs: r(2), target: 7 };
        assert_eq!(br.direct_target(), Some(7));
        let jalr = Instruction::Jalr { dst: r(1), base: r(2), offset: 0 };
        assert_eq!(jalr.direct_target(), None);
        assert!(jalr.is_indirect());
    }

    #[test]
    fn display_is_nonempty_for_every_form() {
        let insts = [
            Instruction::Alu { op: AluOp::Add, dst: r(1), lhs: r(2), rhs: r(3) },
            Instruction::AluImm { op: AluOp::Add, dst: r(1), src: r(2), imm: -4 },
            Instruction::Li { dst: r(1), imm: 9 },
            Instruction::Load { dst: r(1), base: r(2), offset: 0, width: MemWidth::Word },
            Instruction::Store { src: r(1), base: r(2), offset: 0, width: MemWidth::Byte },
            Instruction::FLoad { dst: fr(1), base: r(2), offset: 0 },
            Instruction::FStore { src: fr(1), base: r(2), offset: 0 },
            Instruction::Branch { cond: BranchCond::Eq, lhs: r(1), rhs: r(2), target: 0 },
            Instruction::Jal { dst: r(1), target: 0 },
            Instruction::Jalr { dst: r(1), base: r(2), offset: 0 },
            Instruction::Fpu { op: FpuOp::Sqrt, dst: fr(1), lhs: fr(2), rhs: fr(3) },
            Instruction::FMvToInt { dst: r(1), src: fr(2) },
            Instruction::FMvFromInt { dst: fr(1), src: r(2) },
            Instruction::Nop,
            Instruction::Halt,
        ];
        for i in insts {
            assert!(!i.to_string().is_empty(), "{i:?}");
        }
    }

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::Byte.bytes(), 1);
        assert_eq!(MemWidth::Half.bytes(), 2);
        assert_eq!(MemWidth::Word4.bytes(), 4);
        assert_eq!(MemWidth::Word.bytes(), 8);
        assert_eq!(MemWidth::default(), MemWidth::Word);
        assert_eq!(MemWidth::Half.suffix(), "h");
        assert_eq!(MemWidth::Word4.suffix(), "w");
    }

    /// The `*W` ops keep every result sign-extended from 32 bits — the
    /// register invariant the RV32 frontend relies on (DESIGN.md §14).
    #[test]
    fn w_ops_sign_extend_results() {
        // 0x7fffffff + 1 overflows to i32::MIN, sign-extended.
        assert_eq!(AluOp::AddW.eval(0x7fff_ffff, 1), 0xffff_ffff_8000_0000);
        assert_eq!(AluOp::SubW.eval(0, 1), u64::MAX); // -1 as sext32
        assert_eq!(AluOp::SllW.eval(1, 31), 0xffff_ffff_8000_0000);
        // Srl/Sra mask the shift amount to 5 bits and operate on 32 bits.
        assert_eq!(AluOp::SrlW.eval(0xffff_ffff_8000_0000, 31), 1);
        assert_eq!(AluOp::SraW.eval(0xffff_ffff_8000_0000, 31), u64::MAX);
        assert_eq!(AluOp::SllW.eval(1, 32), 1); // shift masked &31
        assert_eq!(AluOp::MulW.eval(0x10000, 0x10000), 0); // low 32 bits only
        assert_eq!(AluOp::MulW.eval(0xffff_ffff_ffff_ffff, 1), u64::MAX);
    }

    /// RISC-V division edge rules: div by zero, overflow, rem by zero.
    #[test]
    fn w_division_edge_cases() {
        assert_eq!(AluOp::DivW.eval(7, 0), u64::MAX); // x/0 = -1
        let int_min = 0xffff_ffff_8000_0000u64; // i32::MIN sext
        assert_eq!(AluOp::DivW.eval(int_min, u64::MAX), int_min); // MIN/-1 = MIN
        assert_eq!(AluOp::DivW.eval(u64::MAX, 1), u64::MAX); // -1/1 = -1
        assert_eq!(AluOp::DivW.eval(42, 6), 7);
        assert_eq!(AluOp::DivuW.eval(7, 0), u64::MAX); // divu by 0 = all ones
        assert_eq!(AluOp::DivuW.eval(0xffff_ffff_ffff_fffe, 1), 0xffff_ffff_ffff_fffe);
        assert_eq!(AluOp::RemW.eval(7, 0), 7); // x%0 = x
        assert_eq!(AluOp::RemW.eval(int_min, u64::MAX), 0); // MIN%-1 = 0
        assert_eq!(AluOp::RemW.eval(u64::MAX, 2), u64::MAX); // -1 % 2 = -1
        assert_eq!(AluOp::RemuW.eval(9, 0), 9);
        assert_eq!(AluOp::RemuW.eval(0xffff_ffff_0000_0009, 4), 1);
    }

    /// Every `*W` result is a fixed point of sign-extension from 32 bits.
    #[test]
    fn w_ops_results_are_canonical_sext32() {
        let ops = [
            AluOp::AddW, AluOp::SubW, AluOp::SllW, AluOp::SrlW, AluOp::SraW,
            AluOp::MulW, AluOp::DivW, AluOp::DivuW, AluOp::RemW, AluOp::RemuW,
        ];
        let samples = [0u64, 1, 5, 31, 42, u64::MAX, 0x7fff_ffff, 0xffff_ffff_8000_0000];
        for op in ops {
            for &a in &samples {
                for &b in &samples {
                    let v = op.eval(a, b);
                    assert_eq!(v, v as i32 as i64 as u64, "{op:?}({a:#x}, {b:#x})");
                }
            }
        }
    }

    #[test]
    fn w_ops_unit_classification() {
        assert!(AluOp::MulW.is_mul() && !AluOp::MulW.is_div());
        for op in [AluOp::DivW, AluOp::DivuW, AluOp::RemW, AluOp::RemuW] {
            assert!(op.is_div() && !op.is_mul(), "{op:?}");
        }
        for op in [AluOp::AddW, AluOp::SubW, AluOp::SllW, AluOp::SrlW, AluOp::SraW] {
            assert!(!op.is_div() && !op.is_mul(), "{op:?}");
        }
    }
}
