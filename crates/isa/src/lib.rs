//! # sdo-isa — the mini-ISA of the SDO simulator
//!
//! This crate defines the instruction set that the cycle-level simulator in
//! `sdo-uarch` executes, together with:
//!
//! * [`Reg`]/[`FReg`] — architectural integer and floating-point registers,
//! * [`Instruction`] — the instruction set (ALU, multiply/divide, FP
//!   add/mul/div/sqrt, loads/stores, branches and jumps),
//! * [`Program`] — an executable image (instruction memory + initial data
//!   memory image),
//! * [`Assembler`] — a label-based builder API for writing programs in Rust,
//! * [`Interpreter`] — a functional, in-order reference interpreter used as
//!   the *golden model* for differential testing of the out-of-order core.
//!
//! The ISA is deliberately RISC-like and word-oriented: the program counter
//! counts *instructions* (not bytes), data memory is byte-addressed with
//! 1/8-byte accesses, and integer registers are 64-bit. Floating point uses
//! IEEE-754 `f64` carried in 64-bit registers; the FP transmit instructions
//! of the paper (`fmul`, `fdiv`, `fsqrt`) are modeled directly.
//!
//! ## Example
//!
//! ```rust
//! use sdo_isa::{Assembler, Reg, Interpreter};
//!
//! # fn main() -> Result<(), sdo_isa::AsmError> {
//! let mut asm = Assembler::new();
//! let (r1, r2) = (Reg::new(1), Reg::new(2));
//! asm.addi(r1, Reg::ZERO, 21);
//! asm.add(r2, r1, r1);
//! asm.halt();
//! let program = asm.finish()?;
//!
//! let mut interp = Interpreter::new(&program);
//! interp.run(1_000).expect("program halts");
//! assert_eq!(interp.reg(r2), 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod asm;
mod inst;
mod interp;
mod parse;
mod program;
mod reg;

pub use asm::{AsmError, Assembler, Label};
pub use inst::{AluOp, BranchCond, FpuOp, Instruction, MemWidth, OpClass};
pub use interp::{ExecutedInst, InterpError, Interpreter, StepOutcome};
pub use parse::{parse_asm, ParseError};
pub use program::{
    page_pieces, page_split, DataImage, Program, MAX_PARSED_PAGES, PAGE_BYTES, PAGE_SHIFT,
};
pub use reg::{FReg, Reg, NUM_FREGS, NUM_REGS};
