//! Functional reference interpreter (the simulator's golden model).

use crate::inst::Instruction;
use crate::program::{DataImage, Program};
use crate::reg::{FReg, Reg, NUM_FREGS, NUM_REGS};
use std::error::Error;
use std::fmt;

/// Record of one architecturally-executed instruction, as observed by the
/// golden model. Used for differential testing against the out-of-order
/// core's commit stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutedInst {
    /// The pc the instruction executed at.
    pub pc: u64,
    /// The instruction.
    pub inst: Instruction,
    /// The next pc after this instruction.
    pub next_pc: u64,
    /// For memory instructions, the effective byte address.
    pub mem_addr: Option<u64>,
    /// For conditional branches, whether the branch was taken.
    pub taken: Option<bool>,
}

/// Result of a single interpreter step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepOutcome {
    /// An instruction executed; execution continues.
    Executed(ExecutedInst),
    /// A `Halt` was reached (also returned for every step after halt).
    Halted,
}

/// Error from [`Interpreter::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterpError {
    /// The program did not halt within the step budget.
    StepLimit {
        /// The budget that was exhausted.
        max_steps: u64,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::StepLimit { max_steps } => {
                write!(f, "program did not halt within {max_steps} steps")
            }
        }
    }
}

impl Error for InterpError {}

/// A simple in-order functional interpreter for the mini-ISA.
///
/// The interpreter defines the ISA's architectural semantics: the
/// out-of-order core in `sdo-uarch` must produce exactly this committed
/// state for every program, under every protection configuration
/// (protections change *timing*, never *function*). Integration tests
/// enforce this differentially.
///
/// # Examples
///
/// ```rust
/// use sdo_isa::{Assembler, Reg, Interpreter};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut asm = Assembler::new();
/// asm.li(Reg::new(1), 7);
/// asm.muli(Reg::new(2), Reg::new(1), 6);
/// asm.halt();
/// let prog = asm.finish()?;
/// let mut interp = Interpreter::new(&prog);
/// interp.run(100)?;
/// assert_eq!(interp.reg(Reg::new(2)), 42);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Interpreter<'p> {
    program: &'p Program,
    regs: [u64; NUM_REGS],
    fregs: [u64; NUM_FREGS],
    mem: DataImage,
    pc: u64,
    halted: bool,
    executed: u64,
}

impl<'p> Interpreter<'p> {
    /// Creates an interpreter at pc 0 with memory seeded from the program's
    /// data image (shared with the program until the first store).
    #[must_use]
    pub fn new(program: &'p Program) -> Self {
        Interpreter {
            program,
            regs: [0; NUM_REGS],
            fregs: [0; NUM_FREGS],
            mem: program.data().clone(),
            pc: 0,
            halted: false,
            executed: 0,
        }
    }

    /// Current program counter.
    #[must_use]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Whether a `Halt` has been executed.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions executed so far (including the halt).
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Reads an integer register (r0 always reads 0).
    #[must_use]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Reads an FP register as its binary64 value.
    #[must_use]
    pub fn freg(&self, r: FReg) -> f64 {
        f64::from_bits(self.fregs[r.index()])
    }

    /// Writes an integer register (writes to r0 are discarded). Intended
    /// for test setup.
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// Reads one byte of data memory.
    #[must_use]
    pub fn mem_byte(&self, addr: u64) -> u8 {
        self.mem.byte(addr)
    }

    /// Reads a 64-bit little-endian word of data memory.
    #[must_use]
    pub fn mem_word(&self, addr: u64) -> u64 {
        self.mem.word(addr)
    }

    fn write_mem(&mut self, addr: u64, value: u64, bytes: u64) {
        self.mem.set_bytes(addr, &value.to_le_bytes()[..bytes as usize]);
    }

    fn read_mem(&self, addr: u64, bytes: u64) -> u64 {
        self.mem.word(addr) & (u64::MAX >> (64 - 8 * bytes))
    }

    /// Executes one instruction.
    pub fn step(&mut self) -> StepOutcome {
        if self.halted {
            return StepOutcome::Halted;
        }
        let pc = self.pc;
        let inst = self.program.fetch(pc);
        let mut next_pc = pc.wrapping_add(1);
        let mut mem_addr = None;
        let mut taken = None;

        match inst {
            Instruction::Alu { op, dst, lhs, rhs } => {
                let v = op.eval(self.reg(lhs), self.reg(rhs));
                self.set_reg(dst, v);
            }
            Instruction::AluImm { op, dst, src, imm } => {
                let v = op.eval(self.reg(src), imm as u64);
                self.set_reg(dst, v);
            }
            Instruction::Li { dst, imm } => self.set_reg(dst, imm as u64),
            Instruction::Load { dst, base, offset, width } => {
                let addr = self.reg(base).wrapping_add(offset as u64);
                mem_addr = Some(addr);
                let v = self.read_mem(addr, width.bytes());
                self.set_reg(dst, v);
            }
            Instruction::Store { src, base, offset, width } => {
                let addr = self.reg(base).wrapping_add(offset as u64);
                mem_addr = Some(addr);
                let v = self.reg(src);
                self.write_mem(addr, v, width.bytes());
            }
            Instruction::FLoad { dst, base, offset } => {
                let addr = self.reg(base).wrapping_add(offset as u64);
                mem_addr = Some(addr);
                self.fregs[dst.index()] = self.read_mem(addr, 8);
            }
            Instruction::FStore { src, base, offset } => {
                let addr = self.reg(base).wrapping_add(offset as u64);
                mem_addr = Some(addr);
                let bits = self.fregs[src.index()];
                self.write_mem(addr, bits, 8);
            }
            Instruction::Branch { cond, lhs, rhs, target } => {
                let t = cond.eval(self.reg(lhs), self.reg(rhs));
                taken = Some(t);
                if t {
                    next_pc = target;
                }
            }
            Instruction::Jal { dst, target } => {
                self.set_reg(dst, pc.wrapping_add(1));
                next_pc = target;
            }
            Instruction::Jalr { dst, base, offset } => {
                let target = self.reg(base).wrapping_add(offset as u64);
                self.set_reg(dst, pc.wrapping_add(1));
                next_pc = target;
            }
            Instruction::Fpu { op, dst, lhs, rhs } => {
                let a = f64::from_bits(self.fregs[lhs.index()]);
                let b = f64::from_bits(self.fregs[rhs.index()]);
                self.fregs[dst.index()] = op.eval(a, b).to_bits();
            }
            Instruction::FMvToInt { dst, src } => {
                let bits = self.fregs[src.index()];
                self.set_reg(dst, bits);
            }
            Instruction::FMvFromInt { dst, src } => {
                self.fregs[dst.index()] = self.reg(src);
            }
            Instruction::Nop => {}
            Instruction::Halt => {
                self.halted = true;
                self.executed += 1;
                return StepOutcome::Halted;
            }
        }

        self.pc = next_pc;
        self.executed += 1;
        StepOutcome::Executed(ExecutedInst { pc, inst, next_pc, mem_addr, taken })
    }

    /// Runs until halt, up to `max_steps` instructions.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::StepLimit`] if the program is still running
    /// after `max_steps` instructions.
    pub fn run(&mut self, max_steps: u64) -> Result<u64, InterpError> {
        for _ in 0..max_steps {
            if let StepOutcome::Halted = self.step() {
                return Ok(self.executed);
            }
        }
        if self.halted {
            Ok(self.executed)
        } else {
            Err(InterpError::StepLimit { max_steps })
        }
    }

    /// Runs collecting the full commit trace, up to `max_steps`.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::StepLimit`] if the program is still running
    /// after `max_steps` instructions.
    pub fn run_trace(&mut self, max_steps: u64) -> Result<Vec<ExecutedInst>, InterpError> {
        let mut trace = Vec::new();
        for _ in 0..max_steps {
            match self.step() {
                StepOutcome::Executed(e) => trace.push(e),
                StepOutcome::Halted => return Ok(trace),
            }
        }
        if self.halted {
            Ok(trace)
        } else {
            Err(InterpError::StepLimit { max_steps })
        }
    }

    /// Snapshot of all integer registers (index 0 is r0 == 0).
    #[must_use]
    pub fn int_regs(&self) -> [u64; NUM_REGS] {
        self.regs
    }

    /// Snapshot of all FP register bit patterns.
    #[must_use]
    pub fn fp_regs(&self) -> [u64; NUM_FREGS] {
        self.fregs
    }

    /// All non-zero data-memory bytes, in address order.
    #[must_use]
    pub fn mem_snapshot(&self) -> Vec<(u64, u8)> {
        self.mem.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::reg::{FReg, Reg};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }
    fn fr(i: u8) -> FReg {
        FReg::new(i)
    }

    #[test]
    fn arithmetic_loop_sums() {
        // sum 1..=10
        let mut asm = Assembler::new();
        let (n, acc) = (r(1), r(2));
        asm.li(n, 10);
        let top = asm.here();
        asm.add(acc, acc, n);
        asm.addi(n, n, -1);
        asm.bne(n, Reg::ZERO, top);
        asm.halt();
        let p = asm.finish().unwrap();
        let mut it = Interpreter::new(&p);
        it.run(1000).unwrap();
        assert_eq!(it.reg(acc), 55);
    }

    #[test]
    fn memory_roundtrip_word_and_byte() {
        let mut asm = Assembler::new();
        asm.li(r(1), 0x1000);
        asm.li(r(2), 0x1234_5678_9abc_def0_u64 as i64);
        asm.st(r(2), r(1), 0);
        asm.ld(r(3), r(1), 0);
        asm.ldb(r(4), r(1), 0);
        asm.ldb(r(5), r(1), 7);
        asm.halt();
        let p = asm.finish().unwrap();
        let mut it = Interpreter::new(&p);
        it.run(100).unwrap();
        assert_eq!(it.reg(r(3)), 0x1234_5678_9abc_def0);
        assert_eq!(it.reg(r(4)), 0xf0);
        assert_eq!(it.reg(r(5)), 0x12);
    }

    #[test]
    fn data_image_is_visible_to_loads() {
        let mut asm = Assembler::new();
        asm.data_mut().set_word(0x800, 4242);
        asm.li(r(1), 0x800);
        asm.ld(r(2), r(1), 0);
        asm.halt();
        let p = asm.finish().unwrap();
        let mut it = Interpreter::new(&p);
        it.run(100).unwrap();
        assert_eq!(it.reg(r(2)), 4242);
    }

    #[test]
    fn fp_pipeline_computes() {
        let mut asm = Assembler::new();
        asm.data_mut().set_f64(0, 2.0);
        asm.data_mut().set_f64(8, 8.0);
        asm.fld(fr(1), Reg::ZERO, 0);
        asm.fld(fr(2), Reg::ZERO, 8);
        asm.fmul(fr(3), fr(1), fr(2)); // 16
        asm.fsqrt(fr(4), fr(3)); // 4
        asm.fdiv(fr(5), fr(4), fr(1)); // 2
        asm.fst(fr(5), Reg::ZERO, 16);
        asm.halt();
        let p = asm.finish().unwrap();
        let mut it = Interpreter::new(&p);
        it.run(100).unwrap();
        assert_eq!(it.freg(fr(4)), 4.0);
        assert_eq!(f64::from_bits(it.mem_word(16)), 2.0);
    }

    #[test]
    fn jal_links_and_jr_returns() {
        let mut asm = Assembler::new();
        let func = asm.label();
        let ra = r(31);
        asm.jal(ra, func); // 0
        asm.li(r(2), 99); // 1 (after return)
        asm.halt(); // 2
        asm.bind(func);
        asm.li(r(1), 7); // 3
        asm.jr(ra); // 4
        let p = asm.finish().unwrap();
        let mut it = Interpreter::new(&p);
        it.run(100).unwrap();
        assert_eq!(it.reg(r(1)), 7);
        assert_eq!(it.reg(r(2)), 99);
        assert_eq!(it.reg(ra), 1);
    }

    #[test]
    fn step_limit_reported() {
        let mut asm = Assembler::new();
        let top = asm.here();
        asm.j(top);
        let p = asm.finish().unwrap();
        let mut it = Interpreter::new(&p);
        assert_eq!(it.run(10), Err(InterpError::StepLimit { max_steps: 10 }));
        assert!(it.run(10).unwrap_err().to_string().contains("did not halt"));
    }

    #[test]
    fn halted_interpreter_stays_halted() {
        let mut asm = Assembler::new();
        asm.halt();
        let p = asm.finish().unwrap();
        let mut it = Interpreter::new(&p);
        assert_eq!(it.step(), StepOutcome::Halted);
        assert_eq!(it.step(), StepOutcome::Halted);
        assert!(it.is_halted());
        assert_eq!(it.executed(), 1);
    }

    #[test]
    fn r0_is_immutable() {
        let mut asm = Assembler::new();
        asm.li(Reg::ZERO, 123);
        asm.addi(Reg::ZERO, Reg::ZERO, 5);
        asm.halt();
        let p = asm.finish().unwrap();
        let mut it = Interpreter::new(&p);
        it.run(10).unwrap();
        assert_eq!(it.reg(Reg::ZERO), 0);
    }

    #[test]
    fn trace_records_branch_direction_and_mem_addr() {
        let mut asm = Assembler::new();
        asm.li(r(1), 1);
        let skip = asm.label();
        asm.beq(r(1), Reg::ZERO, skip); // not taken
        asm.st(r(1), r(1), 7); // addr 8
        asm.bind(skip);
        asm.halt();
        let p = asm.finish().unwrap();
        let mut it = Interpreter::new(&p);
        let trace = it.run_trace(100).unwrap();
        assert_eq!(trace[1].taken, Some(false));
        assert_eq!(trace[2].mem_addr, Some(8));
    }

    #[test]
    fn fmv_moves_bits_exactly() {
        let mut asm = Assembler::new();
        asm.li(r(1), f64::NAN.to_bits() as i64);
        asm.fmv_from_int(fr(1), r(1));
        asm.fmv_to_int(r(2), fr(1));
        asm.halt();
        let p = asm.finish().unwrap();
        let mut it = Interpreter::new(&p);
        it.run(10).unwrap();
        assert_eq!(it.reg(r(2)), f64::NAN.to_bits());
    }

    #[test]
    fn falling_off_the_end_halts() {
        let mut asm = Assembler::new();
        asm.nop();
        let p = asm.finish().unwrap();
        let mut it = Interpreter::new(&p);
        it.run(10).unwrap();
        assert!(it.is_halted());
    }
}
