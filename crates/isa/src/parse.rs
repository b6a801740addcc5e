//! Text assembly parser: the textual front end to [`Assembler`].
//!
//! Grammar (one item per line; `;` or `#` start comments):
//!
//! ```text
//! .name spectre_demo          ; program name
//! .word 0x1000 42 7 -3        ; 64-bit words at an address
//! .byte 0x2000 1 2 0xff       ; bytes at an address
//! .f64  0x3000 1.5 2.25       ; binary64 values at an address
//!
//! loop:                       ; label
//!     li   r1, 100
//!     add  r2, r1, r1
//!     ld   r3, 8(r1)          ; word load, offset(base)
//!     ldb  r4, 0(r1)          ; byte load
//!     st   r3, -8(r2)
//!     fld  f1, 0(r2)
//!     fmul f3, f1, f2
//!     beq  r1, r2, loop
//!     jal  r31, loop
//!     jalr r0, 0(r31)
//!     j    loop
//!     jr   r31
//!     halt
//! ```
//!
//! The mnemonics are the ones [`Instruction`]'s `Display` writes, read
//! from the same spelling tables: `<alu>` and `<alu>i` for each
//! [`AluOp::mnemonic`], `b<cond>` for each [`BranchCond::mnemonic`],
//! `ld<width>`/`st<width>` for each [`MemWidth::suffix`] and `f<fpu>` for
//! each [`FpuOp::mnemonic`], plus `li`, `fld`, `fst`, `jal`, `j`, `jalr`,
//! `jr`, `fmv.x`, `fmv.f`, `nop` and `halt`. So every instruction's
//! disassembly parses back to it (sqrt's ignored `rhs` as `lhs`).

use crate::asm::{Assembler, Label};
use crate::inst::{AluOp, BranchCond, FpuOp, Instruction, MemWidth};
use crate::program::{Program, MAX_PARSED_PAGES};
use crate::reg::{FReg, Reg};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// Error from [`parse_asm`], carrying the 1-based source position and
/// the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number (0 for whole-program errors such as
    /// unresolved labels).
    pub line: usize,
    /// 1-based column of [`ParseError::token`] in the source line, or 0
    /// when the error has no single offending token.
    pub column: usize,
    /// The offending token text, if the error blames one.
    pub token: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.column > 0 {
            write!(f, "line {}:{}: {}", self.line, self.column, self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl Error for ParseError {}

/// A source line being parsed: its 1-based number and its text.
#[derive(Clone, Copy)]
struct Line<'a> {
    number: usize,
    text: &'a str,
}

impl Line<'_> {
    /// The 1-based column of `token`. Every token an error blames is a
    /// slice of its line's text, so its address gives its position, even
    /// where the same text appears earlier on the line. An empty token,
    /// or one that is not on the line, gets 0, as an error without one
    /// does.
    fn column(self, token: &str) -> usize {
        let line = self.text.as_bytes().as_ptr_range();
        let span = token.as_bytes().as_ptr_range();
        if token.is_empty() || span.start < line.start || span.end > line.end {
            return 0;
        }
        span.start.addr() - line.start.addr() + 1
    }
}

fn err<T>(line: Line<'_>, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { line: line.number, column: 0, token: String::new(), message: message.into() })
}

fn err_tok<T>(line: Line<'_>, token: &str, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line: line.number,
        column: line.column(token),
        token: token.to_string(),
        message: message.into(),
    })
}

fn parse_int(line: Line<'_>, s: &str) -> Result<i64, ParseError> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let value = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
            .or_else(|e| err_tok(line, s, format!("bad hex literal '{s}': {e}")))?
    } else {
        body.parse::<u64>()
            .or_else(|e| err_tok(line, s, format!("bad integer literal '{s}': {e}")))?
    };
    Ok(if neg { (value as i64).wrapping_neg() } else { value as i64 })
}

fn parse_reg(line: Line<'_>, s: &str) -> Result<Reg, ParseError> {
    let s = s.trim();
    let Some(num) = s.strip_prefix('r') else {
        return err_tok(line, s, format!("expected integer register (rN), got '{s}'"));
    };
    let idx: u8 =
        num.parse().or_else(|_| err_tok(line, s, format!("bad register '{s}'")))?;
    match Reg::try_new(idx) {
        Some(r) => Ok(r),
        None => err_tok(line, s, format!("register '{s}' out of range")),
    }
}

fn parse_freg(line: Line<'_>, s: &str) -> Result<FReg, ParseError> {
    let s = s.trim();
    let Some(num) = s.strip_prefix('f') else {
        return err_tok(line, s, format!("expected fp register (fN), got '{s}'"));
    };
    let idx: u8 =
        num.parse().or_else(|_| err_tok(line, s, format!("bad fp register '{s}'")))?;
    match FReg::try_new(idx) {
        Some(r) => Ok(r),
        None => err_tok(line, s, format!("register '{s}' out of range")),
    }
}

/// Parses `offset(base)`, e.g. `-8(r2)`.
fn parse_mem(line: Line<'_>, s: &str) -> Result<(i64, Reg), ParseError> {
    let s = s.trim();
    let Some(open) = s.find('(') else {
        return err_tok(line, s, format!("expected offset(base), got '{s}'"));
    };
    if !s.ends_with(')') {
        return err_tok(line, s, format!("missing ')' in '{s}'"));
    }
    let offset = if s[..open].trim().is_empty() { 0 } else { parse_int(line, &s[..open])? };
    let base = parse_reg(line, &s[open + 1..s.len() - 1])?;
    Ok((offset, base))
}

fn split_operands(s: &str) -> Vec<&str> {
    s.split(',').map(str::trim).filter(|p| !p.is_empty()).collect()
}

/// An instruction family, as its mnemonic names it.
#[derive(Clone, Copy)]
enum Form {
    Alu(AluOp),
    AluImm(AluOp),
    Branch(BranchCond),
    Load(MemWidth),
    Store(MemWidth),
    Fpu(FpuOp),
    Li,
    FLoad,
    FStore,
    Jal,
    J,
    Jalr,
    Jr,
    FMvToInt,
    FMvFromInt,
    Nop,
    Halt,
}

impl Form {
    /// The family `mnemonic` names, if any.
    fn of(mnemonic: &str) -> Option<Form> {
        Some(match mnemonic {
            "li" => Form::Li,
            "fld" => Form::FLoad,
            "fst" => Form::FStore,
            "jal" => Form::Jal,
            "j" => Form::J,
            "jalr" => Form::Jalr,
            "jr" => Form::Jr,
            "fmv.x" => Form::FMvToInt,
            "fmv.f" => Form::FMvFromInt,
            "nop" => Form::Nop,
            "halt" => Form::Halt,
            _ => return Form::spelled(mnemonic),
        })
    }

    /// The op-carrying families: a prefix, an op's spelling from its
    /// table in [`crate::inst`], and a suffix.
    fn spelled(m: &str) -> Option<Form> {
        fn find<T: Copy, const N: usize>(
            all: [T; N],
            spelling: fn(T) -> &'static str,
            body: Option<&str>,
        ) -> Option<T> {
            let body = body?;
            all.into_iter().find(|&op| spelling(op) == body)
        }
        let alu = |body| find(AluOp::ALL, AluOp::mnemonic, body);
        let width = |body| find(MemWidth::ALL, MemWidth::suffix, body);
        alu(Some(m))
            .map(Form::Alu)
            .or_else(|| alu(m.strip_suffix('i')).map(Form::AluImm))
            .or_else(|| {
                find(BranchCond::ALL, BranchCond::mnemonic, m.strip_prefix('b')).map(Form::Branch)
            })
            .or_else(|| width(m.strip_prefix("ld")).map(Form::Load))
            .or_else(|| width(m.strip_prefix("st")).map(Form::Store))
            .or_else(|| find(FpuOp::ALL, FpuOp::mnemonic, m.strip_prefix('f')).map(Form::Fpu))
    }

    /// How many operands the family takes.
    fn arity(self) -> usize {
        match self {
            Form::Nop | Form::Halt => 0,
            Form::J | Form::Jr => 1,
            Form::Li
            | Form::Load(_)
            | Form::Store(_)
            | Form::FLoad
            | Form::FStore
            | Form::Jal
            | Form::Jalr
            | Form::Fpu(FpuOp::Sqrt)
            | Form::FMvToInt
            | Form::FMvFromInt => 2,
            Form::Alu(_) | Form::AluImm(_) | Form::Branch(_) | Form::Fpu(_) => 3,
        }
    }
}

/// Parses a textual assembly listing into a [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line for syntax errors,
/// unknown mnemonics, bad registers, or unresolved labels.
///
/// # Examples
///
/// ```rust
/// use sdo_isa::{parse_asm, Interpreter};
/// let prog = parse_asm(r"
///     .name demo
///     li   r1, 6
///     muli r2, r1, 7
///     halt
/// ")?;
/// let mut i = Interpreter::new(&prog);
/// i.run(100)?;
/// assert_eq!(i.reg(sdo_isa::Reg::new(2)), 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn parse_asm(source: &str) -> Result<Program, ParseError> {
    let mut asm = Assembler::new();
    let mut labels: BTreeMap<String, Label> = BTreeMap::new();
    let mut bound: BTreeSet<&str> = BTreeSet::new();

    // Absolute targets are written `@N` (as in disassembly listings);
    // they bind a dedicated label per address at the end.
    let mut absolute: BTreeMap<u64, Label> = BTreeMap::new();
    let mut label_of =
        |asm: &mut Assembler, line: Line<'_>, name: &str| -> Result<Label, ParseError> {
            if let Some(addr) = name.strip_prefix('@') {
                let target = parse_int(line, addr)? as u64;
                return Ok(*absolute.entry(target).or_insert_with(|| asm.label()));
            }
            Ok(*labels.entry(name.to_string()).or_insert_with(|| asm.label()))
        };

    for (lineno, raw) in source.lines().enumerate() {
        let line = Line { number: lineno + 1, text: raw };
        let text = raw.split([';', '#']).next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }

        // Directives.
        if let Some(rest) = text.strip_prefix('.') {
            let mut parts = rest.split_whitespace();
            let directive = parts.next().unwrap_or("");
            let args: Vec<&str> = parts.collect();
            match directive {
                "name" => {
                    let name = args.join(" ");
                    if name.is_empty() {
                        return err(line, ".name needs a value");
                    }
                    if asm.next_pc() != 0 || !asm.data_mut().is_empty() {
                        return err(line, ".name must appear before any code or data");
                    }
                    asm.set_name(name);
                }
                "word" | "byte" | "f64" => {
                    if args.len() < 2 {
                        return err(line, format!(".{directive} needs an address and values"));
                    }
                    let mut addr = parse_int(line, args[0])? as u64;
                    for v in &args[1..] {
                        let step = match directive {
                            "word" => {
                                asm.data_mut().set_word(addr, parse_int(line, v)? as u64);
                                8
                            }
                            "byte" => {
                                asm.data_mut().set_byte(addr, parse_int(line, v)? as u8);
                                1
                            }
                            _ => {
                                let x: f64 = v.parse().or_else(|e| {
                                    err_tok(line, v, format!("bad f64 '{v}': {e}"))
                                })?;
                                asm.data_mut().set_f64(addr, x);
                                8
                            }
                        };
                        if asm.data_mut().pages().len() > MAX_PARSED_PAGES {
                            return err_tok(
                                line,
                                v,
                                format!("data on more than {MAX_PARSED_PAGES} pages"),
                            );
                        }
                        addr = match addr.checked_add(step) {
                            Some(next) => next,
                            None => {
                                return err_tok(
                                    line,
                                    v,
                                    format!(".{directive} data overflows the address space"),
                                )
                            }
                        };
                    }
                }
                other => return err_tok(line, other, format!("unknown directive '.{other}'")),
            }
            continue;
        }

        // Labels (possibly followed by an instruction on the same line).
        let mut text = text;
        while let Some(colon) = text.find(':') {
            let (name, rest) = text.split_at(colon);
            let name = name.trim();
            if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                return err_tok(line, name, format!("bad label '{name}'"));
            }
            if !bound.insert(name) {
                return err_tok(line, name, format!("label '{name}' defined more than once"));
            }
            let label = label_of(&mut asm, line, name)?;
            asm.bind(label);
            text = rest[1..].trim();
            if text.is_empty() {
                break;
            }
        }
        if text.is_empty() {
            continue;
        }

        // Instruction.
        let (mnemonic, operand_text) = match text.find(char::is_whitespace) {
            Some(i) => (&text[..i], text[i..].trim()),
            None => (text, ""),
        };
        let ops = split_operands(operand_text);
        let Some(form) = Form::of(mnemonic) else {
            return err_tok(line, mnemonic, format!("unknown mnemonic '{mnemonic}'"));
        };
        if ops.len() != form.arity() {
            let (want, got) = (form.arity(), ops.len());
            return err_tok(
                line,
                mnemonic,
                format!("'{mnemonic}' expects {want} operand(s), got {got}"),
            );
        }
        let reg = |i: usize| parse_reg(line, ops[i]);
        let freg = |i: usize| parse_freg(line, ops[i]);
        let int = |i: usize| parse_int(line, ops[i]);
        let mem = |i: usize| parse_mem(line, ops[i]);
        match form {
            Form::Alu(op) => {
                asm.emit(Instruction::Alu { op, dst: reg(0)?, lhs: reg(1)?, rhs: reg(2)? })
            }
            Form::AluImm(op) => {
                asm.emit(Instruction::AluImm { op, dst: reg(0)?, src: reg(1)?, imm: int(2)? })
            }
            Form::Li => asm.emit(Instruction::Li { dst: reg(0)?, imm: int(1)? }),
            Form::Load(width) => {
                let (dst, (offset, base)) = (reg(0)?, mem(1)?);
                asm.emit(Instruction::Load { dst, base, offset, width })
            }
            Form::Store(width) => {
                let (src, (offset, base)) = (reg(0)?, mem(1)?);
                asm.emit(Instruction::Store { src, base, offset, width })
            }
            Form::FLoad => {
                let (dst, (offset, base)) = (freg(0)?, mem(1)?);
                asm.emit(Instruction::FLoad { dst, base, offset })
            }
            Form::FStore => {
                let (src, (offset, base)) = (freg(0)?, mem(1)?);
                asm.emit(Instruction::FStore { src, base, offset })
            }
            Form::Branch(cond) => {
                let (lhs, rhs) = (reg(0)?, reg(1)?);
                let target = label_of(&mut asm, line, ops[2])?;
                asm.branch(cond, lhs, rhs, target)
            }
            Form::Jal => {
                let dst = reg(0)?;
                let target = label_of(&mut asm, line, ops[1])?;
                asm.jal(dst, target)
            }
            Form::J => {
                let target = label_of(&mut asm, line, ops[0])?;
                asm.j(target)
            }
            Form::Jalr => {
                let (dst, (offset, base)) = (reg(0)?, mem(1)?);
                asm.emit(Instruction::Jalr { dst, base, offset })
            }
            Form::Jr => asm.jr(reg(0)?),
            Form::Fpu(FpuOp::Sqrt) => asm.fsqrt(freg(0)?, freg(1)?),
            Form::Fpu(op) => {
                asm.emit(Instruction::Fpu { op, dst: freg(0)?, lhs: freg(1)?, rhs: freg(2)? })
            }
            Form::FMvToInt => asm.emit(Instruction::FMvToInt { dst: reg(0)?, src: freg(1)? }),
            Form::FMvFromInt => asm.emit(Instruction::FMvFromInt { dst: freg(0)?, src: reg(1)? }),
            Form::Nop => asm.nop(),
            Form::Halt => asm.halt(),
        };
    }

    // Bind absolute `@N` targets to their literal addresses.
    for (&addr, &label) in &absolute {
        asm.bind_at(label, addr);
    }
    asm.finish().map_err(|e| ParseError {
        line: 0,
        column: 0,
        token: String::new(),
        message: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;

    #[test]
    fn parses_arithmetic_program() {
        let prog = parse_asm(
            r"
            .name sum
            li r1, 10
            li r2, 0
            loop:
                add r2, r2, r1
                addi r1, r1, -1
                bne r1, r0, loop
            halt
        ",
        )
        .unwrap();
        assert_eq!(prog.name(), "sum");
        let mut it = Interpreter::new(&prog);
        it.run(1000).unwrap();
        assert_eq!(it.reg(Reg::new(2)), 55);
    }

    #[test]
    fn parses_memory_and_data_directives() {
        let prog = parse_asm(
            r"
            .word 0x100 42 -1
            .byte 0x200 0xab
            .f64  0x300 2.5
            li r1, 0x100
            ld r2, 0(r1)
            ld r3, 8(r1)
            li r4, 0x200
            ldb r5, 0(r4)
            li r6, 0x300
            fld f1, 0(r6)
            st r2, 16(r1)
            halt
        ",
        )
        .unwrap();
        let mut it = Interpreter::new(&prog);
        it.run(1000).unwrap();
        assert_eq!(it.reg(Reg::new(2)), 42);
        assert_eq!(it.reg(Reg::new(3)), u64::MAX);
        assert_eq!(it.reg(Reg::new(5)), 0xab);
        assert_eq!(it.freg(FReg::new(1)), 2.5);
        assert_eq!(it.mem_word(0x110), 42);
    }

    #[test]
    fn parses_calls_and_fp() {
        let prog = parse_asm(
            r"
            .f64 0x0 16.0
            li r1, 0
            fld f1, 0(r1)
            jal r31, func
            fst f2, 8(r1)
            halt
            func:
                fsqrt f2, f1
                fmul f2, f2, f1
                jr r31
        ",
        )
        .unwrap();
        let mut it = Interpreter::new(&prog);
        it.run(1000).unwrap();
        assert_eq!(f64::from_bits(it.mem_word(8)), 64.0);
    }

    #[test]
    fn label_and_code_on_same_line() {
        let prog = parse_asm("top: addi r1, r1, 1\nbne r1, r2, top\nhalt").unwrap();
        assert_eq!(prog.len(), 3);
        assert_eq!(prog.fetch(1).direct_target(), Some(0));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let prog = parse_asm(
            "; full line comment\n# hash comment\n\n  li r1, 1 ; trailing\nhalt # end",
        )
        .unwrap();
        assert_eq!(prog.len(), 2);
    }

    #[test]
    fn forward_references_resolve() {
        let prog = parse_asm("j end\nnop\nend: halt").unwrap();
        assert_eq!(prog.fetch(0).direct_target(), Some(2));
    }

    #[test]
    fn error_reports_line_numbers() {
        let e = parse_asm("li r1, 1\nfrobnicate r2\nhalt").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("frobnicate"));

        let e = parse_asm("li r99, 1").unwrap_err();
        assert_eq!(e.line, 1);

        let e = parse_asm("add r1, r2").unwrap_err();
        assert!(e.message.contains("expects 3"));

        let e = parse_asm("ld r1, r2").unwrap_err();
        assert!(e.message.contains("offset(base)"));
    }

    #[test]
    fn error_reports_column_and_token() {
        let e = parse_asm("li r1, 1\nfrobnicate r2\nhalt").unwrap_err();
        assert_eq!((e.line, e.column), (2, 1));
        assert_eq!(e.token, "frobnicate");
        assert_eq!(e.to_string(), "line 2:1: unknown mnemonic 'frobnicate'");

        let e = parse_asm("    li r99, 1").unwrap_err();
        assert_eq!((e.line, e.column), (1, 8));
        assert_eq!(e.token, "r99");

        let e = parse_asm("add r1, r2, 5").unwrap_err();
        assert_eq!(e.column, 13);
        assert_eq!(e.token, "5");

        let e = parse_asm(".quux 1").unwrap_err();
        assert_eq!(e.column, 2);
        assert_eq!(e.token, "quux");

        // The operand that failed, not an earlier token with its text.
        let e = parse_asm("addi r1, r1, r1").unwrap_err();
        assert_eq!(
            e.to_string(),
            "line 1:14: bad integer literal 'r1': invalid digit found in string"
        );
        let e = parse_asm("ld r1, r1").unwrap_err();
        assert_eq!(e.to_string(), "line 1:8: expected offset(base), got 'r1'");

        // Whole-program errors carry no position and keep the short form.
        let e = parse_asm("j nowhere\nhalt").unwrap_err();
        assert_eq!(e.column, 0);
        assert!(e.to_string().starts_with("line 0: "));
    }

    #[test]
    fn data_directive_address_overflow_is_an_error() {
        // Regression: `addr += 8` used to overflow-panic in debug builds.
        let e = parse_asm(".word 0xffffffffffffffff 1 2\nhalt").unwrap_err();
        assert!(e.message.contains("overflows"), "{e}");
        let e = parse_asm(".byte 0xffffffffffffffff 1 2\nhalt").unwrap_err();
        assert!(e.message.contains("overflows"), "{e}");
    }

    #[test]
    fn data_on_too_many_pages_is_an_error() {
        // One short line per page: the text stays small, the image would not.
        let pages = |n: usize| -> String {
            (0..n).map(|k| format!(".byte {} 1\n", k * crate::PAGE_BYTES)).collect()
        };
        let at_cap = parse_asm(&(pages(MAX_PARSED_PAGES) + "halt")).unwrap();
        assert_eq!(at_cap.data().pages().len(), MAX_PARSED_PAGES);
        // Zero bytes hold no page, so they do not count.
        let zeros = format!(".word {} 0 0", MAX_PARSED_PAGES * crate::PAGE_BYTES);
        parse_asm(&(pages(MAX_PARSED_PAGES) + &zeros + "\nhalt")).unwrap();
        let e = parse_asm(&(pages(MAX_PARSED_PAGES + 1) + "halt")).unwrap_err();
        assert_eq!(e.line, MAX_PARSED_PAGES + 1);
        assert!(e.message.contains("more than 4096 pages"), "{e}");
    }

    #[test]
    fn duplicate_label_is_an_error_not_a_panic() {
        // The assembler asserts a label is bound once; text from outside
        // the program must be refused before it gets there.
        let e = parse_asm("top: nop\nnop\n  top: halt").unwrap_err();
        assert_eq!(e.to_string(), "line 3:3: label 'top' defined more than once");
    }

    #[test]
    fn truncated_input_never_panics() {
        // Every byte prefix of a valid listing must parse or fail
        // cleanly — truncation mid-token is the classic panic path.
        let source = "\
            .name trunc\n.word 0x100 42 -1\n.byte 0x200 0xab\n.f64 0x300 2.5\n\
            top: li r1, 0x100\nld r2, 8(r1)\nfld f1, 0(r1)\nfmul f2, f1, f1\n\
            beq r1, r0, top\njalr r31, 0(r2)\nhalt\n";
        assert!(source.is_ascii());
        for cut in 0..=source.len() {
            let _ = parse_asm(&source[..cut]);
        }
    }

    #[test]
    fn unresolved_label_is_error() {
        let e = parse_asm("j nowhere\nhalt").unwrap_err();
        assert!(e.message.contains("never bound"));
    }

    #[test]
    fn hex_and_negative_immediates() {
        let prog = parse_asm("li r1, 0x10\naddi r2, r1, -0x8\nhalt").unwrap();
        let mut it = Interpreter::new(&prog);
        it.run(100).unwrap();
        assert_eq!(it.reg(Reg::new(2)), 8);
    }

    #[test]
    fn labels_bound_before_name_stay_bound() {
        // Regression: `.name` used to swap in a fresh assembler, dropping
        // the labels already allocated, and `j top` then indexed past them.
        let prog = parse_asm("top:\n.name late\nj top").unwrap();
        assert_eq!(prog.name(), "late");
        assert_eq!(prog.fetch(0).direct_target(), Some(0));
    }

    #[test]
    fn name_after_code_rejected() {
        let e = parse_asm("nop\n.name late").unwrap_err();
        assert!(e.message.contains("before any code"));
    }

    #[test]
    fn w_ops_and_new_widths_round_trip() {
        // 0x100..0x104 = 0xfffffffe little-endian.
        let source = r"
            .byte 0x100 0xfe 0xff 0xff 0xff
            li r1, 0x100
            ldw r2, 0(r1)
            ldh r3, 0(r1)
            addwi r4, r2, 0
            addw r5, r2, r2
            srawi r6, r4, 1
            remuw r7, r2, r3
            stw r4, 8(r1)
            sth r4, 16(r1)
            halt
        ";
        let prog = parse_asm(source).unwrap();
        let mut it = Interpreter::new(&prog);
        it.run(100).unwrap();
        assert_eq!(it.reg(Reg::new(2)), 0xffff_fffe); // ldw zero-extends
        assert_eq!(it.reg(Reg::new(3)), 0xfffe); // ldh zero-extends
        assert_eq!(it.reg(Reg::new(4)), 0xffff_ffff_ffff_fffe); // addwi sign-extends
        assert_eq!(it.reg(Reg::new(5)), 0xffff_ffff_ffff_fffc);
        assert_eq!(it.reg(Reg::new(6)), u64::MAX); // -2 >> 1 = -1
        assert_eq!(it.reg(Reg::new(7)), 2); // 0xfffffffe % 0xfffe
        assert_eq!(it.mem_word(0x108) & 0xffff_ffff, 0xffff_fffe); // stw low 32
        assert_eq!(it.mem_word(0x110) & 0xffff, 0xfffe); // sth low 16
        // Display → parse is the wire format; it must round-trip exactly.
        let reparsed = parse_asm(&prog.disassemble()).unwrap();
        assert_eq!(prog.instructions(), reparsed.instructions());
    }

    #[test]
    fn parse_matches_builder_semantics() {
        // The same program written both ways executes identically.
        let text = parse_asm(
            r"
            li r1, 7
            li r2, 3
            mul r3, r1, r2
            slli r4, r3, 2
            sub r5, r4, r1
            halt
        ",
        )
        .unwrap();
        let mut asm = Assembler::new();
        let r = Reg::new;
        asm.li(r(1), 7).li(r(2), 3).mul(r(3), r(1), r(2)).slli(r(4), r(3), 2).sub(
            r(5),
            r(4),
            r(1),
        );
        asm.halt();
        let built = asm.finish().unwrap();
        let mut a = Interpreter::new(&text);
        let mut b = Interpreter::new(&built);
        a.run(100).unwrap();
        b.run(100).unwrap();
        assert_eq!(a.int_regs(), b.int_regs());
    }

    /// Every instruction shape, at the extreme immediates and targets,
    /// disassembles to text that parses back to it. The text's one
    /// canonical form: `fsqrt` names one source, so sqrt's ignored `rhs`
    /// comes back equal to its `lhs`.
    #[test]
    fn every_instruction_survives_disassembly() {
        use Instruction::{FLoad, FMvFromInt, FMvToInt, FStore, Halt, Jal, Jalr, Li, Nop};
        let (r, f) = (Reg::new, FReg::new);
        let imms = [0, -1, i64::MIN, i64::MAX];
        let targets = [0, 1 << 20, u64::MAX]; // the first, past the end, the last
        let mut insts = Vec::new();
        for op in AluOp::ALL {
            insts.push(Instruction::Alu { op, dst: r(1), lhs: r(2), rhs: r(31) });
            insts.extend(imms.map(|imm| Instruction::AluImm { op, dst: r(3), src: r(0), imm }));
        }
        for cond in BranchCond::ALL {
            let (lhs, rhs) = (r(4), r(5));
            insts.extend(targets.map(|target| Instruction::Branch { cond, lhs, rhs, target }));
        }
        for width in MemWidth::ALL {
            for offset in imms {
                insts.push(Instruction::Load { dst: r(6), base: r(7), offset, width });
                insts.push(Instruction::Store { src: r(8), base: r(9), offset, width });
            }
        }
        for offset in imms {
            insts.extend([
                FLoad { dst: f(1), base: r(10), offset },
                FStore { src: f(31), base: r(11), offset },
                Jalr { dst: r(12), base: r(13), offset },
                Li { dst: r(14), imm: offset },
            ]);
        }
        insts.extend(targets.map(|target| Jal { dst: r(15), target }));
        insts.extend(FpuOp::ALL.map(|op| Instruction::Fpu { op, dst: f(2), lhs: f(3), rhs: f(4) }));
        insts.extend([FMvToInt { dst: r(16), src: f(5) }, FMvFromInt { dst: f(6), src: r(17) }]);
        insts.extend([Nop, Halt]);

        let program = Program::new("every_shape", insts, crate::program::DataImage::new());
        let reparsed = parse_asm(&program.disassemble()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(reparsed.len(), program.len());
        let pairs = reparsed.instructions().iter().zip(program.instructions());
        for (pc, (&got, &built)) in pairs.enumerate() {
            let want = match built {
                Instruction::Fpu { op: FpuOp::Sqrt, dst, lhs, .. } => {
                    Instruction::Fpu { op: FpuOp::Sqrt, dst, lhs, rhs: lhs }
                }
                other => other,
            };
            assert_eq!(got, want, "instruction {pc}, `{built}`");
        }
    }
}
