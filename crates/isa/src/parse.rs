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

use crate::asm::Assembler;
use crate::inst::MemWidth;
use crate::program::{Program, MAX_PARSED_PAGES};
use crate::reg::{FReg, Reg};
use std::collections::{HashMap, HashSet};
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

impl ParseError {
    /// Fills in `column` by locating `token` in its source line.
    fn locate(mut self, source: &str) -> Self {
        if self.column == 0 && self.line > 0 && !self.token.is_empty() {
            if let Some(raw) = source.lines().nth(self.line - 1) {
                if let Some(at) = raw.find(self.token.as_str()) {
                    self.column = at + 1;
                }
            }
        }
        self
    }
}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { line, column: 0, token: String::new(), message: message.into() })
}

fn err_tok<T>(line: usize, token: &str, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { line, column: 0, token: token.to_string(), message: message.into() })
}

fn parse_int(line: usize, s: &str) -> Result<i64, ParseError> {
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

fn parse_reg(line: usize, s: &str) -> Result<Reg, ParseError> {
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

fn parse_freg(line: usize, s: &str) -> Result<FReg, ParseError> {
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
fn parse_mem(line: usize, s: &str) -> Result<(i64, Reg), ParseError> {
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
    parse_inner(source).map_err(|e| e.locate(source))
}

fn parse_inner(source: &str) -> Result<Program, ParseError> {
    let mut asm = Assembler::new();
    let mut labels: HashMap<String, crate::asm::Label> = HashMap::new();
    let mut bound: HashSet<&str> = HashSet::new();

    // Absolute targets are written `@N` (as in disassembly listings);
    // they bind a dedicated label per address at the end.
    let mut absolute: HashMap<u64, crate::asm::Label> = HashMap::new();
    let mut label_of = |asm: &mut Assembler,
                        absolute: &mut HashMap<u64, crate::asm::Label>,
                        line: usize,
                        name: &str|
     -> Result<crate::asm::Label, ParseError> {
        if let Some(addr) = name.strip_prefix('@') {
            let target = parse_int(line, addr)? as u64;
            return Ok(*absolute.entry(target).or_insert_with(|| asm.label()));
        }
        Ok(*labels.entry(name.to_string()).or_insert_with(|| asm.label()))
    };

    for (lineno, raw) in source.lines().enumerate() {
        let line = lineno + 1;
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
                    asm = {
                        // Rebuild with the name, keeping prior state is not
                        // possible through the public API at arbitrary
                        // points, so require .name before any code.
                        if asm.next_pc() != 0 || !asm.data_mut().is_empty() {
                            return err(line, ".name must appear before any code or data");
                        }
                        let mut named = Assembler::named(name);
                        std::mem::swap(&mut named, &mut asm);
                        asm
                    };
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
            let label = label_of(&mut asm, &mut absolute, line, name)?;
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

        macro_rules! want {
            ($n:expr) => {
                if ops.len() != $n {
                    return err_tok(
                        line,
                        mnemonic,
                        format!("'{mnemonic}' expects {} operand(s), got {}", $n, ops.len()),
                    );
                }
            };
        }

        match mnemonic {
            // Register-register ALU.
            "add" | "sub" | "and" | "or" | "xor" | "sll" | "srl" | "sra" | "slt" | "sltu"
            | "mul" | "divu" | "addw" | "subw" | "sllw" | "srlw" | "sraw" | "mulw" | "divw"
            | "divuw" | "remw" | "remuw" => {
                want!(3);
                let d = parse_reg(line, ops[0])?;
                let a = parse_reg(line, ops[1])?;
                let b = parse_reg(line, ops[2])?;
                match mnemonic {
                    "add" => asm.add(d, a, b),
                    "sub" => asm.sub(d, a, b),
                    "and" => asm.and_(d, a, b),
                    "or" => asm.or_(d, a, b),
                    "xor" => asm.xor(d, a, b),
                    "sll" => asm.sll(d, a, b),
                    "srl" => asm.srl(d, a, b),
                    "sra" => asm.sra(d, a, b),
                    "slt" => asm.slt(d, a, b),
                    "sltu" => asm.sltu(d, a, b),
                    "mul" => asm.mul(d, a, b),
                    "divu" => asm.divu(d, a, b),
                    "addw" => asm.addw(d, a, b),
                    "subw" => asm.subw(d, a, b),
                    "sllw" => asm.sllw(d, a, b),
                    "srlw" => asm.srlw(d, a, b),
                    "sraw" => asm.sraw(d, a, b),
                    "mulw" => asm.mulw(d, a, b),
                    "divw" => asm.divw(d, a, b),
                    "divuw" => asm.divuw(d, a, b),
                    "remw" => asm.remw(d, a, b),
                    _ => asm.remuw(d, a, b),
                };
            }
            // Register-immediate ALU.
            "addi" | "andi" | "ori" | "xori" | "slli" | "srli" | "srai" | "muli" | "slti"
            | "addwi" | "sllwi" | "srlwi" | "srawi" => {
                want!(3);
                let d = parse_reg(line, ops[0])?;
                let a = parse_reg(line, ops[1])?;
                let imm = parse_int(line, ops[2])?;
                match mnemonic {
                    "addi" => asm.addi(d, a, imm),
                    "andi" => asm.andi(d, a, imm),
                    "ori" => asm.ori(d, a, imm),
                    "xori" => asm.xori(d, a, imm),
                    "slli" => asm.slli(d, a, imm),
                    "srli" => asm.srli(d, a, imm),
                    "srai" => asm.srai(d, a, imm),
                    "muli" => asm.muli(d, a, imm),
                    "addwi" => asm.addwi(d, a, imm),
                    "sllwi" => asm.sllwi(d, a, imm),
                    "srlwi" => asm.srlwi(d, a, imm),
                    "srawi" => asm.srawi(d, a, imm),
                    _ => asm.slti(d, a, imm),
                };
            }
            "li" => {
                want!(2);
                let d = parse_reg(line, ops[0])?;
                asm.li(d, parse_int(line, ops[1])?);
            }
            // Memory.
            "ld" | "ldb" | "ldh" | "ldw" | "st" | "stb" | "sth" | "stw" => {
                want!(2);
                let r0 = parse_reg(line, ops[0])?;
                let (offset, base) = parse_mem(line, ops[1])?;
                let width = match mnemonic {
                    "ldb" | "stb" => MemWidth::Byte,
                    "ldh" | "sth" => MemWidth::Half,
                    "ldw" | "stw" => MemWidth::Word4,
                    _ => MemWidth::Word,
                };
                if mnemonic.starts_with("ld") {
                    asm.emit(crate::inst::Instruction::Load { dst: r0, base, offset, width });
                } else {
                    asm.emit(crate::inst::Instruction::Store { src: r0, base, offset, width });
                }
            }
            "fld" | "fst" => {
                want!(2);
                let f = parse_freg(line, ops[0])?;
                let (offset, base) = parse_mem(line, ops[1])?;
                if mnemonic == "fld" {
                    asm.fld(f, base, offset);
                } else {
                    asm.fst(f, base, offset);
                }
            }
            // Branches.
            "beq" | "bne" | "blt" | "bge" | "bltu" | "bgeu" => {
                want!(3);
                let a = parse_reg(line, ops[0])?;
                let b = parse_reg(line, ops[1])?;
                let target = label_of(&mut asm, &mut absolute, line, ops[2])?;
                match mnemonic {
                    "beq" => asm.beq(a, b, target),
                    "bne" => asm.bne(a, b, target),
                    "blt" => asm.blt(a, b, target),
                    "bge" => asm.bge(a, b, target),
                    "bltu" => asm.bltu(a, b, target),
                    _ => asm.bgeu(a, b, target),
                };
            }
            "jal" => {
                want!(2);
                let d = parse_reg(line, ops[0])?;
                let target = label_of(&mut asm, &mut absolute, line, ops[1])?;
                asm.jal(d, target);
            }
            "j" => {
                want!(1);
                let target = label_of(&mut asm, &mut absolute, line, ops[0])?;
                asm.j(target);
            }
            "jalr" => {
                want!(2);
                let d = parse_reg(line, ops[0])?;
                let (offset, base) = parse_mem(line, ops[1])?;
                asm.jalr(d, base, offset);
            }
            "jr" => {
                want!(1);
                let base = parse_reg(line, ops[0])?;
                asm.jr(base);
            }
            // FP.
            "fadd" | "fsub" | "fmul" | "fdiv" => {
                want!(3);
                let d = parse_freg(line, ops[0])?;
                let a = parse_freg(line, ops[1])?;
                let b = parse_freg(line, ops[2])?;
                match mnemonic {
                    "fadd" => asm.fadd(d, a, b),
                    "fsub" => asm.fsub(d, a, b),
                    "fmul" => asm.fmul(d, a, b),
                    _ => asm.fdiv(d, a, b),
                };
            }
            "fsqrt" => {
                want!(2);
                let d = parse_freg(line, ops[0])?;
                let a = parse_freg(line, ops[1])?;
                asm.fsqrt(d, a);
            }
            "fmv.x" => {
                want!(2);
                let d = parse_reg(line, ops[0])?;
                let s = parse_freg(line, ops[1])?;
                asm.fmv_to_int(d, s);
            }
            "fmv.f" => {
                want!(2);
                let d = parse_freg(line, ops[0])?;
                let s = parse_reg(line, ops[1])?;
                asm.fmv_from_int(d, s);
            }
            "nop" => {
                want!(0);
                asm.nop();
            }
            "halt" => {
                want!(0);
                asm.halt();
            }
            other => return err_tok(line, other, format!("unknown mnemonic '{other}'")),
        }
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
}
