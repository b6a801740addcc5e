//! Executable program images.

use crate::inst::Instruction;
use std::collections::BTreeMap;
use std::fmt;

/// A sparse initial data-memory image, byte-addressed.
///
/// Workload generators populate the image before simulation; the memory
/// model loads it into backing store at reset. Unwritten bytes read as 0.
///
/// # Examples
///
/// ```rust
/// use sdo_isa::DataImage;
/// let mut img = DataImage::new();
/// img.set_word(0x100, 0xdead_beef);
/// assert_eq!(img.word(0x100), 0xdead_beef);
/// assert_eq!(img.byte(0x100), 0xef); // little-endian
/// assert_eq!(img.word(0x200), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataImage {
    bytes: BTreeMap<u64, u8>,
}

impl DataImage {
    /// Creates an empty (all-zero) image.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes one byte.
    pub fn set_byte(&mut self, addr: u64, value: u8) {
        if value == 0 {
            self.bytes.remove(&addr);
        } else {
            self.bytes.insert(addr, value);
        }
    }

    /// Writes a 64-bit little-endian word at `addr`.
    pub fn set_word(&mut self, addr: u64, value: u64) {
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.set_byte(addr.wrapping_add(i as u64), *b);
        }
    }

    /// Writes an IEEE-754 binary64 value (bit-exact) at `addr`.
    pub fn set_f64(&mut self, addr: u64, value: f64) {
        self.set_word(addr, value.to_bits());
    }

    /// Reads one byte (0 if never written).
    #[must_use]
    pub fn byte(&self, addr: u64) -> u8 {
        self.bytes.get(&addr).copied().unwrap_or(0)
    }

    /// Reads a 64-bit little-endian word at `addr`.
    #[must_use]
    pub fn word(&self, addr: u64) -> u64 {
        let mut le = [0u8; 8];
        for (i, b) in le.iter_mut().enumerate() {
            *b = self.byte(addr.wrapping_add(i as u64));
        }
        u64::from_le_bytes(le)
    }

    /// Iterates over all explicitly-written (non-zero) bytes in address
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u8)> + '_ {
        self.bytes.iter().map(|(&a, &b)| (a, b))
    }

    /// Number of explicitly-written bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the image has no explicitly-written bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

impl Extend<(u64, u8)> for DataImage {
    fn extend<T: IntoIterator<Item = (u64, u8)>>(&mut self, iter: T) {
        for (a, b) in iter {
            self.set_byte(a, b);
        }
    }
}

/// Builds an image from `(addr, byte)` writes in one pass. The result is
/// the image [`DataImage::set_byte`] would leave after the writes in
/// order: the last write to an address wins, and a last write of zero
/// leaves the byte unwritten.
impl FromIterator<(u64, u8)> for DataImage {
    fn from_iter<T: IntoIterator<Item = (u64, u8)>>(iter: T) -> Self {
        let mut writes: Vec<(u64, u8)> = iter.into_iter().collect();
        // Stable, so the writes to one address keep their order.
        writes.sort_by_key(|&(addr, _)| addr);
        // Fold each address's writes into its first, keeping the last value.
        writes.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        writes.retain(|&(_, byte)| byte != 0);
        DataImage { bytes: writes.into_iter().collect() }
    }
}

/// An executable program: instruction memory plus initial data image.
///
/// Execution starts at instruction index 0 and ends when a
/// [`Instruction::Halt`] commits. Fetching past the end of the instruction
/// array yields `Halt` (so runaway wrong-path fetch is well-defined).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    name: String,
    insts: Vec<Instruction>,
    data: DataImage,
}

impl Program {
    /// Creates a program from parts.
    #[must_use]
    pub fn new(name: impl Into<String>, insts: Vec<Instruction>, data: DataImage) -> Self {
        Program { name: name.into(), insts, data }
    }

    /// The program's human-readable name (used in experiment tables).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the program.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Fetches the instruction at `pc`; out-of-range fetch returns `Halt`.
    ///
    /// Out-of-range program counters arise routinely on the wrong path of a
    /// mispredicted branch, so this is total rather than panicking.
    #[must_use]
    pub fn fetch(&self, pc: u64) -> Instruction {
        usize::try_from(pc)
            .ok()
            .and_then(|i| self.insts.get(i))
            .copied()
            .unwrap_or(Instruction::Halt)
    }

    /// The instruction memory.
    #[must_use]
    pub fn instructions(&self) -> &[Instruction] {
        &self.insts
    }

    /// Number of static instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The initial data-memory image.
    #[must_use]
    pub fn data(&self) -> &DataImage {
        &self.data
    }

    /// Mutable access to the initial data-memory image.
    pub fn data_mut(&mut self) -> &mut DataImage {
        &mut self.data
    }

    /// Renders a full disassembly listing.
    #[must_use]
    pub fn disassemble(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for (i, inst) in self.insts.iter().enumerate() {
            let _ = writeln!(out, "{i:6}: {inst}");
        }
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} insts, {} data bytes)", self.name, self.insts.len(), self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Instruction};
    use crate::reg::Reg;

    #[test]
    fn data_image_word_roundtrip() {
        let mut img = DataImage::new();
        img.set_word(64, 0x0123_4567_89ab_cdef);
        assert_eq!(img.word(64), 0x0123_4567_89ab_cdef);
        assert_eq!(img.byte(64), 0xef);
        assert_eq!(img.byte(71), 0x01);
    }

    #[test]
    fn data_image_f64_roundtrip() {
        let mut img = DataImage::new();
        img.set_f64(8, 3.75);
        assert_eq!(f64::from_bits(img.word(8)), 3.75);
    }

    #[test]
    fn data_image_unwritten_reads_zero() {
        let img = DataImage::new();
        assert_eq!(img.word(0), 0);
        assert!(img.is_empty());
    }

    #[test]
    fn data_image_zero_write_prunes_entry() {
        let mut img = DataImage::new();
        img.set_byte(5, 7);
        assert_eq!(img.len(), 1);
        img.set_byte(5, 0);
        assert!(img.is_empty());
    }

    #[test]
    fn data_image_overlapping_words() {
        let mut img = DataImage::new();
        img.set_word(0, u64::MAX);
        img.set_word(4, 0);
        assert_eq!(img.word(0), 0x0000_0000_ffff_ffff);
    }

    #[test]
    fn data_image_collect_and_iter() {
        let img: DataImage = [(1u64, 2u8), (3, 4)].into_iter().collect();
        let v: Vec<_> = img.iter().collect();
        assert_eq!(v, vec![(1, 2), (3, 4)]);
        // Out of order, repeated and zero writes collect to what the
        // same `set_byte` calls in order leave.
        let writes = [(9u64, 1u8), (3, 5), (9, 0), (3, 6), (7, 0), (4, 2), (4, 0), (4, 8)];
        let mut expected = DataImage::new();
        for (a, b) in writes {
            expected.set_byte(a, b);
        }
        let img: DataImage = writes.into_iter().collect();
        assert_eq!(img, expected);
        assert_eq!(img.iter().collect::<Vec<_>>(), vec![(3, 6), (4, 8)]);
    }

    #[test]
    fn program_fetch_out_of_range_is_halt() {
        let p = Program::new(
            "t",
            vec![Instruction::Alu { op: AluOp::Add, dst: Reg::new(1), lhs: Reg::ZERO, rhs: Reg::ZERO }],
            DataImage::new(),
        );
        assert!(matches!(p.fetch(0), Instruction::Alu { .. }));
        assert_eq!(p.fetch(1), Instruction::Halt);
        assert_eq!(p.fetch(u64::MAX), Instruction::Halt);
    }

    #[test]
    fn program_display_and_disassembly() {
        let p = Program::new("demo", vec![Instruction::Nop, Instruction::Halt], DataImage::new());
        assert!(p.to_string().contains("demo"));
        let dis = p.disassemble();
        assert!(dis.contains("nop"));
        assert!(dis.contains("halt"));
    }
}
