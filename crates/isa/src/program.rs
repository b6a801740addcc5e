//! Executable program images.

use crate::inst::Instruction;
use std::collections::{btree_map, BTreeMap};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// log2 of the data-image page size. `sdo-mem`'s backing store uses the
/// same pages, so an image loads into it page by page.
pub const PAGE_SHIFT: u32 = 12;

/// Bytes per data-image page (4 KiB).
pub const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

/// The most pages the data of a program read from text may touch
/// (16 MiB, four times the largest kernel footprint in this repository).
/// A page costs 4 KiB however few bytes of text write it, so
/// [`parse_asm`](crate::parse_asm) and the wire decoder check this
/// bound as they read, not after the images are built.
pub const MAX_PARSED_PAGES: usize = 4096;

/// An all-zero page: a page that becomes equal to it is dropped.
const ZERO_PAGE: [u8; PAGE_BYTES] = [0; PAGE_BYTES];

/// Splits an address into its page number and its offset in the page.
#[must_use]
pub fn page_split(addr: u64) -> (u64, usize) {
    (addr >> PAGE_SHIFT, (addr & (PAGE_BYTES as u64 - 1)) as usize)
}

/// The pieces of the `len`-byte access at `addr` (`len <= PAGE_BYTES`)
/// that each stay inside one page, in address order: one piece, or two
/// when the access straddles a page boundary (past `u64::MAX` it wraps
/// to page 0). A piece is its page number, its offset in that page and
/// its span within the access.
pub fn page_pieces(addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, Range<usize>)> {
    let (number, offset) = page_split(addr);
    let head = len.min(PAGE_BYTES - offset);
    let tail = (head < len).then(|| (page_split(addr.wrapping_add(head as u64)).0, 0, head..len));
    std::iter::once((number, offset, 0..head)).chain(tail)
}

/// Number of non-zero bytes in `bytes`.
fn nonzero(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b != 0).count()
}

/// A sparse initial data-memory image, byte-addressed.
///
/// Workload generators populate the image before simulation; the memory
/// model loads it into backing store at reset. Unwritten bytes read as 0,
/// and writing 0 unwrites a byte, so two images are equal exactly when
/// they hold the same non-zero bytes.
///
/// The bytes live in [`PAGE_BYTES`] pages, and only pages holding a
/// non-zero byte are stored, so a sparse image costs one page per page
/// it touches. The pages sit behind one [`Arc`]: cloning an image (or a
/// [`Program`] holding it) shares them, and the first write to a shared
/// image copies it.
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
#[derive(Clone, Default)]
pub struct DataImage {
    /// Page number (`addr >> PAGE_SHIFT`) to page; no page is all zero.
    pages: Arc<BTreeMap<u64, Box<[u8; PAGE_BYTES]>>>,
    /// Non-zero bytes over all pages.
    len: usize,
}

impl DataImage {
    /// Creates an empty (all-zero) image.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes one byte.
    pub fn set_byte(&mut self, addr: u64, value: u8) {
        self.set_bytes(addr, &[value]);
    }

    /// Writes a 64-bit little-endian word at `addr`.
    pub fn set_word(&mut self, addr: u64, value: u64) {
        self.set_bytes(addr, &value.to_le_bytes());
    }

    /// Writes `bytes` (at most [`PAGE_BYTES`] of them) at `addr`, in
    /// address order.
    pub(crate) fn set_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (number, offset, span) in page_pieces(addr, bytes.len()) {
            self.write_in_page(number, offset, &bytes[span]);
        }
    }

    /// Writes `bytes` at `offset` in page `number`; they must fit in the
    /// page. A write that changes nothing leaves a shared image shared.
    fn write_in_page(&mut self, number: u64, offset: usize, bytes: &[u8]) {
        let span = offset..offset + bytes.len();
        let fresh = nonzero(bytes);
        let unchanged = match self.pages.get(&number) {
            Some(page) => page[span.clone()] == *bytes,
            None => fresh == 0,
        };
        if unchanged {
            return;
        }
        let pages = Arc::make_mut(&mut self.pages);
        let page = pages.entry(number).or_insert_with(|| Box::new(ZERO_PAGE));
        let slot = &mut page[span];
        let stale = nonzero(slot);
        slot.copy_from_slice(bytes);
        self.len = self.len + fresh - stale;
        if fresh < stale && **page == ZERO_PAGE {
            pages.remove(&number);
        }
    }

    /// Writes an IEEE-754 binary64 value (bit-exact) at `addr`.
    pub fn set_f64(&mut self, addr: u64, value: f64) {
        self.set_word(addr, value.to_bits());
    }

    /// Reads one byte (0 if never written).
    #[must_use]
    pub fn byte(&self, addr: u64) -> u8 {
        let (number, offset) = page_split(addr);
        self.pages.get(&number).map_or(0, |page| page[offset])
    }

    /// Reads a 64-bit little-endian word at `addr`.
    #[must_use]
    pub fn word(&self, addr: u64) -> u64 {
        let mut le = [0u8; 8];
        for (number, offset, span) in page_pieces(addr, 8) {
            if let Some(page) = self.pages.get(&number) {
                le[span.clone()].copy_from_slice(&page[offset..offset + span.len()]);
            }
        }
        u64::from_le_bytes(le)
    }

    /// Iterates over all explicitly-written (non-zero) bytes in address
    /// order. This sequence is the image's wire form and what its
    /// `RunKey` hashes.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u8)> + '_ {
        Bytes { pages: self.pages.iter(), words: [].iter().enumerate(), base: 0, addr: 0, word: 0 }
    }

    /// The stored pages in address order, each with its page number
    /// (`addr >> PAGE_SHIFT`). Every stored page holds a non-zero byte.
    pub fn pages(&self) -> impl ExactSizeIterator<Item = (u64, &[u8; PAGE_BYTES])> + '_ {
        self.pages.iter().map(|(&number, page)| (number, &**page))
    }

    /// Number of explicitly-written bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the image has no explicitly-written bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The non-zero bytes of a [`DataImage`] in address order, read a
/// little-endian word at a time so a zero word costs one comparison.
struct Bytes<'a> {
    pages: btree_map::Iter<'a, u64, Box<[u8; PAGE_BYTES]>>,
    /// The current page's words not yet read, numbered within the page.
    words: std::iter::Enumerate<std::slice::Iter<'a, [u8; 8]>>,
    /// Address of the current page.
    base: u64,
    /// Address of the current word.
    addr: u64,
    /// The current word with the bytes already yielded cleared.
    word: u64,
}

impl Iterator for Bytes<'_> {
    type Item = (u64, u8);

    fn next(&mut self) -> Option<(u64, u8)> {
        while self.word == 0 {
            match self.words.next() {
                Some((i, word)) => {
                    self.word = u64::from_le_bytes(*word);
                    self.addr = self.base + 8 * i as u64;
                }
                None => {
                    let (&number, page) = self.pages.next()?;
                    self.base = number << PAGE_SHIFT;
                    self.words = page.as_chunks().0.iter().enumerate();
                }
            }
        }
        // The lowest non-zero byte is the lowest address still to yield.
        let shift = self.word.trailing_zeros() & !7;
        let byte = (self.word >> shift) as u8;
        self.word &= !(0xff << shift);
        Some((self.addr + u64::from(shift / 8), byte))
    }
}

impl PartialEq for DataImage {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.pages, &other.pages) || self.pages == other.pages
    }
}

impl Eq for DataImage {}

/// The non-zero bytes as an address-to-byte map.
impl fmt::Debug for DataImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
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
        // Stable, so the writes to one address keep their order and the
        // last one lands last when its page is filled from its run.
        // Sorted writes are left as they are: the sort would allocate
        // scratch as large as them even then.
        if !writes.is_sorted_by_key(|&(addr, _)| addr) {
            writes.sort_by_key(|&(addr, _)| addr);
        }
        DataImage::from_sorted(&writes)
    }
}

impl DataImage {
    /// Builds an image from `(addr, byte)` writes in address order, as
    /// [`FromIterator`] builds it from the same writes: the writes to
    /// one address keep their order, so the last one wins.
    ///
    /// # Panics
    ///
    /// Panics if the writes are not in address order.
    #[must_use]
    pub fn from_sorted(writes: &[(u64, u8)]) -> Self {
        assert!(writes.is_sorted_by_key(|&(addr, _)| addr), "data writes out of address order");
        let mut pages = BTreeMap::new();
        let mut len = 0;
        for run in writes.chunk_by(|a, b| a.0 >> PAGE_SHIFT == b.0 >> PAGE_SHIFT) {
            let mut page = Box::new(ZERO_PAGE);
            for &(addr, byte) in run {
                page[page_split(addr).1] = byte;
            }
            let addrs = run.chunk_by(|a, b| a.0 == b.0);
            let live = addrs.filter(|writes| page[page_split(writes[0].0).1] != 0).count();
            if live > 0 {
                len += live;
                pages.insert(run[0].0 >> PAGE_SHIFT, page);
            }
        }
        DataImage { pages: Arc::new(pages), len }
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
    use sdo_rng::SdoRng;

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

    /// The per-byte map `DataImage` was before it was paged: the
    /// reference the paged image is checked against.
    #[derive(Default, PartialEq)]
    struct ByteMap(BTreeMap<u64, u8>);

    impl ByteMap {
        fn set_byte(&mut self, addr: u64, value: u8) {
            if value == 0 {
                self.0.remove(&addr);
            } else {
                self.0.insert(addr, value);
            }
        }

        fn set_word(&mut self, addr: u64, value: u64) {
            for (i, b) in value.to_le_bytes().iter().enumerate() {
                self.set_byte(addr.wrapping_add(i as u64), *b);
            }
        }

        fn byte(&self, addr: u64) -> u8 {
            self.0.get(&addr).copied().unwrap_or(0)
        }

        fn word(&self, addr: u64) -> u64 {
            let mut le = [0u8; 8];
            for (i, b) in le.iter_mut().enumerate() {
                *b = self.byte(addr.wrapping_add(i as u64));
            }
            u64::from_le_bytes(le)
        }
    }

    /// An address near 0, near a page boundary, near `u64::MAX`, or
    /// one already written (so zero writes can empty its page).
    fn pick_addr(rng: &mut SdoRng, written: &ByteMap) -> u64 {
        match rng.gen_range(0u32..5) {
            0 => rng.gen_range(0u64..24),
            1 => rng.gen_range(1u64..4) * PAGE_BYTES as u64 + rng.gen_range(0u64..24) - 12,
            2 => u64::MAX - rng.gen_range(0u64..24),
            3 => rng.gen_range(0u64..6 * PAGE_BYTES as u64),
            _ => {
                let n = written.0.len() as u64;
                let nth = if n == 0 { 0 } else { rng.gen_range(0..n) };
                written.0.keys().nth(nth as usize).map_or(0, |&a| a & !7)
            }
        }
    }

    /// A byte that is zero half the time.
    fn pick_byte(rng: &mut SdoRng) -> u8 {
        if rng.gen_bool(0.5) {
            0
        } else {
            rng.gen_range(1u8..=255)
        }
    }

    /// A word of such bytes, or zero.
    fn pick_word(rng: &mut SdoRng) -> u64 {
        if rng.gen_bool(0.3) {
            return 0;
        }
        let mut le = [0u8; 8];
        le.iter_mut().for_each(|b| *b = pick_byte(rng));
        u64::from_le_bytes(le)
    }

    fn page_ptrs(img: &DataImage) -> Vec<*const [u8; PAGE_BYTES]> {
        img.pages().map(|(_, page)| page as *const _).collect()
    }

    #[test]
    fn paged_image_matches_byte_map_reference() {
        let mut rng = SdoRng::seed_from_u64(0x1a9e);
        let mut previous = (DataImage::new(), ByteMap::default());
        // How often the cases the paging could get wrong come up.
        let (mut emptied, mut straddled, mut wrapped) = (0, 0, 0);
        for case in 0..1200 {
            let mut img = DataImage::new();
            let mut reference = ByteMap::default();
            for _ in 0..rng.gen_range(1u32..40) {
                let addr = pick_addr(&mut rng, &reference);
                let op = rng.gen_range(0u32..6);
                let pages_before = img.pages().count();
                if matches!(op, 1 | 2 | 5) && page_split(addr).1 > PAGE_BYTES - 8 {
                    if addr > u64::MAX - 7 {
                        wrapped += 1;
                    } else {
                        straddled += 1;
                    }
                }
                match op {
                    0 => {
                        let b = pick_byte(&mut rng);
                        img.set_byte(addr, b);
                        reference.set_byte(addr, b);
                    }
                    1 => {
                        let w = pick_word(&mut rng);
                        img.set_word(addr, w);
                        reference.set_word(addr, w);
                    }
                    2 => {
                        let x = f64::from_bits(pick_word(&mut rng));
                        img.set_f64(addr, x);
                        reference.set_word(addr, x.to_bits());
                    }
                    3 => {
                        let writes: Vec<(u64, u8)> = (0..rng.gen_range(0u32..12))
                            .map(|_| (pick_addr(&mut rng, &reference), pick_byte(&mut rng)))
                            .collect();
                        img.extend(writes.iter().copied());
                        writes.iter().for_each(|&(a, b)| reference.set_byte(a, b));
                    }
                    4 => {
                        // The wire decoder's build: the image's bytes, then
                        // more writes, collected in one pass.
                        let writes: Vec<(u64, u8)> = (0..rng.gen_range(0u32..12))
                            .map(|_| (pick_addr(&mut rng, &reference), pick_byte(&mut rng)))
                            .collect();
                        img = img.iter().chain(writes.iter().copied()).collect();
                        writes.iter().for_each(|&(a, b)| reference.set_byte(a, b));
                    }
                    _ => {
                        // Unwrite a whole written word: empties pages.
                        img.set_word(addr, 0);
                        reference.set_word(addr, 0);
                    }
                }
                emptied += usize::from(img.pages().count() < pages_before);
            }
            let expected: Vec<(u64, u8)> = reference.0.iter().map(|(&a, &b)| (a, b)).collect();
            assert_eq!(img.iter().collect::<Vec<_>>(), expected, "case {case}");
            assert_eq!(img.len(), reference.0.len(), "case {case}");
            assert_eq!(img.is_empty(), reference.0.is_empty(), "case {case}");
            assert!(img.pages().all(|(_, page)| *page != ZERO_PAGE), "case {case}: zero page kept");
            for _ in 0..16 {
                let addr = pick_addr(&mut rng, &reference);
                assert_eq!(img.byte(addr), reference.byte(addr), "case {case} byte {addr:#x}");
                assert_eq!(img.word(addr), reference.word(addr), "case {case} word {addr:#x}");
            }
            let rebuilt: DataImage = expected.iter().copied().collect();
            assert_eq!(img, rebuilt, "case {case}");
            assert_eq!(img == previous.0, reference == previous.1, "case {case}");
            previous = (img, reference);
        }
        assert!(
            emptied > 100 && straddled > 100 && wrapped > 100,
            "{emptied} {straddled} {wrapped}"
        );
    }

    #[test]
    fn clones_share_pages_until_written() {
        let mut original = DataImage::new();
        for k in 0..4u64 {
            original.set_word(k * PAGE_BYTES as u64 + 8, k + 1);
        }
        let snapshot: Vec<(u64, u8)> = original.iter().collect();
        let mut copy = original.clone();
        assert_eq!(page_ptrs(&copy), page_ptrs(&original));
        // A write that changes nothing still shares nothing new.
        copy.set_byte(3 * PAGE_BYTES as u64 + 100, 0);
        assert_eq!(page_ptrs(&copy), page_ptrs(&original));
        copy.set_byte(0x10, 9);
        assert_ne!(page_ptrs(&copy), page_ptrs(&original));
        assert_eq!(original.iter().collect::<Vec<_>>(), snapshot);
        assert_eq!(copy.byte(0x10), 9);
        assert_eq!(original.byte(0x10), 0);
        assert_eq!(copy.len(), original.len() + 1);
        // Writing the other side back makes them equal again.
        copy.set_byte(0x10, 0);
        assert_eq!(copy, original);
    }

    #[test]
    fn debug_prints_the_non_zero_bytes() {
        let img: DataImage = [(0x1000u64, 7u8), (5, 1)].into_iter().collect();
        assert_eq!(format!("{img:?}"), "{5: 1, 4096: 7}");
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
