//! Sparse backing store: the architectural contents of memory.

use crate::config::Addr;
use crate::hash::AddrMap;
use sdo_isa::{page_pieces, page_split, DataImage, PAGE_BYTES};
use std::collections::hash_map::Entry;

/// Sparse, paged byte store holding the simulated machine's memory
/// contents.
///
/// Caches in this crate are a pure timing model; this store is the single
/// source of truth for values. Unwritten memory reads as zero. Pages are
/// [`sdo_isa::DataImage`]'s, so an image loads page by page.
///
/// # Examples
///
/// ```rust
/// use sdo_mem::BackingStore;
/// let mut m = BackingStore::new();
/// m.write_word(0x100, 0xfeed);
/// assert_eq!(m.read_word(0x100), 0xfeed);
/// assert_eq!(m.read_byte(0x100), 0xed);
/// assert_eq!(m.read_word(0x9999), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BackingStore {
    pages: AddrMap<u64, Box<[u8; PAGE_BYTES]>>,
}

impl BackingStore {
    /// Creates an empty (all-zero) store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies a data image into the store: its non-zero bytes overwrite
    /// the store's, and its zero bytes leave the store's in place.
    pub fn load_image(&mut self, image: &DataImage) {
        for (number, page) in image.pages() {
            match self.pages.entry(number) {
                Entry::Vacant(slot) => {
                    slot.insert(Box::new(*page));
                }
                Entry::Occupied(slot) => {
                    for (held, &byte) in slot.into_mut().iter_mut().zip(page) {
                        if byte != 0 {
                            *held = byte;
                        }
                    }
                }
            }
        }
    }

    /// The page holding page number `number`, allocated on demand.
    fn page_mut(&mut self, number: u64) -> &mut [u8; PAGE_BYTES] {
        self.pages.entry(number).or_insert_with(|| Box::new([0; PAGE_BYTES]))
    }

    /// Reads one byte.
    #[must_use]
    pub fn read_byte(&self, addr: Addr) -> u8 {
        let (number, offset) = page_split(addr);
        self.pages.get(&number).map_or(0, |page| page[offset])
    }

    /// Writes one byte, allocating the page on demand.
    pub fn write_byte(&mut self, addr: Addr, value: u8) {
        let (number, offset) = page_split(addr);
        self.page_mut(number)[offset] = value;
    }

    /// Reads `n` bytes (`n <= 8`) little-endian into a word.
    #[must_use]
    pub fn read_bytes(&self, addr: Addr, n: u64) -> u64 {
        debug_assert!(n <= 8);
        let mut le = [0u8; 8];
        for (number, offset, span) in page_pieces(addr, n as usize) {
            if let Some(page) = self.pages.get(&number) {
                le[span.clone()].copy_from_slice(&page[offset..offset + span.len()]);
            }
        }
        u64::from_le_bytes(le)
    }

    /// Writes the low `n` bytes (`n <= 8`) of `value` little-endian.
    pub fn write_bytes(&mut self, addr: Addr, value: u64, n: u64) {
        debug_assert!(n <= 8);
        let le = value.to_le_bytes();
        for (number, offset, span) in page_pieces(addr, n as usize) {
            self.page_mut(number)[offset..offset + span.len()].copy_from_slice(&le[span]);
        }
    }

    /// Reads a 64-bit little-endian word.
    #[must_use]
    pub fn read_word(&self, addr: Addr) -> u64 {
        self.read_bytes(addr, 8)
    }

    /// Writes a 64-bit little-endian word.
    pub fn write_word(&mut self, addr: Addr, value: u64) {
        self.write_bytes(addr, value, 8);
    }

    /// Number of 4 KiB pages currently materialized.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_rng::SdoRng;

    /// The per-byte paths the page-wise ones replace.
    fn load_per_byte(m: &mut BackingStore, image: &DataImage) {
        for (addr, byte) in image.iter() {
            m.write_byte(addr, byte);
        }
    }

    fn read_per_byte(m: &BackingStore, addr: Addr, n: u64) -> u64 {
        (0..n).fold(0, |v, i| v | u64::from(m.read_byte(addr.wrapping_add(i))) << (8 * i))
    }

    fn write_per_byte(m: &mut BackingStore, addr: Addr, value: u64, n: u64) {
        for i in 0..n {
            m.write_byte(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// A random sparse image over the first few pages, a quarter of its
    /// bytes non-zero.
    fn random_image(rng: &mut SdoRng) -> DataImage {
        (0..rng.gen_range(0u32..600))
            .map(|_| {
                let byte = if rng.gen_bool(0.25) { rng.gen_range(1u8..=255) } else { 0 };
                (rng.gen_range(0..5 * PAGE_BYTES as u64), byte)
            })
            .collect()
    }

    #[test]
    fn load_image_matches_per_byte_load() {
        let mut rng = SdoRng::seed_from_u64(0x10ad);
        for case in 0..200 {
            let (first, second) = (random_image(&mut rng), random_image(&mut rng));
            let mut paged = BackingStore::new();
            let mut per_byte = BackingStore::new();
            // Some stored bytes the images overlap, zero ones among them.
            for _ in 0..rng.gen_range(0u32..20) {
                let (addr, value) = (rng.gen_range(0..6 * PAGE_BYTES as u64), rng.gen::<u64>());
                paged.write_word(addr, value);
                per_byte.write_word(addr, value);
            }
            for image in [&first, &second] {
                paged.load_image(image);
                load_per_byte(&mut per_byte, image);
                assert_eq!(paged.pages, per_byte.pages, "case {case}");
            }
        }
    }

    #[test]
    fn page_wise_access_matches_per_byte_at_page_ends() {
        let top = !(PAGE_BYTES as u64 - 1); // the last page
        for page_base in [PAGE_BYTES as u64, top] {
            for offset in PAGE_BYTES as u64 - 8..PAGE_BYTES as u64 {
                for n in [1, 2, 4, 8] {
                    let addr = page_base + offset;
                    let mut paged = BackingStore::new();
                    let mut per_byte = BackingStore::new();
                    for m in [&mut paged, &mut per_byte] {
                        write_per_byte(m, addr.wrapping_sub(8), 0x0102_0304_0506_0708, 8);
                        write_per_byte(m, addr.wrapping_add(8), 0x1112_1314_1516_1718, 8);
                    }
                    paged.write_bytes(addr, 0xa1a2_a3a4_a5a6_a7a8, n);
                    write_per_byte(&mut per_byte, addr, 0xa1a2_a3a4_a5a6_a7a8, n);
                    assert_eq!(paged.pages, per_byte.pages, "write {addr:#x} width {n}");
                    for at in [addr.wrapping_sub(4), addr, addr.wrapping_add(4)] {
                        assert_eq!(
                            paged.read_bytes(at, n),
                            read_per_byte(&per_byte, at, n),
                            "read {at:#x} width {n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_before_write() {
        let m = BackingStore::new();
        assert_eq!(m.read_word(12345), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn word_roundtrip_cross_page() {
        let mut m = BackingStore::new();
        // Straddles the page boundary at 4096.
        m.write_word(4092, 0x1122_3344_5566_7788);
        assert_eq!(m.read_word(4092), 0x1122_3344_5566_7788);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn partial_width_writes() {
        let mut m = BackingStore::new();
        m.write_word(0, u64::MAX);
        m.write_bytes(0, 0, 1);
        assert_eq!(m.read_word(0), 0xffff_ffff_ffff_ff00);
        assert_eq!(m.read_bytes(0, 1), 0);
        assert_eq!(m.read_bytes(1, 1), 0xff);
    }
}
