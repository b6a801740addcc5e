//! Miss status holding registers (MSHRs).

use crate::config::{Addr, Cycle};
use crate::line_of;

#[derive(Debug, Clone, Copy)]
struct Entry {
    line: Addr,
    free_at: Cycle,
    /// Obl-Ld entries are private: they never merge with other requests
    /// (Section VI-B, "every Obl-Ld must allocate an MSHR; it cannot share
    /// an MSHR with any other request").
    private: bool,
    /// Depth of the level that serves the miss (for merged requesters to
    /// learn where their data came from). 0 when unknown.
    fill_depth: u8,
}

/// A bounded file of miss status holding registers for one cache.
///
/// Normal misses to the same line *merge* into an existing entry; the
/// data-oblivious allocation path ([`MshrFile::alloc_private`]) instead
/// takes the first free entry regardless of address, so occupancy is a
/// function of public information only.
///
/// # Examples
///
/// ```rust
/// use sdo_mem::MshrFile;
/// let mut m = MshrFile::new(2);
/// assert!(m.alloc_or_merge(0x40, 0, 100).is_some());
/// // Same line merges — still one entry used.
/// assert!(m.alloc_or_merge(0x40, 1, 90).is_some());
/// assert_eq!(m.in_use(1), 1);
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    /// Entry `i` is meaningful only when bit `i` of `occupied` is set.
    entries: Vec<Entry>,
    /// Occupancy bitmask — one bit per register. Lets every scan skip
    /// straight to live entries (or the first free one) instead of
    /// walking the whole file.
    occupied: u64,
}

/// Iterates the indices of the set bits of `mask`, ascending.
fn set_bits(mask: u64) -> impl Iterator<Item = usize> {
    std::iter::successors(
        (mask != 0).then_some(mask),
        |m| {
            let rest = m & (m - 1);
            (rest != 0).then_some(rest)
        },
    )
    .map(|m| m.trailing_zeros() as usize)
}

impl MshrFile {
    /// Creates a file with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` exceeds 64 (the occupancy mask width; real
    /// MSHR files are far smaller).
    #[must_use]
    pub fn new(capacity: u32) -> Self {
        assert!(capacity <= 64, "MSHR file capacity limited to 64 registers");
        MshrFile {
            entries: vec![
                Entry { line: 0, free_at: 0, private: false, fill_depth: 0 };
                capacity as usize
            ],
            occupied: 0,
        }
    }

    /// Total number of registers.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    fn full_mask(&self) -> u64 {
        match self.entries.len() {
            64 => u64::MAX,
            n => (1u64 << n) - 1,
        }
    }

    /// Registers still occupied at cycle `now`.
    #[must_use]
    pub fn in_use(&self, now: Cycle) -> usize {
        set_bits(self.occupied).filter(|&i| self.entries[i].free_at > now).count()
    }

    fn reap(&mut self, now: Cycle) {
        for i in set_bits(self.occupied) {
            if self.entries[i].free_at <= now {
                self.occupied &= !(1 << i);
            }
        }
    }

    fn first_free(&self) -> Option<usize> {
        let free = !self.occupied & self.full_mask();
        (free != 0).then(|| free.trailing_zeros() as usize)
    }

    fn fill(&mut self, i: usize, entry: Entry) {
        self.entries[i] = entry;
        self.occupied |= 1 << i;
    }

    /// Allocates an entry for a normal miss on `addr`'s line, or merges
    /// with an outstanding miss to the same line. Returns the cycle the
    /// (possibly pre-existing) miss completes, or `None` if the file is
    /// full.
    ///
    /// On a merge, the returned completion is the *existing* miss's
    /// completion (the merged request rides along).
    pub fn alloc_or_merge(&mut self, addr: Addr, now: Cycle, complete_at: Cycle) -> Option<Cycle> {
        if let Some((done, _)) = self.outstanding(addr, now) {
            return Some(done);
        }
        self.reap(now);
        let line = line_of(addr);
        let i = self.first_free()?;
        self.fill(i, Entry { line, free_at: complete_at, private: false, fill_depth: 0 });
        Some(complete_at)
    }

    /// If a non-private miss to `addr`'s line is outstanding at `now`,
    /// returns its `(completion, fill_depth)` so the new request can merge.
    #[must_use]
    pub fn outstanding(&self, addr: Addr, now: Cycle) -> Option<(Cycle, u8)> {
        let line = line_of(addr);
        set_bits(self.occupied)
            .map(|i| &self.entries[i])
            .find(|e| !e.private && e.line == line && e.free_at > now)
            .map(|e| (e.free_at, e.fill_depth))
    }

    /// Earliest cycle `>= arrive` at which a register is available.
    #[must_use]
    pub fn earliest_slot(&self, arrive: Cycle) -> Cycle {
        if self.occupied != self.full_mask()
            || set_bits(self.occupied).any(|i| self.entries[i].free_at <= arrive)
        {
            return arrive;
        }
        set_bits(self.occupied)
            .map(|i| self.entries[i].free_at)
            .min()
            .unwrap_or(arrive)
            .max(arrive)
    }

    /// Allocates unconditionally at `now` (the caller must have waited
    /// until [`MshrFile::earliest_slot`]); records which level will fill.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if no register is actually free at `now`.
    pub fn force_alloc(&mut self, addr: Addr, now: Cycle, free_at: Cycle, fill_depth: u8) {
        self.reap(now);
        let slot = self.first_free();
        debug_assert!(slot.is_some(), "force_alloc without a free MSHR");
        if let Some(i) = slot {
            self.fill(i, Entry { line: line_of(addr), free_at, private: false, fill_depth });
        }
    }

    /// Allocates a private entry for a data-oblivious lookup, choosing the
    /// first free register (address-independent). Returns `false` if the
    /// file is full, in which case the Obl-Ld must retry — a stall that
    /// reveals only occupancy, which is public.
    pub fn alloc_private(&mut self, addr: Addr, now: Cycle, free_at: Cycle) -> bool {
        self.reap(now);
        match self.first_free() {
            Some(i) => {
                self.fill(i, Entry { line: line_of(addr), free_at, private: true, fill_depth: 0 });
                true
            }
            None => false,
        }
    }

    /// Earliest cycle strictly after `now` at which an occupied register
    /// completes (frees its slot / fills its line). `None` when nothing
    /// is outstanding — the file cannot generate a future event.
    #[must_use]
    pub fn next_completion(&self, now: Cycle) -> Option<Cycle> {
        set_bits(self.occupied)
            .map(|i| self.entries[i].free_at)
            .filter(|&at| at > now)
            .min()
    }

    /// Whether at least one register is free at `now`.
    #[must_use]
    pub fn has_free(&self, now: Cycle) -> bool {
        self.occupied != self.full_mask()
            || set_bits(self.occupied).any(|i| self.entries[i].free_at <= now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_completion_tracks_earliest_in_flight_entry() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.next_completion(0), None, "empty file has no future event");
        m.alloc_or_merge(0x00, 0, 50);
        m.alloc_or_merge(0x40, 0, 30);
        m.alloc_or_merge(0x80, 0, 90);
        assert_eq!(m.next_completion(0), Some(30));
        // Strictly-after semantics: an entry completing *at* `now` is no
        // longer a future event.
        assert_eq!(m.next_completion(30), Some(50));
        assert_eq!(m.next_completion(89), Some(90));
        assert_eq!(m.next_completion(90), None);
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.alloc_or_merge(0x00, 0, 50), Some(50));
        assert_eq!(m.alloc_or_merge(0x40, 0, 60), Some(60));
        assert_eq!(m.alloc_or_merge(0x80, 0, 70), None, "file full");
        assert_eq!(m.in_use(0), 2);
        assert!(!m.has_free(0));
    }

    #[test]
    fn same_line_merges_and_returns_existing_completion() {
        let mut m = MshrFile::new(1);
        assert_eq!(m.alloc_or_merge(0x100, 0, 80), Some(80));
        // A second miss to the same line merges even though the file is full.
        assert_eq!(m.alloc_or_merge(0x108, 5, 120), Some(80));
        assert_eq!(m.in_use(5), 1);
    }

    #[test]
    fn entries_expire() {
        let mut m = MshrFile::new(1);
        m.alloc_or_merge(0x00, 0, 10).unwrap();
        assert!(!m.has_free(5));
        assert!(m.has_free(10));
        assert_eq!(m.alloc_or_merge(0x40, 10, 30), Some(30));
    }

    #[test]
    fn private_entries_never_merge() {
        let mut m = MshrFile::new(2);
        assert!(m.alloc_private(0x200, 0, 100));
        // A normal miss to the same line must NOT merge with the private
        // (Obl-Ld) entry; it takes its own slot.
        assert_eq!(m.alloc_or_merge(0x200, 0, 90), Some(90));
        assert_eq!(m.in_use(0), 2);
        // And a further private alloc fails: file is full.
        assert!(!m.alloc_private(0x300, 0, 100));
    }

    #[test]
    fn private_alloc_is_first_free_slot() {
        let mut m = MshrFile::new(3);
        m.alloc_or_merge(0x00, 0, 100).unwrap();
        assert!(m.alloc_private(0xff40, 0, 50));
        assert_eq!(m.in_use(0), 2);
        // After the private entry expires its slot is reusable.
        assert!(m.alloc_private(0x40, 60, 90));
        assert_eq!(m.in_use(60), 2);
    }

    #[test]
    fn capacity_reported() {
        assert_eq!(MshrFile::new(16).capacity(), 16);
    }

    #[test]
    fn outstanding_and_earliest_slot() {
        let mut m = MshrFile::new(1);
        m.alloc_or_merge(0x80, 0, 40).unwrap();
        assert_eq!(m.outstanding(0xa0, 10), Some((40, 0)));
        assert_eq!(m.outstanding(0x140, 10), None);
        assert_eq!(m.earliest_slot(10), 40, "full file frees at 40");
        assert_eq!(m.earliest_slot(41), 41);
    }

    #[test]
    fn force_alloc_records_fill_depth() {
        let mut m = MshrFile::new(2);
        m.force_alloc(0x40, 0, 99, 3);
        assert_eq!(m.outstanding(0x40, 1), Some((99, 3)));
    }
}
