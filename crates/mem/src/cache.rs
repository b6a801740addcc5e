//! Banked, set-associative cache arrays with MESI line states.

use crate::config::{Addr, CacheParams, Cycle};
use crate::{line_of, LINE_BYTES};

/// MESI coherence state of a cached line.
///
/// `Invalid` is represented by absence from the array; it exists as a
/// variant so protocol code can name the result of a downgrade.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mesi {
    /// Dirty and exclusively owned.
    Modified,
    /// Clean and exclusively owned.
    Exclusive,
    /// Clean, possibly shared with other caches.
    Shared,
    /// Not present.
    Invalid,
}

impl Mesi {
    /// Whether the state permits satisfying a store without a coherence
    /// transaction.
    #[must_use]
    pub fn is_writable(self) -> bool {
        matches!(self, Mesi::Modified | Mesi::Exclusive)
    }

    /// Whether the state holds a valid copy of the data.
    #[must_use]
    pub fn is_valid(self) -> bool {
        self != Mesi::Invalid
    }
}

/// A line evicted by [`CacheArray::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Line address of the victim.
    pub line: Addr,
    /// Whether the victim was dirty (Modified) and must be written back.
    pub dirty: bool,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u64,
    state: Mesi,
    last_use: u64,
}

/// One set-associative, banked cache structure (tag + data array).
///
/// The array models *presence, replacement and bank timing*; data values
/// live in the [`BackingStore`](crate::BackingStore). Two probe flavors
/// support the paper's two access kinds:
///
/// * [`CacheArray::touch`] — a normal lookup that updates LRU state,
/// * [`CacheArray::probe`] — a **data-oblivious** lookup that leaves all
///   replacement state untouched (Obl-Ld, Section V-B: "a lookup makes no
///   address-dependent state changes to the cache").
///
/// # Examples
///
/// ```rust
/// use sdo_mem::{CacheArray, CacheParams, Mesi};
/// let params = CacheParams { size_bytes: 512, ways: 2, latency: 2, banks: 2, mshrs: 4 };
/// let mut c = CacheArray::new(&params, 2);
/// assert_eq!(c.probe(0), Mesi::Invalid);
/// c.insert(0, Mesi::Exclusive);
/// assert_eq!(c.probe(0), Mesi::Exclusive);
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray {
    /// All ways of all sets in one flat allocation: set `i` owns
    /// `slots[i * ways .. (i + 1) * ways]`. `Mesi::Invalid` marks an
    /// empty way, so scans need no per-set length bookkeeping and the
    /// whole structure is a single contiguous block.
    slots: Vec<Slot>,
    ways: usize,
    num_sets: u64,
    bank_busy: Vec<Cycle>,
    bank_occupancy: Cycle,
    use_tick: u64,
}

impl CacheArray {
    /// Builds an empty array with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield a power-of-two set count
    /// (see [`CacheParams::num_sets`]).
    #[must_use]
    pub fn new(params: &CacheParams, bank_occupancy: Cycle) -> Self {
        let num_sets = params.num_sets();
        let ways = params.ways as usize;
        CacheArray {
            slots: vec![
                Slot { tag: 0, state: Mesi::Invalid, last_use: 0 };
                num_sets as usize * ways
            ],
            ways,
            num_sets,
            bank_busy: vec![0; params.banks as usize],
            bank_occupancy,
            use_tick: 0,
        }
    }

    fn set_range(&self, line: Addr) -> std::ops::Range<usize> {
        let idx = ((line / LINE_BYTES) % self.num_sets) as usize * self.ways;
        idx..idx + self.ways
    }

    /// Probes for a line **without** updating replacement state
    /// (data-oblivious tag check). Returns the line's MESI state.
    #[must_use]
    pub fn probe(&self, addr: Addr) -> Mesi {
        let line = line_of(addr);
        self.slots[self.set_range(line)]
            .iter()
            .find(|s| s.state.is_valid() && s.tag == line)
            .map_or(Mesi::Invalid, |s| s.state)
    }

    /// Looks up a line, updating LRU state on a hit.
    #[must_use]
    pub fn touch(&mut self, addr: Addr) -> Mesi {
        let line = line_of(addr);
        let range = self.set_range(line);
        self.use_tick += 1;
        let tick = self.use_tick;
        match self.slots[range].iter_mut().find(|s| s.state.is_valid() && s.tag == line) {
            Some(slot) => {
                slot.last_use = tick;
                slot.state
            }
            None => Mesi::Invalid,
        }
    }

    /// Upgrades/downgrades the state of a present line. Returns `false` if
    /// the line is not present (caller must insert instead).
    pub fn set_state(&mut self, addr: Addr, state: Mesi) -> bool {
        let line = line_of(addr);
        if state == Mesi::Invalid {
            return self.invalidate(addr).is_valid();
        }
        let range = self.set_range(line);
        match self.slots[range].iter_mut().find(|s| s.state.is_valid() && s.tag == line) {
            Some(slot) => {
                slot.state = state;
                true
            }
            None => false,
        }
    }

    /// Inserts a line in `state`, evicting the LRU victim if the set is
    /// full. If the line is already present its state is updated in place
    /// and no eviction occurs.
    pub fn insert(&mut self, addr: Addr, state: Mesi) -> Option<EvictedLine> {
        assert!(state.is_valid(), "cannot insert a line in Invalid state");
        let line = line_of(addr);
        let range = self.set_range(line);
        self.use_tick += 1;
        let tick = self.use_tick;
        let set = &mut self.slots[range];

        // One pass finds the matching way, a free way, and the LRU victim.
        let mut free: Option<usize> = None;
        let mut victim = 0usize;
        let mut victim_use = u64::MAX;
        for (i, s) in set.iter_mut().enumerate() {
            if !s.state.is_valid() {
                if free.is_none() {
                    free = Some(i);
                }
            } else if s.tag == line {
                s.state = state;
                s.last_use = tick;
                return None;
            } else if s.last_use < victim_use {
                victim_use = s.last_use;
                victim = i;
            }
        }

        if let Some(i) = free {
            set[i] = Slot { tag: line, state, last_use: tick };
            return None;
        }

        let old = set[victim];
        set[victim] = Slot { tag: line, state, last_use: tick };
        Some(EvictedLine { line: old.tag, dirty: old.state == Mesi::Modified })
    }

    /// Removes a line; returns its previous state.
    pub fn invalidate(&mut self, addr: Addr) -> Mesi {
        let line = line_of(addr);
        let range = self.set_range(line);
        match self.slots[range].iter_mut().find(|s| s.state.is_valid() && s.tag == line) {
            Some(slot) => std::mem::replace(&mut slot.state, Mesi::Invalid),
            None => Mesi::Invalid,
        }
    }

    /// Whether the line is present in any valid state.
    #[must_use]
    pub fn contains(&self, addr: Addr) -> bool {
        self.probe(addr).is_valid()
    }

    /// Number of valid lines currently resident.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.slots.iter().filter(|s| s.state.is_valid()).count()
    }

    /// All resident line addresses (unordered); for tests and debugging.
    pub fn lines(&self) -> impl Iterator<Item = (Addr, Mesi)> + '_ {
        self.slots.iter().filter(|s| s.state.is_valid()).map(|s| (s.tag, s.state))
    }

    /// Bank index serving `addr`.
    #[must_use]
    pub fn bank_of(&self, addr: Addr) -> usize {
        ((line_of(addr) / LINE_BYTES) % self.bank_busy.len() as u64) as usize
    }

    /// Reserves the single bank serving `addr` for a normal access arriving
    /// at `arrive`; returns the cycle the access actually starts (after any
    /// bank conflict).
    pub fn reserve_bank(&mut self, addr: Addr, arrive: Cycle) -> Cycle {
        let bank = self.bank_of(addr);
        let start = arrive.max(self.bank_busy[bank]);
        self.bank_busy[bank] = start + self.bank_occupancy;
        start
    }

    /// Reserves **all** banks for a data-oblivious lookup arriving at
    /// `arrive` (Section VI-B: "an Obl-Ld accesses all cache banks ... all
    /// succeeding requests are blocked until the Obl-Ld completes").
    /// Returns the start cycle, which is a function only of *public* state
    /// (prior occupancy), never of the Obl-Ld's address.
    pub fn reserve_all_banks(&mut self, arrive: Cycle) -> Cycle {
        let busiest = self.bank_busy.iter().copied().max().unwrap_or(0);
        let start = arrive.max(busiest);
        for b in &mut self.bank_busy {
            *b = start + self.bank_occupancy;
        }
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheArray {
        // 512 B, 2-way, 64 B lines => 4 sets.
        let params = CacheParams { size_bytes: 512, ways: 2, latency: 2, banks: 2, mshrs: 4 };
        CacheArray::new(&params, 2)
    }

    /// Line address that maps to set `s` with distinct tag `t`.
    fn line(s: u64, t: u64) -> Addr {
        (t * 4 + s) * LINE_BYTES
    }

    #[test]
    fn insert_then_probe_hits() {
        let mut c = tiny();
        c.insert(line(1, 0), Mesi::Shared);
        assert_eq!(c.probe(line(1, 0)), Mesi::Shared);
        assert_eq!(c.probe(line(1, 1)), Mesi::Invalid);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn probe_matches_any_offset_within_line() {
        let mut c = tiny();
        c.insert(line(0, 0), Mesi::Exclusive);
        assert!(c.contains(line(0, 0) + 63));
        assert!(!c.contains(line(0, 0) + 64));
    }

    #[test]
    fn lru_victim_is_least_recently_used() {
        let mut c = tiny();
        c.insert(line(2, 0), Mesi::Exclusive);
        c.insert(line(2, 1), Mesi::Exclusive);
        // Touch the first so the second becomes LRU.
        assert_eq!(c.touch(line(2, 0)), Mesi::Exclusive);
        let evicted = c.insert(line(2, 2), Mesi::Exclusive).unwrap();
        assert_eq!(evicted.line, line(2, 1));
        assert!(!evicted.dirty);
        assert!(c.contains(line(2, 0)));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.insert(line(3, 0), Mesi::Modified);
        c.insert(line(3, 1), Mesi::Exclusive);
        let ev = c.insert(line(3, 2), Mesi::Shared).unwrap();
        assert_eq!(ev.line, line(3, 0));
        assert!(ev.dirty);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny();
        c.insert(line(0, 0), Mesi::Exclusive);
        c.insert(line(0, 1), Mesi::Exclusive);
        // An oblivious probe of way 0 must NOT protect it from eviction.
        assert_eq!(c.probe(line(0, 0)), Mesi::Exclusive);
        let ev = c.insert(line(0, 2), Mesi::Exclusive).unwrap();
        assert_eq!(ev.line, line(0, 0), "probe must not refresh LRU");
    }

    #[test]
    fn reinsert_updates_state_without_eviction() {
        let mut c = tiny();
        c.insert(line(1, 0), Mesi::Shared);
        assert!(c.insert(line(1, 0), Mesi::Modified).is_none());
        assert_eq!(c.probe(line(1, 0)), Mesi::Modified);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn set_state_and_invalidate() {
        let mut c = tiny();
        c.insert(line(1, 0), Mesi::Exclusive);
        assert!(c.set_state(line(1, 0), Mesi::Shared));
        assert_eq!(c.probe(line(1, 0)), Mesi::Shared);
        assert!(!c.set_state(line(1, 9), Mesi::Shared));
        assert_eq!(c.invalidate(line(1, 0)), Mesi::Shared);
        assert_eq!(c.invalidate(line(1, 0)), Mesi::Invalid);
    }

    #[test]
    #[should_panic(expected = "Invalid state")]
    fn insert_invalid_panics() {
        let mut c = tiny();
        c.insert(0, Mesi::Invalid);
    }

    #[test]
    fn bank_conflict_serializes() {
        let mut c = tiny();
        let a = line(0, 0); // bank 0
        let b = line(2, 0); // 2 banks: line index 2 -> bank 0 as well
        assert_eq!(c.bank_of(a), c.bank_of(b));
        let s1 = c.reserve_bank(a, 10);
        let s2 = c.reserve_bank(b, 10);
        assert_eq!(s1, 10);
        assert_eq!(s2, 12, "second access waits out the occupancy");
    }

    #[test]
    fn different_banks_run_in_parallel() {
        let mut c = tiny();
        let a = line(0, 0); // even line index -> bank 0
        let b = line(1, 0); // odd line index -> bank 1
        assert_ne!(c.bank_of(a), c.bank_of(b));
        assert_eq!(c.reserve_bank(a, 5), 5);
        assert_eq!(c.reserve_bank(b, 5), 5);
    }

    #[test]
    fn oblivious_reservation_blocks_every_bank() {
        let mut c = tiny();
        let start = c.reserve_all_banks(7);
        assert_eq!(start, 7);
        // Any subsequent access, to any bank, waits.
        assert_eq!(c.reserve_bank(line(0, 0), 7), 9);
        assert_eq!(c.reserve_bank(line(1, 0), 7), 9);
    }

    #[test]
    fn oblivious_reservation_waits_for_busiest_bank() {
        let mut c = tiny();
        c.reserve_bank(line(1, 0), 20); // bank 1 busy till 22
        let start = c.reserve_all_banks(0);
        assert_eq!(start, 22, "start is address-independent: max over banks");
    }

    #[test]
    fn mesi_predicates() {
        assert!(Mesi::Modified.is_writable());
        assert!(Mesi::Exclusive.is_writable());
        assert!(!Mesi::Shared.is_writable());
        assert!(!Mesi::Invalid.is_valid());
    }

    #[test]
    fn lines_iterator_reports_all() {
        let mut c = tiny();
        c.insert(line(0, 0), Mesi::Shared);
        c.insert(line(1, 0), Mesi::Modified);
        let mut got: Vec<_> = c.lines().collect();
        got.sort_by_key(|(a, _)| *a);
        assert_eq!(got, vec![(line(0, 0), Mesi::Shared), (line(1, 0), Mesi::Modified)]);
    }
}
