//! The complete memory system: private L1/L2 per core, sliced shared L3
//! with a MESI directory, DRAM, TLBs, and the data-oblivious access paths.

use crate::backing::BackingStore;
use crate::cache::{CacheArray, EvictedLine, Mesi};
use crate::config::{Addr, CacheLevel, Cycle, MemConfig};
use crate::dram::Dram;
use crate::interconnect::Mesh;
use crate::line_of;
use crate::mshr::MshrFile;
use crate::stats::MemStats;
use crate::tlb::Tlb;
use sdo_isa::DataImage;

/// Which structure ultimately served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServedBy {
    /// Private L1 hit.
    L1,
    /// Private L2 hit.
    L2,
    /// Shared L3 hit.
    L3,
    /// Dirty copy fetched from another core's private cache (via the L3
    /// directory). Counts as L3-resident for location-prediction purposes.
    Remote,
    /// Off-chip DRAM.
    Dram,
}

impl ServedBy {
    /// The cache level this outcome corresponds to for the location
    /// predictor (Section V-D): remote dirty hits resolve at the L3
    /// directory, so they count as L3.
    #[must_use]
    pub fn level(self) -> CacheLevel {
        match self {
            ServedBy::L1 => CacheLevel::L1,
            ServedBy::L2 => CacheLevel::L2,
            ServedBy::L3 | ServedBy::Remote => CacheLevel::L3,
            ServedBy::Dram => CacheLevel::Dram,
        }
    }

    fn depth(self) -> u8 {
        self.level().depth()
    }

    fn from_depth(depth: u8) -> Self {
        match depth {
            0 | 1 => ServedBy::L1,
            2 => ServedBy::L2,
            3 => ServedBy::L3,
            _ => ServedBy::Dram,
        }
    }
}

/// Completed (normal, non-oblivious) load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// The 64-bit little-endian word at the accessed address.
    pub value: u64,
    /// Cycle the access was issued.
    pub issued_at: Cycle,
    /// Cycle the data is available to the core.
    pub complete_at: Cycle,
    /// Which structure served the access.
    pub served_by: ServedBy,
}

impl AccessResult {
    /// End-to-end latency in cycles.
    #[must_use]
    pub fn latency(&self) -> Cycle {
        self.complete_at - self.issued_at
    }
}

/// Completed store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreResult {
    /// Cycle the store is globally performed (ownership acquired).
    pub complete_at: Cycle,
}

/// Per-level response of a data-oblivious lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OblResponse {
    /// The level this response came from.
    pub level: CacheLevel,
    /// Whether the tag check hit (always `false` when the L1 TLB probe
    /// missed — the lookup proceeds with ⊥ translation, Section V-B).
    pub hit: bool,
    /// Cycle the response reaches the core's wait buffer.
    pub at: Cycle,
}

/// The per-level responses of one lookup, stored inline (at most one per
/// cache level, so a fixed array beats a heap allocation on the hot
/// path). Derefs to a slice — iterate and index it like a `Vec`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OblResponses {
    buf: [OblResponse; 3],
    len: u8,
}

impl OblResponses {
    const EMPTY: OblResponse = OblResponse { level: CacheLevel::L1, hit: false, at: 0 };

    fn new() -> Self {
        OblResponses { buf: [Self::EMPTY; 3], len: 0 }
    }

    fn push(&mut self, r: OblResponse) {
        self.buf[self.len as usize] = r;
        self.len += 1;
    }
}

impl std::ops::Deref for OblResponses {
    type Target = [OblResponse];
    fn deref(&self) -> &[OblResponse] {
        &self.buf[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a OblResponses {
    type Item = &'a OblResponse;
    type IntoIter = std::slice::Iter<'a, OblResponse>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Outcome of a data-oblivious load lookup (the memory-side half of an
/// Obl-Ld operation).
///
/// Responses are ordered L1 first; per the paper's footnote 2, levels
/// respond in order, so the wait buffer may forward `success_i` as soon as
/// responses `1..=i` have arrived.
#[derive(Debug, Clone, PartialEq)]
pub struct OblLookup {
    /// One response per probed level, L1 outward.
    pub responses: OblResponses,
    /// Whether the L1 TLB probe hit.
    pub tlb_hit: bool,
    /// The loaded word, present iff some level hit (and the TLB probe
    /// hit). This is `presult` of the first successful DO variant.
    pub value: Option<u64>,
    /// Closest level that hit, if any.
    pub first_hit: Option<CacheLevel>,
    /// Cycle the final response arrives (lookup fully complete).
    pub complete_at: Cycle,
}

impl OblLookup {
    /// Whether the lookup returned `success` (some probed level had the
    /// line and translation succeeded).
    #[must_use]
    pub fn success(&self) -> bool {
        self.first_hit.is_some()
    }
}

/// Why an Obl-Ld could not issue this cycle (retry later). All variants
/// are functions of public state only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OblReject {
    /// No free MSHR at some traversed level.
    MshrFull,
}

#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    /// Bitmask of cores holding the line in their private caches.
    sharers: u64,
    /// Core holding the line in M/E (potentially dirty) state, if any.
    owner: Option<usize>,
}

impl DirEntry {
    /// Bitmask of sharers other than `core`.
    fn others_mask(&self, core: usize) -> u64 {
        self.sharers & !(1 << core)
    }
}

/// Iterates the core indices set in `mask`, ascending.
fn cores_in(mask: u64) -> impl Iterator<Item = usize> {
    std::iter::successors(
        (mask != 0).then_some(mask),
        |m| {
            let rest = m & (m - 1);
            (rest != 0).then_some(rest)
        },
    )
    .map(|m| m.trailing_zeros() as usize)
}

/// The full memory hierarchy shared by all simulated cores.
///
/// See the [crate docs](crate) for the modeling approach. The core-facing
/// API:
///
/// * [`MemorySystem::load`] / [`MemorySystem::store`] — normal accesses,
/// * [`MemorySystem::obl_lookup`] — data-oblivious multi-level tag probe,
/// * [`MemorySystem::validate`] / [`MemorySystem::expose`] — the
///   InvisiSpec-style consistency mechanisms SDO reuses,
/// * [`MemorySystem::take_invalidations`] — coherence invalidations
///   delivered to a core (drives consistency squashes),
/// * [`MemorySystem::residency`] — oracle for the Perfect predictor.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: MemConfig,
    n_cores: usize,
    l1i: Vec<CacheArray>,
    l1: Vec<CacheArray>,
    l2: Vec<CacheArray>,
    l1_mshr: Vec<MshrFile>,
    l2_mshr: Vec<MshrFile>,
    l3: Vec<CacheArray>,
    l3_mshr: Vec<MshrFile>,
    dir: crate::hash::AddrMap<Addr, DirEntry>,
    tlb: Vec<Tlb>,
    dram: Dram,
    mesh: Mesh,
    backing: BackingStore,
    inval_queues: Vec<Vec<Addr>>,
    stats: MemStats,
}

impl MemorySystem {
    /// Builds a hierarchy for `n_cores` cores.
    ///
    /// The L3 is split into one slice per mesh tile; `cfg.l3.size_bytes` is
    /// the total capacity across slices.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is 0 or exceeds the mesh tile count (each core
    /// needs a tile), or if cache geometry is invalid.
    #[must_use]
    pub fn new(cfg: MemConfig, n_cores: usize) -> Self {
        let mesh = Mesh::new(cfg.mesh_cols, cfg.mesh_rows, cfg.hop_latency);
        let tiles = mesh.tiles();
        assert!(n_cores > 0, "need at least one core");
        assert!(n_cores <= tiles, "mesh has {tiles} tiles; cannot place {n_cores} cores");
        assert!(n_cores <= 64, "directory sharer mask is 64 bits wide");
        let slice_params = crate::config::CacheParams {
            size_bytes: cfg.l3.size_bytes / tiles as u64,
            ..cfg.l3
        };
        MemorySystem {
            cfg,
            n_cores,
            l1i: (0..n_cores).map(|_| CacheArray::new(&cfg.l1i, cfg.bank_occupancy)).collect(),
            l1: (0..n_cores).map(|_| CacheArray::new(&cfg.l1, cfg.bank_occupancy)).collect(),
            l2: (0..n_cores).map(|_| CacheArray::new(&cfg.l2, cfg.bank_occupancy)).collect(),
            l1_mshr: (0..n_cores).map(|_| MshrFile::new(cfg.l1.mshrs)).collect(),
            l2_mshr: (0..n_cores).map(|_| MshrFile::new(cfg.l2.mshrs)).collect(),
            l3: (0..tiles).map(|_| CacheArray::new(&slice_params, cfg.bank_occupancy)).collect(),
            l3_mshr: (0..tiles).map(|_| MshrFile::new(cfg.l3.mshrs)).collect(),
            dir: crate::hash::AddrMap::default(),
            tlb: (0..n_cores).map(|_| Tlb::new(&cfg.tlb)).collect(),
            dram: Dram::new(&cfg.dram),
            mesh,
            backing: BackingStore::new(),
            inval_queues: vec![Vec::new(); n_cores],
            stats: MemStats::default(),
        }
    }

    /// Number of cores attached.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.n_cores
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Immutable access to the backing store (functional memory contents).
    #[must_use]
    pub fn backing(&self) -> &BackingStore {
        &self.backing
    }

    /// Mutable access to the backing store (test/workload setup).
    pub fn backing_mut(&mut self) -> &mut BackingStore {
        &mut self.backing
    }

    /// Loads a program's initial data image into memory.
    pub fn load_image(&mut self, image: &DataImage) {
        self.backing.load_image(image);
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// L1 MSHR registers of `core` occupied at cycle `now` — the fill
    /// level the core's observability probe samples each cycle. Cheap:
    /// a popcount-style scan over the occupancy bitmask.
    #[must_use]
    pub fn mshr_in_use(&self, core: usize, now: Cycle) -> usize {
        self.l1_mshr[core].in_use(now)
    }

    /// Earliest cycle strictly after `now` at which the memory system's
    /// timing state changes on its own: an in-flight miss completes in any
    /// MSHR file (L1/L2 per core, L3 per tile) or a busy DRAM bank frees.
    /// `None` when nothing is in flight — the hierarchy cannot generate a
    /// future event. The mesh is a stateless latency calculator and the
    /// cache bank reservations only advance when accessed, so neither
    /// contributes events of its own. This is the memory half of the
    /// core's quiescence event horizon.
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.l1_mshr
            .iter()
            .chain(&self.l2_mshr)
            .chain(&self.l3_mshr)
            .filter_map(|m| m.next_completion(now))
            .chain(self.dram.next_bank_release(now))
            .min()
    }

    /// Bulk-records `n` additional Obl-Ld MSHR-full rejects. The core's
    /// quiescence fast-forward uses this: a bounced Obl-Ld retries (and is
    /// re-rejected) every stalled cycle, so skipping `n` quiescent cycles
    /// must account the same `n` rejects a stepped loop would have.
    pub fn record_obl_mshr_rejects(&mut self, n: u64) {
        self.stats.obl_mshr_rejects += n;
    }

    /// Drains the coherence invalidations delivered to `core` since the
    /// last call. The core checks these against its load queue to detect
    /// possible memory-consistency violations (Section V-C1).
    pub fn take_invalidations(&mut self, core: usize) -> Vec<Addr> {
        std::mem::take(&mut self.inval_queues[core])
    }

    /// Oracle: which level would currently serve `addr` for `core`
    /// (ignoring timing). Used by the *Perfect* location predictor and by
    /// predictor-update logic.
    #[must_use]
    pub fn residency(&self, core: usize, addr: Addr) -> CacheLevel {
        if self.l1[core].probe(addr).is_valid() {
            CacheLevel::L1
        } else if self.l2[core].probe(addr).is_valid() {
            CacheLevel::L2
        } else if self.l3[self.mesh.slice_of(addr)].probe(addr).is_valid() {
            CacheLevel::L3
        } else {
            CacheLevel::Dram
        }
    }

    /// Functional word read (no timing, no state change).
    #[must_use]
    pub fn peek_word(&self, addr: Addr) -> u64 {
        self.backing.read_word(addr)
    }

    /// Pre-warms a byte range into the hierarchy at the given level for
    /// `core` — the reproduction's stand-in for SimPoint warm-starts
    /// (DESIGN.md §5): the paper's checkpoints begin with caches warmed by
    /// the preceding execution, which a freshly-constructed simulator
    /// lacks.
    ///
    /// `L1`/`L2` install private copies (and the inclusive L3 copy);
    /// `L3` installs into the home slices only. No timing is charged.
    ///
    /// # Panics
    ///
    /// Panics if `level` is [`CacheLevel::Dram`] (nothing to warm).
    pub fn prewarm(&mut self, core: usize, start: Addr, bytes: u64, level: CacheLevel) {
        assert!(level.is_cache(), "cannot prewarm DRAM");
        // Warm the TLB over the range too (page granularity).
        let page = self.cfg.tlb.page_bytes;
        let mut p = start / page * page;
        while p < start + bytes {
            let _ = self.tlb[core].access(p);
            p += page;
        }
        let first = line_of(start);
        let last = line_of(start + bytes.saturating_sub(1));
        let mut line = first;
        loop {
            let slice = self.mesh.slice_of(line);
            if let Some(ev) = self.l3[slice].insert(line, Mesi::Exclusive) {
                self.handle_l3_eviction(ev);
            }
            if level <= CacheLevel::L2 {
                if let Some(ev) = self.l2[core].insert(line, Mesi::Shared) {
                    self.handle_l2_eviction(core, ev);
                }
                let e = self.dir.entry(line).or_default();
                e.sharers |= 1 << core;
            }
            if level == CacheLevel::L1 {
                if let Some(ev) = self.l1[core].insert(line, Mesi::Shared) {
                    if ev.dirty {
                        self.l2[core].set_state(ev.line, Mesi::Modified);
                    }
                }
            }
            if line >= last {
                break;
            }
            line += crate::LINE_BYTES;
        }
    }

    /// Instruction-fetch timing for the line containing byte address
    /// `addr` (callers translate instruction indices into the dedicated
    /// text address space, e.g. `sdo_uarch` uses `ITEXT_BASE + pc * 8`).
    ///
    /// L1I hits cost nothing beyond the pipelined frontend; misses walk
    /// the shared L2/L3/DRAM path (read-only, shared-state fills) and
    /// return the cycle the line arrives.
    pub fn ifetch(&mut self, core: usize, addr: Addr, now: Cycle) -> Cycle {
        let line = line_of(addr);
        if self.l1i[core].touch(line).is_valid() {
            self.stats.icache_hits += 1;
            return now;
        }
        self.stats.icache_misses += 1;
        let arrive2 = now + self.cfg.l1i.latency;
        let complete = if self.l2[core].touch(line).is_valid() {
            arrive2 + self.cfg.l2.latency
        } else {
            let arrive3 = arrive2 + self.cfg.l2.latency;
            let (done, _served) = self.l3_access(core, line, arrive3, false);
            // Instructions also live in the unified L2.
            if let Some(ev) = self.l2[core].insert(line, Mesi::Shared) {
                self.handle_l2_eviction(core, ev);
            }
            done
        };
        if let Some(ev) = self.l1i[core].insert(line, Mesi::Shared) {
            // Clean instruction lines need no writeback.
            let _ = ev;
        }
        complete
    }

    // ------------------------------------------------------------------
    // Normal access path
    // ------------------------------------------------------------------

    /// TLB translation charge in extra cycles (0 on a hit).
    fn tlb_charge(&mut self, core: usize, addr: Addr) -> Cycle {
        let lat = self.tlb[core].access(addr);
        if lat <= self.cfg.tlb.hit_latency {
            self.stats.tlb_hits += 1;
            0
        } else {
            self.stats.tlb_misses += 1;
            lat
        }
    }

    /// Performs a normal load of the 64-bit word at `addr` for `core`.
    ///
    /// Fills caches along the way, participates in coherence, and models
    /// bank, MSHR, mesh and DRAM timing. Never rejects: structural hazards
    /// appear as added latency.
    pub fn load(&mut self, core: usize, addr: Addr, now: Cycle) -> AccessResult {
        self.access_inner(core, addr, now, AccessKind::Load)
    }

    /// Validation access (InvisiSpec): a normal load whose value the
    /// caller compares against the earlier Obl-Ld result. Fills the L1 so
    /// future invalidations are observed.
    pub fn validate(&mut self, core: usize, addr: Addr, expected: u64, now: Cycle) -> (AccessResult, bool) {
        self.stats.validations += 1;
        let res = self.access_inner(core, addr, now, AccessKind::Validate);
        let matches = res.value == expected;
        if !matches {
            self.stats.validation_mismatches += 1;
        }
        (res, matches)
    }

    /// Exposure access (InvisiSpec): brings the line into the L1
    /// asynchronously, without anything waiting on the result.
    pub fn expose(&mut self, core: usize, addr: Addr, now: Cycle) {
        self.stats.exposures += 1;
        let _ = self.access_inner(core, addr, now, AccessKind::Expose);
    }

    fn access_inner(&mut self, core: usize, addr: Addr, now: Cycle, kind: AccessKind) -> AccessResult {
        let line = line_of(addr);
        let value = self.backing.read_word(addr);
        let t0 = now + self.tlb_charge(core, addr);

        // A fill for this line may still be in flight (the arrays are
        // updated eagerly, but the data has not arrived): merge with it.
        if let Some((done, depth)) = self.l1_mshr[core].outstanding(line, t0) {
            return AccessResult {
                value,
                issued_at: now,
                complete_at: done,
                served_by: ServedBy::from_depth(depth),
            };
        }

        // L1
        let s1 = self.l1[core].reserve_bank(addr, t0);
        if self.l1[core].touch(addr).is_valid() {
            self.stats.l1_hits += 1;
            return AccessResult {
                value,
                issued_at: now,
                complete_at: s1 + self.cfg.l1.latency,
                served_by: ServedBy::L1,
            };
        }
        self.stats.l1_misses += 1;
        let arrive2 = s1 + self.cfg.l1.latency;
        let admit2 = self.l1_mshr[core].earliest_slot(arrive2);

        // L2
        let s2 = self.l2[core].reserve_bank(addr, admit2);
        let (complete, served) = if self.l2[core].touch(addr).is_valid() {
            self.stats.l2_hits += 1;
            (s2 + self.cfg.l2.latency, ServedBy::L2)
        } else {
            self.stats.l2_misses += 1;
            let arrive3 = s2 + self.cfg.l2.latency;
            if let Some((done, depth)) = self.l2_mshr[core].outstanding(line, arrive3) {
                (done, ServedBy::from_depth(depth))
            } else {
                let admit3 = self.l2_mshr[core].earliest_slot(arrive3);
                let (done, served) = self.l3_access(core, addr, admit3, kind == AccessKind::Rfo);
                self.l2_mshr[core].force_alloc(line, admit3, done, served.depth());
                (done, served)
            }
        };
        self.l1_mshr[core].force_alloc(line, admit2, complete, served.depth());

        // Fill the private caches with the granted state.
        let granted = self.granted_state(core, line, kind);
        self.fill_private(core, line, granted);

        AccessResult { value, issued_at: now, complete_at: complete, served_by: served }
    }

    /// The MESI state to install in the requesting core's private caches,
    /// derived from the directory after the access updated it.
    fn granted_state(&self, core: usize, line: Addr, kind: AccessKind) -> Mesi {
        if kind == AccessKind::Rfo {
            return Mesi::Modified;
        }
        match self.dir.get(&line) {
            Some(e) if e.owner == Some(core) => Mesi::Exclusive,
            _ => Mesi::Shared,
        }
    }

    /// Shared-L3 + directory access. Returns `(complete_at, served_by)`
    /// and updates directory/sharer state. `rfo` requests exclusive
    /// ownership (store miss).
    fn l3_access(&mut self, core: usize, addr: Addr, arrive: Cycle, rfo: bool) -> (Cycle, ServedBy) {
        let line = line_of(addr);
        let slice = self.mesh.slice_of(addr);
        let go = self.mesh.latency(core, slice);
        let s3 = self.l3[slice].reserve_bank(addr, arrive + go);
        let l3_lat = self.cfg.l3.latency;

        if self.l3[slice].touch(addr).is_valid() {
            self.stats.l3_hits += 1;
            let entry = self.dir.entry(line).or_default();
            let owner = entry.owner;
            let others = entry.others_mask(core);

            if rfo {
                // Invalidate every other copy, grant M.
                for o in cores_in(others) {
                    self.invalidate_private(o, line);
                }
                let e = self.dir.entry(line).or_default();
                e.sharers = 1 << core;
                e.owner = Some(core);
                let penalty = if others == 0 { 0 } else { go };
                return (s3 + l3_lat + go + penalty, ServedBy::L3);
            }

            match owner {
                Some(o) if o != core => {
                    // Potentially dirty in o's private cache: fetch/downgrade.
                    self.stats.remote_hits += 1;
                    self.l1[o].set_state(line, Mesi::Shared);
                    self.l2[o].set_state(line, Mesi::Shared);
                    self.l3[slice].set_state(line, Mesi::Modified); // writeback to L3
                    let e = self.dir.entry(line).or_default();
                    e.owner = None;
                    e.sharers |= 1 << core;
                    let detour = 2 * self.mesh.latency(slice, o) + self.cfg.l1.latency;
                    (s3 + l3_lat + detour + go, ServedBy::Remote)
                }
                _ => {
                    let e = self.dir.entry(line).or_default();
                    let alone = e.sharers & !(1 << core) == 0;
                    e.sharers |= 1 << core;
                    e.owner = if alone { Some(core) } else { None };
                    (s3 + l3_lat + go, ServedBy::L3)
                }
            }
        } else {
            self.stats.l3_misses += 1;
            let arrive_dram = if let Some((done, _)) = self.l3_mshr[slice].outstanding(line, s3 + l3_lat) {
                // Merge at the L3 MSHR: ride the outstanding DRAM fetch.
                let complete = done + go;
                self.fill_l3_and_grant(core, line, slice, rfo);
                return (complete, ServedBy::Dram);
            } else {
                self.l3_mshr[slice].earliest_slot(s3 + l3_lat)
            };
            let (dram_done, row_hit) = self.dram.access(addr, arrive_dram);
            if row_hit {
                self.stats.dram_row_hits += 1;
            } else {
                self.stats.dram_row_misses += 1;
            }
            self.l3_mshr[slice].force_alloc(line, arrive_dram, dram_done, CacheLevel::Dram.depth());
            self.fill_l3_and_grant(core, line, slice, rfo);
            (dram_done + go, ServedBy::Dram)
        }
    }

    fn fill_l3_and_grant(&mut self, core: usize, line: Addr, slice: usize, rfo: bool) {
        if let Some(ev) = self.l3[slice].insert(line, Mesi::Exclusive) {
            self.handle_l3_eviction(ev);
        }
        let e = self.dir.entry(line).or_default();
        e.sharers = 1 << core;
        e.owner = Some(core);
        let _ = rfo; // M vs E distinction is applied by granted_state()
    }

    fn invalidate_private(&mut self, core: usize, line: Addr) {
        let a = self.l1[core].invalidate(line);
        let b = self.l2[core].invalidate(line);
        if a.is_valid() || b.is_valid() {
            self.inval_queues[core].push(line);
            self.stats.invalidations_sent += 1;
        }
        if let Some(e) = self.dir.get_mut(&line) {
            e.sharers &= !(1 << core);
            if e.owner == Some(core) {
                e.owner = None;
            }
        }
    }

    fn handle_l3_eviction(&mut self, ev: EvictedLine) {
        // Inclusive LLC: every private copy dies with the L3 line.
        if let Some(entry) = self.dir.remove(&ev.line) {
            for c in 0..self.n_cores {
                if entry.sharers & (1 << c) != 0 {
                    self.l1[c].invalidate(ev.line);
                    self.l2[c].invalidate(ev.line);
                    self.inval_queues[c].push(ev.line);
                    self.stats.invalidations_sent += 1;
                }
            }
        }
        // Dirty victim: functional contents already live in backing store.
    }

    fn handle_l2_eviction(&mut self, core: usize, ev: EvictedLine) {
        // L2 inclusive of L1: drop the L1 copy too.
        let l1_state = self.l1[core].invalidate(ev.line);
        let dirty = ev.dirty || l1_state == Mesi::Modified;
        if dirty {
            // Write back into the home slice.
            let slice = self.mesh.slice_of(ev.line);
            if !self.l3[slice].set_state(ev.line, Mesi::Modified) {
                if let Some(victim) = self.l3[slice].insert(ev.line, Mesi::Modified) {
                    self.handle_l3_eviction(victim);
                }
            }
        }
        if let Some(e) = self.dir.get_mut(&ev.line) {
            e.sharers &= !(1 << core);
            if e.owner == Some(core) {
                e.owner = None;
            }
        }
    }

    fn fill_private(&mut self, core: usize, line: Addr, state: Mesi) {
        if let Some(ev) = self.l2[core].insert(line, state) {
            self.handle_l2_eviction(core, ev);
        }
        if let Some(ev) = self.l1[core].insert(line, state) {
            // L1 victim falls back to the L2 (present there by inclusion).
            if ev.dirty && !self.l2[core].set_state(ev.line, Mesi::Modified) {
                if let Some(victim) = self.l2[core].insert(ev.line, Mesi::Modified) {
                    self.handle_l2_eviction(core, victim);
                }
            }
        }
    }

    /// Commits a store of the low `width_bytes` of `value` at `addr`.
    ///
    /// Acquires ownership (invalidating remote sharers — these
    /// invalidations surface via [`MemorySystem::take_invalidations`]) and
    /// updates the backing store.
    pub fn store(&mut self, core: usize, addr: Addr, value: u64, width_bytes: u64, now: Cycle) -> StoreResult {
        self.stats.stores += 1;
        let line = line_of(addr);
        self.backing.write_bytes(addr, value, width_bytes);
        let t0 = now + self.tlb_charge(core, addr);
        let s1 = self.l1[core].reserve_bank(addr, t0);
        let l1_state = self.l1[core].touch(addr);

        let complete = if l1_state.is_writable() {
            self.l1[core].set_state(line, Mesi::Modified);
            self.l2[core].set_state(line, Mesi::Modified);
            s1 + self.cfg.l1.latency
        } else if l1_state == Mesi::Shared {
            // Upgrade: invalidate other sharers through the home slice.
            let slice = self.mesh.slice_of(addr);
            let go = self.mesh.latency(core, slice);
            let others = self.dir.get(&line).map_or(0, |e| e.others_mask(core));
            for o in cores_in(others) {
                self.invalidate_private(o, line);
            }
            let e = self.dir.entry(line).or_default();
            e.sharers = 1 << core;
            e.owner = Some(core);
            self.l1[core].set_state(line, Mesi::Modified);
            self.l2[core].set_state(line, Mesi::Modified);
            s1 + self.cfg.l1.latency + 2 * go
        } else {
            // Miss: read-for-ownership through the hierarchy.
            let res = self.access_inner(core, addr, now, AccessKind::Rfo);
            self.l1[core].set_state(line, Mesi::Modified);
            self.l2[core].set_state(line, Mesi::Modified);
            res.complete_at
        };
        StoreResult { complete_at: complete }
    }

    // ------------------------------------------------------------------
    // Data-oblivious path (Obl-Ld memory side)
    // ------------------------------------------------------------------

    /// Performs the memory-side of an Obl-Ld: a data-oblivious tag probe of
    /// every level from the L1 through `max_level` (Section V-B).
    ///
    /// Guarantees (Definition 2): the *set* of resources used — which
    /// levels, full-bank reservations, first-free MSHR slots, all-slice L3
    /// broadcast — depends only on the prediction (`max_level`) and prior
    /// public occupancy, never on `addr`. No cache or TLB state changes.
    ///
    /// # Errors
    ///
    /// Returns [`OblReject::MshrFull`] when a traversed level has no free
    /// MSHR; the caller retries next cycle (an address-independent stall).
    ///
    /// # Panics
    ///
    /// Panics if `max_level` is [`CacheLevel::Dram`]: there is no DRAM DO
    /// variant — the predictor must fall back to delayed execution
    /// (Section VI-B).
    pub fn obl_lookup(
        &mut self,
        core: usize,
        addr: Addr,
        max_level: CacheLevel,
        now: Cycle,
    ) -> Result<OblLookup, OblReject> {
        assert!(max_level.is_cache(), "no DO variant for DRAM (Section VI-B)");

        // MSHR availability is checked before anything else: the check and
        // its outcome are functions of occupancy only.
        let need_l1_mshr = max_level >= CacheLevel::L2;
        let need_l2_mshr = max_level >= CacheLevel::L3;
        if (need_l1_mshr && !self.l1_mshr[core].has_free(now))
            || (need_l2_mshr && !self.l2_mshr[core].has_free(now))
        {
            self.stats.obl_mshr_rejects += 1;
            return Err(OblReject::MshrFull);
        }

        self.stats.obl_lookups += 1;
        let tlb_hit = self.tlb[core].probe(addr);
        if tlb_hit {
            self.stats.tlb_probe_hits += 1;
        } else {
            self.stats.tlb_probe_misses += 1;
        }

        let mut responses = OblResponses::new();
        let t0 = now + self.cfg.tlb.hit_latency;

        // L1: block all banks, tag-check only.
        let s1 = self.l1[core].reserve_all_banks(t0);
        let r1 = s1 + self.cfg.l1.latency;
        let hit1 = tlb_hit && self.l1[core].probe(addr).is_valid();
        responses.push(OblResponse { level: CacheLevel::L1, hit: hit1, at: r1 });
        let mut last = r1;

        if max_level >= CacheLevel::L2 {
            let s2 = self.l2[core].reserve_all_banks(last);
            let r2 = s2 + self.cfg.l2.latency;
            let hit2 = tlb_hit && self.l2[core].probe(addr).is_valid();
            responses.push(OblResponse { level: CacheLevel::L2, hit: hit2, at: r2 });
            last = r2;
        }

        if max_level >= CacheLevel::L3 {
            // Broadcast to every slice; completion when all respond
            // (Section VI-B, "LLC slice access").
            let arrive = last + self.mesh.worst_case_latency(core);
            let mut start = arrive;
            let n_slices = self.l3.len();
            for s in 0..n_slices {
                start = start.max(self.l3[s].reserve_all_banks(arrive));
            }
            let r3 = start + self.cfg.l3.latency + self.mesh.worst_case_latency(core);
            let home = self.mesh.slice_of(addr);
            let hit3 = tlb_hit && self.l3[home].probe(addr).is_valid();
            responses.push(OblResponse { level: CacheLevel::L3, hit: hit3, at: r3 });
            last = r3;
        }

        // Private, first-free MSHR occupancy for the lookup's lifetime.
        if need_l1_mshr {
            let ok = self.l1_mshr[core].alloc_private(addr, now, last);
            debug_assert!(ok, "availability checked above");
        }
        if need_l2_mshr {
            let ok = self.l2_mshr[core].alloc_private(addr, now, last);
            debug_assert!(ok, "availability checked above");
        }

        let first_hit = responses.iter().find(|r| r.hit).map(|r| r.level);
        match first_hit {
            Some(l) => self.stats.obl_level_hits[(l.depth() - 1) as usize] += 1,
            None => self.stats.obl_all_miss += 1,
        }
        let value = first_hit.map(|_| self.backing.read_word(addr));

        Ok(OblLookup { responses, tlb_hit, value, first_hit, complete_at: last })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessKind {
    Load,
    Validate,
    Expose,
    Rfo,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(cores: usize) -> MemorySystem {
        MemorySystem::new(MemConfig::tiny(), cores)
    }

    #[test]
    fn cold_load_comes_from_dram_then_l1() {
        let mut m = sys(1);
        m.backing_mut().write_word(0x1000, 99);
        let a = m.load(0, 0x1000, 0);
        assert_eq!(a.value, 99);
        assert_eq!(a.served_by, ServedBy::Dram);
        let b = m.load(0, 0x1000, a.complete_at);
        assert_eq!(b.served_by, ServedBy::L1);
        assert!(b.latency() < a.latency());
        assert_eq!(m.stats().l1_hits, 1);
        assert_eq!(m.stats().l3_misses, 1);
    }

    #[test]
    fn latency_ordering_l1_l2_l3_dram() {
        // Construct residency at each level and compare latencies.
        let mut m = sys(1);
        let addr = 0x4000;
        let cold = m.load(0, addr, 0); // DRAM
        let t = cold.complete_at;
        let l1 = m.load(0, addr, t); // L1
        // Evict from L1 only: fill conflicting lines mapping to same set.
        // tiny L1: 4 sets, 2 ways; same set = +4*64 strides.
        let mut t2 = l1.complete_at;
        for i in 1..=2 {
            let r = m.load(0, addr + i * 4 * 64, t2);
            t2 = r.complete_at;
        }
        let l2 = m.load(0, addr, t2);
        assert_eq!(l2.served_by, ServedBy::L2);
        assert!(l2.latency() > l1.latency());
        assert!(cold.latency() > l2.latency());
    }

    #[test]
    fn residency_oracle_tracks_fills() {
        let mut m = sys(1);
        assert_eq!(m.residency(0, 0x40), CacheLevel::Dram);
        let r = m.load(0, 0x40, 0);
        assert_eq!(m.residency(0, 0x40), CacheLevel::L1);
        let _ = r;
    }

    #[test]
    fn mshr_merge_returns_same_completion() {
        let mut m = sys(1);
        let a = m.load(0, 0x2000, 0);
        // Second load to the same line while the miss is outstanding.
        let b = m.load(0, 0x2008, 1);
        assert_eq!(b.complete_at, a.complete_at);
    }

    #[test]
    fn next_event_aggregates_mshrs_and_dram() {
        let mut m = sys(1);
        assert_eq!(m.next_event(0), None, "quiet memory system has no future event");
        let a = m.load(0, 0x2000, 0); // cold miss: MSHRs in flight, DRAM bank busy
        let ev = m.next_event(0).expect("in-flight miss generates events");
        assert!(ev > 0 && ev <= a.complete_at, "ev={ev} complete_at={}", a.complete_at);
        // Walking `now` forward never skips past the final completion...
        let mut now = 0;
        while let Some(next) = m.next_event(now) {
            assert!(next > now);
            now = next;
        }
        assert!(now >= a.complete_at, "horizon chain must reach the fill");
        // ...and once everything has completed, the event stream is dry.
        assert_eq!(m.next_event(a.complete_at + 1000), None);
    }

    #[test]
    fn record_obl_mshr_rejects_bulk_adds() {
        let mut m = sys(1);
        let before = m.stats().obl_mshr_rejects;
        m.record_obl_mshr_rejects(7);
        assert_eq!(m.stats().obl_mshr_rejects, before + 7);
    }

    #[test]
    fn store_then_load_roundtrips_value() {
        let mut m = sys(1);
        m.store(0, 0x3000, 0xabcd, 8, 0);
        let r = m.load(0, 0x3000, 100);
        assert_eq!(r.value, 0xabcd);
        // Byte store merges into the word.
        m.store(0, 0x3000, 0xff, 1, 200);
        assert_eq!(m.peek_word(0x3000), 0xabff);
    }

    #[test]
    fn two_sharers_then_store_invalidates() {
        let mut m = sys(2);
        m.backing_mut().write_word(0x5000, 1);
        let a = m.load(0, 0x5000, 0);
        let b = m.load(1, 0x5000, a.complete_at);
        assert!(m.take_invalidations(0).is_empty());
        // Core 1 stores: core 0's copy must be invalidated and notified.
        m.store(1, 0x5000, 2, 8, b.complete_at);
        let invals = m.take_invalidations(0);
        assert_eq!(invals, vec![line_of(0x5000)]);
        assert_eq!(m.residency(0, 0x5000), CacheLevel::L3);
        assert_eq!(m.peek_word(0x5000), 2);
    }

    #[test]
    fn remote_dirty_line_serves_with_downgrade() {
        let mut m = sys(2);
        m.store(0, 0x6000, 7, 8, 0); // core 0 owns M
        let r = m.load(1, 0x6000, 1000);
        assert_eq!(r.served_by, ServedBy::Remote);
        assert_eq!(r.value, 7);
        assert_eq!(m.stats().remote_hits, 1);
        // Both now share.
        let again0 = m.load(0, 0x6000, r.complete_at);
        assert_eq!(again0.served_by, ServedBy::L1);
    }

    #[test]
    fn obl_lookup_hits_at_resident_level_without_state_change() {
        let mut m = sys(1);
        m.backing_mut().write_word(0x7000, 5);
        let r = m.load(0, 0x7000, 0); // now in L1
        let _ = m.load(0, 0x7040, r.complete_at); // warm TLB page already
        let before = m.residency(0, 0x9000);
        assert_eq!(before, CacheLevel::Dram);

        let look = m.obl_lookup(0, 0x7000, CacheLevel::L3, 10_000).unwrap();
        assert!(look.success());
        assert_eq!(look.first_hit, Some(CacheLevel::L1));
        assert_eq!(look.value, Some(5));
        assert_eq!(look.responses.len(), 3);
        assert!(look.responses[0].hit);

        // A lookup for an absent line changes nothing.
        let miss = m.obl_lookup(0, 0x9000, CacheLevel::L3, 20_000).unwrap();
        assert!(!miss.success());
        assert_eq!(m.residency(0, 0x9000), CacheLevel::Dram, "no fill on obl lookup");
    }

    #[test]
    fn obl_lookup_timing_depends_on_depth_not_address() {
        let mut m = sys(1);
        // Warm two addresses at different levels.
        let r = m.load(0, 0x100, 0);
        let t = r.complete_at + 100;
        // Probe to L3 for both a hot and a cold address, at equal start
        // times in two cloned systems: latency must be identical.
        let mut m2 = m.clone();
        let a = m.obl_lookup(0, 0x100, CacheLevel::L3, t).unwrap();
        let b = m2.obl_lookup(0, 0xbeef00, CacheLevel::L3, t).unwrap();
        assert_eq!(
            a.complete_at, b.complete_at,
            "Definition 2: timing is a function of the prediction, not the address"
        );
        let at_a: Vec<Cycle> = a.responses.iter().map(|r| r.at).collect();
        let at_b: Vec<Cycle> = b.responses.iter().map(|r| r.at).collect();
        assert_eq!(at_a, at_b);
    }

    #[test]
    fn obl_lookup_l1_only_is_fast() {
        let mut m = sys(1);
        let r = m.load(0, 0x40, 0);
        let l1 = m.obl_lookup(0, 0x40, CacheLevel::L1, r.complete_at).unwrap();
        let l3 = m.obl_lookup(0, 0x40, CacheLevel::L3, r.complete_at + 1000).unwrap();
        assert!(l1.complete_at - r.complete_at < l3.complete_at - (r.complete_at + 1000));
        assert_eq!(l1.responses.len(), 1);
    }

    #[test]
    fn obl_lookup_tlb_miss_forces_fail() {
        let mut m = sys(1);
        m.backing_mut().write_word(0xA000, 1);
        let r = m.load(0, 0xA000, 0);
        // Evict the TLB entry for page 0xA by walking other pages (tiny TLB: 4 entries).
        let mut t = r.complete_at;
        for p in 1..=4u64 {
            let rr = m.load(0, 0xA000 + p * 4096, t);
            t = rr.complete_at;
        }
        // Line may still be cached, but the TLB probe misses => fail.
        let look = m.obl_lookup(0, 0xA000, CacheLevel::L3, t).unwrap();
        assert!(!look.tlb_hit);
        assert!(!look.success(), "⊥ translation: all responses report fail");
        assert_eq!(m.stats().tlb_probe_misses, 1);
    }

    #[test]
    fn obl_lookup_rejects_when_mshrs_full() {
        let mut m = sys(1);
        // tiny config: 4 MSHRs at L1. Fill them with outstanding misses to
        // distinct lines.
        for i in 0..4u64 {
            let _ = m.load(0, 0x10_000 + i * 64, 0);
        }
        let err = m.obl_lookup(0, 0x40, CacheLevel::L2, 1).unwrap_err();
        assert_eq!(err, OblReject::MshrFull);
        assert_eq!(m.stats().obl_mshr_rejects, 1);
        // An L1-only lookup needs no MSHR and succeeds.
        assert!(m.obl_lookup(0, 0x40, CacheLevel::L1, 1).is_ok());
    }

    #[test]
    #[should_panic(expected = "no DO variant for DRAM")]
    fn obl_lookup_to_dram_panics() {
        let mut m = sys(1);
        let _ = m.obl_lookup(0, 0, CacheLevel::Dram, 0);
    }

    #[test]
    fn obl_lookup_blocks_subsequent_accesses() {
        let mut m = sys(1);
        let warm = m.load(0, 0x40, 0);
        let t = warm.complete_at + 10;
        let _ = m.obl_lookup(0, 0x5555c0, CacheLevel::L1, t).unwrap();
        // A normal L1 access right behind the Obl-Ld waits for all banks.
        let after = m.load(0, 0x40, t);
        assert!(after.complete_at > t + m.config().l1.latency, "bank blocking delays the follower");
    }

    #[test]
    fn validation_detects_remote_modification() {
        let mut m = sys(2);
        m.backing_mut().write_word(0xB000, 10);
        let r0 = m.load(0, 0xB000, 0);
        let look = m.obl_lookup(0, 0xB000, CacheLevel::L1, r0.complete_at).unwrap();
        assert_eq!(look.value, Some(10));
        // Core 1 races a store to the same word.
        m.store(1, 0xB000, 11, 8, r0.complete_at + 1);
        let (_res, ok) = m.validate(0, 0xB000, look.value.unwrap(), r0.complete_at + 100);
        assert!(!ok, "validation must catch the changed value");
        assert_eq!(m.stats().validation_mismatches, 1);
    }

    #[test]
    fn validation_matches_when_quiet() {
        let mut m = sys(1);
        m.backing_mut().write_word(0xC000, 3);
        let look = m.obl_lookup(0, 0xC000, CacheLevel::L3, 0);
        // Cold line: lookup misses everywhere; validate performs the load.
        assert!(!look.unwrap().success());
        let (res, ok) = m.validate(0, 0xC000, 3, 100);
        assert!(ok);
        assert_eq!(res.value, 3);
        assert_eq!(m.residency(0, 0xC000), CacheLevel::L1, "validation fills L1");
    }

    #[test]
    fn expose_fills_without_result() {
        let mut m = sys(1);
        m.expose(0, 0xD000, 0);
        assert_eq!(m.stats().exposures, 1);
        assert_eq!(m.residency(0, 0xD000), CacheLevel::L1);
    }

    #[test]
    fn l3_eviction_back_invalidates_private_caches() {
        // Two cores: core 0 keeps one line hot in its private caches while
        // core 1 floods the same L3 set until core 0's line is the L3
        // victim — the inclusive L3 must back-invalidate core 0.
        let mut m = sys(2);
        // tiny L3 slice: 8192/2 slices = 4096 bytes/slice, 4 ways, 16 sets.
        let mesh = Mesh::new(2, 1, 1);
        let sets = 4096 / (4 * 64); // 16 sets per slice
        let mut same: Vec<u64> = Vec::new();
        let mut cand = 0u64;
        while same.len() < 6 {
            let line = cand * 64;
            if mesh.slice_of(line) == 0 && (line / 64).is_multiple_of(sets as u64) {
                same.push(line);
            }
            cand += 1;
        }
        let victim_line = same[0];
        let r = m.load(0, victim_line, 0);
        let mut t = r.complete_at;
        assert_eq!(m.residency(0, victim_line), CacheLevel::L1);
        for &a in &same[1..] {
            let r = m.load(1, a, t);
            t = r.complete_at;
        }
        let invals = m.take_invalidations(0);
        assert!(invals.contains(&victim_line), "inclusive L3 back-invalidates");
        assert_eq!(m.residency(0, victim_line), CacheLevel::Dram);
    }

    #[test]
    fn store_miss_acquires_ownership() {
        let mut m = sys(2);
        m.store(0, 0xF000, 1, 8, 0);
        // Core 1 store-misses the same line: RFO invalidates core 0.
        m.store(1, 0xF000, 2, 8, 1000);
        assert_eq!(m.take_invalidations(0), vec![line_of(0xF000)]);
        assert_eq!(m.peek_word(0xF000), 2);
    }

    #[test]
    fn tlb_walk_charged_once() {
        let mut m = sys(1);
        let a = m.load(0, 0x100000, 0);
        let b = m.load(0, 0x100040, a.complete_at);
        // Same page: b pays no walk.
        assert_eq!(m.stats().tlb_misses, 1);
        assert_eq!(m.stats().tlb_hits, 1);
        assert!(a.latency() > b.latency());
    }

    #[test]
    fn peek_and_image_loading() {
        let mut m = sys(1);
        let mut img = DataImage::new();
        img.set_word(0x20, 1234);
        m.load_image(&img);
        assert_eq!(m.peek_word(0x20), 1234);
    }

    #[test]
    #[should_panic(expected = "tiles")]
    fn too_many_cores_panics() {
        let _ = MemorySystem::new(MemConfig::tiny(), 3); // tiny mesh is 2x1
    }

    #[test]
    fn ifetch_misses_then_hits() {
        let mut m = sys(1);
        let text = 1 << 40;
        let t1 = m.ifetch(0, text, 0);
        assert!(t1 > 0, "cold instruction line takes time");
        assert_eq!(m.stats().icache_misses, 1);
        let t2 = m.ifetch(0, text + 32, t1);
        assert_eq!(t2, t1, "same line: L1I hit is free");
        assert_eq!(m.stats().icache_hits, 1);
        // A different line in the same region misses again.
        let t3 = m.ifetch(0, text + 64, t2);
        assert!(t3 > t2);
    }

    #[test]
    fn ifetch_does_not_pollute_the_data_l1() {
        let mut m = sys(1);
        let text = 1 << 40;
        let _ = m.ifetch(0, text, 0);
        assert_eq!(m.residency(0, text), CacheLevel::L2, "line fills L1I + L2, not L1D");
    }

    #[test]
    fn three_core_sharing_and_ownership_migration() {
        // Exercise the directory through a full ownership life cycle:
        // write(0) -> read(1) -> read(2) -> write(2) -> read(0).
        // tiny mesh has 2 tiles; widen it for 3 cores (4 tiles keeps
        // the per-slice set count a power of two).
        let mut cfg = MemConfig::tiny();
        cfg.mesh_cols = 4;
        let mut m = MemorySystem::new(cfg, 3);
        let a = 0x7000u64;
        m.store(0, a, 10, 8, 0); // core 0 owns M
        let r1 = m.load(1, a, 100); // downgrade to shared
        assert_eq!(r1.value, 10);
        assert_eq!(r1.served_by, ServedBy::Remote);
        let r2 = m.load(2, a, 300); // plain L3 share now
        assert_eq!(r2.value, 10);
        assert_eq!(r2.served_by, ServedBy::L3);
        m.store(2, a, 20, 8, 500); // core 2 takes ownership
        // Cores 0 and 1 must both have been invalidated and notified.
        assert_eq!(m.take_invalidations(0), vec![line_of(a)]);
        assert_eq!(m.take_invalidations(1), vec![line_of(a)]);
        assert!(m.take_invalidations(2).is_empty());
        let r0 = m.load(0, a, 900);
        assert_eq!(r0.value, 20);
        assert_eq!(r0.served_by, ServedBy::Remote, "dirty in core 2");
    }

    #[test]
    fn exclusive_reader_upgrades_silently() {
        // A sole reader holds E; its own store needs no invalidations.
        let mut m = sys(2);
        let a = 0x7100u64;
        let r = m.load(0, a, 0);
        let _ = r;
        let before = m.stats().invalidations_sent;
        m.store(0, a, 5, 8, 200);
        assert_eq!(m.stats().invalidations_sent, before, "E -> M upgrade is silent");
        assert!(m.take_invalidations(1).is_empty());
    }

    #[test]
    fn writeback_on_private_eviction_keeps_l3_dirty_copy() {
        // Fill core 0's tiny L1+L2 set until its dirty line is evicted to
        // the L3; a second core must then see the data via the L3, not
        // a remote fetch.
        let mut m = sys(2);
        let mesh = Mesh::new(2, 1, 1);
        // Dirty line in core 0.
        let victim = (0..)
            .map(|i| i * 64u64)
            .find(|&a| mesh.slice_of(a) == 0)
            .unwrap();
        m.store(0, victim, 99, 8, 0);
        // Flood core 0's private caches with conflicting clean lines:
        // same L2 set as the victim (stride = L2 sets × line), but hashed
        // to the *other* L3 slice so the victim's inclusive L3 copy
        // survives.
        let l2_sets = 2048 / (2 * 64);
        let mut t = 100;
        let mut placed = 0;
        let mut cand = 1u64;
        while placed < 4 {
            let a = victim + cand * l2_sets as u64 * 64;
            cand += 1;
            if mesh.slice_of(a) == mesh.slice_of(victim) {
                continue;
            }
            let r = m.load(0, a, t);
            t = r.complete_at;
            placed += 1;
        }
        assert_eq!(m.residency(0, victim), CacheLevel::L3, "dirty line written back to L3");
        let r = m.load(1, victim, t + 100);
        assert_eq!(r.value, 99);
        assert_eq!(r.served_by, ServedBy::L3, "served from the L3 writeback copy");
    }

    #[test]
    fn prewarm_installs_requested_levels() {
        let mut m = sys(1);
        m.prewarm(0, 0x8000, 256, CacheLevel::L3);
        assert_eq!(m.residency(0, 0x8000), CacheLevel::L3);
        assert_eq!(m.residency(0, 0x80C0), CacheLevel::L3);
        m.prewarm(0, 0x9000, 128, CacheLevel::L1);
        assert_eq!(m.residency(0, 0x9000), CacheLevel::L1);
        m.prewarm(0, 0xA000, 128, CacheLevel::L2);
        assert_eq!(m.residency(0, 0xA000), CacheLevel::L2);
        // TLB pages are warmed too: an obl probe of a prewarmed page
        // translates.
        let look = m.obl_lookup(0, 0x8000, CacheLevel::L3, 1000).unwrap();
        assert!(look.tlb_hit);
        assert!(look.success());
    }
}
