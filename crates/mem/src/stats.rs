//! Memory-system statistics counters.

use std::fmt;

use sdo_obs::MetricsSnapshot;

/// Counters accumulated by the memory system; read by the experiment
/// harness when attributing overhead (Figure 7) and by tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Instruction fetches served by the L1I.
    pub icache_hits: u64,
    /// Instruction fetches that missed the L1I.
    pub icache_misses: u64,
    /// Normal (non-oblivious) loads served by the L1.
    pub l1_hits: u64,
    /// Normal loads that missed the L1.
    pub l1_misses: u64,
    /// Normal loads served by the L2.
    pub l2_hits: u64,
    /// Normal loads that missed the L2.
    pub l2_misses: u64,
    /// Normal loads served by the L3.
    pub l3_hits: u64,
    /// Normal loads that missed the L3 (went to DRAM).
    pub l3_misses: u64,
    /// Loads served by a remote core's dirty copy.
    pub remote_hits: u64,
    /// DRAM row-buffer hits.
    pub dram_row_hits: u64,
    /// DRAM row-buffer misses.
    pub dram_row_misses: u64,
    /// Data-oblivious lookups issued.
    pub obl_lookups: u64,
    /// Per-level hit outcomes of oblivious lookups (L1, L2, L3).
    pub obl_level_hits: [u64; 3],
    /// Oblivious lookups that missed all probed levels.
    pub obl_all_miss: u64,
    /// Oblivious lookups rejected because an MSHR file was full.
    pub obl_mshr_rejects: u64,
    /// Validation accesses performed (InvisiSpec-style).
    pub validations: u64,
    /// Validations whose value mismatched (consistency squash trigger).
    pub validation_mismatches: u64,
    /// Exposure accesses performed.
    pub exposures: u64,
    /// Committed stores.
    pub stores: u64,
    /// Invalidation messages delivered to cores.
    pub invalidations_sent: u64,
    /// L1 TLB hits on the normal path.
    pub tlb_hits: u64,
    /// L1 TLB misses (page walks) on the normal path.
    pub tlb_misses: u64,
    /// Data-oblivious TLB probes that hit.
    pub tlb_probe_hits: u64,
    /// Data-oblivious TLB probes that missed (Obl-Ld proceeds with ⊥).
    pub tlb_probe_misses: u64,
}

impl MemStats {
    /// Total normal loads observed.
    #[must_use]
    pub fn loads(&self) -> u64 {
        self.l1_hits + self.l1_misses
    }

    /// L1 hit rate over normal loads, in `0.0..=1.0` (0 if no loads).
    #[must_use]
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.loads();
        if total == 0 {
            0.0
        } else {
            self.l1_hits as f64 / total as f64
        }
    }

    /// Registers every counter under `prefix` in `m` (hierarchical
    /// paths, e.g. `mem.l1.hits`). Destructures `self` so adding a
    /// field without exporting it is a compile error — the registry
    /// cannot drift from the struct.
    pub fn export_metrics(&self, m: &mut MetricsSnapshot, prefix: &str) {
        let MemStats {
            icache_hits,
            icache_misses,
            l1_hits,
            l1_misses,
            l2_hits,
            l2_misses,
            l3_hits,
            l3_misses,
            remote_hits,
            dram_row_hits,
            dram_row_misses,
            obl_lookups,
            obl_level_hits,
            obl_all_miss,
            obl_mshr_rejects,
            validations,
            validation_mismatches,
            exposures,
            stores,
            invalidations_sent,
            tlb_hits,
            tlb_misses,
            tlb_probe_hits,
            tlb_probe_misses,
        } = *self;
        let add = |m: &mut MetricsSnapshot, name: &str, v: u64| {
            m.add(&format!("{prefix}.{name}"), v);
        };
        add(m, "icache.hits", icache_hits);
        add(m, "icache.misses", icache_misses);
        add(m, "l1.hits", l1_hits);
        add(m, "l1.misses", l1_misses);
        add(m, "l2.hits", l2_hits);
        add(m, "l2.misses", l2_misses);
        add(m, "l3.hits", l3_hits);
        add(m, "l3.misses", l3_misses);
        add(m, "remote_hits", remote_hits);
        add(m, "dram.row_hits", dram_row_hits);
        add(m, "dram.row_misses", dram_row_misses);
        add(m, "obl.lookups", obl_lookups);
        add(m, "obl.l1_hits", obl_level_hits[0]);
        add(m, "obl.l2_hits", obl_level_hits[1]);
        add(m, "obl.l3_hits", obl_level_hits[2]);
        add(m, "obl.all_miss", obl_all_miss);
        add(m, "obl.mshr_rejects", obl_mshr_rejects);
        add(m, "validations", validations);
        add(m, "validation_mismatches", validation_mismatches);
        add(m, "exposures", exposures);
        add(m, "stores", stores);
        add(m, "invalidations_sent", invalidations_sent);
        add(m, "tlb.hits", tlb_hits);
        add(m, "tlb.misses", tlb_misses);
        add(m, "tlb.probe_hits", tlb_probe_hits);
        add(m, "tlb.probe_misses", tlb_probe_misses);
    }
}

impl fmt::Display for MemStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "loads: {} (L1 {:.1}% | L2 {} | L3 {} | DRAM {})",
            self.loads(),
            100.0 * self.l1_hit_rate(),
            self.l2_hits,
            self.l3_hits,
            self.l3_misses
        )?;
        writeln!(
            f,
            "obl: {} lookups (hits L1/L2/L3 {}/{}/{}, all-miss {}, rejects {})",
            self.obl_lookups,
            self.obl_level_hits[0],
            self.obl_level_hits[1],
            self.obl_level_hits[2],
            self.obl_all_miss,
            self.obl_mshr_rejects
        )?;
        write!(
            f,
            "validate/expose: {}/{} (mismatch {}), stores {}, invals {}",
            self.validations,
            self.exposures,
            self.validation_mismatches,
            self.stores,
            self.invalidations_sent
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero() {
        let s = MemStats::default();
        assert_eq!(s.l1_hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_computes() {
        let s = MemStats { l1_hits: 3, l1_misses: 1, ..Default::default() };
        assert_eq!(s.loads(), 4);
        assert!((s.l1_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!MemStats::default().to_string().is_empty());
    }

    #[test]
    fn export_covers_every_field() {
        let s = MemStats { l1_hits: 7, obl_level_hits: [1, 2, 3], ..Default::default() };
        let mut m = MetricsSnapshot::new();
        s.export_metrics(&mut m, "mem");
        // 24 scalar fields + obl_level_hits expanded to 3 paths.
        assert_eq!(m.len(), 26);
        assert_eq!(m.counter("mem.l1.hits"), Some(7));
        assert_eq!(m.counter("mem.obl.l3_hits"), Some(3));
        // Exporting twice accumulates.
        s.export_metrics(&mut m, "mem");
        assert_eq!(m.counter("mem.l1.hits"), Some(14));
    }
}
