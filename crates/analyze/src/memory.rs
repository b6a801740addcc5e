//! Region-partitioned abstract memory for the binary scanner.
//!
//! PR 5's taint fixpoint modelled memory as **one cell**: every store
//! joined into it, every load joined it back out. Sound, but on a
//! compiled program — where every function spills `ra` to the stack —
//! one tainted store taints every subsequent load and the scanner
//! drowns in false positives. This module refines the abstraction into
//! four disjoint regions, selected by a small abstract-value domain
//! tracked per register:
//!
//! * **stack cells** — addresses of the shape `sp₀ + k` where `sp₀` is
//!   the (symbolic) stack pointer at program entry. Each distinct
//!   offset `k` is its own cell, so a spilled `ra` reload does not pick
//!   up taint stored through an unrelated slot;
//! * **global cells** — exactly-known constant addresses (the result
//!   word, `li`-materialized buffers). Each constant address is its own
//!   cell, bounded by [`CELL_CAP`]; past the cap the map *saturates*
//!   and constant-address traffic degrades to the unknown summary;
//! * **the unknown summary** — one coarse cell for every access whose
//!   address the value domain cannot pin (computed array indexing,
//!   pointer chasing). This is the old one-cell abstraction, scoped to
//!   only the traffic that needs it;
//! * **the `jalr` translation table** — loads whose immediate offset is
//!   at or above [`sdo_rv32::TABLE_BASE`] read the static µop-index
//!   table materialized by lowering. They are a translation artifact,
//!   not a program memory access: their result carries only the
//!   address operand's taint and they are never speculative-access
//!   roots.
//!
//! **Refinement invariant** (property-tested over fuzzed litmus
//! programs, ≥25 seeds): every region receives a subset of the stores
//! the one cell receives, and every load joins a subset of the regions,
//! so the refined taint at every program point is ⊆ the one-cell taint.
//! The scanner can therefore only *remove* false positives relative to
//! PR 5, never miss something the old lattice caught.
//!
//! **Known gaps** (documented in DESIGN.md §15): weak updates only (a
//! clean store does not untaint a cell); an unknown-address store does
//! not invalidate named cells (no-alias assumption between unpinned
//! pointers and pinned slots — an *under*-taint relative to the
//! concrete machine, inherited by design from the refinement direction
//! and cross-checked by the dynamic differential); `sp`-relative
//! arithmetic is folded through `add`/`sub` only, and 32-bit `addw`
//! wrap-around of stack addresses is assumed not to occur.

use crate::taint::{BitSet, Taint};
use sdo_isa::AluOp;
use std::collections::BTreeMap;

/// Named-constant-cell budget: past this many distinct constant
/// addresses the map saturates and further constant traffic joins the
/// unknown summary (and constant loads start reading it back).
pub const CELL_CAP: usize = 256;

/// Abstract value of one integer register — just enough arithmetic to
/// classify effective addresses into regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Val {
    /// Unreached (lattice bottom).
    #[default]
    Bot,
    /// Exactly this constant, folded with [`AluOp::eval`] — bit-exact
    /// with the interpreter.
    Cst(i64),
    /// Entry stack pointer plus this byte offset.
    SpRel(i64),
    /// Anything (lattice top).
    Top,
}

impl Val {
    /// Least upper bound.
    #[must_use]
    pub fn join(self, other: Val) -> Val {
        match (self, other) {
            (Val::Bot, v) | (v, Val::Bot) => v,
            (a, b) if a == b => a,
            _ => Val::Top,
        }
    }

    /// The value shifted by a byte offset (effective-address helper).
    #[must_use]
    pub fn offset(self, off: i64) -> Val {
        match self {
            Val::Cst(c) => Val::Cst(c.wrapping_add(off)),
            Val::SpRel(k) => Val::SpRel(k.wrapping_add(off)),
            Val::Bot => Val::Bot,
            Val::Top => Val::Top,
        }
    }
}

/// Folds one ALU operation over abstract values. Constants fold
/// bit-exactly through [`AluOp::eval`]; `sp`-relative values survive
/// only `add`/`sub` against a constant (the shapes `addi sp, sp, -16`
/// and friends lower to); everything else is [`Val::Top`].
#[must_use]
pub fn fold_alu(op: AluOp, lhs: Val, rhs: Val) -> Val {
    match (lhs, rhs) {
        (Val::Bot, _) | (_, Val::Bot) => Val::Bot,
        (Val::Cst(a), Val::Cst(b)) => {
            let r = op.eval(a as u64, b as u64);
            Val::Cst(r as i64)
        }
        // `AddW` truncates to 32 bits; stack addresses are assumed to
        // stay in 32-bit range (the frontend's sext32 invariant), so
        // the fold treats it as exact for sp-relative values.
        (Val::SpRel(k), Val::Cst(c)) if matches!(op, AluOp::Add | AluOp::AddW) => {
            Val::SpRel(k.wrapping_add(c))
        }
        (Val::Cst(c), Val::SpRel(k)) if matches!(op, AluOp::Add | AluOp::AddW) => {
            Val::SpRel(k.wrapping_add(c))
        }
        (Val::SpRel(k), Val::Cst(c)) if matches!(op, AluOp::Sub | AluOp::SubW) => {
            Val::SpRel(k.wrapping_sub(c))
        }
        _ => Val::Top,
    }
}

/// Which memory abstraction the taint fixpoint runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemModel {
    /// PR 5's single coarse cell (the litmus checker's lattice, kept
    /// callable so the refinement property is machine-checkable).
    #[default]
    OneCell,
    /// The region-partitioned abstraction of this module.
    Regions,
}

/// The abstract memory of one [`crate::taint::AbsState`], under either
/// model. All maps hold only tainted entries (clean joins are no-ops
/// and resolved entries are dropped), so structural equality is
/// canonical and the fixpoint's change detection stays exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsMem {
    model: MemModel,
    /// The single cell (OneCell model only).
    one: Taint,
    /// `sp₀ + k` → taint of that stack slot.
    stack: BTreeMap<i64, Taint>,
    /// Constant address → taint of that global cell.
    cells: BTreeMap<u64, Taint>,
    /// Summary for all unpinned addresses.
    unknown: Taint,
    /// Whether `cells` hit [`CELL_CAP`]: constant traffic has merged
    /// into `unknown`, so constant loads must read it back.
    saturated: bool,
}

impl AbsMem {
    /// The model this memory runs under.
    #[must_use]
    pub fn model(&self) -> MemModel {
        self.model
    }

    /// The empty memory under `model`.
    #[must_use]
    pub fn bottom(model: MemModel) -> AbsMem {
        AbsMem {
            model,
            one: Taint::default(),
            stack: BTreeMap::new(),
            cells: BTreeMap::new(),
            unknown: Taint::default(),
            saturated: false,
        }
    }

    /// Pointwise join (both states must share a model); returns
    /// whether `self` changed. When the union of the named cells
    /// overflows [`CELL_CAP`] the overflow folds into the summary, and
    /// the flag compares the folded result, saturation included, with
    /// the old value.
    pub fn join(&mut self, other: &AbsMem) -> bool {
        debug_assert_eq!(self.model, other.model);
        let saturated_before = self.saturated;
        let mut changed = self.one.join(&other.one);
        changed |= join_cells(&mut self.stack, &other.stack);
        changed |= self.unknown.join(&other.unknown);
        self.saturated |= other.saturated;
        let new_cells = other.cells.keys().filter(|a| !self.cells.contains_key(a)).count();
        if self.cells.len() + new_cells > CELL_CAP {
            let (cells_before, unknown_before) = (self.cells.clone(), self.unknown.clone());
            join_cells(&mut self.cells, &other.cells);
            self.enforce_cap();
            changed |= self.cells != cells_before || self.unknown != unknown_before;
        } else {
            changed |= join_cells(&mut self.cells, &other.cells);
        }
        changed | (self.saturated != saturated_before)
    }

    /// Removes the resolved branches from every region, dropping
    /// entries that become clean (canonical form). Returns whether
    /// anything changed.
    pub(crate) fn resolve(&mut self, resolved: &BitSet) -> bool {
        let mut changed = self.one.resolve(resolved);
        changed |= self.unknown.resolve(resolved);
        for t in self.stack.values_mut() {
            changed |= t.resolve(resolved);
        }
        for t in self.cells.values_mut() {
            changed |= t.resolve(resolved);
        }
        self.stack.retain(|_, t| t.is_tainted());
        self.cells.retain(|_, t| t.is_tainted());
        changed
    }

    /// Abstract store of `data` at `addr`.
    pub fn store(&mut self, addr: Val, data: &Taint) {
        if !data.is_tainted() {
            return; // weak updates: joining clean is a no-op.
        }
        match self.model {
            MemModel::OneCell => {
                self.one.join(data);
            }
            MemModel::Regions => {
                match addr {
                    Val::SpRel(k) => {
                        self.stack.entry(k).or_default().join(data);
                    }
                    Val::Cst(c) => {
                        let a = c as u64;
                        if self.cells.contains_key(&a)
                            || (!self.saturated && self.cells.len() < CELL_CAP)
                        {
                            self.cells.entry(a).or_default().join(data);
                        } else {
                            self.saturated = true;
                            self.unknown.join(data);
                        }
                    }
                    Val::Bot | Val::Top => {
                        self.unknown.join(data);
                    }
                }
                self.enforce_cap();
            }
        }
    }

    /// Taint an abstract load at `addr` picks up from memory (the
    /// address operand's own taint is the caller's concern).
    #[must_use]
    pub fn load(&self, addr: Val) -> Taint {
        match self.model {
            MemModel::OneCell => self.one.clone(),
            MemModel::Regions => match addr {
                Val::SpRel(k) => self.stack.get(&k).cloned().unwrap_or_default(),
                Val::Cst(c) => {
                    let mut t = self.cells.get(&(c as u64)).cloned().unwrap_or_default();
                    if self.saturated {
                        // Past the cap this address may have merged
                        // into the summary: read it back.
                        t.join(&self.unknown);
                    }
                    t
                }
                Val::Bot | Val::Top => {
                    // An unpinned address may alias anything: the
                    // summary plus every named cell. Still ⊆ the one
                    // cell, which holds the join of *all* stores.
                    let mut t = self.unknown.clone();
                    for cell in self.stack.values().chain(self.cells.values()) {
                        t.join(cell);
                    }
                    t
                }
            },
        }
    }

    fn enforce_cap(&mut self) {
        // Joins can push `cells` past the cap (union of two maps at the
        // cap); fold the overflow into the summary rather than growing
        // without bound.
        while self.cells.len() > CELL_CAP {
            if let Some((_, t)) = self.cells.pop_last() {
                self.unknown.join(&t);
                self.saturated = true;
            }
        }
    }
}

/// Joins every (tainted) entry of `theirs` into `ours`; returns
/// whether `ours` changed.
fn join_cells<K: Ord + Copy>(ours: &mut BTreeMap<K, Taint>, theirs: &BTreeMap<K, Taint>) -> bool {
    let mut changed = false;
    for (k, t) in theirs {
        if t.is_tainted() {
            changed |= ours.entry(*k).or_default().join(t);
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taint::tests::{random_set, taint_of, RefTaint};
    use crate::taint::Taint;
    use sdo_rng::SdoRng;
    use std::collections::BTreeSet;

    fn tainted(src: u64, branch: usize) -> Taint {
        taint_of([branch], [src])
    }

    #[test]
    fn val_join_and_offset() {
        assert_eq!(Val::Bot.join(Val::Cst(3)), Val::Cst(3));
        assert_eq!(Val::Cst(3).join(Val::Cst(3)), Val::Cst(3));
        assert_eq!(Val::Cst(3).join(Val::Cst(4)), Val::Top);
        assert_eq!(Val::SpRel(8).join(Val::SpRel(8)), Val::SpRel(8));
        assert_eq!(Val::SpRel(8).offset(-4), Val::SpRel(4));
        assert_eq!(Val::Cst(0x2000).offset(16), Val::Cst(0x2010));
    }

    #[test]
    fn fold_matches_interpreter_on_constants() {
        // Bit-exact with AluOp::eval, including the 32-bit W ops.
        let cases = [
            (AluOp::Add, 5i64, -3i64),
            (AluOp::AddW, i64::from(i32::MAX), 1),
            (AluOp::Sll, 1, 6),
            (AluOp::DivW, 7, 0),
        ];
        for (op, a, b) in cases {
            let folded = fold_alu(op, Val::Cst(a), Val::Cst(b));
            assert_eq!(folded, Val::Cst(op.eval(a as u64, b as u64) as i64), "{op:?}");
        }
    }

    #[test]
    fn sp_relative_survives_add_sub_only() {
        assert_eq!(fold_alu(AluOp::AddW, Val::SpRel(0), Val::Cst(-16)), Val::SpRel(-16));
        assert_eq!(fold_alu(AluOp::Add, Val::Cst(8), Val::SpRel(-16)), Val::SpRel(-8));
        assert_eq!(fold_alu(AluOp::Sub, Val::SpRel(0), Val::Cst(16)), Val::SpRel(-16));
        assert_eq!(fold_alu(AluOp::And, Val::SpRel(0), Val::Cst(-1)), Val::Top);
        assert_eq!(fold_alu(AluOp::Sub, Val::Cst(16), Val::SpRel(0)), Val::Top);
    }

    #[test]
    fn disjoint_stack_slots_do_not_alias() {
        let mut m = AbsMem::bottom(MemModel::Regions);
        m.store(Val::SpRel(-16), &tainted(1, 0));
        assert!(m.load(Val::SpRel(-16)).is_tainted());
        assert!(!m.load(Val::SpRel(-8)).is_tainted());
        assert!(!m.load(Val::Cst(0x2000)).is_tainted());
        // An unpinned load sees everything.
        assert!(m.load(Val::Top).is_tainted());
    }

    #[test]
    fn one_cell_merges_everything() {
        let mut m = AbsMem::bottom(MemModel::OneCell);
        m.store(Val::SpRel(-16), &tainted(1, 0));
        assert!(m.load(Val::Cst(0x9999)).is_tainted());
    }

    #[test]
    fn saturation_keeps_constant_loads_sound() {
        let mut m = AbsMem::bottom(MemModel::Regions);
        for i in 0..CELL_CAP {
            m.store(Val::Cst(8 * i as i64), &tainted(i as u64, 0));
        }
        // The cap is hit: this store merges into the summary...
        m.store(Val::Cst(0x77_7777), &tainted(999, 0));
        // ...and a load of that very address must still see it.
        assert!(m.load(Val::Cst(0x77_7777)).sources().any(|s| s == 999));
    }

    #[test]
    fn a_join_folded_back_by_the_cap_reports_no_change() {
        let mut m = AbsMem::bottom(MemModel::Regions);
        for i in 0..=CELL_CAP {
            m.store(Val::Cst(8 * i as i64), &tainted(1, 0));
        }
        assert!(m.saturated);
        // The other memory's one cell lies past every named cell: the
        // union overflows the cap and folds it into a summary that
        // already holds its taint.
        let mut other = AbsMem::bottom(MemModel::Regions);
        other.store(Val::Cst(0x10_0000), &tainted(1, 0));
        let before = m.clone();
        assert!(!m.join(&other));
        assert_eq!(m, before);
        assert!(other.join(&m), "the other direction does change");
    }

    #[test]
    fn a_join_that_only_saturates_reports_a_change() {
        // Exactly CELL_CAP named cells, so the memory is not saturated,
        // and the summary already holds the taint they carry.
        let mut m = AbsMem::bottom(MemModel::Regions);
        for i in 0..CELL_CAP {
            m.store(Val::Cst(8 * i as i64), &tainted(1, 0));
        }
        m.store(Val::Top, &tainted(1, 0));
        assert!(!m.saturated);
        // The other memory's one cell lies past every named cell: the
        // fold leaves the cells and the summary as they were, but the
        // memory is now saturated.
        let mut other = AbsMem::bottom(MemModel::Regions);
        other.store(Val::Cst(0x10_0000), &tainted(1, 0));
        let before = m.clone();
        assert!(m.join(&other));
        assert_ne!(m, before);
        assert!(m.saturated);
    }

    #[test]
    fn resolve_drops_clean_entries_canonically() {
        let mut a = AbsMem::bottom(MemModel::Regions);
        a.store(Val::SpRel(-8), &tainted(1, 3));
        let mut b = a.clone();
        b.resolve(&BitSet::from_iter([3]));
        assert_eq!(b, AbsMem::bottom(MemModel::Regions));
    }

    /// The `BTreeSet` abstract memory `AbsMem` replaced, over the
    /// reference taint: the model the property test below checks
    /// against.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct RefMem {
        model: MemModel,
        one: RefTaint,
        stack: BTreeMap<i64, RefTaint>,
        cells: BTreeMap<u64, RefTaint>,
        unknown: RefTaint,
        saturated: bool,
    }

    impl RefMem {
        fn bottom(model: MemModel) -> RefMem {
            RefMem {
                model,
                one: RefTaint::default(),
                stack: BTreeMap::new(),
                cells: BTreeMap::new(),
                unknown: RefTaint::default(),
                saturated: false,
            }
        }

        fn to_mem(&self) -> AbsMem {
            AbsMem {
                model: self.model,
                one: self.one.to_taint(),
                stack: self.stack.iter().map(|(&k, t)| (k, t.to_taint())).collect(),
                cells: self.cells.iter().map(|(&a, t)| (a, t.to_taint())).collect(),
                unknown: self.unknown.to_taint(),
                saturated: self.saturated,
            }
        }

        fn join(&mut self, other: &RefMem) {
            self.one.join(&other.one);
            for (k, t) in &other.stack {
                if t.is_tainted() {
                    self.stack.entry(*k).or_default().join(t);
                }
            }
            for (a, t) in &other.cells {
                if t.is_tainted() {
                    self.cells.entry(*a).or_default().join(t);
                }
            }
            self.unknown.join(&other.unknown);
            self.saturated |= other.saturated;
            self.enforce_cap();
        }

        fn resolve(&mut self, resolved: &BTreeSet<usize>) {
            self.one.resolve(resolved);
            self.unknown.resolve(resolved);
            for t in self.stack.values_mut().chain(self.cells.values_mut()) {
                t.resolve(resolved);
            }
            self.stack.retain(|_, t| t.is_tainted());
            self.cells.retain(|_, t| t.is_tainted());
        }

        fn store(&mut self, addr: Val, data: &RefTaint) {
            if !data.is_tainted() {
                return;
            }
            match self.model {
                MemModel::OneCell => self.one.join(data),
                MemModel::Regions => {
                    match addr {
                        Val::SpRel(k) => self.stack.entry(k).or_default().join(data),
                        Val::Cst(c) => {
                            let a = c as u64;
                            if self.cells.contains_key(&a)
                                || (!self.saturated && self.cells.len() < CELL_CAP)
                            {
                                self.cells.entry(a).or_default().join(data);
                            } else {
                                self.saturated = true;
                                self.unknown.join(data);
                            }
                        }
                        Val::Bot | Val::Top => self.unknown.join(data),
                    }
                    self.enforce_cap();
                }
            }
        }

        fn load(&self, addr: Val) -> RefTaint {
            match self.model {
                MemModel::OneCell => self.one.clone(),
                MemModel::Regions => match addr {
                    Val::SpRel(k) => self.stack.get(&k).cloned().unwrap_or_default(),
                    Val::Cst(c) => {
                        let mut t = self.cells.get(&(c as u64)).cloned().unwrap_or_default();
                        if self.saturated {
                            t.join(&self.unknown);
                        }
                        t
                    }
                    Val::Bot | Val::Top => {
                        let mut t = self.unknown.clone();
                        for cell in self.stack.values().chain(self.cells.values()) {
                            t.join(cell);
                        }
                        t
                    }
                },
            }
        }

        fn enforce_cap(&mut self) {
            while self.cells.len() > CELL_CAP {
                if let Some((_, t)) = self.cells.pop_last() {
                    self.unknown.join(&t);
                    self.saturated = true;
                }
            }
        }
    }

    /// A random address: a few stack slots, constant cells on two
    /// overlapping 300-word ranges (enough to overflow [`CELL_CAP`]),
    /// or unpinned.
    fn random_addr(rng: &mut SdoRng) -> Val {
        match rng.bounded(6) {
            0 => Val::SpRel(-8 * rng.bounded(6) as i64),
            1 => Val::Top,
            2 => Val::Bot,
            _ => Val::Cst(0x8000 + 8 * rng.bounded(450) as i64),
        }
    }

    /// Random sequences of stores (single and bulk, to push the named
    /// cells up to and past [`CELL_CAP`]), loads, joins, resolutions and copies
    /// over a pool of memories under both models, checked against the
    /// reference: every region's value, every load's result, and every
    /// changed flag true exactly when the value changed.
    #[test]
    fn abstract_memory_matches_the_btreemap_reference() {
        let mut rng = SdoRng::seed_from_u64(0xce11);
        let (mut saturated_joins, mut saturate_only_joins) = (0, 0);
        for seq in 0..1000 {
            let model = if seq % 2 == 0 { MemModel::Regions } else { MemModel::OneCell };
            let mut refs = vec![RefMem::bottom(model); 3];
            let mut pool: Vec<AbsMem> = refs.iter().map(RefMem::to_mem).collect();
            for step in 0..24 {
                let i = rng.bounded(3) as usize;
                let j = rng.bounded(3) as usize;
                let before = refs[i].clone();
                let (what, changed) = match rng.bounded(8) {
                    0 | 1 => {
                        let (addr, data) = (random_addr(&mut rng), RefTaint::random(&mut rng));
                        refs[i].store(addr, &data);
                        pool[i].store(addr, &data.to_taint());
                        ("store", None)
                    }
                    2 if seq % 8 == 0 => {
                        let base = 0x8000 + 8 * rng.bounded(150) as i64;
                        let data = RefTaint {
                            branches: BTreeSet::from([rng.bounded(300) as usize]),
                            sources: BTreeSet::from([rng.bounded(300)]),
                        };
                        let taint = data.to_taint();
                        // Half the time, fill the named cells exactly to
                        // the cap after storing the same taint to the
                        // summary: a later join that brings a cell past
                        // every named one then only saturates.
                        let fill = rng.bounded(2) == 0;
                        if fill {
                            refs[i].store(Val::Top, &data);
                            pool[i].store(Val::Top, &taint);
                        }
                        let count = 1 + rng.bounded(300) as i64;
                        for k in 0.. {
                            let full = refs[i].saturated || refs[i].cells.len() == CELL_CAP;
                            if (fill && full) || (!fill && k == count) {
                                break;
                            }
                            refs[i].store(Val::Cst(base + 8 * k), &data);
                            pool[i].store(Val::Cst(base + 8 * k), &taint);
                        }
                        ("bulk store", None)
                    }
                    3 => {
                        let addr = random_addr(&mut rng);
                        let got = RefTaint::of(&pool[i].load(addr));
                        assert_eq!(got, refs[i].load(addr), "sequence {seq} step {step}: load");
                        ("load", None)
                    }
                    4 => {
                        let (other, theirs) = (pool[j].clone(), refs[j].clone());
                        let keys: BTreeSet<u64> =
                            refs[i].cells.keys().chain(theirs.cells.keys()).copied().collect();
                        saturated_joins += usize::from(keys.len() > CELL_CAP);
                        refs[i].join(&theirs);
                        ("join", Some(pool[i].join(&other)))
                    }
                    6 => {
                        // A join with one constant cell carrying the
                        // summary's taint: past the named cells of a
                        // memory filled to the cap, it only saturates.
                        let data = if refs[i].unknown.is_tainted() {
                            refs[i].unknown.clone()
                        } else {
                            RefTaint::random(&mut rng)
                        };
                        let mut theirs = RefMem::bottom(model);
                        theirs.store(random_addr(&mut rng), &data);
                        let other = theirs.to_mem();
                        refs[i].join(&theirs);
                        ("join one cell", Some(pool[i].join(&other)))
                    }
                    5 => {
                        let resolved = random_set(&mut rng);
                        refs[i].resolve(&resolved);
                        let bits: BitSet = resolved.iter().copied().collect();
                        ("resolve", Some(pool[i].resolve(&bits)))
                    }
                    _ => {
                        refs[i] = refs[j].clone();
                        pool[i] = pool[j].clone();
                        ("copy", None)
                    }
                };
                let what = format!("sequence {seq} step {step}: {what}");
                if let Some(changed) = changed {
                    assert_eq!(changed, refs[i] != before, "{what}: changed flag");
                    saturate_only_joins += usize::from(
                        !before.saturated
                            && refs[i].saturated
                            && refs[i].cells == before.cells
                            && refs[i].unknown == before.unknown,
                    );
                }
                assert_eq!(pool[i], refs[i].to_mem(), "{what}");
            }
            // Copies share taint values: no step may have changed a
            // memory it did not target.
            for (m, r) in pool.iter().zip(&refs) {
                assert_eq!(*m, r.to_mem(), "sequence {seq}: untargeted memory changed");
            }
        }
        assert!(saturated_joins > 0, "no join overflowed CELL_CAP");
        assert!(saturate_only_joins > 0, "no join changed only the saturation");
    }
}
