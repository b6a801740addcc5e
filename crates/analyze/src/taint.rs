//! Fixpoint abstract interpretation of the STT taint lattice.
//!
//! The abstract state tracks, per integer register, per FP register
//! and for one coarse memory cell, a [`Taint`] value: the set of
//! *pending branch blocks* the value's root accesses are speculative
//! under, plus the set of root access pcs (for reporting). The lattice
//! order is pointwise set inclusion; joins are unions; the state space
//! is finite, so the worklist iteration terminates at the least
//! fixpoint.
//!
//! Dynamics being abstracted (STT, paper §III):
//!
//! * a load executed while some conditional branch is unresolved is an
//!   *access instruction*: its output is tainted. Statically, "some
//!   branch unresolved" is "the pending set at the load's program
//!   point is non-empty" — a conditional branch is pending from its
//!   block until its immediate post-dominator, the static stand-in for
//!   the dynamic visibility point;
//! * taint propagates through every value-producing instruction
//!   (`AluOp`/`FpuOp` dataflow, loads, moves); stores taint the
//!   abstract memory cell, loads join it back in;
//! * when a branch resolves (control reaches its immediate
//!   post-dominator on every path), it is removed from every pending
//!   set; a value whose pending-branch set empties is untainted.
//!
//! Known unsoundness gaps, by design (documented in DESIGN.md §11):
//! the post-dominator approximation assumes a branch is resolved by
//! its reconvergence point (dynamically it may still be in flight);
//! indirect jumps are not treated as speculation sources; memory is
//! one cell, so aliasing is maximally coarse (an over-taint, but
//! store-to-load paths through *disjoint* addresses are still merged).
//!
//! Representation: a tainted value is a pointer to a shared, immutable
//! pair of dense bit sets, so copying a state copies pointers, and
//! every join and resolution returns an exact changed flag, allocating
//! only when a value actually grows or shrinks.

use crate::cfg::{BlockId, Cfg};
use crate::memory::{fold_alu, AbsMem, MemModel, Val};
use sdo_isa::{Instruction, Program, Reg, NUM_FREGS, NUM_REGS};
use sdo_workloads::Channel;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Load offsets at or above this are reads of the `jalr` translation
/// table the RV32 frontend materializes ([`sdo_rv32::TABLE_BASE`]):
/// a lowering artifact, not a program memory access.
const TABLE_OFFSET: i64 = sdo_rv32::TABLE_BASE as i64;

/// A set of small indices (block ids or instruction pcs) as dense
/// 64-bit words. No trailing word is zero, so derived equality is set
/// equality; iteration is ascending.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct BitSet(Vec<u64>);

impl BitSet {
    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn contains(&self, i: usize) -> bool {
        self.0.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Adds `i`; returns whether it was absent.
    fn insert(&mut self, i: usize) -> bool {
        let w = i / 64;
        if w >= self.0.len() {
            self.0.resize(w + 1, 0);
        }
        let bit = 1 << (i % 64);
        let fresh = self.0[w] & bit == 0;
        self.0[w] |= bit;
        fresh
    }

    /// Removes and returns the smallest element.
    fn pop_first(&mut self) -> Option<usize> {
        let (w, word) = self.0.iter_mut().enumerate().find(|(_, word)| **word != 0)?;
        let i = w * 64 + word.trailing_zeros() as usize;
        *word &= *word - 1;
        self.trim();
        Some(i)
    }

    fn is_superset(&self, other: &BitSet) -> bool {
        other.0.len() <= self.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| b & !a == 0)
    }

    fn intersects(&self, other: &BitSet) -> bool {
        self.0.iter().zip(&other.0).any(|(a, b)| a & b != 0)
    }

    /// `self ∪= other`; returns whether `self` grew.
    fn union_with(&mut self, other: &BitSet) -> bool {
        if self.is_superset(other) {
            return false;
        }
        if other.0.len() > self.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
        true
    }

    /// `self −= other`; returns whether `self` shrank.
    fn difference_with(&mut self, other: &BitSet) -> bool {
        if !self.intersects(other) {
            return false;
        }
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a &= !b;
        }
        self.trim();
        true
    }

    /// The elements, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }

    fn trim(&mut self) {
        while self.0.last() == Some(&0) {
            self.0.pop();
        }
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> BitSet {
        let mut set = BitSet::default();
        for i in iter {
            set.insert(i);
        }
        set
    }
}

/// Abstract taint of one value: clean, or which pending branches its
/// root accesses are speculative under and which access pcs produced
/// it. A tainted value always has at least one branch; the pair of sets
/// is shared and immutable, so cloning a `Taint` copies a pointer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Taint(Option<Rc<TaintSets>>);

/// The two sets behind a tainted value.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TaintSets {
    /// Blocks whose terminating conditional branch the value is
    /// speculative under; never empty.
    branches: BitSet,
    /// Root access-instruction pcs the taint flows from.
    sources: BitSet,
}

impl TaintSets {
    fn is_superset(&self, other: &TaintSets) -> bool {
        self.branches.is_superset(&other.branches) && self.sources.is_superset(&other.sources)
    }
}

impl Taint {
    /// Whether the value is tainted at all.
    #[must_use]
    pub fn is_tainted(&self) -> bool {
        self.0.is_some()
    }

    /// Blocks whose terminating conditional branch the value is
    /// speculative under, ascending.
    pub fn branches(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.0.iter().flat_map(|s| s.branches.iter())
    }

    /// Root access-instruction pcs the taint flows from, ascending.
    pub fn sources(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.iter().flat_map(|s| s.sources.iter()).map(|pc| pc as u64)
    }

    /// Joins `other` in; returns whether the value grew.
    pub(crate) fn join(&mut self, other: &Taint) -> bool {
        let Some(theirs) = &other.0 else { return false };
        let Some(ours) = &mut self.0 else {
            self.0 = Some(Rc::clone(theirs));
            return true;
        };
        if Rc::ptr_eq(ours, theirs) || ours.is_superset(theirs) {
            return false;
        }
        if theirs.is_superset(ours) {
            *ours = Rc::clone(theirs);
            return true;
        }
        let sets = Rc::make_mut(ours);
        sets.branches.union_with(&theirs.branches);
        sets.sources.union_with(&theirs.sources);
        true
    }

    /// Removes the `resolved` branches; a value left with no branch is
    /// clean. Returns whether the value shrank.
    pub(crate) fn resolve(&mut self, resolved: &BitSet) -> bool {
        let Some(sets) = &mut self.0 else { return false };
        if !sets.branches.intersects(resolved) {
            return false;
        }
        if resolved.is_superset(&sets.branches) {
            self.0 = None;
        } else {
            Rc::make_mut(sets).branches.difference_with(resolved);
        }
        true
    }

    /// Adds the access at `pc` as a root speculative under `pending`
    /// (a root under no pending branch is not speculative and adds
    /// nothing). Returns whether the value grew.
    fn add_root(&mut self, pending: &BitSet, pc: u64) -> bool {
        if pending.is_empty() {
            return false;
        }
        let pc = pc as usize;
        match &mut self.0 {
            None => {
                let sources = BitSet::from_iter([pc]);
                self.0 = Some(Rc::new(TaintSets { branches: pending.clone(), sources }));
                true
            }
            Some(sets) => {
                if sets.branches.is_superset(pending) && sets.sources.contains(pc) {
                    return false;
                }
                let sets = Rc::make_mut(sets);
                sets.branches.union_with(pending);
                sets.sources.insert(pc);
                true
            }
        }
    }

    /// Adds the value's sources to `used`.
    fn mark_sources(&self, used: &mut BitSet) {
        if let Some(sets) = &self.0 {
            used.union_with(&sets.sources);
        }
    }
}

/// The abstract machine state at one program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsState {
    /// Conditional-branch blocks not yet resolved on some path here.
    pending: BitSet,
    regs: [Taint; NUM_REGS],
    fregs: [Taint; NUM_FREGS],
    mem: AbsMem,
    /// Abstract register values, for address classification. Tracked
    /// only under [`MemModel::Regions`]; stays all-bottom under
    /// `OneCell` so the old lattice's fixpoint is bit-identical.
    vals: [Val; NUM_REGS],
}

impl AbsState {
    fn bottom(model: MemModel) -> AbsState {
        let mut vals = [if model == MemModel::Regions { Val::Top } else { Val::Bot }; NUM_REGS];
        if model == MemModel::Regions {
            // x0 is hardwired zero; x2 is the RV32 stack pointer — its
            // entry value anchors the sp-relative region.
            vals[0] = Val::Cst(0);
            vals[2] = Val::SpRel(0);
        }
        AbsState {
            pending: BitSet::default(),
            regs: std::array::from_fn(|_| Taint::default()),
            fregs: std::array::from_fn(|_| Taint::default()),
            mem: AbsMem::bottom(model),
            vals,
        }
    }

    /// Joins `other` in; returns whether the state changed.
    fn join(&mut self, other: &AbsState) -> bool {
        let mut changed = self.pending.union_with(&other.pending);
        let regs = self.regs.iter_mut().zip(&other.regs);
        for (a, b) in regs.chain(self.fregs.iter_mut().zip(&other.fregs)) {
            changed |= a.join(b);
        }
        changed |= self.mem.join(&other.mem);
        for (a, &b) in self.vals.iter_mut().zip(&other.vals) {
            let joined = a.join(b);
            changed |= joined != *a;
            *a = joined;
        }
        changed
    }

    /// Resolves every pending branch whose immediate post-dominator is
    /// `block` — the static visibility point.
    fn resolve_at(&mut self, block: BlockId, cfg: &Cfg) {
        let resolved: BitSet =
            self.pending.iter().filter(|&p| cfg.ipdom(p) == Some(block)).collect();
        if !self.pending.difference_with(&resolved) {
            return;
        }
        for t in self.regs.iter_mut().chain(&mut self.fregs) {
            t.resolve(&resolved);
        }
        self.mem.resolve(&resolved);
    }

    fn reg(&self, r: Reg) -> &Taint {
        &self.regs[r.index()]
    }

    /// Abstract value of `r` (`x0` is always exactly zero).
    fn val(&self, r: Reg) -> Val {
        if r.is_zero() {
            Val::Cst(0)
        } else {
            self.vals[r.index()]
        }
    }

    fn set_val(&mut self, r: Reg, v: Val) {
        if !r.is_zero() {
            self.vals[r.index()] = v;
        }
    }
}

/// A statically detected transmitter: an instruction whose operand the
/// analysis proves *may* be tainted when it executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransmitSite {
    /// Instruction index.
    pub pc: u64,
    /// The covert channel the instruction transmits through.
    pub channel: Channel,
    /// Disassembly of the instruction.
    pub inst: String,
    /// Root access pcs whose taint reaches the operand.
    pub sources: Vec<u64>,
    /// Terminator pcs of the branches the taint is speculative under.
    pub branches: Vec<u64>,
}

/// A statically detected tainted-training site: a conditional branch
/// or indirect jump steered by a possibly tainted value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainingSite {
    /// Instruction index.
    pub pc: u64,
    /// Disassembly of the instruction.
    pub inst: String,
    /// Root access pcs whose taint reaches the operands.
    pub sources: Vec<u64>,
    /// Terminator pcs of the branches the taint is speculative under.
    pub branches: Vec<u64>,
}

/// A speculative access whose taint never reaches any transmitter,
/// branch or store — the taint dies in a register (`spectre_v1_dead`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadAccess {
    /// Instruction index of the access.
    pub pc: u64,
    /// Disassembly of the instruction.
    pub inst: String,
    /// Terminator pcs of the branches the access is speculative under.
    pub branches: Vec<u64>,
}

/// Everything the taint fixpoint derives from one program. Pure
/// function of the instruction stream (the data image plays no role),
/// so analyzing the same program twice is identical — and the two
/// secret-swapped builds of a litmus case analyze identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    /// Program name.
    pub program: String,
    /// Instruction count.
    pub insts: usize,
    /// Basic-block count.
    pub blocks: usize,
    /// CFG edge count (including edges to the virtual exit).
    pub edges: usize,
    /// Conditional-branch count.
    pub cond_branches: usize,
    /// Block transfer evaluations until the fixpoint stabilized.
    pub fixpoint_visits: usize,
    /// Accesses executed under a non-empty pending set (taint roots).
    pub speculative_accesses: usize,
    /// Transmitters with possibly tainted operands, in pc order.
    pub transmits: Vec<TransmitSite>,
    /// Control transfers steered by possibly tainted values, pc order.
    pub trainings: Vec<TrainingSite>,
    /// Speculative accesses whose taint reaches nothing, pc order.
    pub dead: Vec<DeadAccess>,
}

impl Analysis {
    /// Whether no transmitter (on any channel) was found.
    #[must_use]
    pub fn transmit_free(&self) -> bool {
        self.transmits.is_empty()
    }

    /// Transmit sites on one channel.
    #[must_use]
    pub fn transmits_via(&self, ch: Channel) -> usize {
        self.transmits.iter().filter(|t| t.channel == ch).count()
    }
}

/// What the reporting pass accumulates at each suspicious pc.
#[derive(Default)]
struct Sink {
    transmits: BTreeMap<u64, (Channel, Taint)>,
    trainings: BTreeMap<u64, Taint>,
    /// Speculative access roots: pc -> pending set seen there.
    roots: BTreeMap<u64, BitSet>,
    /// Access pcs whose taint reached a transmitter/branch/store.
    used: BitSet,
}

impl Sink {
    fn transmit(&mut self, pc: u64, channel: Channel, t: &Taint) {
        t.mark_sources(&mut self.used);
        let entry = self.transmits.entry(pc).or_insert_with(|| (channel, Taint::default()));
        entry.1.join(t);
    }

    fn training(&mut self, pc: u64, t: &Taint) {
        t.mark_sources(&mut self.used);
        self.trainings.entry(pc).or_default().join(t);
    }

    fn escape(&mut self, t: &Taint) {
        t.mark_sources(&mut self.used);
    }
}

/// Runs the taint fixpoint over `program` and classifies every
/// instruction, under PR 5's one-cell memory lattice and the
/// intraprocedural CFG — the litmus-checker configuration.
#[must_use]
pub fn analyze(program: &Program) -> Analysis {
    analyze_with(program, &Cfg::build(program), MemModel::OneCell)
}

/// Runs the taint fixpoint over `program` with an explicit CFG (the
/// binary scanner passes the interprocedural one built over the `jalr`
/// translation table) and memory model.
#[must_use]
pub fn analyze_with(program: &Program, cfg: &Cfg, model: MemModel) -> Analysis {
    let insts = program.instructions();
    let cond_branches = insts.iter().filter(|i| i.is_cond_branch()).count();

    let nb = cfg.blocks().len();
    let mut inputs: Vec<Option<AbsState>> = vec![None; nb];
    let mut visits = 0usize;

    if nb > 0 {
        inputs[cfg.block_of(0)] = Some(AbsState::bottom(model));
        let mut worklist = BitSet::default();
        worklist.insert(cfg.block_of(0));
        while let Some(b) = worklist.pop_first() {
            visits += 1;
            let Some(input) = inputs[b].clone() else { continue };
            let out = transfer_block(cfg, insts, b, input, None);
            for &s in &cfg.blocks()[b].succs {
                if s == cfg.exit() {
                    continue;
                }
                let changed = match &mut inputs[s] {
                    Some(existing) => existing.join(&out),
                    slot @ None => {
                        *slot = Some(out.clone());
                        true
                    }
                };
                if changed {
                    worklist.insert(s);
                }
            }
        }
    }

    // Reporting pass over the stable per-block input states, in block
    // order: deterministic by construction.
    let mut sink = Sink::default();
    for (b, input) in inputs.into_iter().enumerate() {
        if let Some(input) = input {
            transfer_block(cfg, insts, b, input, Some(&mut sink));
        }
    }

    let transmits = sink
        .transmits
        .iter()
        .map(|(&pc, (channel, t))| TransmitSite {
            pc,
            channel: *channel,
            inst: insts[pc as usize].to_string(),
            sources: t.sources().collect(),
            branches: branch_pcs(cfg, t.branches()),
        })
        .collect();
    let trainings = sink
        .trainings
        .iter()
        .map(|(&pc, t)| TrainingSite {
            pc,
            inst: insts[pc as usize].to_string(),
            sources: t.sources().collect(),
            branches: branch_pcs(cfg, t.branches()),
        })
        .collect();
    let dead = sink
        .roots
        .iter()
        .filter(|(&pc, _)| !sink.used.contains(pc as usize))
        .map(|(&pc, pending)| DeadAccess {
            pc,
            inst: insts[pc as usize].to_string(),
            branches: branch_pcs(cfg, pending.iter()),
        })
        .collect();

    Analysis {
        program: program.name().to_string(),
        insts: insts.len(),
        blocks: nb,
        edges: cfg.edge_count(),
        cond_branches,
        fixpoint_visits: visits,
        speculative_accesses: sink.roots.len(),
        transmits,
        trainings,
        dead,
    }
}

/// Terminator pcs of the given branch blocks.
fn branch_pcs(cfg: &Cfg, blocks: impl Iterator<Item = BlockId>) -> Vec<u64> {
    blocks.map(|b| cfg.blocks()[b].terminator_pc()).collect()
}

/// Applies block `b`'s instructions to `state` (after resolving
/// branches whose visibility point is `b`'s entry), optionally
/// reporting suspicious sites into `sink`. Returns the out-state
/// propagated to every successor.
fn transfer_block(
    cfg: &Cfg,
    insts: &[Instruction],
    b: BlockId,
    mut state: AbsState,
    mut sink: Option<&mut Sink>,
) -> AbsState {
    state.resolve_at(b, cfg);
    let block = &cfg.blocks()[b];
    for pc in block.start..block.end {
        let inst = &insts[pc as usize];
        transfer_inst(inst, pc, b, &mut state, sink.as_deref_mut());
    }
    state
}

fn transfer_inst(
    inst: &Instruction,
    pc: u64,
    block: BlockId,
    s: &mut AbsState,
    sink: Option<&mut Sink>,
) {
    // Join of the integer source taints (operand taint for most ops).
    let mut src_taint = Taint::default();
    for r in inst.int_srcs().into_iter().flatten() {
        src_taint.join(s.reg(r));
    }

    let track_vals = s.mem.model() == MemModel::Regions;
    match *inst {
        Instruction::Alu { op, dst, lhs, rhs } => {
            if track_vals {
                let v = fold_alu(op, s.val(lhs), s.val(rhs));
                s.set_val(dst, v);
            }
            set_reg(s, dst, src_taint);
        }
        Instruction::AluImm { op, dst, src, imm } => {
            if track_vals {
                let v = fold_alu(op, s.val(src), Val::Cst(imm));
                s.set_val(dst, v);
            }
            set_reg(s, dst, src_taint);
        }
        Instruction::Li { dst, imm } => {
            if track_vals {
                s.set_val(dst, Val::Cst(imm));
            }
            set_reg(s, dst, Taint::default());
        }
        Instruction::Load { dst, base, offset, .. } => {
            let t = load_result(s, base, offset, pc, block, Channel::Cache, sink);
            if track_vals {
                s.set_val(dst, Val::Top);
            }
            set_reg(s, dst, t);
        }
        Instruction::FLoad { dst, base, offset, .. } => {
            let t = load_result(s, base, offset, pc, block, Channel::Cache, sink);
            s.fregs[dst.index()] = t;
        }
        Instruction::Store { src, base, offset, .. } => {
            let data = s.reg(src).clone();
            store_effect(s, base, offset, &data, pc, sink);
        }
        Instruction::FStore { src, base, offset, .. } => {
            let data = s.fregs[src.index()].clone();
            store_effect(s, base, offset, &data, pc, sink);
        }
        Instruction::Branch { .. } => {
            if let Some(sink) = sink {
                if src_taint.is_tainted() {
                    sink.training(pc, &src_taint);
                }
            }
            // The branch itself becomes pending for both successors;
            // it resolves at its immediate post-dominator.
            s.pending.insert(block);
        }
        Instruction::Jal { dst, .. } => {
            if !dst.is_zero() {
                if track_vals {
                    s.set_val(dst, Val::Top);
                }
                set_reg(s, dst, Taint::default());
            }
        }
        Instruction::Jalr { dst, base, .. } => {
            // An indirect jump steered by a tainted target trains the
            // BTB with secret-dependent state.
            if let Some(sink) = sink {
                let t = s.reg(base).clone();
                if t.is_tainted() {
                    sink.training(pc, &t);
                }
            }
            if !dst.is_zero() {
                if track_vals {
                    s.set_val(dst, Val::Top);
                }
                set_reg(s, dst, Taint::default());
            }
        }
        Instruction::Fpu { op, dst, lhs, rhs } => {
            let mut t = s.fregs[lhs.index()].clone();
            if !matches!(op, sdo_isa::FpuOp::Sqrt) {
                t.join(&s.fregs[rhs.index()]);
            }
            if let Some(sink) = sink {
                if op.is_transmit() && t.is_tainted() {
                    sink.transmit(pc, Channel::FpTiming, &t);
                }
            }
            s.fregs[dst.index()] = t;
        }
        Instruction::FMvToInt { dst, src } => {
            let t = s.fregs[src.index()].clone();
            if track_vals {
                s.set_val(dst, Val::Top);
            }
            set_reg(s, dst, t);
        }
        Instruction::FMvFromInt { dst, src } => {
            s.fregs[dst.index()] = s.reg(src).clone();
        }
        Instruction::Nop | Instruction::Halt => {}
    }
}

fn set_reg(s: &mut AbsState, r: Reg, t: Taint) {
    if !r.is_zero() {
        s.regs[r.index()] = t;
    }
}

/// Taint of a load's result, with transmitter/root reporting: a load
/// with a tainted address transmits through the cache; a load under a
/// non-empty pending set is a new taint root. Loads of the `jalr`
/// translation table (offset at or above [`TABLE_OFFSET`]) read a
/// static lowering artifact: their result carries only the address
/// operand's taint and they are never roots.
fn load_result(
    s: &AbsState,
    base: Reg,
    offset: i64,
    pc: u64,
    _block: BlockId,
    channel: Channel,
    sink: Option<&mut Sink>,
) -> Taint {
    let base_t = s.reg(base).clone();
    let table = offset >= TABLE_OFFSET;
    let mut t = base_t.clone();
    if !table {
        t.join(&s.mem.load(s.val(base).offset(offset)));
    }
    let speculative = !table && !s.pending.is_empty();
    if speculative {
        t.add_root(&s.pending, pc);
    }
    if let Some(sink) = sink {
        if base_t.is_tainted() {
            // Even a table load with a tainted index is a real cache
            // transmitter: the accessed table line depends on the data.
            sink.transmit(pc, channel, &base_t);
            // The access itself reached an observable: whatever happens
            // to its *result*, it is not dead protection work.
            sink.used.insert(pc as usize);
        }
        if speculative {
            sink.roots.insert(pc, s.pending.clone());
        }
    }
    t
}

/// Abstract store: a tainted address transmits through the cache; the
/// region the effective address falls in joins the stored data's
/// taint; either way the involved access roots are "used", not dead.
fn store_effect(
    s: &mut AbsState,
    base: Reg,
    offset: i64,
    data: &Taint,
    pc: u64,
    sink: Option<&mut Sink>,
) {
    let addr_t = s.reg(base).clone();
    if let Some(sink) = sink {
        if addr_t.is_tainted() {
            sink.transmit(pc, Channel::Cache, &addr_t);
        }
        if data.is_tainted() {
            sink.escape(data);
        }
    }
    let addr = s.val(base).offset(offset);
    s.mem.store(addr, data);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sdo_isa::{Assembler, FReg, Reg};
    use sdo_rng::SdoRng;
    use std::collections::BTreeSet;

    /// A value with the given sets (clean when `branches` is empty).
    pub(crate) fn taint_of(
        branches: impl IntoIterator<Item = BlockId>,
        sources: impl IntoIterator<Item = u64>,
    ) -> Taint {
        let branches: BitSet = branches.into_iter().collect();
        let sources = sources.into_iter().map(|pc| pc as usize).collect();
        Taint((!branches.is_empty()).then(|| Rc::new(TaintSets { branches, sources })))
    }

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    /// Mispredict window: slow bound, branch, speculative load feeding
    /// a second (transmitting) load.
    fn spectre_shape(transmit: bool) -> sdo_isa::Program {
        let mut asm = Assembler::new();
        let skip = asm.label();
        asm.li(r(1), 0x4000);
        asm.divu(r(8), r(6), r(7));
        asm.blt(r(3), r(8), skip);
        asm.j(skip); // never: keep shape simple
        asm.bind(skip);
        asm.halt();
        let _ = transmit;
        asm.finish().unwrap()
    }

    #[test]
    fn load_under_branch_is_tainted_and_transmits_through_dependent_load() {
        let mut asm = Assembler::new();
        let out = asm.label();
        asm.li(r(1), 0x4000);
        asm.blt(r(3), r(8), out);
        asm.ldb(r(4), r(1), 0); // speculative access
        asm.slli(r(5), r(4), 6);
        asm.ld(Reg::ZERO, r(5), 0); // tainted address: cache transmit
        asm.bind(out);
        asm.halt();
        let a = analyze(&asm.finish().unwrap());
        assert_eq!(a.transmits.len(), 1);
        assert_eq!(a.transmits[0].channel, Channel::Cache);
        assert_eq!(a.transmits[0].pc, 4);
        assert_eq!(a.transmits[0].sources, vec![2]);
        assert!(a.dead.is_empty());
        // Both loads execute under the unresolved branch: the access at
        // pc 2 and the transmitting probe load itself.
        assert_eq!(a.speculative_accesses, 2);
    }

    #[test]
    fn dead_speculative_access_is_flagged() {
        let mut asm = Assembler::new();
        let out = asm.label();
        asm.li(r(1), 0x4000);
        asm.blt(r(3), r(8), out);
        asm.ldb(r(4), r(1), 0); // speculative, then dead
        asm.bind(out);
        asm.halt();
        let a = analyze(&asm.finish().unwrap());
        assert!(a.transmits.is_empty());
        assert_eq!(a.dead.len(), 1);
        assert_eq!(a.dead[0].pc, 2);
        assert_eq!(a.dead[0].branches, vec![1]);
    }

    #[test]
    fn taint_clears_at_the_postdominator() {
        // The load after the join is not speculative under the branch
        // and its result feeds a load address without a finding.
        let mut asm = Assembler::new();
        let join = asm.label();
        asm.li(r(1), 0x4000);
        asm.blt(r(3), r(8), join);
        asm.bind(join);
        asm.ld(r(4), r(1), 0); // at the visibility point: clean
        asm.ld(r(5), r(4), 0); // address from a clean value
        asm.halt();
        let a = analyze(&asm.finish().unwrap());
        assert!(a.transmits.is_empty(), "{:?}", a.transmits);
        assert_eq!(a.speculative_accesses, 0);
    }

    #[test]
    fn fp_transmit_with_tainted_operand_is_flagged() {
        let f = FReg::new;
        let mut asm = Assembler::new();
        let out = asm.label();
        asm.li(r(1), 0x4000);
        asm.blt(r(3), r(8), out);
        asm.ldb(r(4), r(1), 0);
        asm.fmv_from_int(f(3), r(4));
        asm.fmul(f(4), f(3), f(1)); // tainted FP transmit
        asm.fadd(f(5), f(3), f(1)); // non-transmit FP op: no finding
        asm.bind(out);
        asm.halt();
        let a = analyze(&asm.finish().unwrap());
        assert_eq!(a.transmits.len(), 1);
        assert_eq!(a.transmits[0].channel, Channel::FpTiming);
        assert_eq!(a.transmits[0].pc, 4);
    }

    #[test]
    fn branch_on_tainted_value_is_training() {
        let mut asm = Assembler::new();
        let out = asm.label();
        let out2 = asm.label();
        asm.li(r(1), 0x4000);
        asm.blt(r(3), r(8), out);
        asm.ldb(r(4), r(1), 0);
        asm.bne(r(4), Reg::ZERO, out2); // steered by tainted value
        asm.bind(out);
        asm.bind(out2);
        asm.halt();
        let a = analyze(&asm.finish().unwrap());
        assert_eq!(a.trainings.len(), 1);
        assert_eq!(a.trainings[0].pc, 3);
        assert!(a.dead.is_empty(), "taint reaching a branch is used, not dead");
    }

    #[test]
    fn store_data_taint_flows_through_memory() {
        let mut asm = Assembler::new();
        let out = asm.label();
        asm.li(r(1), 0x4000);
        asm.li(r(2), 0x5000);
        asm.blt(r(3), r(8), out);
        asm.ldb(r(4), r(1), 0); // tainted
        asm.st(r(4), r(2), 0); // escapes to memory (clean address)
        asm.ld(r(5), r(2), 0); // rereads tainted cell
        asm.ld(Reg::ZERO, r(5), 0); // transmit via reloaded taint
        asm.bind(out);
        asm.halt();
        let a = analyze(&asm.finish().unwrap());
        assert!(a.transmits.iter().any(|t| t.pc == 6 && t.channel == Channel::Cache));
        assert!(a.dead.is_empty());
    }

    #[test]
    fn straightline_loads_are_clean() {
        let mut asm = Assembler::new();
        asm.li(r(1), 0x4000);
        asm.ld(r(2), r(1), 0);
        asm.ld(r(3), r(2), 0); // dependent load, but never speculative
        asm.halt();
        let a = analyze(&asm.finish().unwrap());
        assert!(a.transmit_free());
        assert!(a.trainings.is_empty());
        assert!(a.dead.is_empty());
        assert_eq!(a.speculative_accesses, 0);
    }

    #[test]
    fn analysis_is_deterministic() {
        let p = spectre_shape(true);
        assert_eq!(analyze(&p), analyze(&p));
    }

    /// The `BTreeSet` taint lattice the shared bit sets replaced: the
    /// reference model of the property tests here and in `memory.rs`.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub(crate) struct RefTaint {
        pub(crate) branches: BTreeSet<BlockId>,
        pub(crate) sources: BTreeSet<u64>,
    }

    impl RefTaint {
        pub(crate) fn of(t: &Taint) -> RefTaint {
            RefTaint { branches: t.branches().collect(), sources: t.sources().collect() }
        }

        pub(crate) fn to_taint(&self) -> Taint {
            taint_of(self.branches.iter().copied(), self.sources.iter().copied())
        }

        pub(crate) fn is_tainted(&self) -> bool {
            !self.branches.is_empty()
        }

        pub(crate) fn join(&mut self, other: &RefTaint) {
            self.branches.extend(other.branches.iter().copied());
            self.sources.extend(other.sources.iter().copied());
        }

        pub(crate) fn resolve(&mut self, resolved: &BTreeSet<BlockId>) {
            for b in resolved {
                self.branches.remove(b);
                if self.branches.is_empty() {
                    self.sources.clear();
                }
            }
        }

        fn add_root(&mut self, pending: &BTreeSet<BlockId>, pc: u64) {
            if !pending.is_empty() {
                self.branches.extend(pending.iter().copied());
                self.sources.insert(pc);
            }
        }

        /// A random value whose sets reach past 64 and 128 elements.
        pub(crate) fn random(rng: &mut SdoRng) -> RefTaint {
            let branches = random_set(rng);
            if branches.is_empty() {
                return RefTaint::default();
            }
            let sources = random_set(rng).into_iter().map(|pc| pc as u64).collect();
            RefTaint { branches, sources }
        }
    }

    /// A random index set: small or sparse sets in a few words, or up
    /// to 200 elements below 300, so sets cross 64 and 128 elements.
    pub(crate) fn random_set(rng: &mut SdoRng) -> BTreeSet<usize> {
        let (universe, max_len) = match rng.bounded(4) {
            0 => (8, 4),
            1 => (70, 20),
            2 => (300, 12),
            _ => (300, 200),
        };
        let len = rng.bounded(max_len + 1);
        (0..len).map(|_| rng.bounded(universe) as usize).collect()
    }

    fn bits(set: &BTreeSet<usize>) -> BitSet {
        set.iter().copied().collect()
    }

    #[test]
    fn bit_set_matches_btreeset() {
        let mut rng = SdoRng::seed_from_u64(0xb175);
        for _ in 0..1000 {
            let mut set = random_set(&mut rng);
            let mut b = bits(&set);
            for _ in 0..8 {
                let other = random_set(&mut rng);
                let ob = bits(&other);
                assert_eq!(b.is_superset(&ob), set.is_superset(&other));
                match rng.bounded(4) {
                    0 => {
                        let grew = !set.is_superset(&other);
                        set.extend(other.iter().copied());
                        assert_eq!(b.union_with(&ob), grew);
                    }
                    1 => {
                        let shrank = !set.is_disjoint(&other);
                        set.retain(|x| !other.contains(x));
                        assert_eq!(b.difference_with(&ob), shrank);
                    }
                    2 => assert_eq!(b.pop_first(), set.pop_first()),
                    _ => {
                        let i = rng.bounded(300) as usize;
                        assert_eq!(b.insert(i), set.insert(i));
                    }
                }
                assert_eq!(b.iter().collect::<Vec<_>>(), set.iter().copied().collect::<Vec<_>>());
                assert_eq!(b, bits(&set), "canonical form: no trailing zero words");
                assert_eq!(b.is_empty(), set.is_empty());
                let probe = rng.bounded(320) as usize;
                assert_eq!(b.contains(probe), set.contains(&probe));
            }
        }
    }

    fn assert_matches(t: &Taint, r: &RefTaint, what: &str) {
        assert_eq!(t.branches().collect::<Vec<_>>(), r.branches.iter().copied().collect::<Vec<_>>());
        assert_eq!(t.sources().collect::<Vec<_>>(), r.sources.iter().copied().collect::<Vec<_>>());
        assert_eq!(t.is_tainted(), r.is_tainted(), "{what}");
        assert_eq!(*t, r.to_taint(), "{what}: canonical form");
    }

    /// Random sequences of joins, resolutions, root additions and
    /// shared copies over a pool of values, each step checked against
    /// the reference: values, ascending iteration, canonical equality,
    /// and every changed flag true exactly when the value changed.
    #[test]
    fn taint_lattice_matches_the_btreeset_reference() {
        let mut rng = SdoRng::seed_from_u64(0x7a17);
        for seq in 0..1000 {
            let mut refs: Vec<RefTaint> = (0..4).map(|_| RefTaint::random(&mut rng)).collect();
            let mut pool: Vec<Taint> = refs.iter().map(RefTaint::to_taint).collect();
            for step in 0..16 {
                let i = rng.bounded(4) as usize;
                let j = rng.bounded(4) as usize;
                let before = refs[i].clone();
                let (what, changed) = match rng.bounded(5) {
                    0 => {
                        let other = pool[j].clone();
                        let theirs = refs[j].clone();
                        refs[i].join(&theirs);
                        ("join", Some(pool[i].join(&other)))
                    }
                    1 => {
                        let resolved = random_set(&mut rng);
                        refs[i].resolve(&resolved);
                        ("resolve", Some(pool[i].resolve(&bits(&resolved))))
                    }
                    2 => {
                        let pending = random_set(&mut rng);
                        let pc = rng.bounded(300);
                        refs[i].add_root(&pending, pc);
                        ("add_root", Some(pool[i].add_root(&bits(&pending), pc)))
                    }
                    3 => {
                        refs[i] = refs[j].clone();
                        pool[i] = pool[j].clone();
                        ("share", None)
                    }
                    _ => {
                        refs[i] = RefTaint::random(&mut rng);
                        pool[i] = refs[i].to_taint();
                        ("fresh", None)
                    }
                };
                let what = format!("sequence {seq} step {step}: {what}");
                if let Some(changed) = changed {
                    assert_eq!(changed, refs[i] != before, "{what}: changed flag");
                }
                for (t, r) in pool.iter().zip(&refs) {
                    assert_matches(t, r, &what);
                }
            }
        }
    }
}
