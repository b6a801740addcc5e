//! Control-flow graph over a [`Program`]'s instruction indices.
//!
//! Program counters in the mini-ISA are instruction indices (the pc
//! steps by 1), so basic blocks are index ranges. Edges:
//!
//! * fallthrough to `pc + 1` for every non-control instruction;
//! * both arms of a conditional branch;
//! * the direct target of `jal`/`j`;
//! * indirect jumps (`jalr`/`jr`) are over-approximated by the
//!   program's *return-point table* — the set of `pc + 1` for every
//!   `jal` site (the only way the mini-ISA materializes a code address
//!   into a register is a `jal` link write). A program with an indirect
//!   jump but no `jal` site falls back to every block leader, the
//!   maximally conservative target set.
//!
//! Fetching past the end of the program yields `Halt`
//! ([`Program::fetch`] is total), so a block that runs off the end, a
//! `halt`, and an out-of-range branch target all edge to a single
//! virtual **exit node** with id [`Cfg::exit`].
//!
//! On top of the graph the module computes **immediate
//! post-dominators** (Cooper–Harvey–Kennedy on the reverse graph,
//! rooted at the virtual exit). The immediate post-dominator of a
//! branch's block is the static stand-in for the branch's dynamic
//! *visibility point* (STT's untaint point): once control reaches it
//! on every path, the analysis treats the branch as resolved. Blocks
//! that cannot reach the exit (statically infinite loops) get no
//! immediate post-dominator and their branches simply never untaint —
//! conservative in the safe direction.

use sdo_isa::{Instruction, Program};
use std::collections::{BTreeMap, BTreeSet};

/// Identifies a basic block; the virtual exit node is [`Cfg::exit`]
/// (one past the last real block).
pub type BlockId = usize;

/// One basic block: the instruction index range `[start, end)` plus
/// its successor/predecessor block ids (which may include the virtual
/// exit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// First instruction index of the block.
    pub start: u64,
    /// One past the last instruction index of the block.
    pub end: u64,
    /// Successor block ids, deduplicated, in ascending order.
    pub succs: Vec<BlockId>,
    /// Predecessor block ids, deduplicated, in ascending order.
    pub preds: Vec<BlockId>,
}

impl Block {
    /// The pc of the block's terminator (its last instruction).
    #[must_use]
    pub fn terminator_pc(&self) -> u64 {
        self.end - 1
    }
}

/// The control-flow graph of one program, with post-dominator
/// information.
#[derive(Debug, Clone)]
pub struct Cfg {
    blocks: Vec<Block>,
    /// Immediate post-dominator of each block (`None` when the block
    /// cannot reach the exit); the exit itself has none.
    ipdom: Vec<Option<BlockId>>,
    /// Block containing each instruction index.
    block_of: Vec<BlockId>,
    edges: usize,
}

impl Cfg {
    /// Builds the CFG (blocks, edges, post-dominators) of `program`,
    /// with every indirect jump over-approximated by the return-point
    /// table.
    #[must_use]
    pub fn build(program: &Program) -> Cfg {
        Cfg::build_inner(program, None)
    }

    /// [`Cfg::build`] with *resolved* indirect-jump successors: for
    /// every `Jalr` pc present in `jalr_succs`, its successor set is
    /// exactly the given instruction indices instead of the global
    /// return-point heuristic. The binary scanner derives this map
    /// from the RV32 call graph ([`crate::callgraph`]): a return
    /// `jalr` edges to its callers' return points, an indirect call
    /// edges to the known function entries. `Jalr`s absent from the
    /// map keep the conservative fallback.
    #[must_use]
    pub fn build_with_jalr_targets(program: &Program, jalr_succs: &BTreeMap<u64, Vec<u64>>) -> Cfg {
        Cfg::build_inner(program, Some(jalr_succs))
    }

    fn build_inner(program: &Program, jalr_succs: Option<&BTreeMap<u64, Vec<u64>>>) -> Cfg {
        let insts = program.instructions();
        let n = insts.len();
        if n == 0 {
            return Cfg { blocks: Vec::new(), ipdom: Vec::new(), block_of: Vec::new(), edges: 0 };
        }

        // Indirect-target over-approximation: every return point
        // (`jal` link value), or every leader when there are none.
        let ret_points: Vec<u64> = insts
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, Instruction::Jal { .. }))
            .map(|(pc, _)| pc as u64 + 1)
            .filter(|&t| t < n as u64)
            .collect();
        let has_indirect = insts.iter().any(Instruction::is_indirect);

        // Leaders: entry, every in-range direct target, every
        // instruction after a control transfer or halt, and (for the
        // indirect fallback) every return point.
        let mut leaders: BTreeSet<u64> = BTreeSet::new();
        leaders.insert(0);
        for (pc, inst) in insts.iter().enumerate() {
            if let Some(t) = inst.direct_target() {
                if t < n as u64 {
                    leaders.insert(t);
                }
            }
            if (inst.is_control() || matches!(inst, Instruction::Halt)) && pc + 1 < n {
                leaders.insert(pc as u64 + 1);
            }
        }
        if has_indirect {
            for &t in &ret_points {
                leaders.insert(t);
            }
        }
        if let Some(map) = jalr_succs {
            for t in map.values().flatten() {
                if *t < n as u64 {
                    leaders.insert(*t);
                }
            }
        }

        let starts: Vec<u64> = leaders.into_iter().collect();
        let nb = starts.len();
        let exit = nb;
        let mut block_of = vec![0usize; n];
        let mut blocks: Vec<Block> = Vec::with_capacity(nb);
        for (b, &start) in starts.iter().enumerate() {
            let end = starts.get(b + 1).copied().unwrap_or(n as u64);
            for pc in start..end {
                block_of[pc as usize] = b;
            }
            blocks.push(Block { start, end, succs: Vec::new(), preds: Vec::new() });
        }

        // Edges. A target at or past `n` fetches `Halt`: edge to exit.
        let block_or_exit = |t: u64| if t < n as u64 { block_of[t as usize] } else { exit };
        let mut edges = 0usize;
        for block in &mut blocks {
            let term = block.terminator_pc();
            let mut succs: BTreeSet<BlockId> = BTreeSet::new();
            match insts[term as usize] {
                Instruction::Halt => {
                    succs.insert(exit);
                }
                Instruction::Branch { target, .. } => {
                    succs.insert(block_or_exit(term + 1));
                    succs.insert(block_or_exit(target));
                }
                Instruction::Jal { target, .. } => {
                    succs.insert(block_or_exit(target));
                }
                Instruction::Jalr { .. } => {
                    if let Some(targets) = jalr_succs.and_then(|m| m.get(&term)) {
                        for &t in targets {
                            succs.insert(block_or_exit(t));
                        }
                    } else if ret_points.is_empty() {
                        succs.extend(0..nb);
                    } else {
                        for &t in &ret_points {
                            succs.insert(block_or_exit(t));
                        }
                    }
                }
                Instruction::Alu { .. }
                | Instruction::AluImm { .. }
                | Instruction::Li { .. }
                | Instruction::Load { .. }
                | Instruction::Store { .. }
                | Instruction::FLoad { .. }
                | Instruction::FStore { .. }
                | Instruction::Fpu { .. }
                | Instruction::FMvToInt { .. }
                | Instruction::FMvFromInt { .. }
                | Instruction::Nop => {
                    succs.insert(block_or_exit(term + 1));
                }
            }
            edges += succs.len();
            block.succs = succs.into_iter().collect();
        }
        for b in 0..nb {
            let succs = blocks[b].succs.clone();
            for s in succs {
                if s < nb && !blocks[s].preds.contains(&b) {
                    blocks[s].preds.push(b);
                }
            }
        }

        let ipdom = post_dominators(&blocks, exit);
        Cfg { blocks, ipdom, block_of, edges }
    }

    /// The blocks, in ascending `start` order.
    #[must_use]
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of edges (counting edges to the virtual exit).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Id of the virtual exit node.
    #[must_use]
    pub fn exit(&self) -> BlockId {
        self.blocks.len()
    }

    /// The block containing instruction index `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range for the program.
    #[must_use]
    pub fn block_of(&self, pc: u64) -> BlockId {
        self.block_of[pc as usize]
    }

    /// Immediate post-dominator of `b`, or `None` when `b` cannot
    /// reach the exit (its branches never untaint) or is the exit.
    #[must_use]
    pub fn ipdom(&self, b: BlockId) -> Option<BlockId> {
        self.ipdom.get(b).copied().flatten()
    }
}

/// Immediate post-dominators by Cooper, Harvey and Kennedy's "A Simple,
/// Fast Dominance Algorithm", run on the reverse CFG rooted at the
/// virtual `exit`. Blocks that cannot reach the exit are not reached
/// from the root and get `None`; the immediate post-dominator is unique,
/// so the result does not depend on traversal order.
fn post_dominators(blocks: &[Block], exit: BlockId) -> Vec<Option<BlockId>> {
    const UNDEF: usize = usize::MAX;
    let n = blocks.len() + 1; // + virtual exit
    let exit_preds: Vec<BlockId> =
        (0..blocks.len()).filter(|&b| blocks[b].succs.contains(&exit)).collect();
    // Reverse-graph successors of a node: its CFG predecessors.
    let rev_succs = |b: BlockId| if b == exit { &exit_preds[..] } else { &blocks[b].preds[..] };

    // Postorder of the reverse graph from the exit (iterative DFS).
    let mut po_num = vec![UNDEF; n];
    let mut order: Vec<BlockId> = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut stack: Vec<(BlockId, usize)> = vec![(exit, 0)];
    seen[exit] = true;
    while let Some((b, next)) = stack.last_mut() {
        if let Some(&s) = rev_succs(*b).get(*next) {
            *next += 1;
            if !seen[s] {
                seen[s] = true;
                stack.push((s, 0));
            }
        } else {
            po_num[*b] = order.len();
            order.push(*b);
            stack.pop();
        }
    }

    let mut idom = vec![UNDEF; n];
    idom[exit] = exit;
    let mut changed = true;
    while changed {
        changed = false;
        // Reverse postorder, skipping the root (last in postorder).
        for &b in order.iter().rev().skip(1) {
            let mut new_idom = UNDEF;
            // Reverse-graph predecessors of `b`: its CFG successors.
            for &s in &blocks[b].succs {
                if idom[s] == UNDEF {
                    continue;
                }
                new_idom = if new_idom == UNDEF {
                    s
                } else {
                    let (mut x, mut y) = (s, new_idom);
                    while x != y {
                        while po_num[x] < po_num[y] {
                            x = idom[x];
                        }
                        while po_num[y] < po_num[x] {
                            y = idom[y];
                        }
                    }
                    x
                };
            }
            if idom[b] != new_idom {
                idom[b] = new_idom;
                changed = true;
            }
        }
    }

    idom[..blocks.len()].iter().map(|&d| (d != UNDEF).then_some(d)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_isa::{Assembler, Reg};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    /// The previous maximal-fixpoint implementation, O(n³), kept as the
    /// reference the differential below checks against.
    ///
    /// Iterative post-dominator computation over the block graph, rooted
    /// at the virtual `exit` node. Returns each block's immediate
    /// post-dominator. Standard maximal-fixpoint dataflow: correct for
    /// every block that reaches the exit; blocks that don't are detected
    /// by reverse reachability and get `None`.
    fn post_dominators_reference(blocks: &[Block], exit: BlockId) -> Vec<Option<BlockId>> {
        let n = blocks.len() + 1; // + virtual exit

        // Reverse reachability from the exit.
        let mut reaches_exit = vec![false; n];
        reaches_exit[exit] = true;
        let mut changed = true;
        while changed {
            changed = false;
            for (b, blk) in blocks.iter().enumerate() {
                if !reaches_exit[b] && blk.succs.iter().any(|&s| reaches_exit[s]) {
                    reaches_exit[b] = true;
                    changed = true;
                }
            }
        }

        // pdom sets as dense bool rows; init: exit = {exit}, rest = all.
        let mut pdom: Vec<Vec<bool>> = vec![vec![true; n]; n];
        pdom[exit] = vec![false; n];
        pdom[exit][exit] = true;

        let mut changed = true;
        while changed {
            changed = false;
            // Reverse order approximates reverse post-order on the
            // reverse graph; convergence does not depend on it.
            for b in (0..blocks.len()).rev() {
                if !reaches_exit[b] {
                    continue;
                }
                let mut new: Vec<bool> = vec![true; n];
                let mut any = false;
                for &s in &blocks[b].succs {
                    if !reaches_exit[s] {
                        continue;
                    }
                    any = true;
                    for (x, cell) in new.iter_mut().enumerate() {
                        *cell = *cell && pdom[s][x];
                    }
                }
                if !any {
                    new = vec![false; n];
                }
                new[b] = true;
                if new != pdom[b] {
                    pdom[b] = new;
                    changed = true;
                }
            }
        }

        // ipdom(b): the strict post-dominator closest to b. Strict pdoms
        // form a chain; the closest one is post-dominated by all the
        // others, i.e. has the largest pdom set.
        (0..blocks.len())
            .map(|b| {
                if !reaches_exit[b] {
                    return None;
                }
                let mut best: Option<(usize, BlockId)> = None;
                for (p, &is_pdom) in pdom[b].iter().enumerate() {
                    if p == b || !is_pdom {
                        continue;
                    }
                    let size = pdom[p].iter().filter(|&&x| x).count();
                    if best.is_none_or(|(bs, _)| size > bs) {
                        best = Some((size, p));
                    }
                }
                best.map(|(_, p)| p)
            })
            .collect()
    }

    /// li; blt -> (then | join); then: nop; join: halt
    fn diamond() -> Program {
        let mut asm = Assembler::new();
        let then = asm.label();
        asm.li(r(1), 1);
        asm.blt(r(1), r(2), then);
        asm.nop();
        asm.bind(then);
        asm.halt();
        asm.finish().unwrap()
    }

    #[test]
    fn straightline_is_one_block_to_exit() {
        let mut asm = Assembler::new();
        asm.li(r(1), 1).addi(r(1), r(1), 1);
        asm.halt();
        let cfg = Cfg::build(&asm.finish().unwrap());
        assert_eq!(cfg.blocks().len(), 1);
        assert_eq!(cfg.blocks()[0].succs, vec![cfg.exit()]);
        assert_eq!(cfg.ipdom(0), Some(cfg.exit()));
    }

    #[test]
    fn branch_splits_blocks_and_ipdom_is_the_join() {
        let prog = diamond();
        let cfg = Cfg::build(&prog);
        // Blocks: [li,blt], [nop], [halt].
        assert_eq!(cfg.blocks().len(), 3);
        let b0 = cfg.block_of(0);
        let join = cfg.block_of(3);
        assert_eq!(cfg.blocks()[b0].succs.len(), 2);
        assert_eq!(cfg.ipdom(b0), Some(join), "branch resolves at the join block");
    }

    #[test]
    fn loop_backedge_and_ipdom_after_loop() {
        let mut asm = Assembler::new();
        asm.li(r(1), 4);
        let top = asm.here();
        asm.addi(r(1), r(1), -1);
        asm.bne(r(1), Reg::ZERO, top);
        asm.halt();
        let cfg = Cfg::build(&asm.finish().unwrap());
        let body = cfg.block_of(1);
        let after = cfg.block_of(3);
        assert!(cfg.blocks()[body].succs.contains(&body), "backedge");
        assert_eq!(cfg.ipdom(body), Some(after), "loop branch resolves after the loop");
    }

    #[test]
    fn infinite_loop_has_no_ipdom() {
        let mut asm = Assembler::new();
        let top = asm.here();
        asm.addi(r(1), r(1), 1);
        asm.j(top);
        let cfg = Cfg::build(&asm.finish().unwrap());
        assert_eq!(cfg.ipdom(cfg.block_of(0)), None);
    }

    #[test]
    fn jalr_targets_are_return_points() {
        let mut asm = Assembler::new();
        let func = asm.label();
        asm.jal(r(31), func);
        asm.halt();
        asm.bind(func);
        asm.jr(r(31));
        let prog = asm.finish().unwrap();
        let cfg = Cfg::build(&prog);
        let jr_block = cfg.block_of(2);
        // The only return point is pc 1 (after the jal).
        assert_eq!(cfg.blocks()[jr_block].succs, vec![cfg.block_of(1)]);
    }

    #[test]
    fn out_of_range_target_edges_to_exit() {
        let mut asm = Assembler::new();
        let far = asm.label();
        asm.beq(r(1), r(2), far);
        asm.halt();
        asm.bind_at(far, 1000);
        let prog = asm.finish().unwrap();
        let cfg = Cfg::build(&prog);
        assert!(cfg.blocks()[cfg.block_of(0)].succs.contains(&cfg.exit()));
    }

    #[test]
    fn falling_off_the_end_edges_to_exit() {
        let mut asm = Assembler::new();
        asm.nop();
        let cfg = Cfg::build(&asm.finish().unwrap());
        assert_eq!(cfg.blocks()[0].succs, vec![cfg.exit()]);
    }

    fn assert_same_ipdoms(what: &str, cfg: &Cfg) -> usize {
        let reference = post_dominators_reference(cfg.blocks(), cfg.exit());
        for (b, want) in reference.iter().enumerate() {
            assert_eq!(cfg.ipdom(b), *want, "{what}: ipdom of block {b}");
        }
        1
    }

    /// A random block graph: up to four successors per block, drawn from
    /// every block and the exit, so self-loops, infinite loops, blocks
    /// that cannot reach the exit and `jalr`-style fan-out to every
    /// block all occur.
    fn random_blocks(rng: &mut sdo_rng::SdoRng) -> Vec<Block> {
        let nb = 1 + rng.bounded(60) as usize;
        let exit = nb;
        let mut blocks: Vec<Block> = (0..nb)
            .map(|b| {
                let start = b as u64;
                Block { start, end: start + 1, succs: Vec::new(), preds: Vec::new() }
            })
            .collect();
        for block in &mut blocks {
            let succs: BTreeSet<BlockId> = match rng.bounded(12) {
                0 => (0..nb).collect(),
                1 => BTreeSet::from([exit]),
                _ => (0..1 + rng.bounded(4)).map(|_| rng.bounded(nb as u64 + 1) as usize).collect(),
            };
            block.succs = succs.into_iter().collect();
        }
        for b in 0..nb {
            for s in blocks[b].succs.clone() {
                if s < nb {
                    blocks[s].preds.push(b);
                }
            }
        }
        blocks
    }

    #[test]
    fn ipdoms_match_the_fixpoint_reference() {
        let mut cfgs = 0;
        for seed in 0..1000 {
            let program = sdo_verify::fuzz::LitmusSpec::generate(seed).build(0);
            cfgs += assert_same_ipdoms(&format!("spec {seed}"), &Cfg::build(&program));
        }
        for t in crate::corpus::default_targets() {
            cfgs += assert_same_ipdoms(&t.name, &Cfg::build(&t.program));
        }
        for entry in sdo_rv32::corpus::CORPUS {
            let (program, prov) = sdo_rv32::translate_with_provenance(&entry.image(), entry.name)
                .expect("translates");
            let cg = crate::callgraph::build(&program, &prov);
            let cfg = Cfg::build_with_jalr_targets(&program, &cg.jalr_succs);
            cfgs += assert_same_ipdoms(entry.name, &cfg);
        }
        let mut rng = sdo_rng::SdoRng::seed_from_u64(0x1d0d);
        for i in 0..1000 {
            let blocks = random_blocks(&mut rng);
            let exit = blocks.len();
            let want = post_dominators_reference(&blocks, exit);
            assert_eq!(post_dominators(&blocks, exit), want, "random graph {i}: {blocks:?}");
            cfgs += 1;
        }
        assert!(cfgs >= 2000, "differential covered only {cfgs} graphs");
    }

    #[test]
    fn empty_program_builds() {
        let cfg = Cfg::build(&Assembler::new().finish().unwrap());
        assert!(cfg.blocks().is_empty());
        assert_eq!(cfg.edge_count(), 0);
    }
}
