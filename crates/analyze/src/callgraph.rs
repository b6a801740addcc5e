//! Call-graph recovery over lowered RV32 programs.
//!
//! The RV32 frontend lowers `jalr` through a translation table in data
//! memory, so a lowered binary's indirect control flow is opaque to
//! the plain [`crate::cfg`] heuristic (every `Jalr` edges to every
//! return point). This module rebuilds the *function structure* from
//! the lowering [`Provenance`] side table and resolves each `Jalr` to
//! a precise successor set:
//!
//! * **entries** — the image entry µop plus every direct-call target
//!   (`jal ra, f`);
//! * **membership** — a BFS from each entry that steps *over* call
//!   sites (call → its return point, the context-insensitive callee
//!   summary boundary) and stops at return `jalr`s, giving the set of
//!   µops owned by each function;
//! * **return resolution** — a return `jalr` inside function `f` edges
//!   to the return points of every call site whose callee set includes
//!   `f`. Direct calls name their callee; indirect calls (`jalr`
//!   through the table with a link write) conservatively call every
//!   known entry. A return with no matching caller edges to the
//!   virtual exit;
//! * **indirect calls** edge to every known function entry.
//!
//! The result plugs into [`crate::cfg::Cfg::build_with_jalr_targets`]:
//! the taint fixpoint then flows *through*
//! callees and back to all callers' return points — a
//! context-insensitive interprocedural analysis in which every callee
//! is summarized by its threaded CFG body. Computed `jalr`s that are
//! neither calls nor returns stay out of the map and keep the
//! conservative return-point fallback.

use sdo_isa::{Instruction, Program};
use sdo_rv32::Provenance;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Sentinel successor meaning "the virtual exit": any target at or
/// past the program length maps to the CFG exit node, and `u64::MAX`
/// is never a real µop index.
pub const EXIT_TARGET: u64 = u64::MAX;

/// One recovered function: its entry µop and the µops reachable from
/// it without leaving the function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Entry µop index.
    pub entry: u64,
    /// RV32 byte address of the entry, when the provenance covers it.
    pub entry_pc: Option<u32>,
    /// µop indices owned by the function (callee bodies excluded).
    pub members: BTreeSet<u64>,
    /// Return `jalr` µops inside the function, ascending.
    pub returns: Vec<u64>,
}

/// The recovered call graph plus the resolved `Jalr` successor map the
/// interprocedural CFG is built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallGraph {
    /// Recovered functions, ascending by entry µop. The image entry is
    /// always present (possibly overlapping other functions).
    pub functions: Vec<Function>,
    /// `Jalr` µop pc → resolved successor µop indices (values at or
    /// past the program length mean the virtual exit). Feed to
    /// [`crate::cfg::Cfg::build_with_jalr_targets`].
    pub jalr_succs: BTreeMap<u64, Vec<u64>>,
    /// Call edges: caller entry µop → callee entry µops (indirect
    /// calls fan out to every known entry).
    pub calls: BTreeMap<u64, BTreeSet<u64>>,
}

/// Recovers the call graph of a lowered RV32 program from its
/// translation provenance.
#[must_use]
pub fn build(program: &Program, prov: &Provenance) -> CallGraph {
    let insts = program.instructions();
    let n = insts.len() as u64;

    let call_by_uop: BTreeMap<u64, &sdo_rv32::CallSite> =
        prov.calls.iter().map(|c| (c.uop, c)).collect();
    let return_set: BTreeSet<u64> = prov.returns.iter().copied().collect();

    // Function entries: the image entry plus every direct-call target.
    let mut entries: BTreeSet<u64> = BTreeSet::new();
    if prov.entry < n {
        entries.insert(prov.entry);
    }
    for c in &prov.calls {
        if let Some(t) = c.target {
            if t < n {
                entries.insert(t);
            }
        }
    }
    let entry_list: Vec<u64> = entries.iter().copied().collect();

    // Conservative fallback target set for computed jalrs during
    // membership discovery: every entry and every call return point.
    let computed_fallback: Vec<u64> = {
        let mut s: BTreeSet<u64> = entries.clone();
        s.extend(prov.calls.iter().map(|c| c.return_to).filter(|&t| t < n));
        s.into_iter().collect()
    };

    // Intra-function successors of one µop: call sites step to their
    // return point (the callee is summarized away), returns stop.
    let intra_succs = |pc: u64| -> Vec<u64> {
        if let Some(c) = call_by_uop.get(&pc) {
            return if c.return_to < n { vec![c.return_to] } else { Vec::new() };
        }
        if return_set.contains(&pc) {
            return Vec::new();
        }
        let succs = match insts[usize::try_from(pc).expect("µop index fits usize")] {
            Instruction::Halt => Vec::new(),
            Instruction::Branch { target, .. } => vec![pc + 1, target],
            Instruction::Jal { target, .. } => vec![target],
            Instruction::Jalr { .. } => computed_fallback.clone(),
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
            | Instruction::Nop => vec![pc + 1],
        };
        succs.into_iter().filter(|&t| t < n).collect()
    };

    let mut functions: Vec<Function> = Vec::with_capacity(entry_list.len());
    for &entry in &entry_list {
        let mut members: BTreeSet<u64> = BTreeSet::new();
        let mut queue: VecDeque<u64> = VecDeque::new();
        members.insert(entry);
        queue.push_back(entry);
        while let Some(pc) = queue.pop_front() {
            for t in intra_succs(pc) {
                if members.insert(t) {
                    queue.push_back(t);
                }
            }
        }
        let returns: Vec<u64> =
            prov.returns.iter().copied().filter(|r| members.contains(r)).collect();
        functions.push(Function { entry, entry_pc: prov.rv32_pc(entry), members, returns });
    }

    // Callee sets per call site; indirect calls fan out to every entry.
    let callees = |c: &sdo_rv32::CallSite| -> Vec<u64> {
        match c.target {
            Some(t) if t < n => vec![t],
            Some(_) => Vec::new(),
            None => entry_list.clone(),
        }
    };

    let mut calls: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for c in &prov.calls {
        let caller = functions
            .iter()
            .find(|f| f.members.contains(&c.uop))
            .map_or(EXIT_TARGET, |f| f.entry);
        calls.entry(caller).or_default().extend(callees(c));
    }

    // Return points flowing back into each function: the return_to of
    // every call site that may call it.
    let mut ret_points: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for c in &prov.calls {
        for callee in callees(c) {
            if c.return_to < n {
                ret_points.entry(callee).or_default().insert(c.return_to);
            }
        }
    }

    let mut jalr_succs: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for &r in &prov.returns {
        let mut succ: BTreeSet<u64> = BTreeSet::new();
        for f in &functions {
            if f.members.contains(&r) {
                if let Some(pts) = ret_points.get(&f.entry) {
                    succ.extend(pts.iter().copied());
                }
            }
        }
        if succ.is_empty() {
            // A return nobody calls (or the entry function returning):
            // control leaves the program.
            succ.insert(EXIT_TARGET);
        }
        jalr_succs.insert(r, succ.into_iter().collect());
    }
    for c in &prov.calls {
        if c.target.is_none() && !entry_list.is_empty() {
            jalr_succs.insert(c.uop, entry_list.clone());
        }
    }

    CallGraph { functions, jalr_succs, calls }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_rv32::{enc, load_flat, translate_with_provenance};

    const BASE: u32 = 0x1000;

    /// _start: jal ra, f; halt(ebreak)   f: ret
    fn call_return_image() -> sdo_rv32::Rv32Image {
        let text = [
            enc::jal(1, 8),      // 0x1000: call f at 0x1008
            enc::ebreak(),       // 0x1004
            enc::jalr(0, 1, 0),  // 0x1008: f: ret
        ];
        let bytes: Vec<u8> = text.iter().flat_map(|w| w.to_le_bytes()).collect();
        load_flat(&bytes, BASE).expect("flat image loads")
    }

    #[test]
    fn direct_call_and_return_resolve_to_each_other() {
        let image = call_return_image();
        let (program, prov) = translate_with_provenance(&image, "cg").expect("translates");
        let cg = build(&program, &prov);

        // Two functions: _start (the entry) and f.
        assert_eq!(cg.functions.len(), 2);
        let f_entry = prov.calls[0].target.expect("direct call");
        assert_eq!(cg.functions[1].entry, f_entry);
        assert_eq!(cg.functions[1].entry_pc, Some(BASE + 8));

        // f's return jalr edges exactly to the call's return point.
        let ret = prov.returns[0];
        assert_eq!(cg.jalr_succs.get(&ret), Some(&vec![prov.calls[0].return_to]));

        // _start's body does not swallow f's.
        assert!(!cg.functions[0].members.contains(&ret));
        assert_eq!(cg.calls.get(&cg.functions[0].entry).map(|s| s.contains(&f_entry)), Some(true));
    }

    #[test]
    fn uncalled_return_edges_to_exit() {
        // Just "ret": a return with no caller leaves the program.
        let text = [enc::jalr(0, 1, 0)];
        let bytes: Vec<u8> = text.iter().flat_map(|w| w.to_le_bytes()).collect();
        let image = load_flat(&bytes, BASE).expect("flat image loads");
        let (program, prov) = translate_with_provenance(&image, "cg").expect("translates");
        let cg = build(&program, &prov);
        assert_eq!(cg.jalr_succs.get(&prov.returns[0]), Some(&vec![EXIT_TARGET]));
    }
}
