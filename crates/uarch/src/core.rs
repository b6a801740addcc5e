//! The speculative out-of-order core with STT taint tracking and SDO.
//!
//! A cycle-level model of the Table I pipeline: 8-wide fetch through
//! commit, 192-entry ROB, 32/32 load/store queues, register renaming with
//! RAT checkpoints, a tournament branch predictor, and an issue queue
//! feeding a functional-unit pool. On top of the baseline:
//!
//! * **STT** (Section III): every physical register carries a YRoT (see
//!   [`crate::regfile`]); tainted transmitters — loads, and FP
//!   mul/div/sqrt under `STT{ld+fp}` — are delay-executed until their
//!   operands untaint; branch *resolution* (squash + predictor update) is
//!   deferred until the predicate untaints; consistency squashes are
//!   deferred until the load's address untaints.
//! * **SDO** (Sections IV–VI): under [`Protection::Sdo`], tainted loads
//!   consult the location predictor and issue as Obl-Ld operations driven
//!   by the [`sdo_core::oblld::OblLdFsm`]; tainted FP transmit ops execute
//!   the predict-normal DO variant and squash at untaint on subnormal
//!   inputs; DRAM predictions revert to STT delay.
//!
//! ## Data-oriented engine layout
//!
//! The pipeline state is structure-of-arrays (DESIGN.md §12): the ROB is
//! a circular [`crate::rob::RobSlab`] addressed by `(slot, seq)`
//! generational handles, with the per-cycle boolean state (`done`,
//! unresolved-control, load-unperformed, pending-squash, fp-failed, the
//! resolve-candidate masks) hoisted into packed [`crate::rob::BitSet`]
//! bitwords. STT visibility is the slab's safe-prefix frontier, making
//! taint checks a sequence-number compare. Writeback events run through
//! a calendar-wheel scheduler ([`crate::sched::EventWheel`]), and issue
//! readiness is event-driven via per-register wakeup lists — each stage
//! consults an O(words) dirty mask and skips when nothing it owns
//! changed, instead of sweeping the full ROB.

use crate::branch::{Btb, Ras, TournamentPredictor};
use crate::config::{AttackModel, CoreConfig, PredictorKind, Protection, SecurityConfig};
use crate::regfile::{PhysReg, RegClass, RegFile};
use crate::rob::{BitSet, RobSlab, SlotList};
use crate::sched::{Event, EventWheel};
use crate::stats::CoreStats;
use sdo_core::oblld::{OblAction, OblEvent, OblLdFsm};
use sdo_core::predictor::{
    GreedyPredictor, HybridPredictor, LocationPredictor, LoopPredictor, PatternPredictor,
    PerfectPredictor, StaticPredictor,
};
use sdo_core::{fp_do_execute, DoResult};
use sdo_isa::{FpuOp, Instruction, OpClass, Program, Reg};
use sdo_obs::{EventKind as ObsEvent, MemOp, ObsConfig, PipelineObs, QueueCaps, SquashCause};
use sdo_mem::{line_of, CacheLevel, Cycle, MemorySystem, OblReject, ServedBy};
use std::collections::VecDeque;

/// Base of the instruction-text address space: instruction index `pc`
/// occupies bytes `[ITEXT_BASE + pc * 8, ITEXT_BASE + pc * 8 + 8)`.
/// Keeping text far above any data address lets instructions share the
/// Base of the instruction-text address space: instruction index `pc`
/// occupies bytes `[ITEXT_BASE + pc * 8, ITEXT_BASE + pc * 8 + 8)`.
/// Keeping text far above any data address lets instructions share the
/// unified L2/L3 without colliding with workload data.
pub const ITEXT_BASE: u64 = 1 << 40;

/// Error from [`Core::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// The program did not halt within the cycle budget.
    CycleLimit {
        /// The exhausted budget.
        max_cycles: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::CycleLimit { max_cycles } => {
                write!(f, "program did not halt within {max_cycles} cycles")
            }
        }
    }
}

impl std::error::Error for RunError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Waiting,
    Executing,
    Done,
}

#[derive(Debug, Clone, Copy)]
struct Fetched {
    pc: u64,
    inst: Instruction,
    pred_taken: bool,
    pred_target: u64,
    ready_at: Cycle,
}

/// Cold per-entry ROB payload, stored in the slab's `body` array. The
/// hot boolean state lives in the core's per-slot [`BitSet`]s instead
/// (`done_bits`, `ctrl_unresolved`, `load_unperformed`, `pending_squash`,
/// `fp_failed`, `resolve_ready`, `obl_unsafe`), and the STT `safe` flag
/// is the slab's safe-prefix frontier.
#[derive(Debug)]
struct DynInst {
    pc: u64,
    inst: Instruction,
    status: Status,
    pdst: Option<PhysReg>,
    old_pdst: Option<PhysReg>,
    psrcs: [Option<PhysReg>; 4],
    // Control flow.
    pred_taken: bool,
    pred_target: u64,
    outcome: Option<(bool, u64)>, // (taken, next pc)
    // Memory.
    addr: Option<u64>,
    store_data: Option<u64>,
    width_bytes: u64,
    // Protection state.
    delayed_since: Option<Cycle>,
    delay_counted: bool,
    obl: Option<OblLdFsm>,
    obl_safe_sent: bool,
    obl_first_hit_at: Option<Cycle>,
    sq_forwarded: bool,
}

impl DynInst {
    /// Inert placeholder filling unoccupied slab slots; every field is
    /// overwritten when the slot is dispatched into.
    fn empty() -> Self {
        DynInst {
            pc: 0,
            inst: Instruction::Nop,
            status: Status::Done,
            pdst: None,
            old_pdst: None,
            psrcs: [None; 4],
            pred_taken: false,
            pred_target: 0,
            outcome: None,
            addr: None,
            store_data: None,
            width_bytes: 8,
            delayed_since: None,
            delay_counted: false,
            obl: None,
            obl_safe_sent: false,
            obl_first_hit_at: None,
            sq_forwarded: false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvKind {
    /// Functional-unit completion; write `value` (if any) to the dest.
    Exec { value: Option<u64> },
    /// Normal load completion.
    LoadDone { value: u64 },
    /// One Obl-Ld per-level response.
    OblResp { level: CacheLevel, hit: bool, value: Option<u64> },
    /// Validation access completion.
    ValidationDone { value: u64, matches: bool, level: CacheLevel },
}

#[derive(Debug, Clone, Copy)]
struct FuBudget {
    alu: u32,
    muldiv: u32,
    fp: u32,
    mem: u32,
}

/// One simulated out-of-order core.
///
/// Create with [`Core::new`], then either step cycle-by-cycle with
/// [`Core::tick`] against a shared [`MemorySystem`], or drive to
/// completion with [`Core::run`].
///
/// # Examples
///
/// ```rust
/// use sdo_isa::{Assembler, Reg};
/// use sdo_mem::{MemConfig, MemorySystem};
/// use sdo_uarch::{Core, CoreConfig, SecurityConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut asm = Assembler::new();
/// asm.li(Reg::new(1), 20);
/// asm.muli(Reg::new(2), Reg::new(1), 2);
/// asm.halt();
/// let prog = asm.finish()?;
///
/// let mut mem = MemorySystem::new(MemConfig::table_i(), 1);
/// mem.load_image(prog.data());
/// let mut core = Core::new(0, CoreConfig::table_i(), SecurityConfig::unsafe_baseline(), prog);
/// core.run(&mut mem, 100_000)?;
/// assert_eq!(core.arch_int()[2], 40);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Core {
    id: usize,
    cfg: CoreConfig,
    sec: SecurityConfig,
    program: Program,
    now: Cycle,
    next_seq: u64,
    next_event_order: u64,
    fetch_pc: u64,
    fetch_halted: bool,
    fetch_q: VecDeque<Fetched>,
    /// The structure-of-arrays reorder buffer (cold payload + seq array).
    rob: RobSlab<DynInst>,
    /// Hot per-slot pipeline state, one bit per ROB slot. `done_bits`
    /// mirrors the retired-result flag; `ctrl_unresolved` marks control
    /// instructions whose resolution has not applied (the visibility
    /// blocker); `load_unperformed` marks loads whose value has not been
    /// received/forwarded (Futuristic-model blocker); `pending_squash` /
    /// `fp_failed` are the deferred-action latches. `resolve_ready` and
    /// `obl_unsafe` are the resolve stage's candidate masks — its
    /// dirty-set: a zero mask skips the sweep outright.
    done_bits: BitSet,
    ctrl_unresolved: BitSet,
    load_unperformed: BitSet,
    pending_squash: BitSet,
    fp_failed: BitSet,
    resolve_ready: BitSet,
    obl_unsafe: BitSet,
    /// Issue/load/store queues as `(slot, seq)` handle lists, purged on
    /// squash so they only ever hold live entries.
    iq: SlotList,
    /// STT-delayed transmitters pulled out of the ready set until the
    /// visibility frontier passes their taint source: `(slot, seq,
    /// taint_seq)`. Re-attempting them every cycle would issue nothing
    /// and touch no architectural or statistical state, so the issue
    /// stage sweeps them back in only when the frontier moves.
    parked: Vec<(u32, u64, u64)>,
    /// Frontier value at the last parked sweep.
    parked_frontier: u64,
    lq: Vec<(u32, u64)>,
    sq: Vec<(u32, u64)>,
    /// Event-driven issue readiness: `iq_unready[slot]` counts the
    /// entry's not-yet-produced sources (registered as waiters on their
    /// registers at dispatch); `iq_ready` + `iq_ready_count` cache the
    /// zero-count set. `iq_ready_count == 0` is the issue stage's exact
    /// skip gate.
    iq_ready: BitSet,
    iq_unready: Vec<u8>,
    iq_ready_count: usize,
    regs: RegFile,
    /// Calendar-wheel writeback scheduler (O(1) schedule/drain on the
    /// common path; see [`crate::sched`]).
    events: EventWheel<EvKind>,
    /// Reusable drain buffer for event delivery.
    event_buf: Vec<Event<EvKind>>,
    /// Reusable buffer for register-wakeup processing.
    wake_buf: Vec<(u32, u64)>,
    bp: TournamentPredictor,
    btb: Btb,
    ras: Ras,
    predictor: Box<dyn LocationPredictor>,
    stats: CoreStats,
    halted: bool,
    commit_pcs: Option<Vec<u64>>,
    /// Structured observability probe (occupancy histograms + event
    /// trace). `None` unless enabled — the disabled hot path is a single
    /// `Option` check per cycle, with no allocation.
    obs: Option<Box<PipelineObs>>,
    fetch_stall_until: Cycle,
    last_fetch_line: Option<u64>,
    /// Non-pipelined unit occupancy: one slot per integer mul/div unit
    /// and per FP unit. A long-latency op (divide, sqrt, subnormal slow
    /// path) holds its unit until completion — this structural contention
    /// is precisely the FP covert channel of Section I-A.
    muldiv_busy: Vec<Cycle>,
    fp_busy: Vec<Cycle>,
    /// Reusable candidate buffer for the resolve stage's mask snapshots,
    /// so the per-cycle sweeps never allocate once it reaches
    /// steady-state capacity.
    scratch_slots: Vec<(u32, u64)>,
    /// Quiescence fast-forward: when a tick changes nothing, jump the
    /// clock to the event horizon instead of stepping stalled cycles one
    /// at a time. Cycle-exact (see DESIGN.md); off by default, opted in
    /// by single-core drivers via [`Core::set_fast_forward`].
    fast_forward: bool,
    /// Hard ceiling for a fast-forward jump. [`Core::run`] keeps it at
    /// its `max_cycles` so a hung program still stops at exactly the
    /// cycle limit a stepped loop would reach.
    skip_cap: Cycle,
    /// Cycles elided by fast-forward jumps. They are still fully
    /// accounted in `stats.cycles` (and every other per-cycle counter);
    /// this only records how many the loop did not step individually.
    /// Kept out of [`CoreStats`] so metric/CSV exports stay identical
    /// with skipping on or off.
    skipped_cycles: u64,
    /// Whether any stage changed state during the current tick (the
    /// fast-forward gate).
    progressed: bool,
}

fn build_predictor(kind: PredictorKind) -> Box<dyn LocationPredictor> {
    match kind {
        PredictorKind::Static(level) => Box::new(StaticPredictor::new(level)),
        PredictorKind::Greedy => Box::new(GreedyPredictor::default()),
        PredictorKind::Loop => Box::new(LoopPredictor::default()),
        PredictorKind::Hybrid => Box::new(HybridPredictor::default()),
        PredictorKind::Pattern => Box::new(PatternPredictor::default()),
        PredictorKind::Perfect => Box::new(PerfectPredictor),
    }
}

impl Core {
    /// Builds a core with its own branch predictor, register file and (for
    /// SDO configurations) location predictor. `id` selects the core's
    /// tile in the shared memory system.
    #[must_use]
    pub fn new(id: usize, cfg: CoreConfig, sec: SecurityConfig, program: Program) -> Self {
        let kind = match sec.protection {
            Protection::Sdo(s) => s.predictor,
            // Unused, but keeps the field total.
            _ => PredictorKind::Static(CacheLevel::L1),
        };
        let cap = cfg.rob_entries;
        Core {
            id,
            cfg,
            sec,
            program,
            now: 0,
            next_seq: 0,
            next_event_order: 0,
            fetch_pc: 0,
            fetch_halted: false,
            fetch_q: VecDeque::new(),
            rob: RobSlab::new(cap, DynInst::empty),
            done_bits: BitSet::new(cap),
            ctrl_unresolved: BitSet::new(cap),
            load_unperformed: BitSet::new(cap),
            pending_squash: BitSet::new(cap),
            fp_failed: BitSet::new(cap),
            resolve_ready: BitSet::new(cap),
            obl_unsafe: BitSet::new(cap),
            iq: SlotList::new(cap),
            parked: Vec::new(),
            parked_frontier: u64::MAX,
            lq: Vec::new(),
            sq: Vec::new(),
            iq_ready: BitSet::new(cap),
            iq_unready: vec![0; cap],
            iq_ready_count: 0,
            regs: RegFile::new(cfg.phys_int_regs, cfg.phys_fp_regs),
            events: EventWheel::new(),
            event_buf: Vec::new(),
            wake_buf: Vec::new(),
            bp: TournamentPredictor::new(),
            btb: Btb::new(cfg.btb_entries),
            ras: Ras::new(cfg.ras_entries),
            predictor: build_predictor(kind),
            stats: CoreStats::default(),
            halted: false,
            commit_pcs: None,
            obs: None,
            fetch_stall_until: 0,
            last_fetch_line: None,
            muldiv_busy: vec![0; cfg.fus.int_muldiv as usize],
            fp_busy: vec![0; cfg.fus.fp as usize],
            scratch_slots: Vec::new(),
            fast_forward: false,
            skip_cap: 0,
            skipped_cycles: 0,
            progressed: false,
        }
    }

    /// Enables (or disables) quiescence fast-forward for this core.
    ///
    /// Only meaningful for a core driven through [`Core::run`] as the
    /// sole core on its memory system: the event horizon consults this
    /// core's timers plus the shared memory system, so another core's
    /// activity during a skipped interval would be missed. Multi-core
    /// lockstep drivers must leave this off.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Cycles elided by quiescence fast-forward so far. Always 0 unless
    /// [`Core::set_fast_forward`] enabled skipping; skipped cycles are
    /// still fully accounted in [`Core::stats`].
    #[must_use]
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Enables recording of committed PCs (for differential testing).
    pub fn record_commits(&mut self) {
        self.commit_pcs = Some(Vec::new());
    }

    /// Enables structured observability per `cfg`: per-cycle occupancy
    /// histograms sized from this core's queue capacities, and/or a
    /// bounded event trace. `mshr_capacity` sizes the MSHR occupancy
    /// histogram (the L1 MSHR file lives in the memory system). A
    /// disabled `cfg` is a no-op, preserving the allocation-free path.
    pub fn enable_obs(&mut self, cfg: ObsConfig, mshr_capacity: usize) {
        if cfg.enabled() {
            self.obs = Some(Box::new(PipelineObs::new(
                cfg,
                QueueCaps {
                    rob: self.cfg.rob_entries,
                    iq: self.cfg.iq_entries,
                    lq: self.cfg.lq_entries,
                    sq: self.cfg.sq_entries,
                    mshr: mshr_capacity,
                },
            )));
        }
    }

    /// The observability probe, if enabled.
    #[must_use]
    pub fn obs(&self) -> Option<&PipelineObs> {
        self.obs.as_deref()
    }

    /// Detaches the observability probe (e.g. to fold into a run
    /// result after the core is dropped).
    pub fn take_obs(&mut self) -> Option<Box<PipelineObs>> {
        self.obs.take()
    }

    /// Committed PCs, if recording was enabled.
    #[must_use]
    pub fn commit_pcs(&self) -> Option<&[u64]> {
        self.commit_pcs.as_deref()
    }

    /// Whether a `Halt` has committed.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Current cycle.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Committed architectural integer state.
    #[must_use]
    pub fn arch_int(&self) -> [u64; 32] {
        self.regs.arch_int()
    }

    /// Committed architectural FP state (bit patterns).
    #[must_use]
    pub fn arch_fp(&self) -> [u64; 32] {
        self.regs.arch_fp()
    }

    /// Renders a short diagnostic description of the oldest ROB entries
    /// (pipeline state at a glance; intended for debugging stuck runs).
    #[must_use]
    pub fn debug_head(&self, n: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "cycle {} rob {} iq {} lq {} sq {} fetch_q {} events {} next_ev {:?}",
            self.now, self.rob.len(), self.iq.len(), self.lq.len(), self.sq.len(), self.fetch_q.len(),
            self.events.len(), self.events.peek_earliest(self.now).map(|e| (e.at, e.seq, e.kind)));
        for slot in self.rob.slots().take(n) {
            let e = self.rob.body(slot);
            let seq = self.rob.seq_of(slot);
            let _ = writeln!(
                out,
                "  seq {} pc {} {:?} st {:?} done {} safe {} iq {} res_applied {} obl {:?} fsm_done {:?} safe_sent {} pend_sq {}",
                seq, e.pc, e.inst.class(), e.status, self.done_bits.get(slot),
                self.iq.contains(slot),
                seq < self.rob.first_unsafe_seq(),
                !self.ctrl_unresolved.get(slot),
                e.obl.as_ref().map(|f| f.predicted()),
                e.obl.as_ref().map(|f| f.is_done()),
                e.obl_safe_sent, self.pending_squash.get(slot),
            );
            let _ = writeln!(
                out,
                "      awaiting_validation {:?} fwd {:?}",
                e.obl.as_ref().map(|f| f.awaiting_validation()),
                e.obl.as_ref().map(|f| f.forwarded_value()),
            );
        }
        out
    }

    /// Runs until halt or `max_cycles`.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::CycleLimit`] if the program does not halt in
    /// time.
    pub fn run(&mut self, mem: &mut MemorySystem, max_cycles: u64) -> Result<(), RunError> {
        self.skip_cap = max_cycles;
        while !self.halted {
            if self.now >= max_cycles {
                return Err(RunError::CycleLimit { max_cycles });
            }
            self.tick(mem);
        }
        Ok(())
    }

    /// Advances the core by one cycle.
    ///
    /// Stage order within a cycle (oldest effects first):
    ///
    /// 1. **deliver events** — functional-unit completions, load data,
    ///    Obl-Ld responses and validation results scheduled for this
    ///    cycle write back and wake dependents;
    /// 2. **invalidation intake** — coherence invalidations mark
    ///    completed-but-unretired loads for (deferred) consistency
    ///    squashes;
    /// 3. **resolve** — visibility points advance (untaint), branch
    ///    resolutions whose predicates untainted apply (squash +
    ///    predictor update), Obl-Ld `Safe` events fire, failed FP-SDO ops
    ///    re-execute, deferred consistency squashes apply;
    /// 4. **commit** — up to `width` completed instructions retire in
    ///    order; stores perform;
    /// 5. **issue** — ready instructions leave the issue queue for
    ///    functional units or the memory system, subject to STT/SDO
    ///    transmitter rules;
    /// 6. **dispatch** — fetched instructions rename into the ROB/queues;
    /// 7. **fetch** — the frontend follows branch predictions, gated by
    ///    the instruction cache.
    pub fn tick(&mut self, mem: &mut MemorySystem) {
        if self.halted {
            return;
        }
        self.now += 1;
        self.stats.cycles = self.now;
        self.progressed = false;
        // Per-cycle counters that repeat identically over a quiescent
        // interval; their deltas this tick are replayed in bulk if the
        // tick turns out to be skippable.
        let stall0 = self.stats.obl.validation_stall_cycles;
        let retry0 = self.stats.obl.mshr_retries;
        let reject0 = mem.stats().obl_mshr_rejects;
        self.deliver_events(mem);
        self.intake_invalidations(mem);
        self.resolve_stage(mem);
        self.commit_stage(mem);
        self.issue_stage(mem);
        self.dispatch_stage();
        self.fetch_stage(mem);
        if let Some(obs) = self.obs.as_deref_mut() {
            if obs.wants_occupancy() {
                let mshr = mem.mshr_in_use(self.id, self.now) as u64;
                obs.sample(
                    self.rob.len() as u64,
                    self.iq.len() as u64,
                    self.lq.len() as u64,
                    self.sq.len() as u64,
                    mshr,
                );
            }
        }
        if self.fast_forward && !self.progressed && !self.halted && self.now < self.skip_cap {
            self.quiesce_skip(mem, stall0, retry0, reject0);
        }
    }

    /// Fast-forwards over a quiescent interval. Called after a tick in
    /// which no stage changed any state: every future change must then
    /// originate from an already-computed timer — a scheduled completion
    /// event, the frontend stall/ready timers, a non-pipelined unit
    /// release, or an in-flight miss in the memory system. The **event
    /// horizon** is the earliest such cycle; the clock jumps to just
    /// before it (clamped to `skip_cap`), and the skipped cycles' only
    /// per-cycle effects — occupancy samples plus the stall/retry
    /// counters this tick accrued, which repeat identically while
    /// nothing changes — are applied in bulk. See DESIGN.md
    /// ("Quiescence fast-forward") for the cycle-exactness argument.
    /// The scheduler's contribution comes from the calendar wheel's
    /// occupancy bitmap ([`EventWheel::next_at`]).
    fn quiesce_skip(&mut self, mem: &mut MemorySystem, stall0: u64, retry0: u64, reject0: u64) {
        let now = self.now;
        let mut horizon: Option<Cycle> = None;
        {
            let mut consider = |at: Cycle| {
                if at > now {
                    horizon = Some(horizon.map_or(at, |h| h.min(at)));
                }
            };
            if let Some(at) = self.events.next_at(now) {
                consider(at);
            }
            if !self.fetch_halted {
                consider(self.fetch_stall_until);
            }
            if let Some(f) = self.fetch_q.front() {
                consider(f.ready_at);
            }
            for &busy in self.muldiv_busy.iter().chain(&self.fp_busy) {
                consider(busy);
            }
            if let Some(at) = mem.next_event(now) {
                consider(at);
            }
        }
        // No wake source at all means nothing will ever change: jump
        // straight to the cycle limit, exactly where a stepped loop
        // would give up.
        let target = horizon.map_or(self.skip_cap, |h| (h - 1).min(self.skip_cap));
        if target <= now {
            return;
        }
        let n = target - now;
        self.now = target;
        self.stats.cycles = target;
        self.skipped_cycles += n;
        let stall_delta = self.stats.obl.validation_stall_cycles - stall0;
        let retry_delta = self.stats.obl.mshr_retries - retry0;
        let reject_delta = mem.stats().obl_mshr_rejects - reject0;
        self.stats.obl.validation_stall_cycles += stall_delta * n;
        self.stats.obl.mshr_retries += retry_delta * n;
        mem.record_obl_mshr_rejects(reject_delta * n);
        if let Some(obs) = self.obs.as_deref_mut() {
            if obs.wants_occupancy() {
                // Queue fill levels are frozen during quiescence, and the
                // horizon is clamped below every in-flight MSHR
                // completion, so one bulk sample is exact.
                let mshr = mem.mshr_in_use(self.id, target) as u64;
                obs.sample_n(
                    self.rob.len() as u64,
                    self.iq.len() as u64,
                    self.lq.len() as u64,
                    self.sq.len() as u64,
                    mshr,
                    n,
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Slot helpers
    // ------------------------------------------------------------------

    /// Whether a YRoT still denotes tainted data: true iff the rooted
    /// load has not reached its visibility point. Because visibility is
    /// a window prefix, this is a compare against the frontier seq — no
    /// ROB access. (A committed root's seq is below every live seq; a
    /// squashed root can only be referenced by consumers squashed with
    /// it, so live queries never see one.)
    fn taint_active(&self, yrot: Option<u64>) -> bool {
        yrot.is_some_and(|seq| seq >= self.rob.first_unsafe_seq())
    }

    fn srcs_tainted(&self, slot: u32) -> bool {
        self.rob
            .body(slot)
            .psrcs
            .iter()
            .flatten()
            .any(|p| self.taint_active(self.regs.yrot(*p)))
    }

    fn addr_operand_tainted(&self, slot: u32) -> bool {
        // For loads the address operand is the (single) integer source.
        self.srcs_tainted(slot)
    }

    /// Max YRoT over the entry's sources — the sequence number whose
    /// untainting unblocks an STT-delayed transmitter. `None` means no
    /// source ever carried taint.
    fn src_taint_seq(&self, slot: u32) -> Option<u64> {
        self.rob.body(slot).psrcs.iter().flatten().filter_map(|p| self.regs.yrot(*p)).max()
    }

    /// Parks an STT-delayed transmitter: out of the ready set until the
    /// frontier passes its taint source. Exact because the delay arms
    /// tick no per-attempt counters after the first attempt (which has
    /// already happened when this is called) and consult nothing that
    /// can change while the source stays tainted.
    fn park(&mut self, slot: u32, seq: u64) {
        let Some(t) = self.src_taint_seq(slot) else {
            // Callers only park entries they just judged tainted; leaving
            // an untainted one in the ready set merely re-attempts it.
            debug_assert!(false, "parked entries have a tainted source");
            return;
        };
        debug_assert!(t >= self.rob.first_unsafe_seq(), "parked entry must be tainted");
        debug_assert!(self.iq_ready.get(slot));
        self.iq_ready.clear(slot);
        self.iq_ready_count -= 1;
        self.parked.push((slot, seq, t));
    }

    /// Returns parked transmitters whose taint source has become visible
    /// to the ready set. Runs only when the frontier moved; entries
    /// squashed while parked fail the handle check and drop out.
    fn unpark_visible(&mut self) {
        let frontier = self.rob.first_unsafe_seq();
        if frontier == self.parked_frontier {
            return;
        }
        self.parked_frontier = frontier;
        if self.parked.is_empty() {
            return;
        }
        let mut parked = std::mem::take(&mut self.parked);
        parked.retain(|&(slot, seq, t)| {
            if !self.rob.is_live(slot, seq) {
                return false;
            }
            if t < frontier {
                debug_assert!(!self.iq_ready.get(slot));
                self.iq_ready.set(slot);
                self.iq_ready_count += 1;
                return false;
            }
            true
        });
        self.parked = parked;
    }

    /// Resets every per-slot bit for an entry leaving the window, so a
    /// stale bit can never pollute a sweep mask after the slot is
    /// reused (or worse, while it is dead).
    fn clear_slot_state(&mut self, slot: u32) {
        self.done_bits.clear(slot);
        self.ctrl_unresolved.clear(slot);
        self.load_unperformed.clear(slot);
        self.pending_squash.clear(slot);
        self.fp_failed.clear(slot);
        self.resolve_ready.clear(slot);
        self.obl_unsafe.clear(slot);
        if self.iq_ready.get(slot) {
            self.iq_ready.clear(slot);
            self.iq_ready_count -= 1;
        }
        self.iq_unready[slot as usize] = 0;
        if self.iq.contains(slot) {
            self.iq.remove(slot);
        }
    }

    /// Writeback: produce `p`'s value and wake issue-queue entries
    /// blocked on it (decrementing their unready counts; a count hitting
    /// zero marks the entry issue-ready). Stale waiter registrations —
    /// from squashed consumers — fail the handle check and are dropped.
    fn write_reg(&mut self, p: PhysReg, v: u64) {
        self.regs.write(p, v);
        let mut buf = std::mem::take(&mut self.wake_buf);
        self.regs.drain_waiters_into(p, &mut buf);
        for &(slot, seq) in &buf {
            if self.rob.is_live(slot, seq) && self.iq_unready[slot as usize] > 0 {
                self.iq_unready[slot as usize] -= 1;
                if self.iq_unready[slot as usize] == 0 {
                    self.iq_ready.set(slot);
                    self.iq_ready_count += 1;
                }
            }
        }
        buf.clear();
        self.wake_buf = buf;
    }

    fn schedule(&mut self, at: Cycle, slot: u32, kind: EvKind) {
        self.next_event_order += 1;
        let order = self.next_event_order;
        let seq = self.rob.seq_of(slot);
        self.events.push(
            self.now,
            Event { at: at.max(self.now + 1), order, slot, seq, kind },
        );
    }

    // ------------------------------------------------------------------
    // Event delivery
    // ------------------------------------------------------------------

    fn deliver_events(&mut self, mem: &mut MemorySystem) {
        let mut due = std::mem::take(&mut self.event_buf);
        self.events.drain_due(self.now, &mut due);
        for ev in due.drain(..) {
            // Even a stale (squashed) delivery counts as progress: it
            // changes the scheduler, and the horizon may have pointed
            // here.
            self.progressed = true;
            if !self.rob.is_live(ev.slot, ev.seq) {
                continue; // squashed
            }
            match ev.kind {
                EvKind::Exec { value } => self.on_exec_done(ev.slot, value),
                EvKind::LoadDone { value } => self.on_load_done(ev.slot, value),
                EvKind::OblResp { level, hit, value } => {
                    if self.obs.is_some() {
                        let pc = self.rob.body(ev.slot).pc;
                        if let Some(o) = self.obs.as_deref_mut() {
                            o.emit(self.now, ev.seq, pc, ObsEvent::OblTouch { level: level.depth() });
                        }
                    }
                    self.on_fsm_event(mem, ev.slot, OblEvent::Response { level, hit, value });
                }
                EvKind::ValidationDone { value, matches, level } => {
                    self.on_fsm_event(mem, ev.slot, OblEvent::ValidationDone { value, matches, level });
                }
            }
        }
        self.event_buf = due;
    }

    fn on_exec_done(&mut self, slot: u32, value: Option<u64>) {
        if let (Some(v), Some(p)) = (value, self.rob.body(slot).pdst) {
            self.write_reg(p, v);
        }
        self.rob.body_mut(slot).status = Status::Done;
        if self.ctrl_unresolved.get(slot) {
            // Control instructions whose resolution is still pending
            // (squash + predictor update may be deferred by STT until the
            // predicate untaints) become `done` only when the resolution
            // applies — but they are resolve candidates from here on.
            if self.rob.body(slot).outcome.is_some() {
                self.resolve_ready.set(slot);
            }
        } else {
            self.done_bits.set(slot);
        }
    }

    fn load_value_for_width(word: u64, width: u64) -> u64 {
        match width {
            1 => word & 0xff,
            2 => word & 0xffff,
            4 => word & 0xffff_ffff,
            _ => word,
        }
    }

    fn on_load_done(&mut self, slot: u32, value: u64) {
        let e = self.rob.body(slot);
        let v = Self::load_value_for_width(value, e.width_bytes);
        if let Some(p) = e.pdst {
            self.write_reg(p, v);
        }
        self.rob.body_mut(slot).status = Status::Done;
        self.done_bits.set(slot);
        self.load_unperformed.clear(slot);
    }

    // ------------------------------------------------------------------
    // Obl-Ld FSM action plumbing
    // ------------------------------------------------------------------

    fn on_fsm_event(&mut self, mem: &mut MemorySystem, slot: u32, event: OblEvent) {
        let now = self.now;
        let e = self.rob.body_mut(slot);
        // Track imprecision: remember when the first success arrived.
        if let OblEvent::Response { hit: true, .. } = event {
            if e.obl_first_hit_at.is_none() {
                e.obl_first_hit_at = Some(now);
            }
        }
        let Some(fsm) = e.obl.as_mut() else { return };
        let actions = fsm.on_event(event);
        let from_validation = matches!(event, OblEvent::ValidationDone { .. });
        self.apply_obl_actions(mem, slot, &actions, from_validation);
    }

    fn apply_obl_actions(
        &mut self,
        mem: &mut MemorySystem,
        slot: u32,
        actions: &[OblAction],
        from_validation: bool,
    ) {
        // The target entry survives every action below (an Obl squash
        // only kills *younger* instructions), so `slot` stays live.
        let seq = self.rob.seq_of(slot);
        for action in actions {
            match *action {
                OblAction::Forward { value } => {
                    let e = self.rob.body(slot);
                    // Store-queue forwarding overrides the memory value
                    // (Section V-C3): the Obl-Ld executed for timing, the
                    // data comes from the SQ. (Handled before FSM creation
                    // in this implementation; kept for defense in depth.)
                    let v = Self::load_value_for_width(value, e.width_bytes);
                    if let Some(p) = e.pdst {
                        self.write_reg(p, v);
                    }
                    // The load's value is now performed: it no longer
                    // blocks Futuristic visibility (and stays performed
                    // even if a validation later squashes-and-reissues).
                    self.load_unperformed.clear(slot);
                    // Imprecision accounting: cycles between the first
                    // success response and this forward.
                    let e = self.rob.body(slot);
                    if !from_validation {
                        if let Some(first) = e.obl_first_hit_at {
                            self.stats.obl.imprecision_cycles += self.now.saturating_sub(first);
                        }
                    }
                }
                OblAction::Squash => {
                    let cause = if from_validation {
                        self.stats.squashes.validation += 1;
                        SquashCause::Validation
                    } else {
                        self.stats.squashes.obl_fail += 1;
                        SquashCause::OblFail
                    };
                    let e = self.rob.body(slot);
                    let pc = e.pc;
                    let redirect = e.pc + 1;
                    if let Some(p) = e.pdst {
                        self.regs.unwrite(p);
                    }
                    if let Some(o) = self.obs.as_deref_mut() {
                        o.emit(self.now, seq, pc, ObsEvent::Squash { cause });
                    }
                    self.squash_after(seq);
                    // Re-fetch the (squashed) dependents of the load.
                    self.fetch_pc = redirect;
                }
                OblAction::IssueValidation => {
                    let e = self.rob.body(slot);
                    let pc = e.pc;
                    let addr = e.addr.expect("issued load has an address");
                    let expected = e.obl.as_ref().and_then(OblLdFsm::forwarded_value).unwrap_or(0);
                    self.stats.obl.validations += 1;
                    let (res, matches) = mem.validate(self.id, addr, expected, self.now);
                    if self.obs.is_some() {
                        let tainted = self.addr_operand_tainted(slot);
                        if let Some(o) = self.obs.as_deref_mut() {
                            o.emit(self.now, seq, pc, ObsEvent::Validate { matched: matches });
                            o.emit(
                                self.now,
                                seq,
                                pc,
                                ObsEvent::MemAccess { line: addr / 64, op: MemOp::Validate, tainted },
                            );
                        }
                    }
                    self.schedule(
                        res.complete_at,
                        slot,
                        EvKind::ValidationDone {
                            value: res.value,
                            matches,
                            level: res.served_by.level(),
                        },
                    );
                }
                OblAction::IssueExposure => {
                    let e = self.rob.body(slot);
                    let pc = e.pc;
                    let addr = e.addr.expect("issued load has an address");
                    self.stats.obl.exposures += 1;
                    mem.expose(self.id, addr, self.now);
                    if self.obs.is_some() {
                        let tainted = self.addr_operand_tainted(slot);
                        if let Some(o) = self.obs.as_deref_mut() {
                            o.emit(self.now, seq, pc, ObsEvent::Expose);
                            o.emit(
                                self.now,
                                seq,
                                pc,
                                ObsEvent::MemAccess { line: addr / 64, op: MemOp::Expose, tainted },
                            );
                        }
                    }
                }
                OblAction::UpdatePredictor { level } => {
                    let e = self.rob.body(slot);
                    let pc = e.pc;
                    let predicted = e.obl.as_ref().expect("obl load").predicted();
                    if self.obs.is_some() {
                        let tainted = self.addr_operand_tainted(slot);
                        if let Some(o) = self.obs.as_deref_mut() {
                            o.emit(self.now, seq, pc, ObsEvent::PredictorUpdate { tainted });
                        }
                    }
                    self.predictor.update(pc, level);
                    self.stats.record_prediction(predicted.depth(), level.depth());
                }
                OblAction::Complete => {
                    self.rob.body_mut(slot).status = Status::Done;
                    self.done_bits.set(slot);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Invalidation intake (memory consistency, Section V-C1)
    // ------------------------------------------------------------------

    fn intake_invalidations(&mut self, mem: &mut MemorySystem) {
        let invals = mem.take_invalidations(self.id);
        if invals.is_empty() {
            return;
        }
        self.progressed = true;
        for line in invals {
            // Completed-but-unretired loads to this line may violate
            // consistency; mark them. The squash itself is deferred until
            // the load's address is untainted (STT's implicit-channel rule
            // applied to the consistency check). The load queue is purged
            // on squash, so every entry is live.
            for i in 0..self.lq.len() {
                let (slot, seq) = self.lq[i];
                debug_assert!(self.rob.is_live(slot, seq));
                if self.pending_squash.get(slot) || !self.done_bits.get(slot) {
                    continue;
                }
                let e = self.rob.body(slot);
                if e.sq_forwarded {
                    continue; // data came from our own store queue
                }
                if e.addr.is_some_and(|a| line_of(a) == line) {
                    self.pending_squash.set(slot);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Resolve stage: visibility, untaint-gated actions
    // ------------------------------------------------------------------

    fn update_visibility(&mut self) {
        let futuristic =
            self.sec.attack == AttackModel::Futuristic && self.sec.protection != Protection::Unsafe;
        // Visibility is the slab's safe-prefix frontier: it advances to
        // (and including) the first blocker. Spectre-model blockers are
        // unresolved control; the Futuristic model adds unperformed
        // loads, pending consistency squashes and failed FP-SDO ops.
        // (Per the paper's footnote 4 an Obl-Ld awaiting only its
        // validation no longer blocks — `load_unperformed` clears on
        // forward, not on validation.)
        let progressed = if futuristic {
            self.rob.advance_safe(&[
                &self.ctrl_unresolved,
                &self.load_unperformed,
                &self.pending_squash,
                &self.fp_failed,
            ])
        } else {
            self.rob.advance_safe(&[&self.ctrl_unresolved])
        };
        if progressed {
            // An untaint can enable issue/resolve actions later in this
            // same tick — but flag it as progress regardless, so
            // quiescence never hides a visibility advance.
            self.progressed = true;
        }
    }

    fn resolve_stage(&mut self, mem: &mut MemorySystem) {
        self.update_visibility();

        let protected = self.sec.protection != Protection::Unsafe;

        // Candidate sweeps reuse one scratch buffer (taken out of `self`
        // so the loop bodies can borrow `self` mutably) — the resolve
        // stage allocates nothing once the buffer reaches ROB capacity.
        // Each sweep snapshots its candidate mask into `(slot, seq)`
        // handles oldest-first and re-checks liveness as squashes land;
        // an empty mask skips the sweep without touching the window.
        let mut candidates = std::mem::take(&mut self.scratch_slots);

        // 1. Branch resolutions (executed) whose predicate is untainted.
        if self.resolve_ready.any() {
            self.rob.collect_mask(&self.resolve_ready, &mut candidates);
            for &(slot, seq) in &candidates {
                if !self.rob.is_live(slot, seq) {
                    break; // a prior resolution squashed the rest
                }
                if protected && self.srcs_tainted(slot) {
                    continue; // STT: delay resolution until untainted
                }
                if self.apply_resolution(slot) {
                    break; // squash: younger candidates are gone
                }
            }
        }

        // 2. Obl-Ld loads whose address operand just untainted: event C.
        if self.obl_unsafe.any() {
            self.rob.collect_mask(&self.obl_unsafe, &mut candidates);
            for &(slot, seq) in &candidates {
                if !self.rob.is_live(slot, seq) {
                    break;
                }
                if self.addr_operand_tainted(slot) {
                    continue;
                }
                self.rob.body_mut(slot).obl_safe_sent = true;
                self.obl_unsafe.clear(slot);
                self.progressed = true;
                if self.obs.is_some() {
                    let pc = self.rob.body(slot).pc;
                    if let Some(o) = self.obs.as_deref_mut() {
                        // Before the FSM consumes Safe, so that validations /
                        // exposures / predictor training trace strictly after.
                        o.emit(self.now, seq, pc, ObsEvent::OblSafe);
                    }
                }
                self.on_fsm_event(mem, slot, OblEvent::Safe);
                if self.rob.is_live(slot, seq)
                    && self.rob.body(slot).obl.as_ref().is_some_and(OblLdFsm::squashed)
                {
                    break;
                }
            }
        }

        // 3. FP SDO fails whose operands untainted: squash + re-execute.
        if self.fp_failed.any() {
            self.rob.collect_mask(&self.fp_failed, &mut candidates);
            for &(slot, seq) in &candidates {
                if !self.rob.is_live(slot, seq) {
                    break;
                }
                if self.rob.body(slot).status != Status::Done {
                    continue; // DO attempt still in flight
                }
                if self.srcs_tainted(slot) {
                    continue;
                }
                self.progressed = true;
                self.stats.squashes.fp_fail += 1;
                let e = self.rob.body(slot);
                let pc = e.pc;
                let redirect = e.pc + 1;
                if let Some(p) = e.pdst {
                    self.regs.unwrite(p);
                }
                if let Some(o) = self.obs.as_deref_mut() {
                    o.emit(self.now, seq, pc, ObsEvent::Squash { cause: SquashCause::FpFail });
                }
                self.squash_after(seq);
                self.fetch_pc = redirect;
                // Re-execute on the slow path with the true result.
                self.fp_failed.clear(slot);
                self.done_bits.clear(slot);
                self.rob.body_mut(slot).status = Status::Executing;
                let (value, lat) = self.exec_fp(slot, true);
                if let Some(o) = self.obs.as_deref_mut() {
                    o.emit(self.now, seq, pc, ObsEvent::FpTransmit { tainted: false, oblivious: false });
                }
                // The re-executed slow path occupies an FP unit (structural
                // contention is safe to reveal: the operands are untainted).
                let unit = self.fp_busy.iter_mut().min().expect("fp units exist");
                *unit = (*unit).max(self.now) + lat;
                self.schedule(self.now + lat, slot, EvKind::Exec { value: Some(value) });
                break;
            }
        }

        // 4. Deferred consistency squashes whose address untainted.
        if self.pending_squash.any() {
            self.rob.collect_mask(&self.pending_squash, &mut candidates);
            for &(slot, seq) in &candidates {
                if !self.rob.is_live(slot, seq) {
                    break;
                }
                if protected && self.addr_operand_tainted(slot) {
                    continue;
                }
                self.progressed = true;
                self.stats.squashes.consistency += 1;
                let pc = self.rob.body(slot).pc;
                if let Some(o) = self.obs.as_deref_mut() {
                    o.emit(self.now, seq, pc, ObsEvent::Squash { cause: SquashCause::Consistency });
                }
                self.squash_from(seq);
                self.fetch_pc = pc;
                break;
            }
        }

        self.scratch_slots = candidates;
    }

    /// Applies a computed branch/jump resolution. Returns `true` if it
    /// squashed.
    fn apply_resolution(&mut self, slot: u32) -> bool {
        self.progressed = true;
        let seq = self.rob.seq_of(slot);
        let e = self.rob.body(slot);
        let (taken, next_pc) = e.outcome.expect("resolved");
        let pc = e.pc;
        let pred_taken = e.pred_taken;
        let pred_target = e.pred_target;
        let is_cond = e.inst.is_cond_branch();
        let is_indirect = e.inst.is_indirect();

        if (is_cond || is_indirect) && self.obs.is_some() {
            let tainted = self.srcs_tainted(slot);
            if let Some(o) = self.obs.as_deref_mut() {
                o.emit(self.now, seq, pc, ObsEvent::PredictorUpdate { tainted });
            }
        }
        if is_cond {
            self.stats.branches += 1;
            self.bp.resolve(pc, taken, pred_taken);
        }
        if is_indirect {
            self.btb.update(pc, next_pc);
        }
        // Resolution applied: the entry stops blocking visibility and
        // leaves the resolve-candidate set; done-ness catches up.
        self.ctrl_unresolved.clear(slot);
        self.resolve_ready.clear(slot);
        if self.rob.body(slot).status == Status::Done {
            self.done_bits.set(slot);
        }

        if next_pc != pred_target {
            self.stats.mispredicts += 1;
            self.stats.squashes.branch += 1;
            if let Some(o) = self.obs.as_deref_mut() {
                o.emit(self.now, seq, pc, ObsEvent::Squash { cause: SquashCause::Branch });
            }
            self.squash_after(seq);
            self.fetch_pc = next_pc;
            true
        } else {
            false
        }
    }

    // ------------------------------------------------------------------
    // Squash machinery
    // ------------------------------------------------------------------

    /// Squashes every instruction strictly younger than `seq`.
    fn squash_after(&mut self, seq: u64) {
        self.squash_killing_from(seq + 1);
    }

    /// Squashes `seq` and everything younger (re-fetch from its pc).
    fn squash_from(&mut self, seq: u64) {
        self.squash_killing_from(seq);
    }

    fn squash_killing_from(&mut self, first_killed: u64) {
        let old_len = self.rob.len();
        while let Some(back) = self.rob.back_slot() {
            let seq = self.rob.seq_of(back);
            if seq < first_killed {
                break;
            }
            let slot = self.rob.pop_back();
            debug_assert_eq!(slot, back);
            // Per-slot queue state; the flag bits are shed in bulk below.
            if self.iq.contains(slot) {
                self.iq.remove(slot);
            }
            self.iq_unready[slot as usize] = 0;
            self.stats.squashed_insts += 1;
            // Walk-based RAT recovery: the RAT only ever changes at
            // rename and the killed entries are the youngest suffix, so
            // undoing each rename youngest-first lands on exactly the
            // pre-`first_killed` mapping — no per-dispatch snapshot
            // needed. Multiple killed writers of one arch reg resolve
            // correctly because the oldest undo is applied last.
            let e = self.rob.body(slot);
            if let Some(old) = e.old_pdst {
                let arch =
                    e.inst.int_dst().map(|r| r.index()).or_else(|| e.inst.fp_dst().map(|r| r.index()));
                debug_assert!(arch.is_some(), "old_pdst implies an architectural destination");
                if let Some(arch) = arch {
                    self.regs.unrename(old.class, arch, old);
                }
            }
            if let Some(p) = self.rob.body(slot).pdst {
                self.regs.release(p);
            }
        }
        // A dead slot must shed every flag bit immediately — a stale bit
        // would pollute sweep masks (or the reused slot). The killed
        // entries are a contiguous window suffix, so clear whole word
        // ranges instead of 8 read-modify-writes per slot, then restore
        // the ready-count invariant by popcount.
        let new_len = self.rob.len();
        if new_len < old_len {
            for (a, b) in self.rob.slot_ranges(new_len, old_len) {
                self.done_bits.clear_range(a, b);
                self.ctrl_unresolved.clear_range(a, b);
                self.load_unperformed.clear_range(a, b);
                self.pending_squash.clear_range(a, b);
                self.fp_failed.clear_range(a, b);
                self.resolve_ready.clear_range(a, b);
                self.obl_unsafe.clear_range(a, b);
                self.iq_ready.clear_range(a, b);
            }
            self.iq_ready_count = self.iq_ready.count();
        }
        self.lq.retain(|&(_, s)| s < first_killed);
        self.sq.retain(|&(_, s)| s < first_killed);
        self.fetch_q.clear();
        self.fetch_halted = false;
    }

    // ------------------------------------------------------------------
    // Commit stage
    // ------------------------------------------------------------------

    fn commit_stage(&mut self, mem: &mut MemorySystem) {
        for _ in 0..self.cfg.width {
            let Some(head) = self.rob.head_slot() else { break };
            // An entry can be `done` yet still owe a deferred action that
            // must run in `resolve_stage` first (same-cycle multi-commit
            // could otherwise retire it together with its taint producer).
            if self.fp_failed.get(head) || self.pending_squash.get(head) {
                break;
            }
            if !self.done_bits.get(head) {
                // Figure 7 accounting: head blocked awaiting validation.
                if self.rob.body(head).obl.as_ref().is_some_and(OblLdFsm::awaiting_validation) {
                    self.stats.obl.validation_stall_cycles += 1;
                }
                break;
            }
            let seq = self.rob.seq_of(head);
            let e = self.rob.body(head);
            let pc = e.pc;
            let class = e.inst.class();
            let addr = e.addr;
            let store_data = e.store_data;
            let width_bytes = e.width_bytes;
            let old_pdst = e.old_pdst;
            let slot = self.rob.pop_front();
            debug_assert_eq!(slot, head);
            self.clear_slot_state(slot);
            self.progressed = true;
            self.stats.committed += 1;
            if let Some(log) = self.commit_pcs.as_mut() {
                log.push(pc);
            }
            if let Some(o) = self.obs.as_deref_mut() {
                o.emit(self.now, seq, pc, ObsEvent::Commit);
            }
            match class {
                OpClass::Halt => {
                    self.halted = true;
                    return;
                }
                OpClass::Store => {
                    self.stats.committed_stores += 1;
                    let addr = addr.expect("store address computed");
                    let data = store_data.expect("store data computed");
                    mem.store(self.id, addr, data, width_bytes, self.now);
                    if let Some(o) = self.obs.as_deref_mut() {
                        o.emit(
                            self.now,
                            seq,
                            pc,
                            ObsEvent::MemAccess { line: addr / 64, op: MemOp::Store, tainted: false },
                        );
                    }
                    self.sq.retain(|&(_, s)| s != seq);
                }
                OpClass::Load => {
                    self.stats.committed_loads += 1;
                    self.lq.retain(|&(_, s)| s != seq);
                }
                _ => {}
            }
            if let Some(old) = old_pdst {
                self.regs.release(old);
            }
        }
    }

    // ------------------------------------------------------------------
    // Issue stage
    // ------------------------------------------------------------------

    fn fu_for(class: OpClass) -> fn(&mut FuBudget) -> &mut u32 {
        match class {
            OpClass::IntAlu | OpClass::Branch | OpClass::Jump => |b| &mut b.alu,
            OpClass::IntMul | OpClass::IntDiv => |b| &mut b.muldiv,
            OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv | OpClass::FpSqrt => |b| &mut b.fp,
            OpClass::Load | OpClass::Store => |b| &mut b.mem,
            OpClass::Nop | OpClass::Halt => |b| &mut b.alu,
        }
    }

    /// Claims a non-pipelined unit for `latency` cycles; `true` iff one
    /// was free this cycle.
    fn claim_unit(busy: &mut [Cycle], now: Cycle, latency: Cycle) -> bool {
        match busy.iter_mut().find(|b| **b <= now) {
            Some(slot) => {
                *slot = now + latency;
                true
            }
            None => false,
        }
    }

    fn issue_stage(&mut self, mem: &mut MemorySystem) {
        // Parked STT-delayed transmitters rejoin the ready set the
        // moment their taint source becomes visible — the frontier only
        // moves in resolve/commit/squash, all of which ran before this
        // stage, so an unparked entry issues the same cycle it would
        // have under per-cycle re-attempts.
        self.unpark_visible();
        // Exact skip gate: the IQ holds only live `Waiting` entries
        // (squashes purge it, issues remove from it), so with no ready
        // entry the walk below would issue nothing, tick no counter and
        // leave the queue untouched. Ready-but-retrying entries (busy
        // unit, SQ conflict, MSHR-full, DRAM-prediction / oracle-driven
        // SDO probes) keep their ready bit, keeping the stage live so
        // retry accounting and per-cycle predictor probes still happen
        // exactly as before.
        if self.iq_ready_count == 0 {
            return;
        }
        let mut budget = FuBudget {
            alu: self.cfg.fus.int_alu,
            muldiv: self.cfg.fus.int_muldiv,
            fp: self.cfg.fus.fp,
            mem: self.cfg.fus.mem_ports,
        };
        let mut issued_count = 0usize;

        // Attempt only the ready entries, oldest-first. `iq_ready` holds
        // exactly the queued entries whose unready count hit zero, and
        // `collect_mask` yields them in window (= dispatch = age) order —
        // the same order and the same attempt set as a walk over the
        // whole queue that skips unready entries, without touching the
        // waiting majority. Issue helpers never change other entries'
        // readiness mid-scan (writebacks happen at event delivery), so a
        // snapshot of the mask is exact.
        let mut ready = std::mem::take(&mut self.scratch_slots);
        self.rob.collect_mask(&self.iq_ready, &mut ready);
        for &(slot, seq) in &ready {
            if issued_count >= self.cfg.width {
                // Width exhausted: the rest stays queued, unattempted.
                break;
            }
            debug_assert!(self.rob.is_live(slot, seq), "IQ holds only live entries");
            debug_assert_eq!(self.rob.body(slot).status, Status::Waiting);
            debug_assert!(
                self.rob.body(slot).psrcs.iter().flatten().all(|p| self.regs.is_ready(*p)),
                "wakeup-list readiness diverged from the register file"
            );
            let class = self.rob.body(slot).inst.class();
            let fu = Self::fu_for(class);
            if *fu(&mut budget) == 0 {
                continue;
            }
            let issue_ok = match class {
                OpClass::Load => self.try_issue_load(mem, slot, seq),
                OpClass::Store => {
                    self.issue_store(slot);
                    true
                }
                OpClass::FpMul | OpClass::FpDiv | OpClass::FpSqrt => {
                    self.try_issue_fp_transmit(slot)
                }
                _ => self.issue_simple(slot),
            };
            if issue_ok {
                *fu(&mut budget) -= 1;
                issued_count += 1;
                self.iq_ready.clear(slot);
                self.iq_ready_count -= 1;
                self.iq.remove(slot);
                self.progressed = true;
                if self.obs.is_some() {
                    let pc = self.rob.body(slot).pc;
                    if let Some(o) = self.obs.as_deref_mut() {
                        o.emit(self.now, seq, pc, ObsEvent::Issue);
                    }
                }
            }
        }
        self.scratch_slots = ready;
    }

    fn src_value(&self, e: &DynInst, idx: usize) -> u64 {
        e.psrcs[idx].map_or(0, |p| self.regs.value(p))
    }

    fn issue_simple(&mut self, slot: u32) -> bool {
        let e = self.rob.body(slot);
        let pc = e.pc;
        let inst = e.inst;
        let s0 = self.src_value(e, 0);
        let s1 = self.src_value(e, 1);
        let f0 = f64::from_bits(self.src_value(e, 2));
        let f1 = f64::from_bits(self.src_value(e, 3));
        let lat = &self.cfg.lat;

        let (value, latency, outcome) = match inst {
            Instruction::Alu { op, .. } => (Some(op.eval(s0, s1)), self.alu_latency(op), None),
            Instruction::AluImm { op, imm, .. } => {
                (Some(op.eval(s0, imm as u64)), self.alu_latency(op), None)
            }
            Instruction::Li { imm, .. } => (Some(imm as u64), lat.int_alu, None),
            Instruction::Branch { cond, target, .. } => {
                let taken = cond.eval(s0, s1);
                let next = if taken { target } else { pc + 1 };
                (None, lat.int_alu, Some((taken, next)))
            }
            Instruction::Jal { target, .. } => (Some(pc + 1), lat.int_alu, Some((true, target))),
            Instruction::Jalr { offset, .. } => {
                (Some(pc + 1), lat.int_alu, Some((true, s0.wrapping_add(offset as u64))))
            }
            Instruction::Fpu { op, .. } => {
                // Non-transmit FP (add/sub) — always data-oblivious timing.
                (Some(op.eval(f0, f1).to_bits()), lat.fp_add, None)
            }
            Instruction::FMvToInt { .. } => (Some(self.src_value(e, 2)), lat.int_alu, None),
            Instruction::FMvFromInt { .. } => (Some(s0), lat.int_alu, None),
            Instruction::Nop | Instruction::Halt => (None, lat.int_alu, None),
            Instruction::Load { .. }
            | Instruction::Store { .. }
            | Instruction::FLoad { .. }
            | Instruction::FStore { .. } => unreachable!("memory ops use their own paths"),
        };

        // Long-latency integer ops occupy their (non-pipelined) unit.
        if matches!(inst.class(), OpClass::IntMul | OpClass::IntDiv)
            && !Self::claim_unit(&mut self.muldiv_busy, self.now, latency)
        {
            return false; // unit busy: stay in the issue queue, retry
        }
        let e = self.rob.body_mut(slot);
        e.status = Status::Executing;
        e.outcome = outcome;
        self.schedule(self.now + latency, slot, EvKind::Exec { value });
        true
    }

    fn alu_latency(&self, op: sdo_isa::AluOp) -> Cycle {
        if op.is_mul() {
            self.cfg.lat.int_mul
        } else if op.is_div() {
            self.cfg.lat.int_div
        } else {
            self.cfg.lat.int_alu
        }
    }

    /// Whether the op ties up its FP unit for its whole latency: divides
    /// and square roots always; multiplies only on the (subnormal) slow
    /// microcoded path. Adds and fast multiplies are fully pipelined.
    fn fp_unit_nonpipelined(&self, op: FpuOp, slow: bool) -> bool {
        matches!(op, FpuOp::Div | FpuOp::Sqrt) || slow
    }

    fn fp_latency(&self, op: FpuOp, slow: bool) -> Cycle {
        let base = match op {
            FpuOp::Add | FpuOp::Sub => self.cfg.lat.fp_add,
            FpuOp::Mul => self.cfg.lat.fp_mul,
            FpuOp::Div => self.cfg.lat.fp_div,
            FpuOp::Sqrt => self.cfg.lat.fp_sqrt,
        };
        if slow {
            base + self.cfg.lat.fp_subnormal_penalty
        } else {
            base
        }
    }

    /// Computes an FP transmit op's true value and (class-dependent)
    /// latency; `force_slow` charges the subnormal path.
    fn exec_fp(&self, slot: u32, force_slow: bool) -> (u64, Cycle) {
        let e = self.rob.body(slot);
        let Instruction::Fpu { op, .. } = e.inst else { unreachable!("fp transmit") };
        let a = f64::from_bits(self.src_value(e, 2));
        let b = f64::from_bits(self.src_value(e, 3));
        let slow = force_slow
            || a.is_subnormal()
            || (op != FpuOp::Sqrt && b.is_subnormal());
        (op.eval(a, b).to_bits(), self.fp_latency(op, slow))
    }

    fn try_issue_fp_transmit(&mut self, slot: u32) -> bool {
        let tainted = self.srcs_tainted(slot);
        let protect = self.sec.protection.protects_fp();
        match (self.sec.protection, tainted && protect) {
            (Protection::Sdo(_), true) => {
                // FP SDO: execute the predict-normal DO variant (fast
                // latency and fast-path unit occupancy regardless of
                // operands — data-oblivious).
                let e = self.rob.body(slot);
                let Instruction::Fpu { op, .. } = e.inst else { unreachable!() };
                let a = f64::from_bits(self.src_value(e, 2));
                let b = f64::from_bits(self.src_value(e, 3));
                let lat = self.fp_latency(op, false);
                if self.fp_unit_nonpipelined(op, false)
                    && !Self::claim_unit(&mut self.fp_busy, self.now, lat)
                {
                    return false;
                }
                let r: DoResult<f64> = fp_do_execute(op, a, b);
                self.stats.fp_sdo_issued += 1;
                let (value, failed) = match r.presult {
                    Some(v) => (v.to_bits(), false),
                    None => (0u64, true),
                };
                if self.obs.is_some() {
                    let pc = self.rob.body(slot).pc;
                    let seq = self.rob.seq_of(slot);
                    if let Some(o) = self.obs.as_deref_mut() {
                        o.emit(self.now, seq, pc, ObsEvent::FpTransmit { tainted: true, oblivious: true });
                    }
                }
                self.rob.body_mut(slot).status = Status::Executing;
                if failed {
                    self.fp_failed.set(slot);
                }
                self.schedule(self.now + lat, slot, EvKind::Exec { value: Some(value) });
                true
            }
            (Protection::Stt { .. }, true) => {
                // Delay until operands untaint.
                if !self.rob.body(slot).delay_counted {
                    self.rob.body_mut(slot).delay_counted = true;
                    self.stats.delayed_fp += 1;
                }
                let seq = self.rob.seq_of(slot);
                self.park(slot, seq);
                false
            }
            _ => {
                // Unsafe, STT{ld}, or untainted operands: execute with the
                // operand-dependent latency AND unit occupancy (the
                // covert channel the configurations above close).
                let e = self.rob.body(slot);
                let Instruction::Fpu { op, .. } = e.inst else { unreachable!() };
                let a = f64::from_bits(self.src_value(e, 2));
                let slow = a.is_subnormal()
                    || (op != FpuOp::Sqrt && f64::from_bits(self.src_value(e, 3)).is_subnormal());
                let (value, lat) = self.exec_fp(slot, false);
                if self.fp_unit_nonpipelined(op, slow)
                    && !Self::claim_unit(&mut self.fp_busy, self.now, lat)
                {
                    return false;
                }
                if self.obs.is_some() {
                    let pc = self.rob.body(slot).pc;
                    let seq = self.rob.seq_of(slot);
                    if let Some(o) = self.obs.as_deref_mut() {
                        o.emit(self.now, seq, pc, ObsEvent::FpTransmit { tainted, oblivious: false });
                    }
                }
                self.rob.body_mut(slot).status = Status::Executing;
                self.schedule(self.now + lat, slot, EvKind::Exec { value: Some(value) });
                true
            }
        }
    }

    fn issue_store(&mut self, slot: u32) {
        let e = self.rob.body(slot);
        let (base, offset, width) = e.inst.mem_operands().expect("store");
        let _ = base;
        let addr = self.src_value(e, if e.inst.int_srcs()[1].is_some() { 1 } else { 0 })
            .wrapping_add(offset as u64);
        // Data: integer stores read src slot 0; FP stores read fp slot 2.
        let data = match e.inst {
            Instruction::Store { .. } => self.src_value(e, 0),
            Instruction::FStore { .. } => self.src_value(e, 2),
            _ => unreachable!(),
        };
        let e = self.rob.body_mut(slot);
        e.addr = Some(addr);
        e.store_data = Some(data);
        e.width_bytes = width.bytes();
        e.status = Status::Executing;
        self.schedule(self.now + 1, slot, EvKind::Exec { value: None });
    }

    /// Store-queue search for an older store overlapping `addr`.
    /// `Ok(Some(value))`: full-cover forward. `Ok(None)`: no overlap.
    /// `Err(())`: must wait (unknown older address or partial overlap).
    fn sq_lookup(&self, seq: u64, addr: u64, width: u64) -> Result<Option<u64>, ()> {
        for &(s_slot, s_seq) in self.sq.iter().rev() {
            if s_seq >= seq {
                continue;
            }
            let s = self.rob.body(s_slot);
            let Some(s_addr) = s.addr else { return Err(()) };
            let s_width = s.width_bytes;
            let overlap = addr < s_addr + s_width && s_addr < addr + width;
            if !overlap {
                continue;
            }
            let covers = s_addr <= addr && addr + width <= s_addr + s_width;
            if !covers || s.store_data.is_none() {
                return Err(());
            }
            let shift = 8 * (addr - s_addr);
            let data = s.store_data.expect("checked") >> shift;
            return Ok(Some(data));
        }
        // Any older store with an unknown address blocks (conservative
        // memory-dependence policy, see DESIGN.md).
        for &(s_slot, s_seq) in &self.sq {
            if s_seq < seq && self.rob.body(s_slot).addr.is_none() {
                return Err(());
            }
        }
        Ok(None)
    }

    fn try_issue_load(&mut self, mem: &mut MemorySystem, slot: u32, seq: u64) -> bool {
        let e = self.rob.body(slot);
        let (_, offset, width) = e.inst.mem_operands().expect("load");
        let addr = self.src_value(e, 0).wrapping_add(offset as u64);
        let width_bytes = width.bytes();
        {
            let e = self.rob.body_mut(slot);
            e.addr = Some(addr);
            e.width_bytes = width_bytes;
        }

        // Memory ordering / store-to-load forwarding.
        let forwarded = match self.sq_lookup(seq, addr, width_bytes) {
            Err(()) => return false, // retry next cycle
            Ok(f) => f,
        };

        let tainted = self.addr_operand_tainted(slot);
        match self.sec.protection {
            Protection::Unsafe => {
                self.issue_normal_load(mem, slot, addr, forwarded);
                true
            }
            Protection::Stt { .. } => {
                if tainted {
                    self.note_delayed(slot);
                    self.park(slot, seq);
                    false
                } else {
                    self.finish_delay_accounting(slot);
                    self.issue_normal_load(mem, slot, addr, forwarded);
                    true
                }
            }
            Protection::Sdo(sdo) => {
                if !tainted {
                    self.finish_delay_accounting(slot);
                    self.issue_normal_load(mem, slot, addr, forwarded);
                    return true;
                }
                // Predict a level from the (public) PC.
                let oracle = mem.residency(self.id, addr);
                let mut level = self.predictor.predict(self.rob.body(slot).pc, oracle);
                if level == CacheLevel::Dram && !sdo.allow_dram_prediction {
                    level = CacheLevel::L3;
                }
                if level == CacheLevel::Dram {
                    // Revert to STT delay (Section VI-B).
                    let now = self.now;
                    let e = self.rob.body_mut(slot);
                    let newly = !e.delay_counted;
                    e.delay_counted = true;
                    if e.delayed_since.is_none() {
                        e.delayed_since = Some(now);
                    }
                    if newly {
                        self.stats.obl.dram_predictions += 1;
                        self.stats.delayed_loads += 1;
                    }
                    return false;
                }
                match mem.obl_lookup(self.id, addr, level, self.now) {
                    Err(OblReject::MshrFull) => {
                        self.stats.obl.mshr_retries += 1;
                        false
                    }
                    Ok(lookup) => {
                        self.stats.obl.issued += 1;
                        if self.obs.is_some() {
                            let pc = self.rob.body(slot).pc;
                            let depth = level.depth();
                            if let Some(o) = self.obs.as_deref_mut() {
                                o.emit(self.now, seq, pc, ObsEvent::OblProbe { level: depth });
                            }
                        }
                        if lookup.success() {
                            self.stats.obl.success += 1;
                        } else {
                            self.stats.obl.fail += 1;
                            if !lookup.tlb_hit {
                                self.stats.obl.tlb_probe_fails += 1;
                            }
                        }
                        if let Some(fwd) = forwarded {
                            // SQ forwarding: the lookup ran for timing; the
                            // load completes from the SQ at B, no
                            // validation needed (Section V-C3).
                            self.stats.obl.sq_forwarded += 1;
                            let e = self.rob.body_mut(slot);
                            e.sq_forwarded = true;
                            e.status = Status::Executing;
                            self.schedule(lookup.complete_at, slot, EvKind::LoadDone { value: fwd });
                            return true;
                        }
                        let pc = self.rob.body(slot).pc;
                        let exposure_eligible = self.exposure_condition(seq);
                        let fsm = OblLdFsm::new(pc, level, exposure_eligible, sdo.early_forward);
                        let e = self.rob.body_mut(slot);
                        e.obl = Some(fsm);
                        e.status = Status::Executing;
                        // The load enters the resolve stage's Safe-event
                        // candidate set until its address untaints.
                        self.obl_unsafe.set(slot);
                        for r in &lookup.responses {
                            self.schedule(
                                r.at,
                                slot,
                                EvKind::OblResp {
                                    level: r.level,
                                    hit: r.hit,
                                    value: r.hit.then(|| lookup.value.expect("hit has data")),
                                },
                            );
                        }
                        true
                    }
                }
            }
        }
    }

    /// Approximation of InvisiSpec's exposure condition: the load cannot
    /// be reordered with older memory operations if none are in flight.
    fn exposure_condition(&self, seq: u64) -> bool {
        let older_store = self.sq.iter().any(|&(_, s)| s < seq);
        let older_load_incomplete = self
            .lq
            .iter()
            .filter(|&&(_, s)| s < seq)
            .any(|&(l_slot, _)| !self.done_bits.get(l_slot));
        !older_store && !older_load_incomplete
    }

    fn note_delayed(&mut self, slot: u32) {
        let now = self.now;
        let e = self.rob.body_mut(slot);
        let newly = !e.delay_counted;
        e.delay_counted = true;
        if e.delayed_since.is_none() {
            e.delayed_since = Some(now);
        }
        if newly {
            self.stats.delayed_loads += 1;
        }
    }

    fn finish_delay_accounting(&mut self, slot: u32) {
        if let Some(since) = self.rob.body_mut(slot).delayed_since.take() {
            self.stats.delay_cycles += self.now - since;
        }
    }

    fn issue_normal_load(&mut self, mem: &mut MemorySystem, slot: u32, addr: u64, forwarded: Option<u64>) {
        let e = self.rob.body_mut(slot);
        e.status = Status::Executing;
        let was_dram_predicted = e.delay_counted && matches!(self.sec.protection, Protection::Sdo(_));
        if let Some(value) = forwarded {
            self.rob.body_mut(slot).sq_forwarded = true;
            // Store-to-load forwarding latency ≈ L1 hit.
            let at = self.now + self.cfg.lat.int_alu + 1;
            self.schedule(at, slot, EvKind::LoadDone { value });
            return;
        }
        let res = mem.load(self.id, addr, self.now);
        if self.obs.is_some() {
            let pc = self.rob.body(slot).pc;
            let seq = self.rob.seq_of(slot);
            let tainted = self.addr_operand_tainted(slot);
            if let Some(o) = self.obs.as_deref_mut() {
                o.emit(
                    self.now,
                    seq,
                    pc,
                    ObsEvent::MemAccess { line: addr / 64, op: MemOp::Load, tainted },
                );
            }
        }
        self.schedule(res.complete_at, slot, EvKind::LoadDone { value: res.value });
        if was_dram_predicted {
            // The location predictor said DRAM and the load reverted to
            // delayed execution; it is untainted now, so training with the
            // observed level is safe — and necessary, or the predictor
            // would never escape a DRAM rut once the data becomes
            // cache-resident.
            let pc = self.rob.body(slot).pc;
            if self.obs.is_some() {
                let seq = self.rob.seq_of(slot);
                let tainted = self.addr_operand_tainted(slot);
                if let Some(o) = self.obs.as_deref_mut() {
                    o.emit(self.now, seq, pc, ObsEvent::PredictorUpdate { tainted });
                }
            }
            self.predictor.update(pc, res.served_by.level());
            self.stats.record_prediction(CacheLevel::Dram.depth(), res.served_by.level().depth());
        }
        let _: ServedBy = res.served_by;
    }

    // ------------------------------------------------------------------
    // Dispatch (rename) stage
    // ------------------------------------------------------------------

    fn dispatch_stage(&mut self) {
        for _ in 0..self.cfg.width {
            let Some(front) = self.fetch_q.front() else { break };
            if front.ready_at > self.now {
                break;
            }
            if self.rob.len() >= self.cfg.rob_entries || self.iq.len() >= self.cfg.iq_entries {
                break;
            }
            let inst = front.inst;
            if inst.is_load() && self.lq.len() >= self.cfg.lq_entries {
                break;
            }
            if inst.is_store() && self.sq.len() >= self.cfg.sq_entries {
                break;
            }
            let needs_int = inst.int_dst().is_some();
            let needs_fp = inst.fp_dst().is_some();
            if (needs_int && self.regs.free_count(RegClass::Int) == 0)
                || (needs_fp && self.regs.free_count(RegClass::Fp) == 0)
            {
                break;
            }

            let f = self.fetch_q.pop_front().expect("non-empty");
            self.progressed = true;
            let seq = self.next_seq;
            self.next_seq += 1;

            // Rename sources: integer in slots 0-1, FP in slots 2-3.
            let mut psrcs = [None; 4];
            let int_srcs = inst.int_srcs();
            for (i, r) in int_srcs.iter().enumerate() {
                psrcs[i] = r.map(|r| self.regs.lookup_int(r));
            }
            let fp_srcs = inst.fp_srcs();
            for (i, r) in fp_srcs.iter().enumerate() {
                psrcs[2 + i] = r.map(|r| self.regs.lookup_fp(r));
            }

            // YRoT: max over sources, plus self for loads.
            let mut yrot: Option<u64> =
                psrcs.iter().flatten().filter_map(|p| self.regs.yrot(*p)).max();
            if inst.is_load() {
                yrot = Some(yrot.map_or(seq, |y| y.max(seq)));
            }

            // Rename destination.
            let (pdst, old_pdst) = if let Some(d) = inst.int_dst() {
                let (n, o) = self.regs.alloc(RegClass::Int, d.index()).expect("checked free");
                (Some(n), Some(o))
            } else if let Some(d) = inst.fp_dst() {
                let (n, o) = self.regs.alloc(RegClass::Fp, d.index()).expect("checked free");
                (Some(n), Some(o))
            } else {
                (None, None)
            };
            if let Some(p) = pdst {
                self.regs.set_yrot(p, yrot);
            }

            let class = inst.class();
            let trivially_done = matches!(class, OpClass::Nop | OpClass::Halt);
            let entry = DynInst {
                pc: f.pc,
                inst,
                status: if trivially_done { Status::Done } else { Status::Waiting },
                pdst,
                old_pdst,
                psrcs,
                pred_taken: f.pred_taken,
                pred_target: f.pred_target,
                outcome: None,
                addr: None,
                store_data: None,
                width_bytes: 8,
                delayed_since: None,
                delay_counted: false,
                obl: None,
                obl_safe_sent: false,
                obl_first_hit_at: None,
                sq_forwarded: false,
            };
            if let Some(o) = self.obs.as_deref_mut() {
                o.emit(self.now, seq, entry.pc, ObsEvent::Dispatch);
            }
            let slot = self.rob.push_back(seq, entry);
            if trivially_done {
                self.done_bits.set(slot);
            }
            if inst.is_cond_branch() || inst.is_indirect() {
                // Resolution pending: blocks visibility until applied.
                self.ctrl_unresolved.set(slot);
            }
            if inst.is_load() {
                self.load_unperformed.set(slot);
                self.lq.push((slot, seq));
            }
            if inst.is_store() {
                self.sq.push((slot, seq));
            }
            if !trivially_done {
                // Register as a waiter on each not-yet-ready source; the
                // unready count reaching zero (at the producers' writeback)
                // marks the entry issue-ready. Duplicate sources register
                // twice and are decremented twice — the count stays exact.
                let mut unready: u8 = 0;
                for p in psrcs.iter().flatten() {
                    if !self.regs.is_ready(*p) {
                        self.regs.add_waiter(*p, slot, seq);
                        unready += 1;
                    }
                }
                self.iq_unready[slot as usize] = unready;
                if unready == 0 {
                    self.iq_ready.set(slot);
                    self.iq_ready_count += 1;
                }
                self.iq.push_back(slot);
            }
        }
    }

    // ------------------------------------------------------------------
    // Fetch stage
    // ------------------------------------------------------------------

    fn fetch_stage(&mut self, mem: &mut MemorySystem) {
        if self.fetch_halted || self.now < self.fetch_stall_until {
            return;
        }
        let cap = self.cfg.width * (self.cfg.frontend_latency as usize + 2);
        for _ in 0..self.cfg.width {
            if self.fetch_q.len() >= cap {
                break;
            }
            // Every path below mutates: an icache probe/stall, a queue
            // push, or the fetch-halt latch.
            self.progressed = true;
            let pc = self.fetch_pc;
            // Instruction-cache timing: one check per text line (8
            // instructions); a miss stalls fetch until the line arrives.
            let text_line = sdo_mem::line_of(ITEXT_BASE + pc * 8);
            if self.last_fetch_line != Some(text_line) {
                let ready = mem.ifetch(self.id, text_line, self.now);
                self.last_fetch_line = Some(text_line);
                if ready > self.now {
                    self.fetch_stall_until = ready;
                    break;
                }
            }
            let inst = self.program.fetch(pc);
            self.stats.fetched += 1;
            let ready_at = self.now + self.cfg.frontend_latency;
            let mut pred_taken = false;
            let mut pred_target = pc + 1;
            let mut redirect = false;

            match inst {
                Instruction::Branch { target, .. } => {
                    pred_taken = self.bp.predict(pc);
                    if pred_taken {
                        pred_target = target;
                        redirect = true;
                    }
                }
                Instruction::Jal { dst, target } => {
                    pred_target = target;
                    pred_taken = true;
                    redirect = true;
                    if !dst.is_zero() {
                        self.ras.push(pc + 1);
                    }
                }
                Instruction::Jalr { dst, base, .. } => {
                    pred_taken = true;
                    redirect = true;
                    let is_return = dst.is_zero() && base == Reg::new(31);
                    pred_target = if is_return {
                        self.ras.pop().or_else(|| self.btb.lookup(pc)).unwrap_or(pc + 1)
                    } else {
                        self.btb.lookup(pc).unwrap_or(pc + 1)
                    };
                    if !dst.is_zero() {
                        self.ras.push(pc + 1);
                    }
                }
                Instruction::Halt => {
                    self.fetch_q.push_back(Fetched {
                        pc,
                        inst,
                        pred_taken: false,
                        pred_target: pc + 1,
                        ready_at,
                    });
                    self.fetch_halted = true;
                    return;
                }
                _ => {}
            }

            self.fetch_q.push_back(Fetched { pc, inst, pred_taken, pred_target, ready_at });
            self.fetch_pc = pred_target;
            if redirect {
                break; // one taken control transfer per fetch cycle
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SdoConfig;
    use sdo_isa::{Assembler, FReg, Interpreter, Reg};
    use sdo_mem::MemConfig;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }
    fn fr(i: u8) -> FReg {
        FReg::new(i)
    }

    fn all_configs() -> Vec<SecurityConfig> {
        let mut v = vec![SecurityConfig::unsafe_baseline()];
        for attack in AttackModel::ALL {
            for fp in [false, true] {
                v.push(SecurityConfig { protection: Protection::Stt { fp_transmitters: fp }, attack });
            }
            for kind in [
                PredictorKind::Static(CacheLevel::L1),
                PredictorKind::Static(CacheLevel::L2),
                PredictorKind::Static(CacheLevel::L3),
                PredictorKind::Hybrid,
                PredictorKind::Perfect,
            ] {
                v.push(SecurityConfig {
                    protection: Protection::Sdo(SdoConfig::with_predictor(kind)),
                    attack,
                });
            }
        }
        v
    }

    /// Runs `prog` under `sec` and returns the core (halted).
    fn run_with(prog: &Program, sec: SecurityConfig) -> (Core, MemorySystem) {
        let mut mem = MemorySystem::new(MemConfig::table_i(), 1);
        mem.load_image(prog.data());
        let mut core = Core::new(0, CoreConfig::table_i(), sec, prog.clone());
        core.run(&mut mem, 2_000_000).expect("program should halt");
        (core, mem)
    }

    /// Differentially checks committed state against the golden model for
    /// every protection configuration.
    fn check_all_configs(prog: &Program) {
        let mut golden = Interpreter::new(prog);
        golden.run(5_000_000).expect("golden halts");
        for sec in all_configs() {
            let (core, mem) = run_with(prog, sec);
            assert_eq!(
                core.arch_int(),
                golden.int_regs(),
                "int state mismatch under {sec:?} for {}",
                prog.name()
            );
            assert_eq!(
                core.arch_fp(),
                golden.fp_regs(),
                "fp state mismatch under {sec:?} for {}",
                prog.name()
            );
            for (addr, byte) in golden.mem_snapshot() {
                assert_eq!(
                    mem.backing().read_byte(addr),
                    byte,
                    "memory mismatch at {addr:#x} under {sec:?}"
                );
            }
        }
    }

    #[test]
    fn alu_loop_matches_golden_everywhere() {
        let mut asm = Assembler::named("alu_loop");
        let (n, acc) = (r(1), r(2));
        asm.li(n, 50);
        let top = asm.here();
        asm.add(acc, acc, n);
        asm.muli(r(3), r(2), 3);
        asm.xor(r(4), r(3), n);
        asm.addi(n, n, -1);
        asm.bne(n, Reg::ZERO, top);
        asm.halt();
        check_all_configs(&asm.finish().unwrap());
    }

    #[test]
    fn load_store_program_matches_golden_everywhere() {
        let mut asm = Assembler::named("ldst");
        let base = r(1);
        asm.li(base, 0x1000);
        // Write then read back a small table, summing.
        let i = r(2);
        let sum = r(3);
        let tmp = r(4);
        asm.li(i, 8);
        let top = asm.here();
        asm.slli(tmp, i, 3);
        asm.add(tmp, tmp, base);
        asm.st(i, tmp, 0);
        asm.ld(r(5), tmp, 0);
        asm.add(sum, sum, r(5));
        asm.addi(i, i, -1);
        asm.bne(i, Reg::ZERO, top);
        asm.halt();
        check_all_configs(&asm.finish().unwrap());
    }

    /// The classic Spectre-shaped loop: every iteration loads a *bound*
    /// from a large, cache-hostile array and branches on it; while that
    /// slow branch is unresolved, a fast speculative access-load and a
    /// dependent transmit-load execute in its shadow. The access-load's
    /// output is tainted (it is speculative), so the dependent load has a
    /// tainted address and must delay (STT) or issue as an Obl-Ld (SDO).
    fn spec_window_program() -> Program {
        let mut asm = Assembler::named("spec_window");
        // Bounds array: one line per iteration, too large for the L1.
        let bounds = 0x10_0000u64;
        let iters = 150u64;
        // (values are all zero == bound check always passes)
        // Pointer ring, L1-resident after the first lap.
        let ring_base = 0x2000u64;
        let ring = 8u64;
        for k in 0..ring {
            asm.data_mut().set_word(ring_base + k * 64, ring_base + ((k + 1) % ring) * 64);
        }
        let (ptr, val, bptr, bound) = (r(1), r(2), r(3), r(4));
        asm.li(ptr, ring_base as i64);
        asm.li(bptr, bounds as i64);
        let iter = r(10);
        asm.li(iter, iters as i64);
        let top = asm.here();
        asm.ld(bound, bptr, 0); // slow: streams through 150 lines
        let skip = asm.label();
        asm.bne(bound, Reg::ZERO, skip); // unresolved while bound in flight
        asm.ld(val, ptr, 0); // access: output tainted while speculative
        asm.ld(ptr, val, 0); // transmitter: tainted address
        asm.add(r(7), r(7), val);
        asm.bind(skip);
        asm.addi(bptr, bptr, 512); // next bound line (stride 8 lines)
        asm.addi(iter, iter, -1);
        asm.bne(iter, Reg::ZERO, top);
        asm.halt();
        asm.finish().unwrap()
    }

    #[test]
    fn spec_window_matches_golden_everywhere() {
        check_all_configs(&spec_window_program());
    }

    /// Runs `prog` under `sec` with fast-forward toggled and occupancy
    /// observability on, so the comparison covers the bulk-sampled
    /// histograms too.
    fn run_ff(prog: &Program, sec: SecurityConfig, ff: bool) -> (Core, MemorySystem) {
        let mem_cfg = MemConfig::table_i();
        let mut mem = MemorySystem::new(mem_cfg, 1);
        mem.load_image(prog.data());
        let mut core = Core::new(0, CoreConfig::table_i(), sec, prog.clone());
        core.enable_obs(crate::ObsConfig::occupancy(), mem_cfg.l1.mshrs as usize);
        core.set_fast_forward(ff);
        core.run(&mut mem, 2_000_000).expect("program should halt");
        (core, mem)
    }

    /// The cycle-exactness invariant (DESIGN.md "Quiescence
    /// fast-forward"): with skipping on, every observable — final cycle,
    /// core statistics, architectural state, memory statistics, and the
    /// per-cycle occupancy histograms — must be identical to the
    /// cycle-stepped run, under every protection configuration.
    #[test]
    fn fast_forward_is_cycle_exact_everywhere() {
        let prog = spec_window_program();
        let mut total_skipped = 0;
        for sec in all_configs() {
            let (skip, skip_mem) = run_ff(&prog, sec, true);
            let (step, step_mem) = run_ff(&prog, sec, false);
            assert_eq!(step.skipped_cycles(), 0, "stepped run must not skip");
            assert_eq!(skip.now(), step.now(), "cycle count diverged under {sec:?}");
            assert_eq!(skip.stats(), step.stats(), "core stats diverged under {sec:?}");
            assert_eq!(skip.arch_int(), step.arch_int(), "int state diverged under {sec:?}");
            assert_eq!(skip.arch_fp(), step.arch_fp(), "fp state diverged under {sec:?}");
            assert_eq!(skip_mem.stats(), step_mem.stats(), "mem stats diverged under {sec:?}");
            assert_eq!(skip.obs(), step.obs(), "occupancy histograms diverged under {sec:?}");
            total_skipped += skip.skipped_cycles();
        }
        assert!(
            total_skipped > 0,
            "the spec-window program must exercise at least one quiescent skip"
        );
    }

    /// Fast-forward must actually engage on a memory-bound program: the
    /// spec-window kernel streams bound lines from DRAM, so a large
    /// share of its cycles are quiescent stalls.
    #[test]
    fn fast_forward_skips_dram_stalls() {
        let prog = spec_window_program();
        let (core, _) = run_ff(&prog, SecurityConfig::unsafe_baseline(), true);
        assert!(
            core.skipped_cycles() * 4 >= core.now(),
            "expected >=25% of cycles skipped on a DRAM-bound run, got {} of {}",
            core.skipped_cycles(),
            core.now()
        );
    }

    /// Regression for the Futuristic visibility approximation documented
    /// in `update_visibility`: once an Obl-Ld passes the visibility
    /// point in a *single-core* run, its validation can no longer
    /// mismatch — the value it forwarded is the value memory holds (own
    /// stores are handled by SQ forwarding, and there is no other core
    /// to race with). So no validation-mismatch squash may ever fire.
    #[test]
    fn futuristic_visibility_point_never_squashes_on_validation_single_core() {
        let prog = spec_window_program();
        let mut validations = 0;
        for kind in [
            PredictorKind::Static(CacheLevel::L1),
            PredictorKind::Static(CacheLevel::L2),
            PredictorKind::Static(CacheLevel::L3),
            PredictorKind::Hybrid,
            PredictorKind::Perfect,
        ] {
            let sec = SecurityConfig {
                protection: Protection::Sdo(SdoConfig::with_predictor(kind)),
                attack: AttackModel::Futuristic,
            };
            let (core, _) = run_with(&prog, sec);
            validations += core.stats().obl.validations;
            assert_eq!(
                core.stats().squashes.validation,
                0,
                "validation-mismatch squash after the visibility point under {kind:?}"
            );
        }
        assert!(validations > 0, "the kernel must actually exercise validations");
    }

    #[test]
    fn stt_delays_tainted_loads_and_costs_cycles() {
        let prog = spec_window_program();
        let (unsafe_core, _) = run_with(&prog, SecurityConfig::unsafe_baseline());
        let (stt_core, _) = run_with(
            &prog,
            SecurityConfig {
                protection: Protection::Stt { fp_transmitters: false },
                attack: AttackModel::Spectre,
            },
        );
        assert!(stt_core.stats().delayed_loads > 0, "tainted loads must be delayed");
        assert_eq!(unsafe_core.stats().delayed_loads, 0);
        assert!(
            stt_core.stats().cycles > unsafe_core.stats().cycles,
            "STT ({}) should be slower than Unsafe ({})",
            stt_core.stats().cycles,
            unsafe_core.stats().cycles
        );
    }

    #[test]
    fn sdo_issues_obl_loads_and_beats_stt() {
        let prog = spec_window_program();
        let (stt_core, _) = run_with(
            &prog,
            SecurityConfig {
                protection: Protection::Stt { fp_transmitters: false },
                attack: AttackModel::Spectre,
            },
        );
        let (sdo_core, _) = run_with(
            &prog,
            SecurityConfig {
                protection: Protection::Sdo(SdoConfig::with_predictor(PredictorKind::Perfect)),
                attack: AttackModel::Spectre,
            },
        );
        assert!(sdo_core.stats().obl.issued > 0, "SDO must issue Obl-Lds");
        assert!(
            sdo_core.stats().cycles <= stt_core.stats().cycles,
            "SDO+Perfect ({}) should not be slower than STT ({})",
            sdo_core.stats().cycles,
            stt_core.stats().cycles
        );
    }

    #[test]
    fn static_l1_mispredictions_squash() {
        // Footprint larger than L1 so Static L1 predictions fail for the
        // tainted loads; fails surface as obl_fail squashes.
        let mut asm = Assembler::named("l1_hostile");
        let table = 0x10_0000u64;
        let n = 512u64; // 512 lines x 64B = 32KB+ footprint with stride 64
        for k in 0..n {
            asm.data_mut().set_word(table + k * 64, (k + 1) % n * 64 + table);
        }
        let (ptr, bptr, bound) = (r(1), r(3), r(4));
        asm.li(ptr, table as i64);
        asm.li(bptr, 0x40_0000);
        let iter = r(10);
        asm.li(iter, 600);
        let top = asm.here();
        asm.ld(bound, bptr, 0); // slow bound load opens the window
        let skip = asm.label();
        asm.bne(bound, Reg::ZERO, skip); // never taken
        asm.ld(r(6), ptr, 0); // access: output tainted while speculative
        asm.ld(r(7), r(6), 0); // tainted transmitter over a >L1 footprint
        asm.bind(skip);
        asm.ld(ptr, ptr, 0); // untainted ring walk (next line)
        asm.addi(bptr, bptr, 512);
        asm.addi(iter, iter, -1);
        asm.bne(iter, Reg::ZERO, top);
        asm.halt();
        let prog = asm.finish().unwrap();
        let (core, _) = run_with(
            &prog,
            SecurityConfig {
                protection: Protection::Sdo(SdoConfig::with_predictor(PredictorKind::Static(
                    CacheLevel::L1,
                ))),
                attack: AttackModel::Futuristic,
            },
        );
        assert!(core.stats().obl.fail > 0, "cold L1 predictions must fail");
        assert!(
            core.stats().squashes.obl_fail > 0,
            "futuristic model: fails discovered after forward squash"
        );
    }

    fn fp_program(subnormal: bool) -> Program {
        let mut asm = Assembler::named("fp_chain");
        let x = if subnormal { f64::MIN_POSITIVE / 16.0 } else { 1.5 };
        asm.data_mut().set_f64(0x100, x);
        asm.data_mut().set_f64(0x108, 2.0);
        let (bptr, bound) = (r(1), r(2));
        let bounds = 0x10_0000u64;
        asm.li(bptr, bounds as i64);
        asm.li(r(8), 0x100);
        let iter = r(10);
        asm.li(iter, 40);
        let top = asm.here();
        asm.ld(bound, bptr, 0); // slow bound load opens the window
        let skip = asm.label();
        asm.bne(bound, Reg::ZERO, skip); // never taken
        // FP loads execute speculatively in the branch shadow: their
        // outputs taint and the fmul is a tainted FP transmitter.
        asm.fld(fr(1), r(8), 0);
        asm.fld(fr(2), r(8), 8);
        asm.fmul(fr(3), fr(1), fr(2));
        asm.fst(fr(3), r(8), 16);
        asm.bind(skip);
        asm.addi(bptr, bptr, 512);
        asm.addi(iter, iter, -1);
        asm.bne(iter, Reg::ZERO, top);
        asm.halt();
        asm.finish().unwrap()
    }

    #[test]
    fn fp_programs_match_golden_everywhere() {
        check_all_configs(&fp_program(false));
        check_all_configs(&fp_program(true));
    }

    #[test]
    fn fp_sdo_fails_on_subnormal_and_recovers() {
        let sec = SecurityConfig {
            protection: Protection::Sdo(SdoConfig::with_predictor(PredictorKind::Perfect)),
            attack: AttackModel::Spectre,
        };
        let (normal_core, _) = run_with(&fp_program(false), sec);
        assert!(normal_core.stats().fp_sdo_issued > 0);
        assert_eq!(normal_core.stats().squashes.fp_fail, 0);

        let (sub_core, sub_mem) = run_with(&fp_program(true), sec);
        assert!(sub_core.stats().squashes.fp_fail > 0, "subnormal inputs must squash");
        // Result still functionally correct.
        let expected = (f64::MIN_POSITIVE / 16.0) * 2.0;
        assert_eq!(f64::from_bits(sub_mem.backing().read_word(0x110)), expected);
    }

    #[test]
    fn stt_fp_delays_fp_transmitters() {
        let (core, _) = run_with(
            &fp_program(false),
            SecurityConfig {
                protection: Protection::Stt { fp_transmitters: true },
                attack: AttackModel::Spectre,
            },
        );
        assert!(core.stats().delayed_fp > 0, "tainted fmul must be delayed under STT{{ld+fp}}");
    }

    #[test]
    fn futuristic_is_not_cheaper_than_spectre_for_stt() {
        let prog = spec_window_program();
        let (spectre, _) = run_with(
            &prog,
            SecurityConfig {
                protection: Protection::Stt { fp_transmitters: false },
                attack: AttackModel::Spectre,
            },
        );
        let (fut, _) = run_with(
            &prog,
            SecurityConfig {
                protection: Protection::Stt { fp_transmitters: false },
                attack: AttackModel::Futuristic,
            },
        );
        assert!(
            fut.stats().cycles >= spectre.stats().cycles,
            "futuristic ({}) must be at least as slow as spectre ({})",
            fut.stats().cycles,
            spectre.stats().cycles
        );
    }

    #[test]
    fn branch_mispredicts_recover() {
        // Data-dependent unpredictable branches.
        let mut asm = Assembler::named("branchy");
        for k in 0..64u64 {
            asm.data_mut().set_word(0x400 + k * 8, (k * 2654435761) >> 7 & 1);
        }
        let (i, base, acc) = (r(1), r(2), r(3));
        asm.li(base, 0x400);
        asm.li(i, 64);
        let top = asm.here();
        asm.slli(r(4), i, 3);
        asm.add(r(4), r(4), base);
        asm.ld(r(5), r(4), -8);
        let odd = asm.label();
        let join = asm.label();
        asm.bne(r(5), Reg::ZERO, odd);
        asm.addi(acc, acc, 1);
        asm.j(join);
        asm.bind(odd);
        asm.addi(acc, acc, 100);
        asm.bind(join);
        asm.addi(i, i, -1);
        asm.bne(i, Reg::ZERO, top);
        asm.halt();
        let prog = asm.finish().unwrap();
        check_all_configs(&prog);
        let (core, _) = run_with(&prog, SecurityConfig::unsafe_baseline());
        assert!(core.stats().mispredicts > 0, "pattern should produce some mispredicts");
        assert!(core.stats().squashes.branch > 0);
    }

    #[test]
    fn function_calls_via_ras() {
        let mut asm = Assembler::named("calls");
        let ra = r(31);
        let func = asm.label();
        let iter = r(10);
        asm.li(iter, 20);
        let top = asm.here();
        asm.jal(ra, func);
        asm.addi(iter, iter, -1);
        asm.bne(iter, Reg::ZERO, top);
        asm.halt();
        asm.bind(func);
        asm.addi(r(1), r(1), 5);
        asm.jr(ra);
        check_all_configs(&asm.finish().unwrap());
    }

    #[test]
    fn store_to_load_forwarding_works() {
        let mut asm = Assembler::named("fwd");
        asm.li(r(1), 0x800);
        asm.li(r(2), 4242);
        asm.st(r(2), r(1), 0);
        asm.ld(r(3), r(1), 0); // forwarded from SQ
        asm.addi(r(3), r(3), 1);
        asm.halt();
        check_all_configs(&asm.finish().unwrap());
    }

    #[test]
    fn byte_accesses_match_golden() {
        let mut asm = Assembler::named("bytes");
        asm.data_mut().set_word(0x900, 0x1122_3344_5566_7788);
        asm.li(r(1), 0x900);
        asm.ldb(r(2), r(1), 0);
        asm.ldb(r(3), r(1), 7);
        asm.stb(r(3), r(1), 9);
        asm.ldb(r(4), r(1), 9);
        asm.halt();
        check_all_configs(&asm.finish().unwrap());
    }

    #[test]
    fn commit_trace_matches_golden_order() {
        let prog = spec_window_program();
        let mut golden = Interpreter::new(&prog);
        let trace = golden.run_trace(1_000_000).unwrap();
        let golden_pcs: Vec<u64> = trace.iter().map(|e| e.pc).collect();

        let mut mem = MemorySystem::new(MemConfig::table_i(), 1);
        mem.load_image(prog.data());
        let mut core = Core::new(
            0,
            CoreConfig::table_i(),
            SecurityConfig {
                protection: Protection::Sdo(SdoConfig::with_predictor(PredictorKind::Hybrid)),
                attack: AttackModel::Futuristic,
            },
            prog.clone(),
        );
        core.record_commits();
        core.run(&mut mem, 2_000_000).unwrap();
        let got = core.commit_pcs().unwrap();
        // The final Halt commits in the core; the golden trace stops
        // before recording it.
        assert_eq!(&got[..got.len() - 1], &golden_pcs[..]);
    }

    #[test]
    fn cycle_limit_reported() {
        let mut asm = Assembler::new();
        let top = asm.here();
        asm.j(top);
        let prog = asm.finish().unwrap();
        let mut mem = MemorySystem::new(MemConfig::table_i(), 1);
        let mut core =
            Core::new(0, CoreConfig::table_i(), SecurityConfig::unsafe_baseline(), prog);
        let err = core.run(&mut mem, 1000).unwrap_err();
        assert_eq!(err, RunError::CycleLimit { max_cycles: 1000 });
    }

    #[test]
    fn tainted_branch_resolution_is_delayed_under_stt() {
        // A mispredicted branch whose predicate is a speculatively-loaded
        // value: STT must defer the squash until the producer untaints,
        // so the mispredicted branch commits later than under Unsafe.
        let mut asm = Assembler::named("tainted_branch");
        // Slow bound load opens a window; the shadowed load feeds a
        // 50/50-ish branch that WILL mispredict sometimes.
        asm.data_mut().set_word(0x2000, 1); // branch predicate source
        let (bptr, bound, val) = (r(1), r(2), r(3));
        asm.li(bptr, 0x40_0000);
        asm.li(r(9), 0x2000);
        let iter = r(10);
        asm.li(iter, 40);
        let esc = asm.label();
        let top = asm.here();
        asm.ld(bound, bptr, 0);
        asm.bne(bound, Reg::ZERO, esc); // never taken, slow predicate
        asm.ld(val, r(9), 0); // speculative access: output tainted
        let flip = asm.label();
        let join = asm.label();
        // Alternate the predicate source so the branch mispredicts.
        asm.andi(r(4), iter, 1);
        asm.st(r(4), r(9), 0);
        asm.beq(val, Reg::ZERO, flip); // tainted predicate, alternating
        asm.addi(r(7), r(7), 1);
        asm.j(join);
        asm.bind(flip);
        asm.addi(r(7), r(7), 2);
        asm.bind(join);
        asm.addi(bptr, bptr, 512);
        asm.addi(iter, iter, -1);
        asm.bne(iter, Reg::ZERO, top);
        asm.bind(esc);
        asm.halt();
        let prog = asm.finish().unwrap();

        check_all_configs(&prog); // functional equivalence first
        let (unsafe_core, _) = run_with(&prog, SecurityConfig::unsafe_baseline());
        let (stt_core, _) = run_with(
            &prog,
            SecurityConfig {
                protection: Protection::Stt { fp_transmitters: false },
                attack: AttackModel::Spectre,
            },
        );
        assert!(unsafe_core.stats().mispredicts > 5, "the pattern must mispredict");
        assert!(stt_core.stats().mispredicts > 5);
        assert!(
            stt_core.stats().cycles > unsafe_core.stats().cycles,
            "deferred resolutions (and delayed dependents) must cost cycles: {} vs {}",
            stt_core.stats().cycles,
            unsafe_core.stats().cycles
        );
    }

    #[test]
    fn obl_exposures_happen_for_l1_hits() {
        // A hot pointer ring: Obl-Ld L1 hits choose exposure over
        // validation (Section VI-A, field 3).
        let prog = spec_window_program();
        let (core, _) = run_with(
            &prog,
            SecurityConfig {
                protection: Protection::Sdo(SdoConfig::with_predictor(PredictorKind::Perfect)),
                attack: AttackModel::Spectre,
            },
        );
        assert!(core.stats().obl.exposures > 0, "L1-hit Obl-Lds must expose, not validate");
    }

    #[test]
    fn partial_store_overlap_stalls_but_completes() {
        // A byte store under a word load to the same line: the load must
        // wait (no partial forwarding), and the final value is correct.
        let mut asm = Assembler::named("partial_overlap");
        asm.li(r(1), 0x800);
        asm.li(r(2), 0x1111_1111);
        asm.st(r(2), r(1), 0);
        asm.li(r(3), 0xff);
        asm.stb(r(3), r(1), 1); // overlaps the word
        asm.ld(r(4), r(1), 0); // partial overlap: waits for the store
        asm.halt();
        check_all_configs(&asm.finish().unwrap());
    }

    #[test]
    fn lq_capacity_limits_inflight_loads() {
        // More independent loads than LQ entries on the tiny config (4):
        // dispatch must stall but everything completes correctly.
        let mut asm = Assembler::named("lq_pressure");
        for k in 0..12u8 {
            asm.data_mut().set_word(0x1000 + u64::from(k) * 8, u64::from(k) + 1);
        }
        asm.li(r(1), 0x1000);
        for k in 0..12u8 {
            asm.ld(r(2 + k % 8), r(1), i64::from(k) * 8);
        }
        asm.halt();
        let prog = asm.finish().unwrap();
        let mut golden = Interpreter::new(&prog);
        golden.run(100_000).unwrap();
        let golden_regs = golden.int_regs();
        let mut mem = MemorySystem::new(MemConfig::tiny(), 1);
        mem.load_image(prog.data());
        let mut core = Core::new(0, CoreConfig::tiny(), SecurityConfig::unsafe_baseline(), prog);
        core.run(&mut mem, 100_000).unwrap();
        assert_eq!(core.arch_int(), golden_regs);
    }

    #[test]
    fn tainted_fp_and_byte_loads_take_the_obl_path_correctly() {
        // FP-destination and byte-width loads with *tainted addresses*:
        // both must round through the Obl-Ld machinery (value widths,
        // FP register writeback) without corrupting state.
        let mut asm = Assembler::named("tainted_widths");
        asm.data_mut().set_word(0x2000, 0x3000); // pointer to data block
        asm.data_mut().set_f64(0x3000, 6.25);
        asm.data_mut().set_word(0x3008, 0xAB);
        let (bptr, bound, p) = (r(1), r(2), r(3));
        asm.li(bptr, 0x40_0000);
        asm.li(r(9), 0x2000);
        let iter = r(10);
        asm.li(iter, 25);
        let esc = asm.label();
        let top = asm.here();
        asm.ld(bound, bptr, 0); // slow window opener
        asm.bne(bound, Reg::ZERO, esc);
        asm.ld(p, r(9), 0); // access: p is tainted
        asm.fld(fr(1), p, 0); // tainted-address FP load (Obl-Ld, fp dest)
        asm.ldb(r(4), p, 8); // tainted-address byte load
        asm.fadd(fr(2), fr(2), fr(1));
        asm.add(r(7), r(7), r(4));
        asm.bind(esc);
        asm.addi(bptr, bptr, 512);
        asm.addi(iter, iter, -1);
        asm.bne(iter, Reg::ZERO, top);
        asm.halt();
        let prog = asm.finish().unwrap();
        check_all_configs(&prog);
        // And the Obl path really was exercised.
        let (core, _) = run_with(
            &prog,
            SecurityConfig {
                protection: Protection::Sdo(SdoConfig::with_predictor(PredictorKind::Perfect)),
                attack: AttackModel::Spectre,
            },
        );
        assert!(core.stats().obl.issued > 10, "tainted fld/ldb must issue as Obl-Lds");
    }

    #[test]
    fn icache_misses_are_charged_for_large_code_footprints() {
        // A straight-line program spanning many text lines: the frontend
        // must stall on I-cache misses at least once per line.
        let mut asm = Assembler::named("big_code");
        for k in 0..512 {
            asm.addi(r(1), r(1), k % 7);
        }
        asm.halt();
        let prog = asm.finish().unwrap();
        let mut mem = MemorySystem::new(MemConfig::table_i(), 1);
        mem.load_image(prog.data());
        let mut core =
            Core::new(0, CoreConfig::table_i(), SecurityConfig::unsafe_baseline(), prog);
        core.run(&mut mem, 1_000_000).unwrap();
        // 513 instructions / 8 per line = ~65 lines, each a cold miss.
        assert!(mem.stats().icache_misses >= 60, "got {}", mem.stats().icache_misses);

        // A hot loop spanning two text lines re-crosses the line boundary
        // every iteration: warm fetches must be L1I hits.
        let mut asm = Assembler::named("hot_loop");
        let iter = r(10);
        asm.li(iter, 300);
        let top = asm.here();
        for _ in 0..9 {
            asm.nop(); // push the back-edge onto a second line
        }
        asm.addi(iter, iter, -1);
        asm.bne(iter, Reg::ZERO, top);
        asm.halt();
        let prog = asm.finish().unwrap();
        let mut mem = MemorySystem::new(MemConfig::table_i(), 1);
        let mut core =
            Core::new(0, CoreConfig::table_i(), SecurityConfig::unsafe_baseline(), prog);
        core.run(&mut mem, 1_000_000).unwrap();
        assert!(
            mem.stats().icache_hits > 100,
            "looping code must hit the warm L1I, got {}",
            mem.stats().icache_hits
        );
    }

    #[test]
    fn event_trace_records_ordered_lifecycles() {
        let prog = spec_window_program();
        let mut mem = MemorySystem::new(MemConfig::table_i(), 1);
        mem.load_image(prog.data());
        let mut core = Core::new(
            0,
            CoreConfig::table_i(),
            SecurityConfig {
                protection: Protection::Stt { fp_transmitters: false },
                attack: AttackModel::Spectre,
            },
            prog.clone(),
        );
        core.enable_obs(ObsConfig { occupancy: false, trace_capacity: 4000 }, 0);
        core.run(&mut mem, 2_000_000).unwrap();
        let trace = core.obs().and_then(PipelineObs::trace).expect("tracing enabled");
        // First dispatch, issue and commit cycle of each traced seq.
        let mut lifecycles = std::collections::BTreeMap::<u64, [Option<Cycle>; 3]>::new();
        for e in trace.events() {
            let stage = match e.kind {
                ObsEvent::Dispatch => 0,
                ObsEvent::Issue => 1,
                ObsEvent::Commit => 2,
                _ => continue,
            };
            lifecycles.entry(e.seq).or_default()[stage].get_or_insert(e.cycle);
        }
        let mut committed = 0;
        for (seq, [dispatch, issue, commit]) in &lifecycles {
            let dispatch = dispatch.unwrap_or_else(|| panic!("seq {seq} traced before dispatch"));
            assert!(issue.is_none_or(|i| i >= dispatch), "seq {seq} issued before dispatch");
            if let Some(c) = *commit {
                committed += 1;
                assert!(c >= issue.unwrap_or(dispatch), "seq {seq} committed before issue");
            }
        }
        assert!(committed > 100, "most traced instructions commit, got {committed}");
        // STT shows up in the trace: the window's loads wait for the
        // bounds check they are speculative under, so the median load
        // spends over 20 cycles between dispatch and issue. (Some load
        // does under Unsafe too, when a squash refills the window, but
        // there the median is a few cycles.)
        let mut load_gaps: Vec<Cycle> = trace
            .events()
            .iter()
            .filter(|e| {
                e.kind == ObsEvent::Dispatch && prog.instructions()[e.pc as usize].is_load()
            })
            .filter_map(|e| Some(lifecycles[&e.seq][1]? - e.cycle))
            .collect();
        load_gaps.sort_unstable();
        assert!(load_gaps[load_gaps.len() / 2] > 20, "STT delay must be visible: {load_gaps:?}");
    }

    #[test]
    fn tiny_config_also_works() {
        let prog = spec_window_program();
        let mut golden = Interpreter::new(&prog);
        golden.run(5_000_000).unwrap();
        for sec in all_configs() {
            let mut mem = MemorySystem::new(MemConfig::tiny(), 1);
            mem.load_image(prog.data());
            let mut core = Core::new(0, CoreConfig::tiny(), sec, prog.clone());
            core.run(&mut mem, 5_000_000).expect("halts");
            assert_eq!(core.arch_int(), golden.int_regs(), "tiny mismatch under {sec:?}");
        }
    }

    /// Observability is a pure observer: timing and architectural state
    /// are bit-identical with it on or off, and what it records is
    /// consistent with the stats counters.
    #[test]
    fn obs_probe_observes_without_perturbing() {
        let prog = spec_window_program();
        let sec = SecurityConfig {
            protection: Protection::Sdo(SdoConfig::with_predictor(PredictorKind::Hybrid)),
            attack: AttackModel::Spectre,
        };
        let (plain_core, _) = run_with(&prog, sec);

        let mut mem = MemorySystem::new(MemConfig::table_i(), 1);
        mem.load_image(prog.data());
        let mut core = Core::new(0, CoreConfig::table_i(), sec, prog.clone());
        core.enable_obs(ObsConfig::full(1 << 20), MemConfig::table_i().l1.mshrs as usize);
        core.run(&mut mem, 2_000_000).expect("halts");

        assert_eq!(core.now(), plain_core.now(), "obs must not change timing");
        assert_eq!(core.stats(), plain_core.stats());
        assert_eq!(core.arch_int(), plain_core.arch_int());

        let obs = core.obs().expect("enabled");
        // One occupancy sample per cycle, in every histogram.
        assert_eq!(obs.rob.count(), core.now());
        assert_eq!(obs.mshr.count(), core.now());
        assert!(obs.rob.max() <= CoreConfig::table_i().rob_entries as u64);
        assert!(obs.rob.mean() > 0.0, "the window keeps the ROB non-empty");

        let trace = obs.trace().expect("tracing enabled");
        assert_eq!(trace.dropped(), 0, "capacity chosen to hold the whole run");
        let count = |pred: fn(&sdo_obs::Event) -> bool| {
            trace.events().iter().filter(|e| pred(e)).count() as u64
        };
        let stats = core.stats();
        assert_eq!(count(|e| e.kind == ObsEvent::Commit), stats.committed);
        assert_eq!(
            count(|e| matches!(e.kind, ObsEvent::OblProbe { .. })),
            stats.obl.issued
        );
        assert_eq!(
            count(|e| matches!(e.kind, ObsEvent::Validate { .. })),
            stats.obl.validations
        );
        assert_eq!(count(|e| e.kind == ObsEvent::Expose), stats.obl.exposures);
        assert_eq!(
            count(|e| matches!(e.kind, ObsEvent::Squash { .. })),
            stats.squashes.total(),
            "one squash event per counted squash"
        );
        // Events are emitted in nondecreasing cycle order.
        assert!(trace.events().windows(2).all(|w| w[0].cycle <= w[1].cycle));

        // take_obs detaches the probe.
        let boxed = core.take_obs().expect("probe present");
        assert!(core.obs().is_none());
        assert_eq!(boxed.rob.count(), plain_core.now());
    }
}
