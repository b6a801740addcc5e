//! The simulation driver: one canonical [`RunRequest`] → statistics.
//!
//! Every simulation in the workspace — figures, sensitivity sweeps,
//! verification captures, penetration tests, benches — is expressed as a
//! [`RunRequest`] and executed through [`Simulator::run`], the single
//! entry point. One request type keeps the surface hashable (the
//! content-addressed result store keys off it; see `store.rs`) and
//! serializable (the `sdo-serve` daemon ships it over a line-delimited
//! JSON protocol; see `proto.rs`).

use crate::config::{SimConfig, Variant};
use sdo_isa::Program;
use sdo_mem::{CacheLevel, MemStats, MemorySystem};
use sdo_uarch::{
    AttackModel, Core, CoreStats, MetricsSnapshot, PipelineObs, Protection, SdoConfig,
    SecurityConfig,
};
use std::error::Error;
use std::fmt;

/// Error from a simulation run (local or served).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The program exceeded the configured cycle budget.
    Hang {
        /// The exhausted budget.
        max_cycles: u64,
        /// The workload's name.
        workload: String,
    },
    /// The content-addressed result store failed (I/O or a corrupt
    /// cached entry).
    Store(String),
    /// The `sdo-serve` transport failed or the daemon reported an error.
    Server(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Hang { max_cycles, workload } => {
                write!(f, "workload '{workload}' did not halt within {max_cycles} cycles")
            }
            SimError::Store(msg) => write!(f, "result store: {msg}"),
            SimError::Server(msg) => write!(f, "sdo-serve: {msg}"),
        }
    }
}

impl Error for SimError {}

/// The one canonical description of a simulation: program(s), optional
/// machine-configuration override, variant, attack model, optional SDO
/// override, seed, and whether to record the committed-PC stream.
///
/// Build one with [`RunRequest::program`], [`RunRequest::workload`], or
/// [`RunRequest::multi`] and chain the setters:
///
/// ```
/// use sdo_harness::{AttackModel, RunRequest, SimConfig, Simulator, Variant};
/// let prog = sdo_workloads::kernels::l1_resident(100, 1);
/// let req = RunRequest::program(&prog).variant(Variant::Hybrid).attack(AttackModel::Spectre);
/// let result = Simulator::new(SimConfig::tiny()).run(&req)?.into_result();
/// assert!(result.cycles > 0);
/// # Ok::<(), sdo_harness::SimError>(())
/// ```
///
/// The fields are public so the wire codec and the `RunKey` hash can
/// destructure the request exhaustively — adding a field without teaching
/// both is a compile error.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// Programs to run, one per core (one ⇒ single-core with optional
    /// fast-forward; several ⇒ lockstep multi-core on a shared hierarchy).
    pub programs: Vec<Program>,
    /// Cache warm-start ranges `(start, bytes, level)` installed before
    /// the run (single-core requests only; the SimPoint-checkpoint
    /// substitute, DESIGN.md §5).
    pub prewarm: Vec<(u64, u64, CacheLevel)>,
    /// The Table II variant to simulate.
    pub variant: Variant,
    /// The attack model (untaint timing).
    pub attack: AttackModel,
    /// Machine-configuration override; `None` uses the [`Simulator`]'s
    /// configuration (sensitivity sweeps set this per request so a grid
    /// of configurations is one batch).
    pub config: Option<SimConfig>,
    /// SDO override: replaces an SDO variant's own predictor, early
    /// forwarding and DRAM policy (the ablations set this per request);
    /// a non-SDO variant ignores it. See [`RunRequest::security`].
    pub sdo: Option<SdoConfig>,
    /// Workload-generation seed. The simulator itself is deterministic —
    /// the seed never perturbs execution — but it is part of the
    /// [`RunKey`](crate::store::RunKey) so independently-generated
    /// programs that happen to collide textually stay distinct in the
    /// result store.
    pub seed: u64,
    /// Record the committed-PC stream (cross-layout differential
    /// testing). Recording makes a request uncacheable.
    pub record: bool,
}

impl RunRequest {
    fn base(programs: Vec<Program>, prewarm: Vec<(u64, u64, CacheLevel)>) -> Self {
        RunRequest {
            programs,
            prewarm,
            variant: Variant::Unsafe,
            attack: AttackModel::Spectre,
            config: None,
            sdo: None,
            seed: 0,
            record: false,
        }
    }

    /// A request for one program with no warm-start hints.
    #[must_use]
    pub fn program(program: &Program) -> Self {
        Self::base(vec![program.clone()], Vec::new())
    }

    /// A request for a [`Workload`](sdo_workloads::Workload): its program
    /// plus its cache warm-start hints.
    #[must_use]
    pub fn workload(workload: &sdo_workloads::Workload) -> Self {
        Self::base(vec![workload.program().clone()], workload.prewarm_ranges().to_vec())
    }

    /// A request for one program per core on a shared memory hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty.
    #[must_use]
    pub fn multi(programs: &[Program]) -> Self {
        assert!(!programs.is_empty(), "need at least one program");
        Self::base(programs.to_vec(), Vec::new())
    }

    /// Sets the variant.
    #[must_use]
    pub fn variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Sets the attack model.
    #[must_use]
    pub fn attack(mut self, attack: AttackModel) -> Self {
        self.attack = attack;
        self
    }

    /// Overrides the machine configuration for this request.
    #[must_use]
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Overrides an SDO variant's own settings for this request.
    #[must_use]
    pub fn sdo(mut self, sdo: SdoConfig) -> Self {
        self.sdo = Some(sdo);
        self
    }

    /// Sets the workload-generation seed (cache-key disambiguation only).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Requests the committed-PC stream (see [`RunOutput::commit_pcs`]).
    #[must_use]
    pub fn record(mut self) -> Self {
        self.record = true;
        self
    }

    /// Adds a cache warm-start range.
    #[must_use]
    pub fn warmed(mut self, start: u64, bytes: u64, level: CacheLevel) -> Self {
        self.prewarm.push((start, bytes, level));
        self
    }

    /// The configuration this request runs under, given the simulator's
    /// base configuration.
    #[must_use]
    pub fn effective_config(&self, base: SimConfig) -> SimConfig {
        self.config.unwrap_or(base)
    }

    /// The SDO override that changes this run: the `sdo` field on an SDO
    /// variant whose own settings it does not equal, else `None`. The
    /// [`RunKey`](crate::store::RunKey) hashes this, so an override that
    /// does nothing keys as no override.
    #[must_use]
    pub(crate) fn effective_sdo(&self) -> Option<SdoConfig> {
        match self.variant.security(self.attack).protection {
            Protection::Sdo(own) => self.sdo.filter(|&sdo| sdo != own),
            Protection::Unsafe | Protection::Stt { .. } => None,
        }
    }

    /// The security configuration this request runs under: its variant's
    /// under its attack model, with an SDO variant's own settings
    /// replaced by the [`sdo`](RunRequest::sdo) override when one is set.
    #[must_use]
    pub fn security(&self) -> SecurityConfig {
        let mut sec = self.variant.security(self.attack);
        if let Some(sdo) = self.effective_sdo() {
            sec.protection = Protection::Sdo(sdo);
        }
        sec
    }
}

/// Results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// The variant simulated.
    pub variant: Variant,
    /// Attack model.
    pub attack: AttackModel,
    /// Total cycles to halt.
    pub cycles: u64,
    /// Core-side statistics.
    pub core: CoreStats,
    /// Memory-side statistics.
    pub mem: MemStats,
    /// Observability probe detached from the core after the run
    /// (`None` when the machine's [`ObsConfig`](sdo_uarch::ObsConfig)
    /// is off).
    pub obs: Option<Box<PipelineObs>>,
    /// Cycles elided by quiescence fast-forward (0 when disabled or for
    /// multi-core runs). Deliberately excluded from [`RunResult::metrics`]
    /// and the CSV export: it describes the host-side loop, not the
    /// simulated machine, and metric/CSV output must stay byte-identical
    /// with skipping on or off.
    pub skipped_cycles: u64,
}

impl RunResult {
    /// Execution time normalized to a baseline run (usually `Unsafe`).
    #[must_use]
    pub fn normalized_to(&self, baseline: &RunResult) -> f64 {
        self.cycles as f64 / baseline.cycles as f64
    }

    /// This run's metric snapshot: every core counter under `core.*`,
    /// every memory counter under `mem.*`, occupancy histograms under
    /// `pipeline.*` (when observability was enabled), plus `run.cycles`
    /// and `run.sims`. Merging snapshots of several runs aggregates
    /// them (counters sum, histograms pool).
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::new();
        m.add("run.sims", 1);
        m.add("run.cycles", self.cycles);
        self.core.export_metrics(&mut m, "core");
        self.mem.export_metrics(&mut m, "mem");
        if let Some(obs) = &self.obs {
            obs.export(&mut m, "pipeline");
        }
        m
    }
}

/// Everything a simulation produced: per-core results, each core's final
/// architectural registers (the interpreter differential compares them),
/// the final memory system (covert-channel receivers inspect cache
/// residency), and the committed-PC stream when the request asked for it.
#[derive(Debug)]
pub struct RunOutput {
    results: Vec<RunResult>,
    /// Per core: committed integer registers, then FP bit patterns.
    regs: Vec<([u64; 32], [u64; 32])>,
    mem: MemorySystem,
    commit_pcs: Option<Vec<u64>>,
}

impl RunOutput {
    /// The sole result of a single-core run.
    ///
    /// # Panics
    ///
    /// Panics if the request ran more than one core.
    #[must_use]
    pub fn into_result(self) -> RunResult {
        assert_eq!(self.results.len(), 1, "into_result on a multi-core output");
        self.results.into_iter().next().expect("one result")
    }

    /// Borrows the first (for single-core runs, the only) result.
    #[must_use]
    pub fn result(&self) -> &RunResult {
        &self.results[0]
    }

    /// Per-core results, in program order.
    #[must_use]
    pub fn results(&self) -> &[RunResult] {
        &self.results
    }

    /// Core `core`'s committed integer registers at the end of the run.
    ///
    /// # Panics
    ///
    /// Panics if the request ran fewer than `core + 1` cores.
    #[must_use]
    pub fn int_regs(&self, core: usize) -> [u64; 32] {
        self.regs[core].0
    }

    /// Core `core`'s committed FP register bit patterns at the end of the
    /// run.
    ///
    /// # Panics
    ///
    /// Panics if the request ran fewer than `core + 1` cores.
    #[must_use]
    pub fn fp_regs(&self, core: usize) -> [u64; 32] {
        self.regs[core].1
    }

    /// The memory system as the run left it.
    #[must_use]
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// The committed-PC stream (`Some` iff the request set
    /// [`RunRequest::record`] on a single-core run).
    #[must_use]
    pub fn commit_pcs(&self) -> Option<&[u64]> {
        self.commit_pcs.as_deref()
    }
}

/// Reusable simulation driver for a fixed machine configuration.
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: SimConfig,
}

impl Simulator {
    /// Creates a driver for the given machine.
    #[must_use]
    pub fn new(cfg: SimConfig) -> Self {
        Simulator { cfg }
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Runs a request to completion. This is the workspace's only
    /// simulation entry point.
    ///
    /// Single-program requests honor warm-start hints, quiescence
    /// fast-forward and PC recording; multi-program requests tick one
    /// core per program round-robin on a shared hierarchy (no
    /// fast-forward, no recording — lockstep timing is the point).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Hang`] if any core exceeds the cycle budget.
    ///
    /// # Panics
    ///
    /// Panics if the request has no programs or more programs than mesh
    /// tiles.
    pub fn run(&self, req: &RunRequest) -> Result<RunOutput, SimError> {
        let cfg = req.effective_config(self.cfg);
        let programs = &req.programs;
        assert!(!programs.is_empty(), "request needs at least one program");
        let mut mem = MemorySystem::new(cfg.mem, programs.len());
        for p in programs {
            mem.load_image(p.data());
        }
        let sec = req.security();
        let mut cores: Vec<Core> = programs
            .iter()
            .enumerate()
            .map(|(id, p)| {
                let mut c = Core::new(id, cfg.core, sec, p.clone());
                c.enable_obs(cfg.obs, cfg.mem.l1.mshrs as usize);
                c
            })
            .collect();
        let hang = |stuck: usize| SimError::Hang {
            max_cycles: cfg.max_cycles,
            workload: programs[stuck].name().to_string(),
        };
        match cores.as_mut_slice() {
            [core] => {
                for &(start, bytes, level) in &req.prewarm {
                    mem.prewarm(0, start, bytes, level);
                }
                core.set_fast_forward(cfg.fast_forward);
                if req.record {
                    core.record_commits();
                }
                core.run(&mut mem, cfg.max_cycles).map_err(|_| hang(0))?;
            }
            cores => {
                let mut elapsed = 0u64;
                while let Some(stuck) = cores.iter().position(|c| !c.halted()) {
                    if elapsed >= cfg.max_cycles {
                        return Err(hang(stuck));
                    }
                    for core in cores.iter_mut() {
                        core.tick(&mut mem);
                    }
                    elapsed += 1;
                }
            }
        }
        let commit_pcs = cores[0].commit_pcs().map(<[u64]>::to_vec);
        let regs = cores.iter().map(|core| (core.arch_int(), core.arch_fp())).collect();
        let results = cores
            .iter_mut()
            .zip(programs)
            .map(|(core, p)| RunResult {
                workload: p.name().to_string(),
                variant: req.variant,
                attack: req.attack,
                cycles: core.now(),
                core: *core.stats(),
                mem: *mem.stats(),
                obs: core.take_obs(),
                skipped_cycles: core.skipped_cycles(),
            })
            .collect();
        Ok(RunOutput { results, regs, mem, commit_pcs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_workloads::kernels::l1_resident;

    fn run_one(sim: &Simulator, prog: &Program, v: Variant, a: AttackModel) -> RunResult {
        sim.run(&RunRequest::program(prog).variant(v).attack(a)).unwrap().into_result()
    }

    #[test]
    fn run_produces_stats() {
        let sim = Simulator::new(SimConfig::tiny());
        let prog = l1_resident(300, 1);
        let r = run_one(&sim, &prog, Variant::Unsafe, AttackModel::Spectre);
        assert!(r.cycles > 0);
        assert!(r.core.committed > 1000);
        assert!(r.mem.loads() > 0);
        assert_eq!(r.workload, "l1_resident");
    }

    #[test]
    fn normalization_is_relative() {
        let sim = Simulator::new(SimConfig::tiny());
        let prog = l1_resident(300, 1);
        let base = run_one(&sim, &prog, Variant::Unsafe, AttackModel::Spectre);
        let stt = run_one(&sim, &prog, Variant::SttLd, AttackModel::Spectre);
        assert!(stt.normalized_to(&base) >= 1.0);
        assert!((base.normalized_to(&base) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn workload_requests_share_the_image_pages() {
        let pages = |p: &Program| -> Vec<*const [u8; sdo_isa::PAGE_BYTES]> {
            p.data().pages().map(|(_, page)| page as *const _).collect()
        };
        let program = sdo_workloads::kernels::ptr_chase(64 * 1024, 100, 1);
        let w = sdo_workloads::Workload::new("ptr_chase", program);
        let requests: Vec<RunRequest> = (0..4).map(|_| RunRequest::workload(&w)).collect();
        assert!(w.program().data().pages().count() >= 16);
        for req in &requests {
            assert_eq!(pages(&req.programs[0]), pages(w.program()));
        }
    }

    #[test]
    fn hang_is_reported() {
        let mut asm = sdo_isa::Assembler::named("spin");
        let top = asm.here();
        asm.j(top);
        let prog = asm.finish().unwrap();
        let mut cfg = SimConfig::tiny();
        cfg.max_cycles = 1000;
        let sim = Simulator::new(cfg);
        let err = sim.run(&RunRequest::program(&prog)).unwrap_err();
        assert!(matches!(err, SimError::Hang { max_cycles: 1000, .. }));
        assert!(err.to_string().contains("spin"));
    }

    #[test]
    fn config_override_beats_the_simulator_config() {
        // Same driver, per-request budget override: the tiny budget hangs,
        // the driver's own budget does not.
        let sim = Simulator::new(SimConfig::tiny());
        let prog = l1_resident(300, 1);
        let mut starved = SimConfig::tiny();
        starved.max_cycles = 10;
        let err = sim.run(&RunRequest::program(&prog).config(starved)).unwrap_err();
        assert!(matches!(err, SimError::Hang { max_cycles: 10, .. }));
        assert!(sim.run(&RunRequest::program(&prog)).is_ok());
    }

    #[test]
    fn run_multi_shares_one_hierarchy() {
        let sim = Simulator::new(SimConfig::tiny());
        let a = l1_resident(150, 1);
        let b = l1_resident(150, 2);
        let out = sim
            .run(&RunRequest::multi(&[a, b]).variant(Variant::Hybrid))
            .unwrap();
        assert_eq!(out.results().len(), 2);
        assert!(out.results().iter().all(|r| r.core.committed > 500));
        // Both cores' traffic landed in one shared memory system.
        assert!(out.memory().stats().loads() > 0);
        assert_eq!(out.memory().cores(), 2);
    }

    #[test]
    fn recorded_run_returns_the_commit_stream() {
        let sim = Simulator::new(SimConfig::tiny());
        let prog = l1_resident(200, 1);
        let out = sim.run(&RunRequest::program(&prog).record()).unwrap();
        let committed = out.result().core.committed;
        let pcs = out.commit_pcs().expect("recording was requested");
        assert_eq!(pcs.len() as u64, committed);
        // Without .record() the stream is absent.
        let plain = sim.run(&RunRequest::program(&prog)).unwrap();
        assert!(plain.commit_pcs().is_none());
    }

    #[test]
    fn metrics_snapshot_mirrors_stats() {
        let sim = Simulator::new(SimConfig::tiny());
        let prog = l1_resident(300, 1);
        let r = run_one(&sim, &prog, Variant::Hybrid, AttackModel::Spectre);
        assert!(r.obs.is_none(), "default config records no probe");
        let m = r.metrics();
        assert_eq!(m.counter("run.sims"), Some(1));
        assert_eq!(m.counter("run.cycles"), Some(r.cycles));
        assert_eq!(m.counter("core.committed"), Some(r.core.committed));
        assert_eq!(m.counter("core.obl.issued"), Some(r.core.obl.issued));
        assert_eq!(m.counter("mem.l1.hits"), Some(r.mem.l1_hits));
        assert!(m.histogram("pipeline.occupancy.rob").is_none());
    }

    #[test]
    fn obs_enabled_run_is_identical_and_carries_histograms() {
        use sdo_uarch::ObsConfig;
        let prog = l1_resident(300, 1);
        let plain = run_one(
            &Simulator::new(SimConfig::tiny()),
            &prog,
            Variant::Hybrid,
            AttackModel::Spectre,
        );
        let observed = run_one(
            &Simulator::new(SimConfig::tiny().with_obs(ObsConfig::occupancy())),
            &prog,
            Variant::Hybrid,
            AttackModel::Spectre,
        );
        assert_eq!(observed.cycles, plain.cycles, "obs must not perturb timing");
        assert_eq!(observed.core, plain.core);
        assert_eq!(observed.mem, plain.mem);
        let obs = observed.obs.as_ref().expect("probe recorded");
        assert_eq!(obs.rob.count(), observed.cycles);
        let m = observed.metrics();
        assert_eq!(
            m.histogram("pipeline.occupancy.rob").unwrap().count(),
            observed.cycles
        );
    }

    #[test]
    fn fast_forward_run_is_byte_identical_to_stepped_run() {
        use sdo_uarch::ObsConfig;
        let prog = sdo_workloads::kernels::ptr_chase(1 << 16, 400, 7);
        let cfg = SimConfig::tiny().with_obs(ObsConfig::occupancy());
        let skip = run_one(
            &Simulator::new(cfg.with_fast_forward(true)),
            &prog,
            Variant::Hybrid,
            AttackModel::Spectre,
        );
        let step = run_one(
            &Simulator::new(cfg.with_fast_forward(false)),
            &prog,
            Variant::Hybrid,
            AttackModel::Spectre,
        );
        assert_eq!(step.skipped_cycles, 0, "--no-skip must not skip");
        assert!(skip.skipped_cycles > 0, "DRAM-bound kernel should quiesce");
        // Cycle-exactness: everything the run reports except the host-side
        // skip counter must be identical (DESIGN.md "Quiescence fast-forward").
        assert_eq!(skip.cycles, step.cycles);
        assert_eq!(skip.core, step.core);
        assert_eq!(skip.mem, step.mem);
        assert_eq!(skip.obs, step.obs);
        assert_eq!(skip.metrics().to_json(), step.metrics().to_json());
    }

    #[test]
    fn all_variants_complete_on_a_small_kernel() {
        let sim = Simulator::new(SimConfig::tiny());
        let prog = l1_resident(200, 2);
        for attack in AttackModel::ALL {
            let results: Vec<RunResult> = Variant::ALL
                .iter()
                .map(|&v| run_one(&sim, &prog, v, attack))
                .collect();
            assert_eq!(results.len(), Variant::ALL.len());
            // Committed instruction counts are identical across variants:
            // protection changes timing, never function.
            let committed = results[0].core.committed;
            for r in &results {
                assert_eq!(r.core.committed, committed, "{} commits differ", r.variant);
            }
        }
    }
}
