//! `verify`: seeded full secret-swap campaigns on `Checker` — the
//! litmus corpus plus fuzz specs crossed with every variant and attack
//! model, then the serial minimization of each finding — beside
//! repeated whole-binary scans of the RV32 corpus
//! (`translate_with_provenance` + `scan_program`). Thousands of tiny
//! obs-on simulations: per-run construction, event recording and the
//! oracle dominate rather than per-cycle cost, the opposite use of
//! `uarch`/`mem` from `sim-busy`.
//!
//! A sample has one unit per campaign and one for the scans.
//! `work_per_s` is the geometric mean of secret-swap checks per second
//! and scanned RV32 instructions per second, so a change to either
//! shows.

use crate::trace::Tracer;
use crate::{geomean, peak_rss_mb, reset_peak_rss, Layers, Sample, Workload};
use sdo_analyze::{scan_program, ScanResult};
use sdo_harness::engine::JobPool;
use sdo_harness::{RunRequest, SimError, Variant};
use sdo_isa::Program;
use sdo_rng::SdoRng;
use sdo_verify::{oracle, CampaignConfig, CampaignResult, Checker, LitmusSpec, SECRET_PAIR};
use sdo_workloads::CORPUS;
use std::time::Instant;

/// Campaigns per sample, each with its own master seed drawn from the
/// run's seed; with the scans a sample takes about 3.5 s, so a run of
/// 20 s holds a warm-up and five samples.
const CAMPAIGNS: usize = 4;
/// Fuzz specs per campaign, sized so one campaign takes about half a
/// second on two workers of a 2-CPU host.
const FUZZ_COUNT: usize = 20;
/// Fuzz specs per campaign that carry a cache-leak gadget, and gadgets
/// among those specs. Every leaking spec is a positive control that the
/// campaign minimizes serially, so this load sets how fast a campaign
/// checks; master seeds are drawn until a campaign has exactly this
/// much, which keeps `work_per_s` comparable across seeds.
const LEAKING: (usize, usize) = (10, 36);
/// Instructions in a campaign's largest fuzz program. A campaign's peak
/// resident set follows its largest program (about 45 KB per
/// instruction), so master seeds are also drawn until it lies in this
/// band, which keeps `peak_rss_mb` comparable across seeds.
const LARGEST: std::ops::Range<usize> = 135..145;
/// Master seeds judged per set-up. About one draw in 330 meets
/// [`LEAKING`] and [`LARGEST`], so this many hold twelve on average and
/// fewer than [`CAMPAIGNS`] for about one seed in 600 (set-up then draws
/// on). Set-up judges all of them whatever the seed, so `setup_s` does
/// not depend on how early the seed's matches come.
const CANDIDATES: usize = 4096;
/// Translate + scan passes over the RV32 corpus in a sample's scan unit;
/// one pass takes about a millisecond, too short to time alone.
const SCAN_PASSES: usize = 200;

/// Translates and scans every RV32 corpus program once.
fn scan_corpus() -> Result<Vec<ScanResult>, String> {
    sdo_rv32::corpus::CORPUS
        .iter()
        .map(|e| {
            let (program, prov) = sdo_rv32::translate_with_provenance(&e.image(), e.name)
                .map_err(|err| format!("{}: {err}", e.name))?;
            Ok(scan_program(&program, &prov))
        })
        .collect()
}

/// [`scan_corpus`] with the translation and the scan of each program in
/// `rv32.translate` and `analyze.scan` spans, counting the instructions
/// in `layers`.
///
/// # Errors
///
/// Names a corpus program that no longer translates.
pub fn traced_scan(t: &Tracer, parent: usize, layers: &Layers) -> Result<Vec<ScanResult>, String> {
    let mut scans = Vec::with_capacity(sdo_rv32::corpus::CORPUS.len());
    for (i, e) in sdo_rv32::corpus::CORPUS.iter().enumerate() {
        let (program, prov) = t
            .span("rv32.translate", Some(parent), i as u64, |_| {
                sdo_rv32::translate_with_provenance(&e.image(), e.name)
            })
            .map_err(|err| format!("{}: {err}", e.name))?;
        scans.push(t.span("analyze.scan", Some(parent), i as u64, |_| {
            scan_program(&program, &prov)
        }));
        *layers.rv32_insts.lock().expect("layer collector poisoned") += e.words.len() as u64;
    }
    Ok(scans)
}

/// What the final checks and [`Workload::rate`] need from a campaign's
/// latest run. The run's full result is dropped as soon as it is judged,
/// so it does not hold the workers' memory across samples.
#[derive(Debug, Clone, Copy)]
struct Latest {
    checks: usize,
    failures: usize,
    passed: bool,
    /// Whether some counterexample is a positive control's leak rather
    /// than a failure.
    controls_leak: bool,
}

/// One campaign: its configuration, its fuzz specs' programs, and what
/// its first run reported.
#[derive(Debug)]
struct Campaign {
    config: CampaignConfig,
    /// Each fuzz spec's name and its programs for the two secrets of
    /// [`SECRET_PAIR`].
    specs: Vec<(String, [Program; 2])>,
    reference: Option<String>,
    last: Option<Latest>,
}

impl Campaign {
    fn new(config: CampaignConfig) -> Campaign {
        let specs = config
            .fuzz_specs()
            .iter()
            .map(|s: &LitmusSpec| (s.name(), [s.build(SECRET_PAIR.0), s.build(SECRET_PAIR.1)]))
            .collect();
        Campaign {
            config,
            specs,
            reference: None,
            last: None,
        }
    }

    /// The program an outcome was checked with under `secret`.
    fn program(&self, case: &str, secret: u8) -> Option<Program> {
        if let Some(c) = CORPUS.iter().find(|c| c.name == case) {
            return Some((c.build)(secret));
        }
        let (_, programs) = self.specs.iter().find(|(name, _)| name == case)?;
        Some(programs[usize::from(secret != SECRET_PAIR.0)].clone())
    }

    /// Counts wrong outcomes of one run and checks that it reproduces the
    /// first run's report.
    fn judge(&mut self, result: CampaignResult) -> u64 {
        let render = result.render();
        let mut failed = result.failures() as u64;
        if !result.passed() {
            failed = failed.max(1);
        }
        match &self.reference {
            None => self.reference = Some(render),
            Some(first) if *first != render => failed = result.outcomes.len() as u64,
            Some(_) => {}
        }
        self.last = Some(Latest {
            checks: result.outcomes.len(),
            failures: result.failures(),
            passed: result.passed(),
            controls_leak: result.counterexamples.iter().any(|x| !x.kind.is_failure()),
        });
        failed
    }
}

/// A prepared `verify` run.
#[derive(Debug)]
pub struct Verify {
    campaigns: Vec<Campaign>,
    checker: Checker,
    pool: JobPool,
    /// The first scan pass's results.
    scans: Option<Vec<ScanResult>>,
}

impl Verify {
    /// Takes the first [`CAMPAIGNS`] master seeds drawn from `seed` that
    /// have the [`LEAKING`] load and their largest program in
    /// [`LARGEST`], judging [`CANDIDATES`] draws, generates their fuzz
    /// specs and assembles the specs' programs.
    #[must_use]
    pub fn setup(seed: u64, t: &Tracer, parent: usize) -> Verify {
        t.span("workloads.gen", Some(parent), 0, |_| {
            let mut rng = SdoRng::seed_from_u64(seed);
            let mut draw = || CampaignConfig {
                seed: rng.next_u64(),
                quick: false,
                fuzz_count: Some(FUZZ_COUNT),
                variants: None,
            };
            let fits = |c: &CampaignConfig| {
                let specs = c.fuzz_specs();
                let leaking = specs.iter().filter(|s| s.guaranteed_leak());
                (
                    leaking.clone().count(),
                    leaking.map(|s| s.gadgets.len()).sum(),
                ) == LEAKING
                    && specs
                        .iter()
                        .map(|s| s.build(SECRET_PAIR.0).len())
                        .max()
                        .is_some_and(|n| LARGEST.contains(&n))
            };
            let mut configs: Vec<_> = (0..CANDIDATES).map(|_| draw()).filter(fits).collect();
            configs.truncate(CAMPAIGNS);
            let short = CAMPAIGNS - configs.len();
            configs.extend(std::iter::repeat_with(draw).filter(fits).take(short));
            Verify::new(configs)
        })
    }

    /// Campaigns of `configs` on the Table I checker.
    #[must_use]
    pub fn new(configs: Vec<CampaignConfig>) -> Verify {
        let jobs = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2);
        Verify {
            campaigns: configs.into_iter().map(Campaign::new).collect(),
            checker: Checker::new(),
            pool: JobPool::new(jobs),
            scans: None,
        }
    }

    /// Scan results that differ from the first pass's (which becomes the
    /// reference when there is none yet).
    fn check_scans(&mut self, scans: Vec<ScanResult>) -> u64 {
        match &self.scans {
            None => {
                self.scans = Some(scans);
                0
            }
            Some(first) => first.iter().zip(&scans).filter(|(a, b)| a != b).count() as u64,
        }
    }

    /// Runs every campaign with spans under `parent`, then re-runs each
    /// campaign's checks (captures and oracle verdicts) fanned over the
    /// pool; the campaign's wall time minus the re-run's is its serial
    /// minimization share. Returns the campaigns' seconds.
    ///
    /// # Errors
    ///
    /// Reports a campaign that could not run or whose report changed.
    pub fn traced_campaigns(
        &mut self,
        t: &Tracer,
        parent: usize,
        layers: &Layers,
    ) -> Result<f64, String> {
        let mut seconds = 0.0;
        for (ci, c) in self.campaigns.iter_mut().enumerate() {
            let id = ci as u64;
            let t0 = Instant::now();
            let result = t
                .span("verify.campaign", Some(parent), id, |_| {
                    c.config.run(&self.checker, &self.pool)
                })
                .map_err(|e| e.to_string())?;
            let campaign_s = t0.elapsed().as_secs_f64();
            seconds += campaign_s;

            let programs = t.span("bench.programs", Some(parent), id, |_| {
                result
                    .outcomes
                    .iter()
                    .map(|o| {
                        let program = |secret| {
                            c.program(&o.case, secret)
                                .ok_or_else(|| format!("unknown case {}", o.case))
                        };
                        Ok([program(SECRET_PAIR.0)?, program(SECRET_PAIR.1)?])
                    })
                    .collect::<Result<Vec<_>, String>>()
            })?;
            let t0 = Instant::now();
            t.span("harness.engine.checks", Some(parent), id, |p| {
                self.pool.try_run(&result.outcomes, |i, o| {
                    for program in &programs[i] {
                        capture_and_oracle(
                            t,
                            p,
                            i as u64,
                            &self.checker,
                            program,
                            o.variant,
                            o.attack,
                            layers,
                        )
                        .map_err(|e| e.to_string())?;
                    }
                    Ok::<(), String>(())
                })
            })?;
            Layers::push(&layers.minimize_s, campaign_s - t0.elapsed().as_secs_f64());
            let failed = t.span("bench.check", Some(parent), id, |_| c.judge(result));
            if failed != 0 {
                return Err(format!("traced campaign {ci} failed {failed} checks"));
            }
        }
        Ok(seconds)
    }
}

impl Workload for Verify {
    /// Reads each unit's peak resident set: a campaign's peak depends on
    /// how its checks interleave on the two workers, so a whole sample's
    /// peak is a noisy maximum over its campaigns.
    fn sample(&mut self) -> Result<Sample, String> {
        let pid = std::process::id();
        let (mut units, mut peaks_mb, mut attempted, mut failed) = (Vec::new(), Vec::new(), 0, 0);
        for c in &mut self.campaigns {
            reset_peak_rss(pid)?;
            let t0 = Instant::now();
            let result = c
                .config
                .run(&self.checker, &self.pool)
                .map_err(|e| e.to_string())?;
            units.push(t0.elapsed().as_secs_f64());
            peaks_mb.push(peak_rss_mb(pid));
            attempted += result.outcomes.len() as u64;
            failed += c.judge(result);
        }
        reset_peak_rss(pid)?;
        let mut scan_s = 0.0;
        for _ in 0..SCAN_PASSES {
            let t0 = Instant::now();
            let scans = scan_corpus()?;
            scan_s += t0.elapsed().as_secs_f64();
            attempted += scans.len() as u64;
            failed += self.check_scans(scans);
        }
        units.push(scan_s);
        peaks_mb.push(peak_rss_mb(pid));
        Ok(Sample {
            units,
            attempted,
            failed,
            peaks_mb,
        })
    }

    fn rate(&self, unit_seconds: &[f64]) -> f64 {
        let (campaign_s, scan_s) = unit_seconds.split_at(self.campaigns.len());
        let checks: usize = self
            .campaigns
            .iter()
            .filter_map(|c| c.last)
            .map(|r| r.checks)
            .sum();
        let insts: usize = sdo_rv32::corpus::CORPUS.iter().map(|e| e.words.len()).sum();
        geomean(&[
            checks as f64 / campaign_s.iter().sum::<f64>(),
            (insts * SCAN_PASSES) as f64 / scan_s.iter().sum::<f64>(),
        ])
    }

    fn traced(&mut self, t: &Tracer, parent: usize, layers: &Layers) -> Result<f64, String> {
        let mut seconds = self.traced_campaigns(t, parent, layers)?;
        for _ in 0..SCAN_PASSES {
            let t0 = Instant::now();
            let scans = traced_scan(t, parent, layers)?;
            seconds += t0.elapsed().as_secs_f64();
            let bad = t.span("bench.check", Some(parent), 0, |_| self.check_scans(scans));
            if bad != 0 {
                return Err(format!("{bad} traced scans differ from the untraced ones"));
            }
        }
        Ok(seconds)
    }

    fn final_checks(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        for (ci, c) in self.campaigns.iter().enumerate() {
            match c.last {
                None => out.push(format!("campaign {ci} never completed")),
                Some(r) => {
                    if r.failures != 0 {
                        out.push(format!("campaign {ci} reported {} failures", r.failures));
                    }
                    if !r.passed || !r.controls_leak {
                        out.push(format!("campaign {ci}: positive controls no longer leak"));
                    }
                }
            }
        }
        let Some(scans) = &self.scans else {
            out.push("no scan pass completed".to_string());
            return out;
        };
        for (e, scan) in sdo_rv32::corpus::CORPUS.iter().zip(scans) {
            let chains: Vec<(u64, u64, u64)> = scan
                .gadgets_for(Variant::Unsafe)
                .iter()
                .map(|g| (g.access_pc, g.transmit_pc, g.pending_branch))
                .collect();
            let want: &[(u64, u64, u64)] = if e.name == "rv32_gadget" {
                &[(0x1098, 0x10a4, 0x1090)]
            } else {
                &[]
            };
            if chains != want || (want.is_empty() && scan.chain_count() != 0) {
                out.push(format!(
                    "{}: scan found {chains:x?}, pinned {want:x?}",
                    e.name
                ));
            }
        }
        out
    }

    fn probe_requests(&self) -> Vec<RunRequest> {
        self.campaigns[0]
            .specs
            .iter()
            .take(4)
            .map(|(_, p)| RunRequest::program(&p[0]).variant(Variant::Hybrid))
            .collect()
    }

    fn runs_campaign(&self) -> bool {
        true
    }
}

/// One `Checker::capture` and its `oracle::check`, each in its own span,
/// recording the capture's event count (the verdict itself is the
/// campaign's).
///
/// # Errors
///
/// Returns the simulator's error.
#[allow(clippy::too_many_arguments)]
pub fn capture_and_oracle(
    t: &Tracer,
    parent: usize,
    id: u64,
    checker: &Checker,
    program: &Program,
    variant: Variant,
    attack: sdo_harness::AttackModel,
    layers: &Layers,
) -> Result<(), SimError> {
    let capture = t.span("verify.capture", Some(parent), id, |_| {
        checker.capture(program, variant, attack)
    })?;
    Layers::push(&layers.events_per_capture, capture.events.len() as f64);
    t.span("verify.oracle", Some(parent), id, |_| {
        oracle::check(variant, &capture.events)
    });
    Ok(())
}
