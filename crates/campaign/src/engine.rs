//! The campaign engine: Algorithm 1 lifted from one run to a fleet.
//!
//! A campaign executes `rounds × trials_per_round` independent adaptive
//! trials of one [`Scenario`]. The campaign owns a persistent
//! [`WorkerPool`](crate::pool) for its whole lifetime — threads are
//! spawned once and every round is dispatched to them as a batch, so the
//! per-round cost is a channel send per worker, not a pool teardown.
//! Every trial owns a private deterministic
//! [`DualCoreSystem`](ptest_master::DualCoreSystem), so trials
//! embarrassingly parallelize; each trial's trace-derived
//! [`TransitionCounts`] delta is computed *inside its worker*, leaving
//! only an entry-wise `u64` merge (and the PFA re-compile) on the
//! dispatcher between rounds.
//!
//! Between rounds the engine closes the paper's adaptive loop at fleet
//! scale: the merged counts are re-estimated into the probability
//! distribution the *next* round's patterns are generated from. When any
//! trial of a round found bugs and `bug_biased` learning is on, only
//! bug-revealing trials contribute — steering later rounds toward
//! fault-revealing interleavings.
//!
//! Determinism is a hard invariant: trial seeds derive from the master
//! seed by index, results aggregate in index order, count merging is an
//! exact commutative sum, and the report records nothing about the pool
//! — so a campaign's outcome is a pure function of (scenario,
//! configuration, master seed), independent of worker count, shard
//! split ([`Campaign::run_shard`]) or checkpoint/resume boundaries
//! ([`Campaign::resume`]).

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use ptest_automata::{Pfa, TransitionCounts};
use ptest_core::{
    minimize_scenario_trial, AdaptiveTestConfig, AdaptiveTestError, MemoryModelSpec,
    MinimizeConfig, MinimizeError, PreemptionSpec, RandomPriorityConfig, Scenario, ScheduleSpec,
    TestReport, TrialEngine, TrialScratch,
};

use crate::learning;
use crate::pool;
use crate::report::{
    CampaignReport, LearnedDistribution, MinimizedOutcome, RoundReport, TrialOutcome,
};

/// Knobs of the cross-trial feedback loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearningConfig {
    /// Whether to re-learn the distribution between rounds at all.
    pub enabled: bool,
    /// Laplace smoothing over the skeleton's transitions — keeps rarely
    /// observed services alive in later rounds.
    pub alpha: f64,
    /// When any trial of a round found bugs, learn only from the
    /// bug-revealing trials (the adaptive bias of the paper's loop);
    /// otherwise every trial contributes.
    pub bug_biased: bool,
}

impl Default for LearningConfig {
    fn default() -> LearningConfig {
        LearningConfig {
            enabled: true,
            alpha: 0.5,
            bug_biased: true,
        }
    }
}

/// Configuration of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Independent trials per feedback round.
    ///
    /// This is also the parallelism grain: a round is one batch on the
    /// worker pool, and the serial between-round work (count merging and
    /// the PFA re-compile, microseconds on the paper-sized skeletons) is
    /// paid once per round. For parallel speedup to be measurable, keep
    /// `trials_per_round` well above the worker count — as a floor,
    /// `workers × 8` trials per round keeps the chunked claiming
    /// balanced; hundreds per round make the serial phase vanish
    /// entirely. A campaign of many tiny rounds measures dispatch
    /// latency, not throughput.
    pub trials_per_round: usize,
    /// Feedback rounds (1 = no cross-trial adaptation takes effect).
    pub rounds: usize,
    /// Worker threads. Affects wall-clock time only, never results.
    pub workers: usize,
    /// Master seed; every trial seed derives from it deterministically.
    pub master_seed: u64,
    /// The feedback loop.
    pub learning: LearningConfig,
    /// Schedule-budget rotation. Empty (the default) runs every trial
    /// under the scenario's own
    /// [`schedule`](ptest_core::AdaptiveTestConfig::schedule) spec.
    /// Non-empty, trial `t` of each round runs under a PCT-style
    /// [`RandomPriorityScheduler`](ptest_master::RandomPriorityScheduler)
    /// with `budgets[t % budgets.len()]` priority-change points — so one
    /// campaign sweeps several schedule-search depths and
    /// [`RoundReport::detection`] reports which budgets find
    /// bugs.
    pub schedule_budgets: Vec<usize>,
    /// Memory-model rotation. Empty (the default) runs every trial under
    /// the scenario's own
    /// [`memory`](ptest_core::AdaptiveTestConfig::memory) spec.
    /// Non-empty, trial `t` of each round runs under
    /// `memory_models[t % memory_models.len()]` — so one campaign probes
    /// the same (pattern × schedule) space under several propagation
    /// semantics and [`RoundReport::detection`] reports which
    /// models surface bugs.
    pub memory_models: Vec<MemoryModelSpec>,
    /// Preemption rotation. Empty (the default) runs every trial under
    /// the scenario's own
    /// [`preemption`](ptest_core::AdaptiveTestConfig::preemption) spec.
    /// Non-empty, trial `t` of each round runs under
    /// `preemption_specs[t % preemption_specs.len()]` — so one campaign
    /// sweeps quantum/clock-skew/interrupt configurations (including the
    /// inert spec as a control lane) and
    /// [`RoundReport::detection`] reports which specs surface
    /// bugs. Every trial's interrupt plan draws from its own derived
    /// `irq_seed`, recorded on the outcome for quadruple replay.
    pub preemption_specs: Vec<PreemptionSpec>,
    /// Opt-in post-round minimization: after each round closes, the
    /// campaign-wide *first* hit of every not-yet-minimized bug class is
    /// shrunk to a [`MinimizedRepro`](ptest_core::MinimizedRepro) on the
    /// same worker pool and attached to
    /// [`RoundReport::minimized`](crate::RoundReport::minimized).
    /// Shrinking happens while the round's engine (its learned
    /// distribution) is alive, so the reproducer replays the hit
    /// byte-identically. Not supported in sharded campaigns, where no
    /// shard knows the global first hit ([`Campaign::run_shard`]
    /// rejects it).
    pub minimize_bugs: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            trials_per_round: 16,
            rounds: 2,
            workers: 4,
            master_seed: 2009,
            learning: LearningConfig::default(),
            schedule_budgets: Vec::new(),
            memory_models: Vec::new(),
            preemption_specs: Vec::new(),
            minimize_bugs: false,
        }
    }
}

/// Error running a campaign.
#[derive(Debug)]
pub enum CampaignError {
    /// A trial (or the round's PFA compilation) failed.
    Adaptive(AdaptiveTestError),
    /// `rounds` or `trials_per_round` was zero.
    EmptyCampaign,
    /// An invalid shard split, or a sharded configuration whose rounds
    /// are coupled by learning (see [`Campaign::run_shard`]).
    Shard(String),
    /// A checkpoint that does not belong to this campaign, or a failure
    /// reading/writing a checkpoint file.
    Checkpoint(String),
    /// The post-round minimization pass failed on a reproducer — a
    /// determinism regression (the recorded hit no longer replays, or
    /// the minimized triple replays unstably), never expected.
    Minimize(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Adaptive(e) => write!(f, "trial error: {e}"),
            CampaignError::EmptyCampaign => {
                write!(f, "campaign needs at least one round and one trial")
            }
            CampaignError::Shard(msg) => write!(f, "shard error: {msg}"),
            CampaignError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            CampaignError::Minimize(msg) => write!(f, "minimize error: {msg}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<AdaptiveTestError> for CampaignError {
    fn from(e: AdaptiveTestError) -> CampaignError {
        CampaignError::Adaptive(e)
    }
}

/// Derives the seed of `trial` in `round` from the master seed
/// (splitmix64 over the indices — decorrelated, collision-free in
/// practice, and stable across platforms). Re-exported from its single
/// home in [`ptest_soc::seed`] under this historical path.
pub use ptest_soc::seed::campaign_trial_seed as trial_seed;

/// Derives the *schedule* seed of `trial` in `round` from the master
/// seed — a stream independent of [`trial_seed`], so the campaign
/// explores (pattern × schedule) space rather than a diagonal of it:
/// two trials with related pattern seeds still get decorrelated
/// schedules, and a recorded `(seed, schedule_seed)` pair replays any
/// trial byte-for-byte. Re-exported from [`ptest_soc::seed`].
pub use ptest_soc::seed::campaign_schedule_seed as schedule_seed;

/// Derives the *memory* seed of `trial` in `round` from the master seed
/// — a third stream, independent of both [`trial_seed`] and
/// [`schedule_seed`], so a recorded `(seed, schedule_seed, memory_seed)`
/// triple replays any trial byte-for-byte while the campaign explores
/// (pattern × schedule × store-visibility) space. Re-exported from
/// [`ptest_soc::seed`].
pub use ptest_soc::seed::campaign_memory_seed as memory_seed;

/// Derives the *interrupt/preemption* seed of `trial` in `round` from
/// the master seed — the fourth stream, independent of the other three,
/// so a recorded `(seed, schedule_seed, memory_seed, irq_seed)`
/// quadruple replays any trial byte-for-byte while the campaign
/// explores (pattern × schedule × memory × preemption) space.
/// Re-exported from [`ptest_soc::seed`].
pub use ptest_soc::seed::campaign_irq_seed as irq_seed;

/// Everything one campaign trial runs at: its four derived seeds and the
/// three axis specs the campaign's rotations assign it.
struct TrialPoint {
    seed: u64,
    schedule_seed: u64,
    memory_seed: u64,
    irq_seed: u64,
    schedule: ScheduleSpec,
    memory: MemoryModelSpec,
    preemption: PreemptionSpec,
}

/// Trial `trial`'s entry of a rotation: `base` when `list` is empty,
/// else `list[trial % list.len()]`.
fn rotate<T: Copy>(list: &[T], base: T, trial: usize) -> T {
    if list.is_empty() {
        base
    } else {
        list[trial % list.len()]
    }
}

/// The point trial `trial` of `round` runs at. Each axis runs the
/// scenario's own spec unless its rotation is non-empty; a schedule
/// budget becomes a PCT-style
/// [`RandomPriority`](ScheduleSpec::RandomPriority) spec with that many
/// priority-change points.
fn trial_point(
    cfg: &CampaignConfig,
    base: &AdaptiveTestConfig,
    round: usize,
    trial: usize,
) -> TrialPoint {
    let schedule = if cfg.schedule_budgets.is_empty() {
        base.schedule
    } else {
        let rp = match base.schedule {
            ScheduleSpec::RandomPriority(rp) => rp,
            ScheduleSpec::LockStep => RandomPriorityConfig::default(),
        };
        ScheduleSpec::RandomPriority(RandomPriorityConfig {
            change_points: cfg.schedule_budgets[trial % cfg.schedule_budgets.len()],
            ..rp
        })
    };
    let m = cfg.master_seed;
    TrialPoint {
        seed: trial_seed(m, round, trial),
        schedule_seed: schedule_seed(m, round, trial),
        memory_seed: memory_seed(m, round, trial),
        irq_seed: irq_seed(m, round, trial),
        schedule,
        memory: rotate(&cfg.memory_models, base.memory, trial),
        preemption: rotate(&cfg.preemption_specs, base.preemption, trial),
    }
}

/// The campaign runner.
#[derive(Debug)]
pub struct Campaign;

/// What one trial contributes, computed entirely inside its worker: the
/// serializable outcome plus the trial's private trace-count delta
/// (empty when learning is off).
pub(crate) struct TrialYield {
    pub(crate) outcome: TrialOutcome,
    pub(crate) counts: TransitionCounts,
}

/// What one pool job yields. The pool's result type is fixed for its
/// lifetime, and a campaign dispatches two job shapes to the same
/// persistent pool — ordinary round trials and post-round minimization
/// jobs — so the yield is this enum; each batch folds only its own
/// variant.
pub(crate) enum WorkerYield {
    Trial(Box<TrialYield>),
    Minimized(Box<Result<MinimizedOutcome, MinimizeError>>),
}

pub(crate) type TrialResult = Result<WorkerYield, AdaptiveTestError>;

/// The persistent pool a campaign dispatches its rounds to.
pub(crate) type TrialPool<'env> = pool::WorkerPool<'env, TrialResult, TrialScratch>;

/// The aggregated materials of one round (or one shard of a round):
/// outcomes in trial order plus both learn-fold candidates — the
/// bug-biased choice between them needs the *global* any-bugs signal,
/// which a shard does not have locally.
pub(crate) struct RoundTrials {
    pub(crate) outcomes: Vec<TrialOutcome>,
    pub(crate) counts_all: TransitionCounts,
    pub(crate) counts_bugs: TransitionCounts,
}

/// The dispatcher-side campaign cursor: everything the round loop
/// carries across rounds. This is exactly what a checkpoint snapshots —
/// `pd` is deliberately *not* part of it on disk, because it is a pure
/// function of `counts` (or the scenario's base distribution before any
/// learning round completed).
pub(crate) struct CampaignState {
    pub(crate) pd: ptest_automata::ProbabilityAssignment,
    pub(crate) counts: TransitionCounts,
    pub(crate) rounds: Vec<RoundReport>,
    pub(crate) next_round: usize,
}

impl Campaign {
    /// Runs the full campaign of `scenario` under `cfg` and returns the
    /// aggregate report.
    ///
    /// # Errors
    ///
    /// [`CampaignError::EmptyCampaign`] on a zero-round or zero-trial
    /// configuration; [`CampaignError::Adaptive`] if the scenario's
    /// regex/distribution is invalid or a trial's committer rejects its
    /// configuration.
    pub fn run(
        cfg: &CampaignConfig,
        scenario: &dyn Scenario,
    ) -> Result<CampaignReport, CampaignError> {
        let state = Campaign::run_rounds(cfg, scenario, None, cfg.rounds, |_| Ok(()))?;
        Ok(report_of(cfg, scenario, state))
    }

    /// The shared round loop: runs rounds `state.next_round..limit`
    /// (`state` fresh unless resuming), invoking `after_round` with the
    /// updated state after each completed round — the checkpoint hook.
    ///
    /// One [`TrialPool`] spans every remaining round: worker threads and
    /// their [`TrialScratch`] buffers are reused across round
    /// boundaries, so per-round dispatch cost is a channel send per
    /// worker.
    pub(crate) fn run_rounds(
        cfg: &CampaignConfig,
        scenario: &dyn Scenario,
        resume: Option<CampaignState>,
        limit: usize,
        mut after_round: impl FnMut(&CampaignState) -> Result<(), CampaignError>,
    ) -> Result<CampaignState, CampaignError> {
        if cfg.rounds == 0 || cfg.trials_per_round == 0 {
            return Err(CampaignError::EmptyCampaign);
        }
        let base = scenario.base_config();
        let mut state = resume.unwrap_or_else(|| CampaignState {
            pd: base.pd.clone(),
            counts: TransitionCounts::new(),
            rounds: Vec::with_capacity(cfg.rounds),
            next_round: 0,
        });
        let limit = limit.min(cfg.rounds);

        std::thread::scope(|scope| {
            let pool = TrialPool::start(scope, cfg.workers, TrialScratch::new);
            // Bug classes already minimized by completed (possibly
            // checkpointed) rounds — each class is shrunk exactly once
            // per campaign.
            let mut minimized_classes: std::collections::BTreeSet<String> = state
                .rounds
                .iter()
                .flat_map(|r| r.minimized.iter().map(|m| m.repro.bug_class.clone()))
                .collect();
            while state.next_round < limit {
                let round = state.next_round;
                let engine = Arc::new(TrialEngine::new(AdaptiveTestConfig {
                    pd: state.pd.clone(),
                    ..base.clone()
                })?);
                let trials = run_round_trials(
                    &pool,
                    cfg,
                    scenario,
                    &base,
                    &engine,
                    round,
                    0..cfg.trials_per_round,
                )?;
                let mut report = close_round(cfg, &engine, round, trials, &mut state)?;
                if cfg.minimize_bugs {
                    // Must run while this round's engine (its learned
                    // distribution) is alive — the reproducer replays
                    // the hit through exactly the PFA that produced it.
                    report.minimized = minimize_round(
                        &pool,
                        cfg,
                        scenario,
                        &base,
                        &engine,
                        round,
                        &report.trials,
                        &mut minimized_classes,
                    )?;
                }
                state.rounds.push(report);
                state.next_round = round + 1;
                after_round(&state)?;
            }
            Ok::<(), CampaignError>(())
        })?;

        Ok(state)
    }
}

/// Wraps a finished state into the aggregate report.
pub(crate) fn report_of(
    cfg: &CampaignConfig,
    scenario: &dyn Scenario,
    state: CampaignState,
) -> CampaignReport {
    CampaignReport {
        scenario: scenario.name().to_owned(),
        master_seed: cfg.master_seed,
        trials_per_round: cfg.trials_per_round,
        rounds: state.rounds,
    }
}

/// Dispatches trials `trials` (absolute indices within `round`) as one
/// batch on the pool and folds the workers' yields in index order.
///
/// Each worker job runs its trial *and* segments the resulting trace
/// into a private [`TransitionCounts`] delta, so the dispatcher's serial
/// share of the learn fold is an entry-wise integer merge. The fold is
/// order-exact: merging per-trial deltas is algebraically identical to
/// the sequential `observe_report` loop it replaces.
pub(crate) fn run_round_trials<'env>(
    pool: &TrialPool<'env>,
    cfg: &'env CampaignConfig,
    scenario: &'env dyn Scenario,
    base: &'env AdaptiveTestConfig,
    engine: &Arc<TrialEngine>,
    round: usize,
    trials: Range<usize>,
) -> Result<RoundTrials, CampaignError> {
    let jobs = trials.len();
    let lo = trials.start;
    let learn = cfg.learning.enabled;
    let engine = Arc::clone(engine);
    let results = pool.run_batch(jobs, move |scratch, i| {
        let p = trial_point(cfg, base, round, lo + i);
        let report = engine.run_scenario_trial_overridden(
            scenario,
            p.seed,
            p.schedule_seed,
            p.memory_seed,
            ptest_core::TrialOverrides {
                schedule: Some(p.schedule),
                memory: Some(p.memory),
                preemption: Some(p.preemption),
                irq_seed: Some(p.irq_seed),
                ..ptest_core::TrialOverrides::default()
            },
            scratch,
        )?;
        let mut counts = TransitionCounts::new();
        if learn {
            learning::observe_report(&mut counts, &report, engine.generator().dfa());
        }
        Ok(WorkerYield::Trial(Box::new(TrialYield {
            outcome: outcome_of(lo + i, p.seed, &report),
            counts,
        })))
    });

    let mut out = RoundTrials {
        outcomes: Vec::with_capacity(jobs),
        counts_all: TransitionCounts::new(),
        counts_bugs: TransitionCounts::new(),
    };
    for result in results {
        let WorkerYield::Trial(yielded) = result? else {
            unreachable!("trial batches yield trial results");
        };
        out.counts_all.merge(&yielded.counts);
        if !yielded.outcome.summary.bugs.is_empty() {
            out.counts_bugs.merge(&yielded.counts);
        }
        out.outcomes.push(yielded.outcome);
    }
    Ok(out)
}

/// The post-round minimization pass: for every bug class whose
/// campaign-wide *first* hit happened this round, shrink that hit on the
/// worker pool ([`minimize_scenario_trial`]) and return the reproducers
/// in first-hit trial order.
///
/// `seen` carries the classes minimized by earlier rounds (restored from
/// the completed rounds on resume) and is extended with this round's
/// classes — so a class is shrunk exactly once per campaign no matter
/// how often it recurs, and the output is independent of checkpoint
/// boundaries.
#[allow(clippy::too_many_arguments)]
pub(crate) fn minimize_round<'env>(
    pool: &TrialPool<'env>,
    cfg: &'env CampaignConfig,
    scenario: &'env dyn Scenario,
    base: &'env AdaptiveTestConfig,
    engine: &Arc<TrialEngine>,
    round: usize,
    outcomes: &[TrialOutcome],
    seen: &mut std::collections::BTreeSet<String>,
) -> Result<Vec<MinimizedOutcome>, CampaignError> {
    let mut jobs: Vec<(usize, String)> = Vec::new();
    for outcome in outcomes {
        for bug in &outcome.summary.bugs {
            if seen.insert(bug.class.clone()) {
                jobs.push((outcome.trial, bug.class.clone()));
            }
        }
    }
    if jobs.is_empty() {
        return Ok(Vec::new());
    }
    let engine = Arc::clone(engine);
    let n_jobs = jobs.len();
    let results = pool.run_batch(n_jobs, move |scratch, i| {
        let (trial, class) = &jobs[i];
        let trial = *trial;
        let p = trial_point(cfg, base, round, trial);
        let minimized = minimize_scenario_trial(
            &engine,
            scenario,
            p.seed,
            p.schedule_seed,
            p.memory_seed,
            p.irq_seed,
            p.schedule,
            p.memory,
            p.preemption,
            Some(class),
            &MinimizeConfig::default(),
            scratch,
        )
        .map(|repro| MinimizedOutcome { trial, repro });
        Ok(WorkerYield::Minimized(Box::new(minimized)))
    });
    let mut out = Vec::with_capacity(n_jobs);
    for result in results {
        let WorkerYield::Minimized(minimized) = result? else {
            unreachable!("minimize batches yield minimize results");
        };
        match *minimized {
            Ok(m) => out.push(m),
            Err(MinimizeError::Trial(e)) => return Err(CampaignError::Adaptive(e)),
            Err(e) => return Err(CampaignError::Minimize(e.to_string())),
        }
    }
    Ok(out)
}

/// Extracts a trial's serializable outcome from its report.
fn outcome_of(trial: usize, seed: u64, report: &TestReport) -> TrialOutcome {
    TrialOutcome {
        trial,
        seed,
        schedule_seed: report.schedule_seed,
        schedule: report.config.schedule.label(),
        memory_seed: report.memory_seed,
        memory: report.config.memory.label(),
        irq_seed: report.irq_seed,
        preemption: report.config.preemption.label(),
        commands_to_first_bug: report.commands_to_first_bug(),
        summary: report.machine_summary(),
    }
}

/// Closes one round: applies the (possibly bug-biased) learn fold to the
/// campaign-cumulative counts, re-learns the next round's distribution,
/// and assembles the round report from the outcomes.
pub(crate) fn close_round(
    cfg: &CampaignConfig,
    engine: &TrialEngine,
    round: usize,
    trials: RoundTrials,
    state: &mut CampaignState,
) -> Result<RoundReport, CampaignError> {
    let dfa = engine.generator().dfa();
    let alphabet = engine.generator().regex().alphabet();
    let distribution = LearnedDistribution::from_pfa(engine.generator().pfa(), alphabet);
    let mut traces_learned = 0u64;
    let mut learned = None;
    if cfg.learning.enabled {
        let any_bugs = trials.outcomes.iter().any(|o| !o.summary.bugs.is_empty());
        let chosen = if cfg.learning.bug_biased && any_bugs {
            &trials.counts_bugs
        } else {
            &trials.counts_all
        };
        traces_learned = chosen.trace_count();
        state.counts.merge(chosen);
        state.pd = state
            .counts
            .to_assignment(dfa, alphabet, cfg.learning.alpha);
        // Compile eagerly so an invalid learned assignment fails loudly
        // here, attributed to this round — not on the next round's
        // TrialEngine::new (or, on the final round, never).
        let pfa = Pfa::from_dfa(dfa, alphabet.clone(), &state.pd)
            .map_err(|e| CampaignError::Adaptive(AdaptiveTestError::Pfa(e)))?;
        learned = Some(LearnedDistribution::from_pfa(&pfa, alphabet));
    }
    Ok(assemble_round(
        round,
        distribution,
        trials.outcomes,
        traces_learned,
        learned,
    ))
}

/// Assembles a round report from per-trial outcomes alone — no live
/// [`TestReport`]s involved, which is what lets sharded rounds merge by
/// concatenating their outcome vectors.
pub(crate) fn assemble_round(
    round: usize,
    distribution: LearnedDistribution,
    trials: Vec<TrialOutcome>,
    traces_learned: u64,
    learned: Option<LearnedDistribution>,
) -> RoundReport {
    let mut trials_with_bugs = 0usize;
    let mut bugs = 0usize;
    let mut total_commands = 0u64;
    let mut total_cycles = 0u64;
    let mut first_bug_sum = 0u64;
    for outcome in &trials {
        let found = outcome.summary.bugs.len();
        if found > 0 {
            trials_with_bugs += 1;
        }
        bugs += found;
        total_commands += outcome.summary.commands_issued;
        total_cycles += outcome.summary.cycles;
        first_bug_sum += outcome.commands_to_first_bug.unwrap_or(0);
    }
    let mean_commands_to_first_bug = if trials_with_bugs > 0 {
        Some(first_bug_sum as f64 / trials_with_bugs as f64)
    } else {
        None
    };
    RoundReport {
        round,
        distribution,
        trials,
        trials_with_bugs,
        bugs,
        total_commands,
        total_cycles,
        mean_commands_to_first_bug,
        traces_learned,
        learned,
        minimized: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Axis;
    use ptest_core::FnScenario;
    use ptest_pcore::{Op, Program};

    fn compute_scenario(n: usize, s: usize) -> impl Scenario {
        FnScenario::new(
            "compute",
            AdaptiveTestConfig {
                n,
                s,
                ..AdaptiveTestConfig::default()
            },
            |sys| {
                vec![sys
                    .kernel_mut()
                    .register_program(Program::new(vec![Op::Compute(20), Op::Exit]).unwrap())]
            },
        )
    }

    #[test]
    fn trial_seeds_are_unique_and_stable() {
        let mut seen = std::collections::BTreeSet::new();
        for round in 0..8 {
            for trial in 0..64 {
                assert!(seen.insert(trial_seed(7, round, trial)));
            }
        }
        assert_eq!(trial_seed(7, 3, 5), trial_seed(7, 3, 5));
        assert_ne!(trial_seed(7, 3, 5), trial_seed(8, 3, 5));
    }

    #[test]
    fn schedule_seeds_are_stable_and_decorrelated_from_trial_seeds() {
        let mut seen = std::collections::BTreeSet::new();
        for round in 0..8 {
            for trial in 0..64 {
                assert!(seen.insert(schedule_seed(7, round, trial)));
                assert_ne!(
                    schedule_seed(7, round, trial),
                    trial_seed(7, round, trial),
                    "schedule and pattern streams must differ"
                );
            }
        }
        assert_eq!(schedule_seed(7, 3, 5), schedule_seed(7, 3, 5));
        assert_ne!(schedule_seed(7, 3, 5), schedule_seed(8, 3, 5));
    }

    #[test]
    fn memory_seeds_are_stable_and_decorrelated_from_the_other_streams() {
        let mut seen = std::collections::BTreeSet::new();
        for round in 0..8 {
            for trial in 0..64 {
                assert!(seen.insert(memory_seed(7, round, trial)));
                assert_ne!(
                    memory_seed(7, round, trial),
                    trial_seed(7, round, trial),
                    "memory and pattern streams must differ"
                );
                assert_ne!(
                    memory_seed(7, round, trial),
                    schedule_seed(7, round, trial),
                    "memory and schedule streams must differ"
                );
            }
        }
        assert_eq!(memory_seed(7, 3, 5), memory_seed(7, 3, 5));
        assert_ne!(memory_seed(7, 3, 5), memory_seed(8, 3, 5));
    }

    #[test]
    fn memory_model_rotation_shows_up_in_detection_buckets() {
        let scenario = compute_scenario(2, 4);
        let report = Campaign::run(
            &CampaignConfig {
                trials_per_round: 6,
                rounds: 1,
                workers: 2,
                master_seed: 3,
                memory_models: vec![MemoryModelSpec::SeqCst, MemoryModelSpec::store_buffer()],
                ..CampaignConfig::default()
            },
            &scenario,
        )
        .unwrap();
        let round = &report.rounds[0];
        let detection = round.detection(Axis::Memory);
        let labels: Vec<&str> = detection.iter().map(|d| d.label.as_str()).collect();
        assert_eq!(labels, ["seq-cst", "store-buffer(d=24)"]);
        assert!(detection.iter().all(|d| d.trials == 3));
        for outcome in &round.trials {
            assert_eq!(
                outcome.memory,
                ["seq-cst", "store-buffer(d=24)"][outcome.trial % 2]
            );
            assert_eq!(
                outcome.memory_seed,
                memory_seed(3, 0, outcome.trial),
                "outcomes record the replay triple"
            );
        }
    }

    #[test]
    fn memory_model_campaigns_stay_worker_count_independent() {
        let scenario = compute_scenario(2, 4);
        let run = |workers| {
            Campaign::run(
                &CampaignConfig {
                    trials_per_round: 6,
                    rounds: 2,
                    workers,
                    master_seed: 77,
                    schedule_budgets: vec![1, 4],
                    memory_models: vec![MemoryModelSpec::SeqCst, MemoryModelSpec::store_buffer()],
                    ..CampaignConfig::default()
                },
                &scenario,
            )
            .unwrap()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn default_campaigns_bucket_everything_under_seq_cst() {
        let scenario = compute_scenario(2, 4);
        let report = Campaign::run(
            &CampaignConfig {
                trials_per_round: 3,
                rounds: 1,
                workers: 1,
                master_seed: 9,
                ..CampaignConfig::default()
            },
            &scenario,
        )
        .unwrap();
        let detection = report.rounds[0].detection(Axis::Memory);
        assert_eq!(detection.len(), 1);
        assert_eq!(detection[0].label, "seq-cst");
        assert_eq!(detection[0].trials, 3);
    }

    #[test]
    fn preemption_rotation_shows_up_in_detection_buckets() {
        use ptest_core::{InterruptConfig, PreemptionSpec, QuantumConfig};
        let scenario = compute_scenario(2, 4);
        let spec = PreemptionSpec {
            quantum: Some(QuantumConfig { cycles: 8 }),
            interrupts: Some(InterruptConfig {
                count: 2,
                horizon: 100,
                ..InterruptConfig::default()
            }),
            ..PreemptionSpec::default()
        };
        let report = Campaign::run(
            &CampaignConfig {
                trials_per_round: 6,
                rounds: 1,
                workers: 2,
                master_seed: 3,
                preemption_specs: vec![PreemptionSpec::default(), spec],
                ..CampaignConfig::default()
            },
            &scenario,
        )
        .unwrap();
        let round = &report.rounds[0];
        let detection = round.detection(Axis::Preemption);
        let labels: Vec<&str> = detection.iter().map(|d| d.label.as_str()).collect();
        assert_eq!(labels, ["none", "quantum(q=8)+irq(n=2)"]);
        assert!(detection.iter().all(|d| d.trials == 3));
        for outcome in &round.trials {
            assert_eq!(
                outcome.preemption,
                ["none", "quantum(q=8)+irq(n=2)"][outcome.trial % 2]
            );
            assert_eq!(
                outcome.irq_seed,
                irq_seed(3, 0, outcome.trial),
                "outcomes record the replay quadruple"
            );
        }
    }

    #[test]
    fn preemption_campaigns_stay_worker_count_independent() {
        use ptest_core::{InterruptConfig, PreemptionSpec, QuantumConfig};
        let scenario = compute_scenario(2, 4);
        let spec = PreemptionSpec {
            quantum: Some(QuantumConfig { cycles: 4 }),
            interrupts: Some(InterruptConfig {
                count: 3,
                horizon: 200,
                ..InterruptConfig::default()
            }),
            ..PreemptionSpec::default()
        };
        let run = |workers| {
            Campaign::run(
                &CampaignConfig {
                    trials_per_round: 6,
                    rounds: 2,
                    workers,
                    master_seed: 77,
                    preemption_specs: vec![PreemptionSpec::default(), spec],
                    ..CampaignConfig::default()
                },
                &scenario,
            )
            .unwrap()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn schedule_budget_rotation_shows_up_in_detection_buckets() {
        let scenario = compute_scenario(2, 4);
        let report = Campaign::run(
            &CampaignConfig {
                trials_per_round: 6,
                rounds: 1,
                workers: 2,
                master_seed: 3,
                schedule_budgets: vec![0, 3],
                ..CampaignConfig::default()
            },
            &scenario,
        )
        .unwrap();
        let round = &report.rounds[0];
        let detection = round.detection(Axis::Schedule);
        let labels: Vec<&str> = detection.iter().map(|d| d.label.as_str()).collect();
        assert_eq!(labels, ["random-priority(d=0)", "random-priority(d=3)"]);
        assert!(detection.iter().all(|d| d.trials == 3));
        for outcome in &round.trials {
            assert_eq!(
                outcome.schedule,
                format!("random-priority(d={})", [0, 3][outcome.trial % 2])
            );
            assert_eq!(
                outcome.schedule_seed,
                schedule_seed(3, 0, outcome.trial),
                "outcomes record the replay pair"
            );
        }
    }

    #[test]
    fn schedule_budget_campaigns_stay_worker_count_independent() {
        let scenario = compute_scenario(2, 4);
        let run = |workers| {
            Campaign::run(
                &CampaignConfig {
                    trials_per_round: 6,
                    rounds: 2,
                    workers,
                    master_seed: 77,
                    schedule_budgets: vec![1, 4],
                    ..CampaignConfig::default()
                },
                &scenario,
            )
            .unwrap()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn default_campaigns_bucket_everything_under_lock_step() {
        let scenario = compute_scenario(2, 4);
        let report = Campaign::run(
            &CampaignConfig {
                trials_per_round: 3,
                rounds: 1,
                workers: 1,
                master_seed: 9,
                ..CampaignConfig::default()
            },
            &scenario,
        )
        .unwrap();
        let detection = report.rounds[0].detection(Axis::Schedule);
        assert_eq!(detection.len(), 1);
        assert_eq!(detection[0].label, "lock-step");
        assert_eq!(detection[0].trials, 3);
    }

    #[test]
    fn campaign_runs_all_trials_across_rounds() {
        let scenario = compute_scenario(2, 4);
        let report = Campaign::run(
            &CampaignConfig {
                trials_per_round: 5,
                rounds: 3,
                workers: 2,
                master_seed: 1,
                ..CampaignConfig::default()
            },
            &scenario,
        )
        .unwrap();
        assert_eq!(report.total_trials(), 15);
        assert_eq!(report.rounds.len(), 3);
        for (i, round) in report.rounds.iter().enumerate() {
            assert_eq!(round.round, i);
            assert_eq!(round.trials.len(), 5);
            assert!(round.total_commands > 0);
            assert!(round.learned.is_some(), "learning is on by default");
        }
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let scenario = compute_scenario(2, 4);
        let run = |workers| {
            Campaign::run(
                &CampaignConfig {
                    trials_per_round: 6,
                    rounds: 2,
                    workers,
                    master_seed: 99,
                    ..CampaignConfig::default()
                },
                &scenario,
            )
            .unwrap()
        };
        let one = run(1);
        let four = run(4);
        let eight = run(8);
        assert_eq!(one, four);
        assert_eq!(four, eight);
    }

    #[test]
    fn learning_disabled_keeps_the_distribution_fixed() {
        let scenario = compute_scenario(2, 4);
        let report = Campaign::run(
            &CampaignConfig {
                trials_per_round: 3,
                rounds: 3,
                workers: 2,
                master_seed: 5,
                learning: LearningConfig {
                    enabled: false,
                    ..LearningConfig::default()
                },
                ..CampaignConfig::default()
            },
            &scenario,
        )
        .unwrap();
        for round in &report.rounds {
            assert_eq!(round.traces_learned, 0);
            assert!(round.learned.is_none());
            assert_eq!(round.distribution, report.rounds[0].distribution);
        }
    }

    #[test]
    fn learning_shifts_the_distribution_between_rounds() {
        let scenario = compute_scenario(3, 6);
        let report = Campaign::run(
            &CampaignConfig {
                trials_per_round: 4,
                rounds: 2,
                workers: 2,
                master_seed: 42,
                ..CampaignConfig::default()
            },
            &scenario,
        )
        .unwrap();
        assert!(report.rounds[0].traces_learned > 0);
        // Round 1 generates from what round 0 learned.
        assert_eq!(
            report.rounds[0].learned.as_ref().unwrap(),
            &report.rounds[1].distribution
        );
    }

    #[test]
    fn empty_campaigns_are_rejected() {
        let scenario = compute_scenario(1, 2);
        assert!(matches!(
            Campaign::run(
                &CampaignConfig {
                    rounds: 0,
                    ..CampaignConfig::default()
                },
                &scenario
            ),
            Err(CampaignError::EmptyCampaign)
        ));
        assert!(matches!(
            Campaign::run(
                &CampaignConfig {
                    trials_per_round: 0,
                    ..CampaignConfig::default()
                },
                &scenario
            ),
            Err(CampaignError::EmptyCampaign)
        ));
    }

    #[test]
    fn minimization_shrinks_each_class_once_per_campaign() {
        let scenario = ptest_faults::races::OrderViolationScenario::buggy();
        let report = Campaign::run(
            &CampaignConfig {
                trials_per_round: 8,
                rounds: 2,
                workers: 2,
                master_seed: 2009,
                learning: LearningConfig {
                    enabled: false,
                    ..LearningConfig::default()
                },
                minimize_bugs: true,
                ..CampaignConfig::default()
            },
            &scenario,
        )
        .unwrap();
        let classes: Vec<&str> = report
            .rounds
            .iter()
            .flat_map(|r| r.minimized.iter().map(|m| m.repro.bug_class.as_str()))
            .collect();
        assert!(!classes.is_empty(), "the seeded race was never minimized");
        let mut dedup = classes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(
            classes.len(),
            dedup.len(),
            "a class was shrunk more than once: {classes:?}"
        );
        for m in report.rounds.iter().flat_map(|r| &r.minimized) {
            assert!(
                m.repro.minimized_symbols < m.repro.original_symbols,
                "{}: no shrink",
                m.repro.bug_class
            );
            assert!(
                m.repro
                    .summary
                    .bugs
                    .iter()
                    .any(|b| b.class == m.repro.bug_class),
                "minimized summary lost its class"
            );
        }
    }

    #[test]
    fn minimizing_campaigns_stay_worker_count_independent() {
        let scenario = ptest_faults::races::OrderViolationScenario::buggy();
        let run = |workers| {
            Campaign::run(
                &CampaignConfig {
                    trials_per_round: 6,
                    rounds: 1,
                    workers,
                    master_seed: 2009,
                    learning: LearningConfig {
                        enabled: false,
                        ..LearningConfig::default()
                    },
                    minimize_bugs: true,
                    ..CampaignConfig::default()
                },
                &scenario,
            )
            .unwrap()
        };
        let one = run(1);
        assert!(
            !one.rounds[0].minimized.is_empty(),
            "nothing minimized, the comparison would be vacuous"
        );
        assert_eq!(one, run(4));
    }

    #[test]
    fn unminimized_campaigns_report_empty_minimized_rounds() {
        let scenario = compute_scenario(2, 4);
        let report = Campaign::run(
            &CampaignConfig {
                trials_per_round: 3,
                rounds: 1,
                workers: 1,
                ..CampaignConfig::default()
            },
            &scenario,
        )
        .unwrap();
        assert!(report.rounds.iter().all(|r| r.minimized.is_empty()));
    }

    #[test]
    fn bad_scenario_regex_is_reported() {
        let scenario = FnScenario::new(
            "bad",
            AdaptiveTestConfig {
                regex_source: "((".to_owned(),
                ..AdaptiveTestConfig::default()
            },
            |_sys| Vec::new(),
        );
        assert!(matches!(
            Campaign::run(&CampaignConfig::default(), &scenario),
            Err(CampaignError::Adaptive(AdaptiveTestError::Regex(_)))
        ));
    }
}
