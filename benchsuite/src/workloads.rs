//! The three workloads: what each runs, at which sizes, and which bug
//! class counts as a hit. Why each was chosen is in the README.

use ptest::campaign::{irq_seed, memory_seed, schedule_seed, trial_seed, CampaignReport};
use ptest::faults::fig1::Fig1AdaptiveScenario;
use ptest::faults::multicore::CrossCorePipelineScenario;
use ptest::faults::races::OrderViolationScenario;
use ptest::faults::timers::IsrSharedVarScenario;
use ptest::faults::weakmem::StoreVisibilityScenario;
use ptest::{
    AdaptiveTestConfig, CampaignConfig, LearningConfig, MemoryModelSpec, PreemptionSpec,
    QuantumConfig, RandomPriorityConfig, Scenario, ScheduleSpec,
};

use crate::traced::TrialPoint;

/// The workload seed used when none is given.
pub const DEFAULT_SEED: u64 = 2009;

/// The held-out seed on which a later change re-checks a claim made on
/// other seeds.
pub const HELD_OUT_SEED: u64 = 4099;

/// Worker threads of every campaign.
pub const WORKERS: usize = 2;

/// Campaigns per pass of `fig1_learn` and `pipeline_axes`.
pub const ITEMS: usize = 4;

/// Distinct hits each run shrinks: enough for ten beyond the 90th
/// percentile of shrink time.
pub const POOL: usize = 100;

/// Trials of each `race_shrink` hit-search campaign. The order-violation
/// race manifests in about a quarter of its trials, so this is enough
/// for its share of [`POOL`] (34) on every seed.
pub const SEARCH_TRIALS: usize = 256;

/// The master seed of campaign `k` of a workload run at `seed`.
#[must_use]
pub fn item_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 1 adaptive campaign, learning on.
    Fig1Learn,
    /// The buggy 3-slave pipeline under a schedule × memory × preemption
    /// sweep, learning off.
    PipelineAxes,
    /// Complete shrinks of hits from three seeded races, one thread.
    RaceShrink,
}

/// Every workload, in report order.
pub const ALL: [Workload; 3] = [
    Workload::Fig1Learn,
    Workload::PipelineAxes,
    Workload::RaceShrink,
];

impl Workload {
    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig1Learn => "fig1_learn",
            Workload::PipelineAxes => "pipeline_axes",
            Workload::RaceShrink => "race_shrink",
        }
    }

    /// Whether the workload only shrinks, its campaigns being the
    /// hit search of its set-up.
    #[must_use]
    pub fn shrinks_only(self) -> bool {
        self == Workload::RaceShrink
    }

    /// The campaigns the workload runs: the timed campaigns of
    /// `fig1_learn` and `pipeline_axes` ([`ITEMS`] of them, one master
    /// seed each), or the hit-search campaigns that `race_shrink`
    /// shrinks hits from.
    #[must_use]
    pub fn campaigns(self, seed: u64) -> Vec<Subject> {
        match self {
            Workload::Fig1Learn => (0..ITEMS)
                .map(|k| Subject {
                    scenario: Box::new(Fig1AdaptiveScenario::default()),
                    class: "livelock",
                    campaign: CampaignConfig {
                        trials_per_round: 128,
                        rounds: 4,
                        workers: WORKERS,
                        master_seed: item_seed(seed, k),
                        learning: LearningConfig::default(),
                        ..CampaignConfig::default()
                    },
                })
                .collect(),
            Workload::PipelineAxes => {
                let quantum = PreemptionSpec {
                    quantum: Some(QuantumConfig::default()),
                    ..PreemptionSpec::default()
                };
                (0..ITEMS)
                    .map(|k| Subject {
                        scenario: Box::new(CrossCorePipelineScenario::buggy()),
                        class: "cross_core_deadlock",
                        campaign: CampaignConfig {
                            trials_per_round: 1024,
                            rounds: 1,
                            workers: WORKERS,
                            master_seed: item_seed(seed, k),
                            learning: LearningConfig {
                                enabled: false,
                                ..LearningConfig::default()
                            },
                            schedule_budgets: vec![2, 4, 8],
                            memory_models: vec![
                                MemoryModelSpec::SeqCst,
                                MemoryModelSpec::store_buffer(),
                            ],
                            // Length 4 against the memory rotation's 2, so
                            // every (memory, preemption) pair occurs.
                            preemption_specs: vec![
                                PreemptionSpec::default(),
                                PreemptionSpec::default(),
                                quantum,
                                quantum,
                            ],
                            ..CampaignConfig::default()
                        },
                    })
                    .collect()
            }
            Workload::RaceShrink => {
                let search = |trials: usize| CampaignConfig {
                    trials_per_round: trials,
                    rounds: 1,
                    workers: WORKERS,
                    master_seed: seed,
                    learning: LearningConfig {
                        enabled: false,
                        ..LearningConfig::default()
                    },
                    ..CampaignConfig::default()
                };
                vec![
                    Subject {
                        scenario: Box::new(OrderViolationScenario::buggy()),
                        class: "task_fault",
                        campaign: search(SEARCH_TRIALS),
                    },
                    Subject {
                        scenario: Box::new(StoreVisibilityScenario::buggy()),
                        class: "task_fault",
                        campaign: search(SEARCH_TRIALS),
                    },
                    Subject {
                        scenario: Box::new(IsrSharedVarScenario::buggy()),
                        class: "task_fault",
                        campaign: search(SEARCH_TRIALS),
                    },
                ]
            }
        }
    }
}

/// One scenario under one campaign configuration, with the bug class
/// that counts as its hit.
pub struct Subject {
    /// The scenario.
    pub scenario: Box<dyn Scenario>,
    /// The target bug class.
    pub class: &'static str,
    /// The campaign configuration.
    pub campaign: CampaignConfig,
}

/// The specs trial `trial` of a campaign runs under — the campaign's
/// rotation rules, restated so the traced run can replay any trial.
#[must_use]
pub fn trial_point(
    cfg: &CampaignConfig,
    base: &AdaptiveTestConfig,
    round: usize,
    trial: usize,
) -> TrialPoint {
    let m = cfg.master_seed;
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
    let memory = if cfg.memory_models.is_empty() {
        base.memory
    } else {
        cfg.memory_models[trial % cfg.memory_models.len()]
    };
    let preemption = if cfg.preemption_specs.is_empty() {
        base.preemption
    } else {
        cfg.preemption_specs[trial % cfg.preemption_specs.len()]
    };
    TrialPoint {
        seed: trial_seed(m, round, trial),
        schedule_seed: schedule_seed(m, round, trial),
        memory_seed: memory_seed(m, round, trial),
        irq_seed: irq_seed(m, round, trial),
        schedule,
        memory,
        preemption,
    }
}

/// The round-0 hits of every subject, taken in turn across subjects,
/// `limit` in all — round 0 runs under the scenario's own distribution,
/// so a fresh engine replays it. Every subject gives its equal share, so
/// the pool's mix of scenarios is the same for every seed.
///
/// # Errors
///
/// A subject found fewer hits than its share.
pub fn hit_pool(
    subjects: &[Subject],
    reports: &[CampaignReport],
    limit: usize,
) -> Result<Vec<(usize, TrialPoint)>, String> {
    let share = limit.div_ceil(subjects.len().max(1));
    let per_subject: Vec<Vec<TrialPoint>> = subjects
        .iter()
        .zip(reports)
        .map(|(subject, report)| {
            let base = subject.scenario.base_config();
            report.rounds[0]
                .trials
                .iter()
                .filter(|t| t.summary.bugs.iter().any(|b| b.class == subject.class))
                .map(|t| trial_point(&subject.campaign, &base, 0, t.trial))
                .collect()
        })
        .collect();
    if let Some((k, hits)) = per_subject
        .iter()
        .enumerate()
        .find(|(_, hits)| hits.len() < share)
    {
        return Err(format!(
            "campaign {k} found {} hits, fewer than its share of {share}",
            hits.len()
        ));
    }
    Ok((0..share)
        .flat_map(|i| {
            per_subject
                .iter()
                .enumerate()
                .map(move |(s, hits)| (s, hits[i]))
        })
        .take(limit)
        .collect())
}
