//! Schedule-exploration acceptance tests.
//!
//! Three pillars:
//!
//! 1. **The lock-step anchor holds.** The default scheduler is the
//!    historical lock-step step loop on a fast path with no scheduler
//!    machinery at all; `integration_multicore.rs` pins it against the
//!    pre-refactor golden fixtures byte for byte.
//! 2. **Schedule-sensitive bugs become reachable.** Both racy
//!    scenarios (an order violation and a cross-core atomicity bug) are
//!    invisible to every pattern seed under lock-step but detected
//!    under [`RandomPriorityScheduler`] — and every detection replays
//!    byte-identically from its recorded `(seed, schedule_seed)` pair.
//! 3. **Campaigns explore (pattern × schedule) space.** Per-trial
//!    schedule seeds derive from the master seed, outcomes record the
//!    replay pair, and per-schedule detection aggregates land in the
//!    round report.

use ptest::faults::races::{
    race_manifested, AtomicityRaceScenario, OrderViolationScenario, RaceVariant,
};
use ptest::{
    derived_memory_seed, AdaptiveTest, Axis, Campaign, CampaignConfig, Configured, LearningConfig,
    Scenario, ScheduleSpec, TrialEngine, TrialOverrides, TrialScratch,
};

fn run_pair(
    scenario: &dyn Scenario,
    spec: ScheduleSpec,
    seed: u64,
    schedule_seed: u64,
) -> ptest::TestReport {
    TrialEngine::new(scenario.base_config())
        .unwrap()
        .run_scenario_trial_overridden(
            scenario,
            seed,
            schedule_seed,
            derived_memory_seed(seed),
            TrialOverrides {
                schedule: Some(spec),
                ..TrialOverrides::default()
            },
            &mut TrialScratch::new(),
        )
        .unwrap()
}

/// Searches a small (pattern seed × schedule seed) grid for a
/// manifestation under randomized priorities.
fn find_detection(scenario: &dyn Scenario) -> Option<(u64, u64)> {
    for seed in 0..4 {
        for schedule_seed in 0..8 {
            let report = run_pair(
                scenario,
                ScheduleSpec::random_priority(),
                seed,
                schedule_seed,
            );
            if race_manifested(&report) {
                return Some((seed, schedule_seed));
            }
        }
    }
    None
}

#[test]
fn both_racy_scenarios_are_lock_step_invisible_but_random_priority_detected() {
    let scenarios: [&dyn Scenario; 2] = [
        &OrderViolationScenario::buggy(),
        &AtomicityRaceScenario::buggy(),
    ];
    for scenario in scenarios {
        // Lock-step: structurally unreachable, across pattern seeds.
        for seed in 0..6 {
            let report = run_pair(scenario, ScheduleSpec::LockStep, seed, seed);
            assert!(
                !race_manifested(&report),
                "{}: lock-step seed {seed} must stay clean: {}",
                scenario.name(),
                report.summary()
            );
        }
        // Randomized priorities: reachable, and replayable.
        let (seed, schedule_seed) = find_detection(scenario)
            .unwrap_or_else(|| panic!("{}: no seed pair in the search grid", scenario.name()));
        let first = run_pair(
            scenario,
            ScheduleSpec::random_priority(),
            seed,
            schedule_seed,
        );
        let again = run_pair(
            scenario,
            ScheduleSpec::random_priority(),
            seed,
            schedule_seed,
        );
        assert!(race_manifested(&first) && race_manifested(&again));
        assert_eq!(first.bugs.len(), again.bugs.len());
        for (a, b) in first.bugs.iter().zip(&again.bugs) {
            assert_eq!(a.kind, b.kind, "{}", scenario.name());
            assert_eq!(
                a.detected_at,
                b.detected_at,
                "{}: seed-pair replay must be byte-identical",
                scenario.name()
            );
        }
        assert_eq!(first.schedule_seed, schedule_seed);
        assert_eq!(first.config.schedule_seed, Some(schedule_seed));
    }
}

#[test]
fn fixed_variants_stay_clean_under_both_schedules() {
    let scenarios: [&dyn Scenario; 2] = [
        &OrderViolationScenario::fixed(),
        &AtomicityRaceScenario::fixed(),
    ];
    for scenario in scenarios {
        assert!(
            find_detection(scenario).is_none(),
            "{}: properly synchronized variant tripped its guard",
            scenario.name()
        );
        let report = run_pair(scenario, ScheduleSpec::LockStep, 0, 0);
        assert!(!race_manifested(&report), "{}", report.summary());
    }
}

/// A campaign over the racy scenario detects the bug, records every
/// trial's replay pair, and any bug-finding trial reproduces from its
/// recorded `(seed, schedule_seed)` alone.
#[test]
fn campaign_detection_is_replayable_from_recorded_seed_pairs() {
    let scenario = OrderViolationScenario::buggy();
    let cfg = CampaignConfig {
        trials_per_round: 12,
        rounds: 1,
        workers: 4,
        master_seed: 2009,
        learning: LearningConfig {
            enabled: false,
            ..LearningConfig::default()
        },
        ..CampaignConfig::default()
    };
    let report = Campaign::run(&cfg, &scenario).unwrap();
    let round = &report.rounds[0];
    let detection = round.detection(Axis::Schedule);
    assert_eq!(detection.len(), 1, "{detection:?}");
    assert_eq!(detection[0].label, "random-priority(d=3)");
    let hit = round
        .trials
        .iter()
        .find(|t| !t.summary.bugs.is_empty())
        .expect("12 randomized schedules must reveal the order violation");
    assert!(detection[0].trials_with_bugs >= 1);
    // Replay standalone from the recorded pair.
    let replay = run_pair(
        &scenario,
        ScheduleSpec::random_priority(),
        hit.seed,
        hit.schedule_seed,
    );
    let replay_summary = replay.machine_summary();
    assert_eq!(
        replay_summary.bugs, hit.summary.bugs,
        "bug list must replay from the recorded pair"
    );
    assert_eq!(replay_summary.cycles, hit.summary.cycles);
}

/// The schedule-budget rotation sweeps PCT depths within one round and
/// aggregates detection per budget.
#[test]
fn schedule_budget_rotation_aggregates_per_budget() {
    let scenario = Configured::adjust(OrderViolationScenario::buggy(), |cfg| {
        cfg.schedule = ScheduleSpec::LockStep; // rotation overrides this
    });
    let cfg = CampaignConfig {
        trials_per_round: 8,
        rounds: 1,
        workers: 2,
        master_seed: 7,
        learning: LearningConfig {
            enabled: false,
            ..LearningConfig::default()
        },
        schedule_budgets: vec![0, 3],
        ..CampaignConfig::default()
    };
    let report = Campaign::run(&cfg, &scenario).unwrap();
    let round = &report.rounds[0];
    let detection = round.detection(Axis::Schedule);
    let labels: Vec<&str> = detection.iter().map(|d| d.label.as_str()).collect();
    assert_eq!(labels, ["random-priority(d=0)", "random-priority(d=3)"]);
    assert!(detection.iter().all(|d| d.trials == 4));
}

/// Single-seed entry points stay a one-seed story: the schedule seed
/// derives deterministically from the pattern seed, and reproduction
/// through `AdaptiveTest::reproduce` replays schedule and all.
#[test]
fn reproduce_carries_the_schedule() {
    let scenario = AtomicityRaceScenario {
        variant: RaceVariant::Buggy,
        rounds: 8,
    };
    let first = AdaptiveTest::run_scenario(&scenario, 3).unwrap();
    assert_eq!(first.schedule_seed, ptest::derived_schedule_seed(3));
    let again = AdaptiveTest::reproduce(&first, |sys| scenario.setup(sys)).unwrap();
    assert_eq!(first.cycles, again.cycles);
    assert_eq!(first.bugs.len(), again.bugs.len());
    assert_eq!(first.schedule_seed, again.schedule_seed);
}
