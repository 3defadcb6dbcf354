//! Memory-model-exploration acceptance tests.
//!
//! Three pillars, mirroring `integration_schedule.rs` on the third seed
//! axis:
//!
//! 1. **The sequential-consistency anchor holds.** The default memory
//!    model is the historical shared-variable mirroring epoch on a fast
//!    path with no model machinery at all; `integration_multicore.rs`
//!    pins it against the pre-refactor golden fixtures byte for byte.
//! 2. **Reordering bugs become reachable.** Both weak-memory scenarios
//!    (a Dekker store-visibility race and an IRIW cross-reader
//!    disagreement) are invisible to every pattern seed under
//!    sequential consistency but detected under the store-buffer model
//!    — and every detection replays byte-identically from its recorded
//!    `(seed, schedule_seed, memory_seed)` triple.
//! 3. **Campaigns explore the (pattern × schedule × memory) cube.**
//!    Per-trial memory seeds derive from the master seed, outcomes
//!    record the replay triple, and per-model detection aggregates land
//!    in the round report.

use ptest::faults::weakmem::{
    reordering_manifested, IriwScenario, StoreVisibilityScenario, WeakMemVariant,
};
use ptest::{
    AdaptiveTest, Axis, Campaign, CampaignConfig, LearningConfig, MemoryModelSpec, Scenario,
    TrialEngine, TrialOverrides, TrialScratch,
};

fn run_triple(
    scenario: &dyn Scenario,
    memory: MemoryModelSpec,
    seed: u64,
    memory_seed: u64,
) -> ptest::TestReport {
    TrialEngine::new(scenario.base_config())
        .unwrap()
        .run_scenario_trial_overridden(
            scenario,
            seed,
            0,
            memory_seed,
            TrialOverrides {
                memory: Some(memory),
                ..TrialOverrides::default()
            },
            &mut TrialScratch::new(),
        )
        .unwrap()
}

/// Searches a small (pattern seed × memory seed) grid for a
/// manifestation under the store-buffer model.
fn find_detection(scenario: &dyn Scenario) -> Option<(u64, u64)> {
    for seed in 0..3 {
        for memory_seed in 0..16 {
            let report = run_triple(scenario, MemoryModelSpec::store_buffer(), seed, memory_seed);
            if reordering_manifested(&report) {
                return Some((seed, memory_seed));
            }
        }
    }
    None
}

#[test]
fn both_weakmem_scenarios_are_seq_cst_invisible_but_store_buffer_detected() {
    let scenarios: [&dyn Scenario; 2] = [&StoreVisibilityScenario::buggy(), &IriwScenario::buggy()];
    for scenario in scenarios {
        // Sequential consistency: structurally unreachable, across
        // pattern and memory seeds (the latter must be inert).
        for seed in 0..4 {
            let report = run_triple(scenario, MemoryModelSpec::SeqCst, seed, seed ^ 0x5A5A);
            assert!(
                !reordering_manifested(&report),
                "{}: seq-cst seed {seed} must stay clean: {}",
                scenario.name(),
                report.summary()
            );
        }
        // Store buffer: reachable, and replayable from the triple.
        let (seed, memory_seed) = find_detection(scenario)
            .unwrap_or_else(|| panic!("{}: no seed pair in the search grid", scenario.name()));
        let first = run_triple(scenario, MemoryModelSpec::store_buffer(), seed, memory_seed);
        let again = run_triple(scenario, MemoryModelSpec::store_buffer(), seed, memory_seed);
        assert!(reordering_manifested(&first) && reordering_manifested(&again));
        assert_eq!(first.bugs.len(), again.bugs.len());
        for (a, b) in first.bugs.iter().zip(&again.bugs) {
            assert_eq!(a.kind, b.kind, "{}", scenario.name());
            assert_eq!(
                a.detected_at,
                b.detected_at,
                "{}: seed-triple replay must be byte-identical",
                scenario.name()
            );
        }
        assert_eq!(first.memory_seed, memory_seed);
        assert_eq!(first.config.memory_seed, Some(memory_seed));
    }
}

#[test]
fn fenced_variants_stay_clean_under_both_memory_models() {
    let scenarios: [&dyn Scenario; 2] =
        [&StoreVisibilityScenario::fenced(), &IriwScenario::fenced()];
    for scenario in scenarios {
        assert!(
            find_detection(scenario).is_none(),
            "{}: fenced variant tripped its guard",
            scenario.name()
        );
        let report = run_triple(scenario, MemoryModelSpec::SeqCst, 0, 0);
        assert!(!reordering_manifested(&report), "{}", report.summary());
    }
}

/// A campaign over the racy scenario detects the bug, records every
/// trial's replay triple, and any bug-finding trial reproduces from its
/// recorded `(seed, schedule_seed, memory_seed)` alone.
#[test]
fn campaign_detection_is_replayable_from_recorded_seed_triples() {
    let scenario = StoreVisibilityScenario::buggy();
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
    let detection = round.detection(Axis::Memory);
    assert_eq!(detection.len(), 1, "{detection:?}");
    assert_eq!(detection[0].label, "store-buffer(d=24)");
    let hit = round
        .trials
        .iter()
        .find(|t| !t.summary.bugs.is_empty())
        .expect("12 store-buffer seeds must reveal the visibility race");
    assert!(detection[0].trials_with_bugs >= 1);
    // Replay standalone from the recorded triple.
    let replay = TrialEngine::new(scenario.base_config())
        .unwrap()
        .run_scenario_trial_overridden(
            &scenario,
            hit.seed,
            hit.schedule_seed,
            hit.memory_seed,
            TrialOverrides::default(),
            &mut TrialScratch::new(),
        )
        .unwrap();
    let replay_summary = replay.machine_summary();
    assert_eq!(
        replay_summary.bugs, hit.summary.bugs,
        "bug list must replay from the recorded triple"
    );
    assert_eq!(replay_summary.cycles, hit.summary.cycles);
}

/// The memory-model rotation probes both propagation semantics within
/// one round and aggregates detection per model — the bug shows up only
/// in the store-buffer bucket.
#[test]
fn memory_model_rotation_aggregates_per_model() {
    let scenario = StoreVisibilityScenario::buggy();
    let cfg = CampaignConfig {
        trials_per_round: 16,
        rounds: 1,
        workers: 4,
        master_seed: 7,
        learning: LearningConfig {
            enabled: false,
            ..LearningConfig::default()
        },
        memory_models: vec![MemoryModelSpec::SeqCst, MemoryModelSpec::store_buffer()],
        ..CampaignConfig::default()
    };
    let report = Campaign::run(&cfg, &scenario).unwrap();
    let round = &report.rounds[0];
    let detection = round.detection(Axis::Memory);
    let labels: Vec<&str> = detection.iter().map(|d| d.label.as_str()).collect();
    assert_eq!(labels, ["seq-cst", "store-buffer(d=24)"]);
    assert!(detection.iter().all(|d| d.trials == 8));
    let seq_cst = &detection[0];
    assert_eq!(
        seq_cst.trials_with_bugs, 0,
        "the race must stay invisible under sequential consistency"
    );
}

/// Single-seed entry points stay a one-seed story: the memory seed
/// derives deterministically from the pattern seed, and reproduction
/// through `AdaptiveTest::reproduce` replays memory model and all.
#[test]
fn reproduce_carries_the_memory_model() {
    let scenario = IriwScenario {
        variant: WeakMemVariant::Unfenced,
    };
    let first = AdaptiveTest::run_scenario(&scenario, 3).unwrap();
    assert_eq!(first.memory_seed, ptest::derived_memory_seed(3));
    let again = AdaptiveTest::reproduce(&first, |sys| scenario.setup(sys)).unwrap();
    assert_eq!(first.cycles, again.cycles);
    assert_eq!(first.bugs.len(), again.bugs.len());
    assert_eq!(first.memory_seed, again.memory_seed);
}
