//! Pins one campaign archive that rotates all three axes, and the
//! per-axis detection tables derived from it.
//!
//! The campaign: the buggy cross-core pipeline, 2 rounds × 12 trials,
//! learning off, schedule budgets `[2, 4]`, memory models
//! `[seq-cst, store-buffer]`, preemption specs `[none, quantum]`,
//! `minimize_bugs` on, master seed 2009. Its archive is compared byte for
//! byte with `fixtures/golden_campaign_axes.json`. The detection tables
//! below were the ones checkpoint schema v3 stored in every round; v4
//! derives them from the trial outcomes, and they must not move.
//!
//! `fixtures/checkpoint_v3.json` is the round-1 checkpoint of the same
//! campaign written under schema v3. Resuming from it must fail with a
//! checkpoint error, never a panic.

use ptest::campaign::CampaignError;
use ptest::faults::multicore::CrossCorePipelineScenario;
use ptest::{
    Axis, AxisDetection, Campaign, CampaignCheckpoint, CampaignConfig, LearningConfig,
    MemoryModelSpec, PreemptionSpec, QuantumConfig,
};

const GOLDEN: &str = include_str!("fixtures/golden_campaign_axes.json");
const CHECKPOINT_V3: &str = include_str!("fixtures/checkpoint_v3.json");

fn config() -> CampaignConfig {
    CampaignConfig {
        trials_per_round: 12,
        rounds: 2,
        workers: 2,
        master_seed: 2009,
        learning: LearningConfig {
            enabled: false,
            ..LearningConfig::default()
        },
        schedule_budgets: vec![2, 4],
        memory_models: vec![MemoryModelSpec::SeqCst, MemoryModelSpec::store_buffer()],
        preemption_specs: vec![
            PreemptionSpec::default(),
            PreemptionSpec {
                quantum: Some(QuantumConfig::default()),
                ..PreemptionSpec::default()
            },
        ],
        minimize_bugs: true,
    }
}

fn table(rows: [(&str, usize, usize, usize); 2]) -> Vec<AxisDetection> {
    rows.iter()
        .map(|&(label, trials, trials_with_bugs, bugs)| AxisDetection {
            label: label.to_owned(),
            trials,
            trials_with_bugs,
            bugs,
        })
        .collect()
}

#[test]
fn axis_rotating_campaign_matches_its_golden_archive_and_tables() {
    let report = Campaign::run(&config(), &CrossCorePipelineScenario::buggy()).unwrap();
    assert_eq!(ptest::campaign_report_to_json(&report).unwrap(), GOLDEN);

    // (label, trials, trials with bugs, bugs) per round, as stored by v3.
    let expected = [
        [
            [
                ("random-priority(d=2)", 6, 6, 8),
                ("random-priority(d=4)", 6, 4, 4),
            ],
            [("seq-cst", 6, 6, 8), ("store-buffer(d=24)", 6, 4, 4)],
            [("none", 6, 6, 8), ("quantum(q=8)", 6, 4, 4)],
        ],
        [
            [
                ("random-priority(d=2)", 6, 6, 8),
                ("random-priority(d=4)", 6, 5, 7),
            ],
            [("seq-cst", 6, 6, 8), ("store-buffer(d=24)", 6, 5, 7)],
            [("none", 6, 6, 8), ("quantum(q=8)", 6, 5, 7)],
        ],
    ];
    for (round, tables) in report.rounds.iter().zip(expected) {
        let axes = [Axis::Schedule, Axis::Memory, Axis::Preemption];
        for (axis, rows) in axes.into_iter().zip(tables) {
            assert_eq!(
                round.detection(axis),
                table(rows),
                "round {} {axis:?}",
                round.round
            );
        }
    }
}

#[test]
fn v3_checkpoints_are_rejected_not_resumed() {
    let cfg = config();
    let scenario = CrossCorePipelineScenario::buggy();
    let checkpoint = CampaignCheckpoint::from_json(CHECKPOINT_V3).expect("v3 still parses");
    assert_eq!(checkpoint.schema, "ptest-campaign/checkpoint-v3");
    let is_schema_error =
        |e: CampaignError| matches!(e, CampaignError::Checkpoint(msg) if msg.contains("schema"));

    let resumed = Campaign::resume(&cfg, &scenario, &checkpoint);
    assert!(is_schema_error(resumed.unwrap_err()));

    let path = std::env::temp_dir().join(format!(
        "ptest-golden-checkpoint-v3-{}.json",
        std::process::id()
    ));
    std::fs::write(&path, CHECKPOINT_V3).unwrap();
    let resumed = Campaign::run_with_checkpoint_file(&cfg, &scenario, &path);
    let left = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(is_schema_error(resumed.unwrap_err()));
    assert_eq!(
        left, CHECKPOINT_V3,
        "a rejected checkpoint is left as it was"
    );
}
