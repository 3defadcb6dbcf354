//! Schedule-exploration smoke: detect a seeded cross-core race that the
//! lock-step schedule can never reach, then replay it from its recorded
//! `(seed, schedule_seed)` pair.
//!
//! ```sh
//! cargo run --release --example schedule_race -- --trials 12 --workers 2
//! ```
//!
//! Runs one campaign round of the order-violation scenario under the
//! PCT-style `RandomPriorityScheduler` (the scenario's default
//! schedule). The race — slave 0 consuming a payload slave 1 has not
//! initialized yet — manifests as a guarded task fault on some schedule
//! seeds, never under lock-step. Exits non-zero if no trial detects it
//! or if the recorded seed pair fails to replay the detection
//! byte-for-byte (the CI smoke check).

use ptest::faults::races::{race_manifested, OrderViolationScenario};
use ptest::{
    Axis, Campaign, CampaignConfig, LearningConfig, Scenario, TrialEngine, TrialOverrides,
    TrialScratch,
};

fn arg(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = OrderViolationScenario::buggy();
    let campaign = Campaign::run(
        &CampaignConfig {
            trials_per_round: arg("--trials", 12),
            rounds: 1,
            workers: arg("--workers", 2),
            master_seed: arg("--seed", 2009) as u64,
            learning: LearningConfig {
                enabled: false,
                ..LearningConfig::default()
            },
            ..CampaignConfig::default()
        },
        &scenario,
    )?;
    let round = &campaign.rounds[0];
    for detection in &round.detection(Axis::Schedule) {
        println!(
            "schedule {}: {}/{} trials detected ({} bugs)",
            detection.label, detection.trials_with_bugs, detection.trials, detection.bugs
        );
    }
    let hit = round
        .trials
        .iter()
        .find(|t| !t.summary.bugs.is_empty())
        .ok_or("no randomized schedule revealed the seeded race")?;
    println!(
        "trial {}: seed={} schedule_seed={} -> {}",
        hit.trial, hit.seed, hit.schedule_seed, hit.summary.bugs[0].detail
    );

    // Replay from the recorded pair alone (the memory seed is recorded
    // too, but has no effect under the scenario's seq-cst memory).
    let replay = TrialEngine::new(scenario.base_config())?.run_scenario_trial_overridden(
        &scenario,
        hit.seed,
        hit.schedule_seed,
        hit.memory_seed,
        TrialOverrides::default(),
        &mut TrialScratch::new(),
    )?;
    if !race_manifested(&replay) || replay.machine_summary().bugs != hit.summary.bugs {
        return Err("recorded seed pair failed to replay the detection".into());
    }
    println!("replayed byte-identically from the recorded seed pair");
    Ok(())
}
