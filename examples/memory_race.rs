//! Memory-model-exploration smoke: detect a store-visibility race that
//! sequential consistency can never reach, then replay it from its
//! recorded `(seed, schedule_seed, memory_seed)` triple.
//!
//! ```sh
//! cargo run --release --example memory_race -- --trials 12 --workers 2
//! ```
//!
//! Runs one campaign round of the Dekker-style store-visibility scenario
//! under the store-buffer memory model (the scenario's default). The
//! race — both slaves entering the critical section because each one's
//! flag store is still buffered when the other loads it — manifests as a
//! guarded task fault on some memory seeds, never under sequential
//! consistency. Exits non-zero if no trial detects it or if the recorded
//! seed triple fails to replay the detection byte-for-byte (the CI smoke
//! check).

use ptest::faults::weakmem::{reordering_manifested, StoreVisibilityScenario};
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
    let scenario = StoreVisibilityScenario::buggy();
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
    for detection in &round.detection(Axis::Memory) {
        println!(
            "memory {}: {}/{} trials detected ({} bugs)",
            detection.label, detection.trials_with_bugs, detection.trials, detection.bugs
        );
    }
    let hit = round
        .trials
        .iter()
        .find(|t| !t.summary.bugs.is_empty())
        .ok_or("no store-buffer seed revealed the visibility race")?;
    println!(
        "trial {}: seed={} schedule_seed={} memory_seed={} -> {}",
        hit.trial, hit.seed, hit.schedule_seed, hit.memory_seed, hit.summary.bugs[0].detail
    );

    // Replay from the recorded triple alone.
    let replay = TrialEngine::new(scenario.base_config())?.run_scenario_trial_overridden(
        &scenario,
        hit.seed,
        hit.schedule_seed,
        hit.memory_seed,
        TrialOverrides::default(),
        &mut TrialScratch::new(),
    )?;
    if !reordering_manifested(&replay) || replay.machine_summary().bugs != hit.summary.bugs {
        return Err("recorded seed triple failed to replay the detection".into());
    }
    println!("replayed byte-identically from the recorded seed triple");
    Ok(())
}
