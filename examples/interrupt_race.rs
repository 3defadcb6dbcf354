//! Interrupt-exploration smoke: detect an ISR-vs-task lost update that
//! non-preemptive execution can never reach, prove the mask-bracketed
//! fixed variant clean, then replay the detection from its recorded
//! `(seed, schedule_seed, memory_seed, irq_seed)` quadruple.
//!
//! ```sh
//! cargo run --release --example interrupt_race -- --trials 12 --workers 2 --out interrupt_reports
//! ```
//!
//! Runs one campaign round of the ISR shared-variable race under its
//! default seeded interrupt plan. An injection that lands inside the
//! task's read-modify-write window makes the task's stale write-back
//! swallow the ISR's increment; the scenario's final tally check trips a
//! guarded task fault on some irq seeds, never without injections. Exits
//! non-zero if no trial detects the race, if the fixed variant is not
//! clean over the same trial budget, or if the recorded quadruple fails
//! to replay the detection byte-for-byte (the CI smoke check). The
//! campaign archive and the replayed report are written under `--out`
//! for upload.

use ptest::faults::timers::{timer_fault_manifested, IsrSharedVarScenario};
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

fn arg_str(name: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out = std::path::PathBuf::from(arg_str("--out", "interrupt_reports"));
    std::fs::create_dir_all(&out)?;
    let config = CampaignConfig {
        trials_per_round: arg("--trials", 12),
        rounds: 1,
        workers: arg("--workers", 2),
        master_seed: arg("--seed", 2009) as u64,
        learning: LearningConfig {
            enabled: false,
            ..LearningConfig::default()
        },
        ..CampaignConfig::default()
    };

    let scenario = IsrSharedVarScenario::buggy();
    let campaign = Campaign::run(&config, &scenario)?;
    let round = &campaign.rounds[0];
    for detection in &round.detection(Axis::Preemption) {
        println!(
            "preemption {}: {}/{} trials detected ({} bugs)",
            detection.label, detection.trials_with_bugs, detection.trials, detection.bugs
        );
    }
    std::fs::write(
        out.join("interrupt_campaign.json"),
        ptest::campaign_report_to_json(&campaign)? + "\n",
    )?;
    let hit = round
        .trials
        .iter()
        .find(|t| !t.summary.bugs.is_empty())
        .ok_or("no irq seed revealed the ISR lost update")?;
    println!(
        "trial {}: seed={} schedule_seed={} memory_seed={} irq_seed={} [{}] -> {}",
        hit.trial,
        hit.seed,
        hit.schedule_seed,
        hit.memory_seed,
        hit.irq_seed,
        hit.preemption,
        hit.summary.bugs[0].detail
    );

    // Replay from the recorded quadruple alone.
    let replay = TrialEngine::new(scenario.base_config())?.run_scenario_trial_overridden(
        &scenario,
        hit.seed,
        hit.schedule_seed,
        hit.memory_seed,
        TrialOverrides {
            irq_seed: Some(hit.irq_seed),
            ..TrialOverrides::default()
        },
        &mut TrialScratch::new(),
    )?;
    std::fs::write(
        out.join("interrupt_replay.json"),
        ptest::report_to_json(&replay)? + "\n",
    )?;
    if !timer_fault_manifested(&replay) || replay.machine_summary().bugs != hit.summary.bugs {
        return Err("recorded seed quadruple failed to replay the detection".into());
    }
    println!("replayed byte-identically from the recorded seed quadruple");

    // The mask-bracketed fixed variant must stay clean over the same
    // trial budget: detection is the bug's fault, not the harness's.
    let control = Campaign::run(&config, &IsrSharedVarScenario::fixed())?;
    let dirty = control.rounds[0]
        .trials
        .iter()
        .filter(|t| !t.summary.bugs.is_empty())
        .count();
    if dirty > 0 {
        return Err(format!("fixed variant tripped in {dirty} trials").into());
    }
    println!(
        "fixed variant clean across {} trials",
        control.total_trials()
    );
    Ok(())
}
