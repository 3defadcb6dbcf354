//! Minimization smoke: shrink campaign-detected race reproducers and
//! emit their root-cause interleaving reports.
//!
//! ```sh
//! cargo run --release --example minimize_race -- --out minimized_reports
//! ```
//!
//! Runs one minimizing campaign round
//! ([`CampaignConfig::minimize_bugs`]) of three seeded-race scenarios —
//! the schedule-sensitive order violation and atomicity races under the
//! PCT-style `RandomPriorityScheduler`, and the Dekker store-visibility
//! race under the store-buffer memory model — then enforces the shrink
//! contract on every produced reproducer (the CI smoke criteria):
//!
//! 1. the minimized pattern is **strictly shorter**, at most 25% of the
//!    original symbol count;
//! 2. the minimized schedule keeps at most 4 priority-change points;
//! 3. replaying the minimized triple from the serialized reproducer
//!    alone detects the **same bug class byte-identically**.
//!
//! Each reproducer is written to `--out` as pretty JSON (the build
//! artifact CI uploads) plus a human-readable `.txt` rendering of the
//! root-cause window. Exits non-zero if any check fails.

use ptest::faults::races::{AtomicityRaceScenario, OrderViolationScenario};
use ptest::faults::weakmem::StoreVisibilityScenario;
use ptest::{
    replay_minimized, Campaign, CampaignConfig, LearningConfig, MinimizedOutcome, Scenario,
    TrialEngine, TrialScratch,
};

fn arg(name: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_owned())
}

/// One minimizing campaign round; returns every reproducer it shrank.
fn minimize_round_of(
    scenario: &dyn Scenario,
    trials: usize,
    master_seed: u64,
) -> Result<Vec<MinimizedOutcome>, Box<dyn std::error::Error>> {
    let report = Campaign::run(
        &CampaignConfig {
            trials_per_round: trials,
            rounds: 1,
            workers: arg("--workers", "2").parse().unwrap_or(2),
            master_seed,
            learning: LearningConfig {
                enabled: false,
                ..LearningConfig::default()
            },
            minimize_bugs: true,
            ..CampaignConfig::default()
        },
        scenario,
    )?;
    let minimized = report.rounds[0].minimized.clone();
    if minimized.is_empty() {
        return Err(format!(
            "campaign of `{}` detected nothing to minimize",
            scenario.name()
        )
        .into());
    }
    Ok(minimized)
}

/// Enforces the shrink contract on one reproducer and writes its
/// artifacts.
fn check_and_emit(
    scenario: &dyn Scenario,
    outcome: &MinimizedOutcome,
    out_dir: &std::path::Path,
) -> Result<(), Box<dyn std::error::Error>> {
    let repro = &outcome.repro;
    println!(
        "{}: trial {} [{}] {} -> {} symbols, {} -> {} change points ({} candidate trials)",
        repro.scenario,
        outcome.trial,
        repro.bug_class,
        repro.original_symbols,
        repro.minimized_symbols,
        repro.original_change_points,
        repro.minimized_change_points,
        repro.candidates,
    );

    // 1. Strictly shorter, and at most 25% of the original pattern.
    if repro.minimized_symbols >= repro.original_symbols {
        return Err(format!(
            "{}: no pattern shrink ({} -> {} symbols)",
            repro.scenario, repro.original_symbols, repro.minimized_symbols
        )
        .into());
    }
    if repro.minimized_symbols * 4 > repro.original_symbols {
        return Err(format!(
            "{}: minimized pattern above 25% of original ({} of {} symbols)",
            repro.scenario, repro.minimized_symbols, repro.original_symbols
        )
        .into());
    }
    // 2. At most 4 surviving priority-change points.
    if repro.minimized_change_points > 4 {
        return Err(format!(
            "{}: {} change points survived minimization",
            repro.scenario, repro.minimized_change_points
        )
        .into());
    }

    // 3. Round-trip through JSON, then replay from the parsed reproducer
    // alone: same bug class, byte-identical machine summary.
    let json = ptest::minimized_repro_to_json(repro)?;
    let parsed = ptest::minimized_repro_from_json(&json)?;
    if parsed != *repro {
        return Err(format!("{}: reproducer JSON round-trip drifted", repro.scenario).into());
    }
    let engine = TrialEngine::new(scenario.base_config())?;
    let replay = replay_minimized(&engine, scenario, &parsed, &mut TrialScratch::new())?;
    let summary = replay.machine_summary();
    if summary != repro.summary {
        return Err(format!(
            "{}: minimized triple did not replay byte-identically",
            repro.scenario
        )
        .into());
    }
    if !summary.bugs.iter().any(|b| b.class == repro.bug_class) {
        return Err(format!(
            "{}: replay lost the `{}` detection",
            repro.scenario, repro.bug_class
        )
        .into());
    }

    let stem = format!(
        "{}.{}",
        repro.scenario.replace(['/', ' '], "_"),
        repro.bug_class
    );
    std::fs::write(out_dir.join(format!("{stem}.json")), json)?;
    std::fs::write(
        out_dir.join(format!("{stem}.txt")),
        repro.root_cause.render_text(),
    )?;
    println!(
        "  replayed byte-identically; racing vars: [{}]; artifacts: {}/{{{stem}.json,{stem}.txt}}",
        repro.root_cause.racing_vars.join(", "),
        out_dir.display(),
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::path::PathBuf::from(arg("--out", "minimized_reports"));
    std::fs::create_dir_all(&out_dir)?;

    let order = OrderViolationScenario::buggy();
    let atomicity = AtomicityRaceScenario::buggy();
    let dekker = StoreVisibilityScenario::buggy();
    let scenarios: [(&dyn Scenario, usize, u64); 3] = [
        (&order, 12, 2009),
        (&atomicity, 12, 2009),
        (&dekker, 16, 2009),
    ];
    for (scenario, trials, master_seed) in scenarios {
        for outcome in minimize_round_of(scenario, trials, master_seed)? {
            check_and_emit(scenario, &outcome, &out_dir)?;
        }
    }
    println!("all minimized reproducers satisfied the shrink contract");
    Ok(())
}
