//! Multicore smoke: hunt the cross-core pipeline deadlock on a 3-slave
//! platform.
//!
//! ```sh
//! cargo run --release --example multicore_pipeline -- --trials 6 --seeds 10
//! ```
//!
//! The scenario wires three pipeline stages, one per slave core, handing
//! tokens through cross-core semaphore links; the buggy acquisition
//! order wedges the stages against each other and the wait-for-graph
//! detector reports a deadlock cycle *spanning kernels* — a bug class
//! the dual-core platform cannot express. Exits non-zero if no seed
//! reveals it (the CI smoke check).

use ptest::faults::multicore::CrossCorePipelineScenario;
use ptest::{AdaptiveTest, BugKind, Campaign, CampaignConfig};

fn arg(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = CrossCorePipelineScenario::buggy();

    // One campaign round over the 3-slave scenario: the campaign layer
    // drives multi-slave systems exactly like dual-core ones.
    let campaign = Campaign::run(
        &CampaignConfig {
            trials_per_round: arg("--trials", 6),
            rounds: 1,
            workers: arg("--workers", 2),
            master_seed: arg("--seed", 2009) as u64,
            ..CampaignConfig::default()
        },
        &scenario,
    )?;
    println!(
        "campaign: {} trials, {} with bugs",
        campaign.total_trials(),
        campaign.rounds[0].trials_with_bugs
    );

    // Seed sweep until the cross-core cycle closes.
    for seed in 0..arg("--seeds", 10) as u64 {
        let report = AdaptiveTest::run_scenario(&scenario, seed)?;
        if let Some(bug) = report
            .bugs
            .iter()
            .find(|b| matches!(b.kind, BugKind::CrossCoreDeadlock { .. }))
        {
            println!("seed {seed}: {bug}");
            for record in &bug.state_records {
                println!(
                    "  {}",
                    record.render(
                        ptest::PatternGenerator::pcore_paper()
                            .expect("paper regex parses")
                            .regex()
                            .alphabet()
                    )
                );
            }
            return Ok(());
        }
        println!("seed {seed}: {}", report.summary());
    }
    Err("no seed revealed the cross-core deadlock".into())
}
