//! Deterministic fingerprints of a workload's outputs, and the expected
//! values stored with the benchmark in `expected.txt`.
//!
//! A fingerprint is one line: the campaign's trial count, hits per bug
//! class and total simulated cycles, then the number of distinct hits
//! shrunk and a digest over each reproducer's bug class, minimized
//! length, change points and injections. Every part is a pure function of
//! the workload and seed. How the shrink got there (how many candidates
//! it tried) is left out, so a shrink that finds the same reproducer with
//! fewer candidates still matches.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ptest::{CampaignReport, MinimizedRepro};

/// The stored fingerprints, one `<workload> <seed> <fingerprint>` line
/// each.
pub const STORED: &str = include_str!("../expected.txt");

/// The stored fingerprint of `workload` at `seed`, if one was recorded.
#[must_use]
pub fn stored(workload: &str, seed: u64) -> Option<&'static str> {
    STORED.lines().find_map(|line| {
        let mut parts = line.splitn(3, ' ');
        let w = parts.next()?;
        let s = parts.next()?.parse::<u64>().ok()?;
        (w == workload && s == seed).then(|| parts.next().unwrap_or(""))
    })
}

/// Trial count, hits per class and simulated cycles of some campaigns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignPrint {
    /// Trials run.
    pub trials: usize,
    /// Trials with a bug, per bug class.
    pub hits: BTreeMap<String, usize>,
    /// Simulated cycles of every trial.
    pub cycles: u64,
}

impl CampaignPrint {
    /// Adds one campaign report.
    pub fn add(&mut self, report: &CampaignReport) {
        for round in &report.rounds {
            self.cycles += round.total_cycles;
            for trial in &round.trials {
                self.trials += 1;
                let mut classes: Vec<&str> = trial
                    .summary
                    .bugs
                    .iter()
                    .map(|b| b.class.as_str())
                    .collect();
                classes.sort_unstable();
                classes.dedup();
                for class in classes {
                    *self.hits.entry(class.to_owned()).or_default() += 1;
                }
            }
        }
    }

    /// Adds another campaign's fingerprint.
    pub fn merge(&mut self, other: &CampaignPrint) {
        self.trials += other.trials;
        self.cycles += other.cycles;
        for (class, n) in &other.hits {
            *self.hits.entry(class.clone()).or_default() += n;
        }
    }

    /// Trials with a bug of `class`.
    #[must_use]
    pub fn hits_of(&self, class: &str) -> usize {
        self.hits.get(class).copied().unwrap_or(0)
    }
}

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Renders the fingerprint line of a workload run.
#[must_use]
pub fn render(campaign: &CampaignPrint, repros: &[MinimizedRepro]) -> String {
    let hits: Vec<String> = campaign
        .hits
        .iter()
        .map(|(class, n)| format!("{class}:{n}"))
        .collect();
    let mut per_shrink = String::new();
    for r in repros {
        let _ = writeln!(
            per_shrink,
            "{}/{}/{}/{}",
            r.bug_class, r.minimized_symbols, r.minimized_change_points, r.minimized_injections
        );
    }
    format!(
        "trials={} hits={} cycles={} shrinks={} shrink_digest={:016x}",
        campaign.trials,
        hits.join(","),
        campaign.cycles,
        repros.len(),
        fnv1a(per_shrink.as_bytes())
    )
}
