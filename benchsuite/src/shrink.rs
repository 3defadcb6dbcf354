//! The shrink loop of `minimize_scenario_trial`, driven from outside so
//! each candidate trial can be counted, timed and traced.
//!
//! It replays the library's candidate sequence — pattern ddmin, then the
//! change-point mask ddmin, then the injection-mask ddmin, then two
//! validation replays — through a caller-supplied trial runner.
//! [`ShrinkRun::check_against`] compares the outcome with the
//! `MinimizedRepro` the library returned for the same hit, so the traced
//! run fails instead of reporting a split for a different shrink.

use ptest::automata::Sym;
use ptest::{
    InterruptConfig, MinimizeConfig, MinimizedRepro, PreemptionSpec, RandomPriorityConfig,
    ScheduleSpec, TestPattern, TestReport,
};

use crate::traced::TrialPoint;

/// What one mirrored shrink did.
#[derive(Debug, Clone, PartialEq)]
pub struct ShrinkRun {
    /// The bug class shrunk toward.
    pub class: String,
    /// Symbols of the original patterns.
    pub original_symbols: usize,
    /// The minimized patterns.
    pub minimized: Vec<TestPattern>,
    /// Active priority-change points left by the schedule shrink.
    pub change_points: usize,
    /// Active interrupt injections left by the injection shrink.
    pub injections: usize,
    /// Candidate trials run (the library's `candidates`).
    pub candidates: usize,
    /// Candidates that still detected the target class.
    pub detecting: usize,
    /// Simulated cycles of all candidate trials.
    pub candidate_cycles: u64,
    /// Host seconds in candidate trials, as the runner timed them.
    pub candidate_s: f64,
    /// Host seconds in the two validation replays, as the runner timed
    /// them.
    pub replay_s: f64,
}

impl ShrinkRun {
    /// Symbols of the minimized patterns.
    #[must_use]
    pub fn minimized_symbols(&self) -> usize {
        self.minimized.iter().map(TestPattern::len).sum()
    }

    /// Checks this shrink against the library's reproducer of the same
    /// hit.
    ///
    /// # Errors
    ///
    /// The first field that differs.
    pub fn check_against(&self, repro: &MinimizedRepro) -> Result<(), String> {
        let pairs = [
            (
                "minimized_symbols",
                self.minimized_symbols(),
                repro.minimized_symbols,
            ),
            (
                "original_symbols",
                self.original_symbols,
                repro.original_symbols,
            ),
            (
                "change_points",
                self.change_points,
                repro.minimized_change_points,
            ),
            ("injections", self.injections, repro.minimized_injections),
            ("candidates", self.candidates, repro.candidates),
        ];
        for (what, mine, theirs) in pairs {
            if mine != theirs {
                return Err(format!(
                    "shrink of seed {}: mirrored {what} {mine} != library {theirs}",
                    repro.seed
                ));
            }
        }
        if self.class != repro.bug_class {
            return Err(format!("shrink of seed {}: bug class differs", repro.seed));
        }
        Ok(())
    }
}

/// Runs one trial: the point, optional explicit patterns, and whether
/// to capture the timeline (the final replay does). Returns the report
/// and the host seconds of the trial itself, so that a runner that also
/// checks or serializes the report can leave that out.
pub type Runner<'a> =
    dyn FnMut(&TrialPoint, Option<&[TestPattern]>, bool) -> Result<(TestReport, f64), String> + 'a;

fn has_class(report: &TestReport, class: &str) -> bool {
    report
        .machine_summary()
        .bugs
        .iter()
        .any(|b| b.class == class)
}

fn mask_of(bits: &[usize]) -> u64 {
    bits.iter().fold(0u64, |m, &b| m | (1 << b))
}

/// Shrinks the hit at `point` toward `class`, as `minimize_scenario_trial`
/// does, running every trial through `run`.
///
/// # Errors
///
/// When a trial fails, the original trial lacks `class`, or the
/// minimized replay is unstable.
pub fn shrink(
    point: &TrialPoint,
    class: &str,
    cfg: &MinimizeConfig,
    run: &mut Runner<'_>,
) -> Result<ShrinkRun, String> {
    let (original, _) = run(point, None, false)?;
    if !has_class(&original, class) {
        return Err(format!("seed {}: no `{class}` to shrink", point.seed));
    }
    let mut out = ShrinkRun {
        class: class.to_owned(),
        original_symbols: original.patterns.iter().map(TestPattern::len).sum(),
        minimized: Vec::new(),
        change_points: 0,
        injections: 0,
        candidates: 0,
        detecting: 0,
        candidate_cycles: 0,
        candidate_s: 0.0,
        replay_s: 0.0,
    };
    let mut detects = |out: &mut ShrinkRun,
                       patterns: &[TestPattern],
                       schedule: ScheduleSpec,
                       preemption: PreemptionSpec|
     -> Result<bool, String> {
        out.candidates += 1;
        let (report, took) = run(
            &point.with_specs(schedule, preemption),
            Some(patterns),
            false,
        )?;
        out.candidate_s += took;
        out.candidate_cycles += report.cycles;
        let hit = has_class(&report, class);
        out.detecting += usize::from(hit);
        Ok(hit)
    };
    let exhausted = |out: &ShrinkRun| out.candidates >= cfg.max_candidates;

    // Pattern ddmin over the flattened symbol coordinates.
    let as_patterns =
        |pats: &[Vec<Sym>]| -> Vec<TestPattern> { pats.iter().cloned().map(Into::into).collect() };
    let total = |pats: &[Vec<Sym>]| pats.iter().map(Vec::len).sum::<usize>();
    let remove_range = |pats: &[Vec<Sym>], pos: usize, len: usize| -> Vec<Vec<Sym>> {
        let mut global = 0usize;
        pats.iter()
            .map(|p| {
                p.iter()
                    .copied()
                    .filter(|_| {
                        let keep = !(global >= pos && global < pos + len);
                        global += 1;
                        keep
                    })
                    .collect()
            })
            .collect()
    };
    let mut current: Vec<Vec<Sym>> = original
        .patterns
        .iter()
        .map(|p| p.symbols().to_vec())
        .collect();
    let mut chunk = (total(&current) / 2).max(1);
    'pattern_shrink: loop {
        let mut progressed = false;
        let mut pos = 0usize;
        while pos < total(&current) {
            if exhausted(&out) {
                break 'pattern_shrink;
            }
            let candidate = remove_range(&current, pos, chunk);
            if detects(
                &mut out,
                &as_patterns(&candidate),
                point.schedule,
                point.preemption,
            )? {
                current = candidate;
                progressed = true;
            } else {
                pos += chunk;
            }
        }
        if chunk == 1 {
            if !progressed {
                break;
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
    }
    let minimized = as_patterns(&current);

    // Change-point mask ddmin.
    let schedule = match point.schedule {
        ScheduleSpec::LockStep => ScheduleSpec::LockStep,
        ScheduleSpec::RandomPriority(rp) => {
            let masked = |mask: u64| {
                ScheduleSpec::RandomPriority(RandomPriorityConfig {
                    change_point_mask: mask,
                    ..rp
                })
            };
            let active: Vec<usize> = (0..rp.change_points.min(64))
                .filter(|&i| rp.change_point_mask & (1 << i) != 0)
                .collect();
            let active = ddmin_mask_bits(
                &mut out,
                active,
                |out, mask| detects(out, &minimized, masked(mask), point.preemption),
                exhausted,
            )?;
            masked(mask_of(&active))
        }
    };

    // Injection mask ddmin.
    let preemption = match point.preemption.interrupts {
        None => point.preemption,
        Some(ic) => {
            let masked = |mask: u64| PreemptionSpec {
                interrupts: Some(InterruptConfig {
                    injection_mask: mask,
                    ..ic
                }),
                ..point.preemption
            };
            let active: Vec<usize> = (0..ic.count.min(64))
                .filter(|&i| ic.injection_mask & (1 << i) != 0)
                .collect();
            let active = ddmin_mask_bits(
                &mut out,
                active,
                |out, mask| detects(out, &minimized, schedule, masked(mask)),
                exhausted,
            )?;
            masked(mask_of(&active))
        }
    };

    // Two validation replays, the second with timeline capture.
    let replay_point = point.with_specs(schedule, preemption);
    let (first, a) = run(&replay_point, Some(&minimized), false)?;
    let (replayed, b) = run(&replay_point, Some(&minimized), true)?;
    out.replay_s = a + b;
    if first.machine_summary() != replayed.machine_summary() || !has_class(&first, class) {
        return Err(format!("seed {}: minimized replay unstable", point.seed));
    }

    out.change_points = match schedule {
        ScheduleSpec::LockStep => 0,
        ScheduleSpec::RandomPriority(rp) => rp.active_change_points(),
    };
    out.injections = preemption.interrupts.map_or(0, |ic| ic.active_injections());
    out.minimized = minimized;
    Ok(out)
}

/// ddmin over a set of active mask bits: try the empty mask, drop
/// chunks at refining granularity, then retry a lone survivor.
fn ddmin_mask_bits(
    out: &mut ShrinkRun,
    mut active: Vec<usize>,
    mut detects_mask: impl FnMut(&mut ShrinkRun, u64) -> Result<bool, String>,
    exhausted: impl Fn(&ShrinkRun) -> bool,
) -> Result<Vec<usize>, String> {
    if !active.is_empty() && !exhausted(out) && detects_mask(out, 0)? {
        active.clear();
    }
    let mut granularity = 2usize;
    while active.len() > 1 && !exhausted(out) {
        let n = granularity.min(active.len());
        let chunk_len = active.len().div_ceil(n);
        let mut reduced = false;
        for c in 0..n {
            if exhausted(out) {
                break;
            }
            let lo = c * chunk_len;
            let hi = ((c + 1) * chunk_len).min(active.len());
            if lo >= hi {
                continue;
            }
            let complement: Vec<usize> = active
                .iter()
                .enumerate()
                .filter(|&(i, _)| i < lo || i >= hi)
                .map(|(_, &b)| b)
                .collect();
            if detects_mask(out, mask_of(&complement))? {
                active = complement;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
        }
        if !reduced {
            if granularity >= active.len() {
                break;
            }
            granularity = (granularity * 2).min(active.len());
        }
    }
    if active.len() == 1 && !exhausted(out) && detects_mask(out, 0)? {
        active.clear();
    }
    Ok(active)
}
