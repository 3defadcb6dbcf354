//! Runs one benchmark workload and prints its metrics as the last line
//! of standard output.
//!
//! ```sh
//! cargo run --release --manifest-path benchsuite/Cargo.toml --bin ptest-benchsuite -- \
//!     --workload fig1_learn --seed 2009 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! split. `--fingerprint` prints the workload's output fingerprint for
//! `expected.txt` instead.

use std::process::ExitCode;
use std::time::Instant;

use ptest::campaign::learning;
use ptest::master::SnapshotCache;
use ptest::{
    minimize_scenario_trial, Campaign, CampaignReport, MinimizeConfig, MinimizedRepro, TestReport,
    TrialEngine, TrialScratch,
};
use ptest_benchsuite::expected::{self, CampaignPrint};
use ptest_benchsuite::shrink::{self, ShrinkRun};
use ptest_benchsuite::stats::{median, tail_percentile};
use ptest_benchsuite::traced::{
    self, check_fidelity, engine_trial, traced_trial, Layer, TrialPoint,
};
use ptest_benchsuite::workloads::{self, hit_pool, Subject, Workload, POOL, WORKERS};

/// Set-ups a run times before its first pass, and the share of each
/// pass's time it then spends timing more set-ups. `setup_s` is the
/// median of them all. The median of one second of set-ups moved
/// between 107 and 181 µs from one second of a run to the next, so the
/// samples are spread over the whole run: about a second in all at 30 s.
const MIN_SETUPS: usize = 5;
const SETUP_SHARE: f64 = 1.0 / 30.0;
/// Fewest passes over the campaigns and over the hit pool.
const MIN_PASSES: usize = 3;

/// The typical one of an item's timings: their median. The host's speed
/// drifts by a tenth or more over seconds; the fastest of an item's
/// passes picks the luckiest moment of the run, which moved about three
/// times as much from run to run as the median of the passes did.
fn typical(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(f64::NAN)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    fingerprint: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = workloads::DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut fingerprint = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--fingerprint" {
            fingerprint = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        fingerprint,
    })
}

/// Attempted operations, failures, and what failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn attempt<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }

    fn check(&mut self, ok: bool, error: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(error());
        }
    }
}

/// Everything built before the first timed trial.
struct Setup {
    subjects: Vec<Subject>,
    engines: Vec<TrialEngine>,
    /// Hits to shrink, as (subject index, trial point), once a campaign
    /// has found them.
    pool: Vec<(usize, TrialPoint)>,
}

fn setup(w: Workload, seed: u64) -> Result<Setup, String> {
    let subjects = w.campaigns(seed);
    let engines = subjects
        .iter()
        .map(|s| TrialEngine::new(s.scenario.base_config()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Setup {
        subjects,
        engines,
        pool: Vec::new(),
    })
}

/// One [`setup`], its time pushed onto `times`.
fn timed_setup(w: Workload, seed: u64, times: &mut Vec<f64>) -> Result<Setup, String> {
    let start = Instant::now();
    let s = setup(w, seed)?;
    times.push(start.elapsed().as_secs_f64());
    Ok(s)
}

/// Runs the campaigns once and pools their round-0 hits: for
/// `race_shrink`, the search that makes its inputs. Its cost follows the
/// seed (a few long trials dominate), so it is not part of `setup_s`.
fn search(s: &mut Setup) -> Result<CampaignPrint, String> {
    let reports = s
        .subjects
        .iter()
        .map(|subject| run_campaign(subject, WORKERS))
        .collect::<Result<Vec<_>, _>>()?;
    let mut print = CampaignPrint::default();
    reports.iter().for_each(|r| print.add(r));
    s.pool = hit_pool(&s.subjects, &reports, POOL)?;
    Ok(print)
}

fn run_campaign(subject: &Subject, workers: usize) -> Result<CampaignReport, String> {
    let cfg = ptest::CampaignConfig {
        workers,
        ..subject.campaign.clone()
    };
    Campaign::run(&cfg, subject.scenario.as_ref()).map_err(|e| e.to_string())
}

fn minimize(
    s: &Setup,
    subject: usize,
    p: &TrialPoint,
    scratch: &mut TrialScratch,
) -> Result<MinimizedRepro, String> {
    let sub = &s.subjects[subject];
    minimize_scenario_trial(
        &s.engines[subject],
        sub.scenario.as_ref(),
        p.seed,
        p.schedule_seed,
        p.memory_seed,
        p.irq_seed,
        p.schedule,
        p.memory,
        p.preemption,
        Some(sub.class),
        &MinimizeConfig::default(),
        scratch,
    )
    .map_err(|e| e.to_string())
}

/// The shrink loop of `src/shrink.rs` through `TrialEngine`: the
/// candidate trials `race_shrink` counts as its trials.
fn engine_shrink(
    s: &Setup,
    subject: usize,
    p: &TrialPoint,
    scratch: &mut TrialScratch,
) -> Result<ShrinkRun, String> {
    let sub = &s.subjects[subject];
    let mut run = |point: &TrialPoint, pats: Option<&[ptest::TestPattern]>, capture: bool| {
        let start = Instant::now();
        let r = engine_trial(
            &s.engines[subject],
            sub.scenario.as_ref(),
            point,
            pats,
            capture,
            scratch,
        )
        .map_err(|e| e.to_string())?;
        Ok((r, start.elapsed().as_secs_f64()))
    };
    shrink::shrink(p, sub.class, &MinimizeConfig::default(), &mut run)
}

/// What a shrink loop run did, its timings left out.
fn shrink_work(r: &ShrinkRun) -> (usize, usize, u64, usize, usize, usize) {
    (
        r.candidates,
        r.detecting,
        r.candidate_cycles,
        r.minimized_symbols(),
        r.change_points,
        r.injections,
    )
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The timed measurement of `--trace 0`, or with `fingerprint` one
/// pass of campaigns and shrinks, for `expected.txt`.
///
/// The work is a fixed set of items — campaigns and hits to shrink —
/// measured in whole passes until the time is spent. An item's time is
/// its median over the passes; a hit's shrink time is one sample of the
/// shrink percentiles. `race_shrink` also runs each hit through the
/// shrink loop of `src/shrink.rs`, whose candidate trials are its
/// trials.
fn measure(args: &Args, tally: &mut Tally) -> Result<(Metrics, String), String> {
    let w = args.workload;
    let once = args.fingerprint;
    let mut setup_s = Vec::new();
    let mut s = timed_setup(w, args.seed, &mut setup_s)?;
    while !once && setup_s.len() < MIN_SETUPS {
        s = timed_setup(w, args.seed, &mut setup_s)?;
    }
    let mut print = if w.shrinks_only() {
        search(&mut s)?
    } else {
        CampaignPrint::default()
    };

    // Passes until the time is spent, each a campaign pass (not for
    // `race_shrink`) then a shrink pass, so that every item is sampled
    // across the whole run. Every repeat must reproduce the first.
    let started = Instant::now();
    let n = if w.shrinks_only() {
        0
    } else {
        s.subjects.len()
    };
    let mut campaign_times: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut prints: Vec<Option<CampaignPrint>> = vec![None; n];
    let mut archive = None;
    let mut scratch = TrialScratch::new();
    let mut shrink_ms: Vec<Vec<f64>> = Vec::new();
    let mut repros: Vec<Option<MinimizedRepro>> = Vec::new();
    let mut candidate_s: Vec<Vec<f64>> = Vec::new();
    let mut runs: Vec<Option<ShrinkRun>> = Vec::new();
    let mut passes = 0;
    while passes == 0
        || (!once && (passes < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds))
    {
        let pass_started = Instant::now();
        let mut reports = Vec::with_capacity(n);
        for i in 0..n {
            let start = Instant::now();
            let report = run_campaign(&s.subjects[i], WORKERS)?;
            campaign_times[i].push(start.elapsed().as_secs_f64());
            tally.attempted += report.total_trials() as u64;
            let mut p = CampaignPrint::default();
            p.add(&report);
            match &prints[i] {
                None => prints[i] = Some(p),
                Some(first) => {
                    tally.check(p == *first, || format!("campaign {i} diverged on a repeat"));
                }
            }
            reports.push(report);
        }
        if passes == 0 {
            if n > 0 {
                s.pool = hit_pool(&s.subjects, &reports, POOL)?;
                archive =
                    Some(ptest::campaign_report_to_json(&reports[0]).map_err(|e| e.to_string())?);
            }
            shrink_ms = vec![Vec::new(); s.pool.len()];
            repros = vec![None; s.pool.len()];
            candidate_s = vec![Vec::new(); s.pool.len()];
            runs = vec![None; s.pool.len()];
        }
        drop(reports);
        for (i, (subject, point)) in s.pool.iter().enumerate() {
            let start = Instant::now();
            let repro = minimize(&s, *subject, point, &mut scratch);
            shrink_ms[i].push(start.elapsed().as_secs_f64() * 1e3);
            if let Some(repro) = tally.attempt(repro) {
                match &repros[i] {
                    None => repros[i] = Some(repro),
                    Some(first) => tally.check(*first == repro, || {
                        format!("shrink of hit {i} diverged on a repeat")
                    }),
                }
            }
            if n > 0 {
                continue;
            }
            let Some(run) = tally.attempt(engine_shrink(&s, *subject, point, &mut scratch)) else {
                continue;
            };
            candidate_s[i].push(run.candidate_s);
            match &runs[i] {
                None => runs[i] = Some(run),
                Some(first) => tally.check(shrink_work(first) == shrink_work(&run), || {
                    format!("shrink loop of hit {i} diverged on a repeat")
                }),
            }
        }
        passes += 1;
        if !once {
            let budget = pass_started.elapsed().as_secs_f64() * SETUP_SHARE;
            let window = Instant::now();
            while window.elapsed().as_secs_f64() < budget {
                timed_setup(w, args.seed, &mut setup_s)?;
            }
        }
    }
    for p in prints.iter().flatten() {
        print.merge(p);
    }
    let repros: Vec<MinimizedRepro> = repros.into_iter().flatten().collect();
    let runs: Vec<ShrinkRun> = runs.into_iter().flatten().collect();

    // Output checks, untimed: the pipeline archive is the same at one
    // worker, and the fingerprint is the stored one.
    if w == Workload::PipelineAxes && !once {
        let one = run_campaign(&s.subjects[0], 1)?;
        let one = ptest::campaign_report_to_json(&one).map_err(|e| e.to_string())?;
        tally.check(archive.as_deref() == Some(one.as_str()), || {
            "archive differs between 1 and 2 workers".to_owned()
        });
    }
    let fingerprint = expected::render(&print, &repros);
    if !once {
        match expected::stored(w.name(), args.seed) {
            Some(stored) => tally.check(stored == fingerprint, || {
                format!("fingerprint {fingerprint} differs from the stored {stored}")
            }),
            None => eprintln!("no stored fingerprint for seed {}", args.seed),
        }
    }

    // End-to-end metrics.
    let class = s.subjects[0].class;
    let per_hit_ms: Vec<f64> = shrink_ms.iter().map(|t| typical(t)).collect();
    let (work, found, cycles, wall) = if n > 0 {
        let campaign_s: f64 = campaign_times.iter().map(|t| typical(t)).sum();
        (print.trials, print.hits_of(class), print.cycles, campaign_s)
    } else {
        (
            runs.iter().map(|r| r.candidates).sum(),
            runs.iter().map(|r| r.detecting).sum(),
            runs.iter().map(|r| r.candidate_cycles).sum(),
            candidate_s.iter().map(|t| typical(t)).sum(),
        )
    };
    let (_, p50) = tail_percentile(&per_hit_ms, 50);
    let (p90_at, p90) = tail_percentile(&per_hit_ms, 90);
    if p90_at != 90 {
        eprintln!("shrink_p90_ms reports p{p90_at}: {} hits", per_hit_ms.len());
    }
    let ok_rate = 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64;
    eprintln!(
        "{}: {passes} passes, {} hits shrunk, fingerprint {fingerprint}",
        w.name(),
        s.pool.len()
    );
    let metrics = vec![
        ("setup_s", typical(&setup_s), "s"),
        ("trials_per_s", work as f64 / wall, "1/s"),
        ("hits_per_s", found as f64 / wall, "1/s"),
        ("hit_rate", found as f64 / work.max(1) as f64, "ratio"),
        ("sim_cycles_per_s", cycles as f64 / wall, "cycles/s"),
        ("shrink_p50_ms", p50, "ms"),
        ("shrink_p90_ms", p90, "ms"),
        ("peak_rss_mib", peak_rss_mib()?, "MiB"),
        ("ok_rate", ok_rate, "ratio"),
    ];
    Ok((metrics, fingerprint))
}

/// The traced run of `--trace 1`: the workload's campaign and shrinks
/// replayed through traced trials, each matched against the engine.
fn trace(args: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let w = args.workload;
    let mut s = setup(w, args.seed)?;
    let _ = traced::take();
    let mut traced_s = 0.0;
    let mut direct_s = 0.0;
    let mut direct_campaign_s = 0.0;
    let (mut w1, mut w2) = (0.0, 0.0);
    let mut archive_bytes = 0usize;
    let mut cache = SnapshotCache::default();
    let mut scratch = TrialScratch::new();
    let mut reports = Vec::with_capacity(s.subjects.len());

    for subject in &s.subjects {
        let start = Instant::now();
        let two = run_campaign(subject, WORKERS)?;
        w2 += start.elapsed().as_secs_f64();
        let start = Instant::now();
        let one = run_campaign(subject, 1)?;
        w1 += start.elapsed().as_secs_f64();
        let json = traced::span(Layer::Archive, || ptest::campaign_report_to_json(&two))
            .map_err(|e| e.to_string())?;
        archive_bytes += json.len();
        let one_json = ptest::campaign_report_to_json(&one).map_err(|e| e.to_string())?;
        tally.check(json == one_json, || {
            "archive differs between 1 and 2 workers".to_owned()
        });

        // The campaign's rounds, trial by trial, learning as it learns.
        let base = subject.scenario.base_config();
        let cfg = &subject.campaign;
        let mut pd = base.pd.clone();
        let mut counts = ptest::automata::TransitionCounts::new();
        for round in 0..cfg.rounds {
            let engine = traced::span(Layer::Learn, || {
                TrialEngine::new(ptest::AdaptiveTestConfig {
                    pd: pd.clone(),
                    ..base.clone()
                })
            })
            .map_err(|e| e.to_string())?;
            let mut all = ptest::automata::TransitionCounts::new();
            let mut bugs = ptest::automata::TransitionCounts::new();
            for trial in 0..cfg.trials_per_round {
                let point = workloads::trial_point(cfg, &base, round, trial);
                let scenario = subject.scenario.as_ref();
                let start = Instant::now();
                let reference = engine_trial(&engine, scenario, &point, None, false, &mut scratch)
                    .map_err(|e| e.to_string())?;
                let took = start.elapsed().as_secs_f64();
                direct_s += took;
                direct_campaign_s += took;
                let start = Instant::now();
                let report = traced_trial(&engine, scenario, &point, None, false, &mut cache);
                traced_s += start.elapsed().as_secs_f64();
                let report = report.map_err(|e| e.to_string())?;
                tally.check(check_fidelity(&report, &reference).is_ok(), || {
                    format!("traced trial {round}/{trial} diverged")
                });
                let outcome = &two.rounds[round].trials[trial].summary;
                tally.check(*outcome == reference.machine_summary(), || {
                    format!("replayed trial {round}/{trial} differs from the campaign's")
                });
                if cfg.learning.enabled {
                    traced::span(Layer::Learn, || {
                        let mut delta = ptest::automata::TransitionCounts::new();
                        learning::observe_report(&mut delta, &report, engine.generator().dfa());
                        all.merge(&delta);
                        if !report.bugs.is_empty() {
                            bugs.merge(&delta);
                        }
                    });
                }
            }
            if cfg.learning.enabled {
                traced::span(Layer::Learn, || {
                    let any = two.rounds[round].trials_with_bugs > 0;
                    counts.merge(if cfg.learning.bug_biased && any {
                        &bugs
                    } else {
                        &all
                    });
                    pd = counts.to_assignment(
                        engine.generator().dfa(),
                        engine.generator().regex().alphabet(),
                        cfg.learning.alpha,
                    );
                });
            }
        }
        reports.push(two);
    }
    s.pool = hit_pool(&s.subjects, &reports, POOL)?;

    // The shrinks: the library's, then the shrink loop of
    // `src/shrink.rs` with every trial run both through the engine
    // (untraced reference, the time `minimize.*` reports) and traced.
    // The loop must reach the library's reproducer with the library's
    // candidate count, or the split would be of a different shrink.
    let (mut candidates, mut candidate_s, mut replay_s) = (0usize, 0.0, 0.0);
    let (mut original_symbols, mut minimized_symbols) = (0usize, 0usize);
    for (subject, point) in &s.pool {
        let sub = &s.subjects[*subject];
        let repro = minimize(&s, *subject, point, &mut scratch)?;
        let json = traced::span(Layer::Archive, || ptest::minimized_repro_to_json(&repro))
            .map_err(|e| e.to_string())?;
        archive_bytes += json.len();
        let mut run = |p: &TrialPoint, pats: Option<&[ptest::TestPattern]>, capture: bool| {
            let engine = &s.engines[*subject];
            let scenario = sub.scenario.as_ref();
            let start = Instant::now();
            let reference = engine_trial(engine, scenario, p, pats, capture, &mut scratch);
            let took = start.elapsed().as_secs_f64();
            direct_s += took;
            let start = Instant::now();
            let report = traced_trial(engine, scenario, p, pats, capture, &mut cache);
            traced_s += start.elapsed().as_secs_f64();
            let reference = reference.map_err(|e| e.to_string())?;
            let report: TestReport = report.map_err(|e| e.to_string())?;
            check_fidelity(&report, &reference)?;
            Ok((report, took))
        };
        let mirrored = shrink::shrink(point, sub.class, &MinimizeConfig::default(), &mut run)
            .and_then(|m| m.check_against(&repro).map(|()| m));
        let Some(mirrored) = tally.attempt(mirrored) else {
            continue;
        };
        candidates += mirrored.candidates;
        candidate_s += mirrored.candidate_s;
        replay_s += mirrored.replay_s;
        original_symbols += mirrored.original_symbols;
        minimized_symbols += mirrored.minimized_symbols();
    }

    let t = traced::take();
    let c = t.counts;
    let trial_layers = [
        Layer::Generate,
        Layer::Merge,
        Layer::Build,
        Layer::Horizon,
        Layer::FastForward,
        Layer::Step,
        Layer::Sched,
        Layer::Mem,
        Layer::Committer,
        Layer::Detector,
        Layer::Coverage,
    ];
    let in_trials: f64 = trial_layers.iter().map(|&l| t.self_s(l)).sum();
    let stepped = c.cycles_stepped as f64;
    let skipped = c.cycles_skipped as f64;
    Ok(vec![
        ("system.step_s", t.self_s(Layer::Step), "s"),
        ("system.cycles_stepped", stepped, "count"),
        (
            "system.step_ns_per_cycle",
            t.self_s(Layer::Step) * 1e9 / stepped,
            "ns",
        ),
        ("system.horizon_s", t.self_s(Layer::Horizon), "s"),
        ("system.ff_s", t.self_s(Layer::FastForward), "s"),
        ("system.cycles_skipped", skipped, "count"),
        ("system.ff_share", skipped / (skipped + stepped), "ratio"),
        ("system.build_s", t.self_s(Layer::Build), "s"),
        ("sched.plan_s", t.self_s(Layer::Sched), "s"),
        ("sched.plans", c.plans as f64, "count"),
        ("mem.sync_s", t.self_s(Layer::Mem), "s"),
        ("mem.syncs", c.syncs as f64, "count"),
        ("detector.observe_s", t.self_s(Layer::Detector), "s"),
        ("detector.observations", c.observations as f64, "count"),
        ("detector.bugs", c.bugs as f64, "count"),
        ("committer.step_s", t.self_s(Layer::Committer), "s"),
        ("committer.commands", c.commands as f64, "count"),
        ("committer.error_replies", c.error_replies as f64, "count"),
        ("automata.generate_s", t.self_s(Layer::Generate), "s"),
        ("automata.symbols", c.symbols as f64, "count"),
        ("merger.merge_s", t.self_s(Layer::Merge), "s"),
        ("coverage.measure_s", t.self_s(Layer::Coverage), "s"),
        ("campaign.learn_s", t.self_s(Layer::Learn), "s"),
        (
            "campaign.overhead_share",
            1.0 - direct_campaign_s / (WORKERS as f64 * w2),
            "ratio",
        ),
        ("campaign.speedup_w2", w1 / w2, "ratio"),
        ("campaign.archive_s", t.self_s(Layer::Archive), "s"),
        ("campaign.archive_bytes", archive_bytes as f64, "bytes"),
        ("minimize.candidates", candidates as f64, "count"),
        ("minimize.candidate_s", candidate_s, "s"),
        (
            "minimize.shrink_ratio",
            minimized_symbols as f64 / original_symbols.max(1) as f64,
            "ratio",
        ),
        ("minimize.replay_s", replay_s, "s"),
        ("trace.overhead", traced_s / direct_s, "ratio"),
        (
            "trace.unattributed_share",
            1.0 - in_trials / traced_s,
            "ratio",
        ),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let result = if args.trace {
        trace(&args, &mut tally).map(|m| (m, None))
    } else {
        measure(&args, &mut tally).map(|(m, f)| (m, Some(f)))
    };
    let (metrics, fingerprint) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let (true, Some(f)) = (args.fingerprint, &fingerprint) {
        println!("{} {} {f}", args.workload.name(), args.seed);
        return ExitCode::SUCCESS;
    }
    for e in &tally.errors {
        eprintln!("check failed: {e}");
    }
    let correct = tally.failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_owned()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
