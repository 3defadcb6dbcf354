//! The traced trial: `TrialEngine`'s loop driven from outside the
//! program through the same public calls, with a span around every call
//! into a layer.
//!
//! Spans are timed with `Instant` and folded into self times on the spot
//! (a span's self time is its duration minus its child spans), in a
//! thread-local [`Tracer`] — the traced run is single-threaded. The
//! spec's boxed `Scheduler` and `MemoryModel` are wrapped in decorators
//! that delegate every method and time the calls the system makes into
//! them from inside `step_explored` and `fast_forward_idle_with`, so
//! `system.step_s` is the system's self time with those calls taken out.
//!
//! A traced trial is only worth its split if it ran the same program:
//! [`check_fidelity`] compares its report with the engine's, byte for
//! byte through `report_to_json`.

use std::cell::RefCell;
use std::time::Instant;

use ptest::automata::GenerateOptions;
use ptest::core::coverage;
use ptest::core::AdaptiveTestError;
use ptest::master::{IdleAdvance, IdleHorizon, SharedVarBus, SnapshotCache};
use ptest::{
    AdaptiveTestConfig, BugDetector, BugKind, Committer, CommitterConfig, CommitterStatus, Cycles,
    DualCoreSystem, MemoryModel, MemoryModelSpec, PatternMerger, PreemptionSpec, Scenario,
    ScheduleSpec, Scheduler, TestPattern, TestReport, TrialEngine, TrialOverrides, TrialScratch,
    TrialTrace,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The layers a trial's host time is split across. Names follow the
/// repository's modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `PatternGenerator::generate_batch` (crate `automata` via `core`).
    Generate,
    /// `PatternMerger::merge`.
    Merge,
    /// `MultiCoreSystem::new`, `Scenario::setup`, `install_preemption`.
    Build,
    /// `quiescent_horizon`, `MemoryModel::idle_horizon`,
    /// `Committer::next_event_cycle`.
    Horizon,
    /// `fast_forward_idle` / `fast_forward_idle_with`, less scheduler time.
    FastForward,
    /// `step_explored`, less scheduler and memory-model time: pCore
    /// kernels, bridge and cross-core coupling.
    Step,
    /// Scheduler construction, `plan` and `skip_idle_cycles`.
    Sched,
    /// Memory-model construction and `sync`.
    Mem,
    /// `Committer::new` and `Committer::step`.
    Committer,
    /// `BugDetector::new` and `observe_cached`.
    Detector,
    /// `coverage::measure`.
    Coverage,
    /// Per-round engine compile and the learn fold of a campaign.
    Learn,
    /// Serializing a campaign archive or reproducers to JSON.
    Archive,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 13;

/// Deterministic counts recorded at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Cycles executed by `step_explored`.
    pub cycles_stepped: u64,
    /// Cycles crossed by fast-forward.
    pub cycles_skipped: u64,
    /// `Scheduler::plan` calls.
    pub plans: u64,
    /// `MemoryModel::sync` calls.
    pub syncs: u64,
    /// `observe_cached` calls.
    pub observations: u64,
    /// Bugs the detector returned.
    pub bugs: u64,
    /// Commands the committer issued.
    pub commands: u64,
    /// Error replies the committer received.
    pub error_replies: u64,
    /// Symbols generated.
    pub symbols: u64,
}

/// Self time per layer plus counts, accumulated over traced trials.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    self_ns: [u64; LAYERS],
    /// Child-time accumulators of the open spans, innermost last.
    open: Vec<u64>,
    /// Counts recorded alongside.
    pub counts: Counts,
}

impl Tracer {
    /// Self time of `layer` in seconds.
    #[must_use]
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 * 1e-9
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Runs `f` inside a span of `layer`.
pub fn span<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    TRACER.with(|t| t.borrow_mut().open.push(0));
    let start = Instant::now();
    let out = f();
    let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let children = t.open.pop().expect("span opened above");
        t.self_ns[layer as usize] += elapsed.saturating_sub(children);
        if let Some(parent) = t.open.last_mut() {
            *parent += elapsed;
        }
    });
    out
}

/// Adds to the counts of this thread's tracer.
pub fn count(f: impl FnOnce(&mut Counts)) {
    TRACER.with(|t| f(&mut t.borrow_mut().counts));
}

/// Takes this thread's tracer, leaving an empty one.
#[must_use]
pub fn take() -> Tracer {
    TRACER.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

/// Times every call the system makes into a scheduler; delegates every
/// method, including the ones the trait gives a default body.
#[derive(Debug)]
pub struct TimedScheduler(pub Box<dyn Scheduler>);

impl Scheduler for TimedScheduler {
    fn plan(&mut self, now: Cycles, runnable: &[bool], advance: &mut [bool]) {
        count(|c| c.plans += 1);
        span(Layer::Sched, || self.0.plan(now, runnable, advance));
    }

    fn skip_idle_cycles(
        &mut self,
        start: Cycles,
        count: u64,
        runnable: &[bool],
        advance: &mut [bool],
        idle: &mut [IdleAdvance],
    ) {
        span(Layer::Sched, || {
            self.0
                .skip_idle_cycles(start, count, runnable, advance, idle);
        });
    }
}

/// Times every `sync` the system makes into a memory model; delegates
/// every method. `idle_horizon` is called by the trial loop itself and
/// stays inside its horizon span.
#[derive(Debug)]
pub struct TimedMemoryModel(pub Box<dyn MemoryModel>);

impl MemoryModel for TimedMemoryModel {
    fn sync(&mut self, now: Cycles, bus: &mut dyn SharedVarBus) {
        count(|c| c.syncs += 1);
        span(Layer::Mem, || self.0.sync(now, bus));
    }

    fn idle_horizon(&self) -> IdleHorizon {
        self.0.idle_horizon()
    }
}

/// The replay key of one trial: its seed quadruple and axis specs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialPoint {
    /// Pattern seed.
    pub seed: u64,
    /// Schedule seed.
    pub schedule_seed: u64,
    /// Memory seed.
    pub memory_seed: u64,
    /// Interrupt/preemption seed.
    pub irq_seed: u64,
    /// Schedule spec.
    pub schedule: ScheduleSpec,
    /// Memory-model spec.
    pub memory: MemoryModelSpec,
    /// Preemption spec.
    pub preemption: PreemptionSpec,
}

impl TrialPoint {
    /// The same point under other schedule and preemption specs (the
    /// axes the shrink loop masks).
    #[must_use]
    pub fn with_specs(&self, schedule: ScheduleSpec, preemption: PreemptionSpec) -> TrialPoint {
        TrialPoint {
            schedule,
            preemption,
            ..*self
        }
    }
}

/// Runs `point` through `TrialEngine` itself — the reference the traced
/// trial must reproduce. `capture` requests the timeline capture (and
/// with it kernel access tracing) that a shrink's final replay uses.
///
/// # Errors
///
/// What the engine returns.
pub fn engine_trial(
    engine: &TrialEngine,
    scenario: &dyn Scenario,
    point: &TrialPoint,
    patterns: Option<&[TestPattern]>,
    capture: bool,
    scratch: &mut TrialScratch,
) -> Result<TestReport, AdaptiveTestError> {
    let mut trace = TrialTrace::default();
    engine.run_scenario_trial_overridden(
        scenario,
        point.seed,
        point.schedule_seed,
        point.memory_seed,
        TrialOverrides {
            schedule: Some(point.schedule),
            memory: Some(point.memory),
            preemption: Some(point.preemption),
            irq_seed: Some(point.irq_seed),
            patterns,
            capture_trace: capture.then_some(&mut trace),
        },
        scratch,
    )
}

/// Runs `point` as `engine_trial` would, through the engine's public
/// parts, with spans and counts recorded in this thread's tracer.
///
/// # Errors
///
/// `AdaptiveTestError::Committer` if the committer rejects the trial.
pub fn traced_trial(
    engine: &TrialEngine,
    scenario: &dyn Scenario,
    point: &TrialPoint,
    patterns: Option<&[TestPattern]>,
    capture: bool,
    cache: &mut SnapshotCache,
) -> Result<TestReport, AdaptiveTestError> {
    let mut cfg = AdaptiveTestConfig {
        seed: point.seed,
        schedule_seed: Some(point.schedule_seed),
        schedule: point.schedule,
        memory_seed: Some(point.memory_seed),
        memory: point.memory,
        irq_seed: Some(point.irq_seed),
        preemption: point.preemption,
        ..engine.config().clone()
    };
    if capture {
        cfg.system.kernel.trace_accesses = true;
    }
    let generator = engine.generator();

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let opts = if cfg.cyclic_generation {
        GenerateOptions::cyclic(cfg.s)
    } else {
        GenerateOptions::sized(cfg.s)
    };
    let patterns = match patterns {
        Some(explicit) => explicit.to_vec(),
        None => {
            let batch = span(Layer::Generate, || {
                generator.generate_batch(&mut rng, cfg.n, opts)
            });
            count(|c| c.symbols += batch.iter().map(|p| p.len() as u64).sum::<u64>());
            batch
        }
    };
    let merged = span(Layer::Merge, || {
        PatternMerger::new().merge(&patterns, cfg.op)
    });

    let mut sys = span(Layer::Build, || {
        let mut sys = DualCoreSystem::new(cfg.system.clone());
        let programs = scenario.setup(&mut sys);
        sys.install_preemption(&cfg.preemption, point.irq_seed);
        (sys, programs)
    });
    let (ref mut sys, programs) = sys;
    let mut committer = span(Layer::Committer, || {
        Committer::new(
            merged,
            generator.regex().alphabet(),
            CommitterConfig {
                response_timeout: cfg.response_timeout,
                programs,
                stack_bytes: cfg.stack_bytes,
                priority_band: 15,
                inter_command_gap: cfg.inter_command_gap,
            },
        )
    })
    .map_err(AdaptiveTestError::Committer)?;
    let mut detector = span(Layer::Detector, || BugDetector::new(cfg.detector));
    let mut scheduler: Option<Box<dyn Scheduler>> = span(Layer::Sched, || {
        cfg.schedule
            .scheduler(cfg.system.slaves, point.schedule_seed)
            .map(|s| Box::new(TimedScheduler(s)) as Box<dyn Scheduler>)
    });
    let mut memory_model: Option<Box<dyn MemoryModel>> = span(Layer::Mem, || {
        cfg.memory
            .model(point.memory_seed)
            .map(|m| Box::new(TimedMemoryModel(m)) as Box<dyn MemoryModel>)
    });

    cache.reset();
    let mut bugs = Vec::new();
    let mut cycles = 0u64;
    let mut skipped = 0u64;
    let mut done_at: Option<u64> = None;
    while cycles < cfg.max_cycles {
        if engine.fast_forward_enabled() {
            let target = span(Layer::Horizon, || {
                let sys_horizon = sys.quiescent_horizon();
                let model_horizon = memory_model
                    .as_deref()
                    .map_or(IdleHorizon::Unbounded, MemoryModel::idle_horizon);
                if sys_horizon == IdleHorizon::Unknown || model_horizon == IdleHorizon::Unknown {
                    return None;
                }
                let mut target = (cycles / cfg.check_interval + 1) * cfg.check_interval;
                if let IdleHorizon::Until(h) = sys_horizon {
                    target = target.min(h);
                }
                if let IdleHorizon::Until(h) = model_horizon {
                    target = target.min(h);
                }
                if let Some(event) = committer.next_event_cycle(sys.now()) {
                    target = target.min(event);
                }
                if let Some(done) = done_at {
                    target = target.min(done + cfg.drain_cycles);
                }
                Some(target.min(cfg.max_cycles))
            });
            if let Some(target) = target.filter(|&t| t > cycles + 1) {
                let skip = target - cycles - 1;
                span(Layer::FastForward, || match scheduler.as_deref_mut() {
                    None => sys.fast_forward_idle(skip),
                    Some(sched) => sys.fast_forward_idle_with(skip, sched),
                });
                skipped += skip;
                cycles += skip;
            }
        }
        cycles += 1;
        span(Layer::Step, || {
            sys.step_explored(scheduler.as_deref_mut(), memory_model.as_deref_mut());
        });
        let status = span(Layer::Committer, || committer.step(sys));
        let committer_done = status != CommitterStatus::Running;
        if committer_done && done_at.is_none() {
            done_at = Some(cycles);
        }
        if cycles.is_multiple_of(cfg.check_interval) {
            let found = span(Layer::Detector, || {
                detector.observe_cached(sys, Some(&committer), committer_done, cache)
            });
            count(|c| {
                c.observations += 1;
                c.bugs += found.len() as u64;
            });
            bugs.extend(found);
        }
        let fatal = bugs.iter().any(|b: &ptest::Bug| {
            matches!(
                b.kind,
                BugKind::SlaveCrash { .. }
                    | BugKind::CommandTimeout { .. }
                    | BugKind::Deadlock { .. }
                    | BugKind::CrossCoreDeadlock { .. }
                    | BugKind::Livelock { .. }
            )
        });
        if fatal {
            break;
        }
        if let Some(done) = done_at {
            let quiescent = sys.kernel_of(0).live_task_count() == 0;
            if quiescent || cycles - done >= cfg.drain_cycles {
                let found = span(Layer::Detector, || {
                    detector.observe_cached(sys, Some(&committer), true, cache)
                });
                count(|c| {
                    c.observations += 1;
                    c.bugs += found.len() as u64;
                });
                bugs.extend(found);
                break;
            }
        }
    }

    count(|c| {
        c.cycles_skipped += skipped;
        c.cycles_stepped += cycles - skipped;
    });
    let coverage = span(Layer::Coverage, || {
        coverage::measure(&patterns, generator.dfa(), generator.regex().alphabet())
    });
    let commands_issued = committer.commands_issued();
    let error_replies = committer.error_replies();
    count(|c| {
        c.commands += commands_issued;
        c.error_replies += error_replies;
    });
    let committer_status = committer.status();
    let (merged, exec_records) = committer.into_parts();
    Ok(TestReport {
        bugs,
        commands_issued,
        error_replies,
        cycles,
        committer_status,
        completed: committer_status == CommitterStatus::Done,
        coverage,
        exec_records,
        patterns,
        merged,
        schedule_seed: point.schedule_seed,
        memory_seed: point.memory_seed,
        irq_seed: point.irq_seed,
        config: cfg,
    })
}

/// Checks that a traced report is the engine's, byte for byte.
///
/// # Errors
///
/// A description of the first difference.
pub fn check_fidelity(traced: &TestReport, reference: &TestReport) -> Result<(), String> {
    let a = ptest::report_to_json(traced).map_err(|e| e.to_string())?;
    let b = ptest::report_to_json(reference).map_err(|e| e.to_string())?;
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "traced trial (seed {}) diverged from TrialEngine's report",
            reference.config.seed
        ))
    }
}
