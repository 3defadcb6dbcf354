//! Tests of the benchmark's own helpers: the statistics rules, and that
//! the traced trial with its timing decorators reproduces the engine.

use ptest::master::SnapshotCache;
use ptest::{ScheduleSpec, Scheduler, TrialEngine, TrialScratch};
use ptest_benchsuite::stats::{
    median, percentile, quartiles, regressed, spread, tail_percentile, Better,
};
use ptest_benchsuite::traced::{check_fidelity, engine_trial, traced_trial, TimedScheduler};
use ptest_benchsuite::workloads::{trial_point, Workload, ALL, DEFAULT_SEED};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(&ramp(100), 90), (90, 90.0));
    // 99 samples leave only 9 beyond p90: step down to p75.
    assert_eq!(tail_percentile(&ramp(99), 90), (75, 75.0));
    assert_eq!(tail_percentile(&ramp(40), 90), (75, 30.0));
    // Too few for p75: the median is the floor.
    assert_eq!(tail_percentile(&ramp(30), 90).0, 50);
    assert_eq!(tail_percentile(&ramp(5), 90), (50, 3.0));
    assert_eq!(tail_percentile(&ramp(1000), 50), (50, 500.0));
}

#[test]
fn percentile_is_nearest_rank_and_order_free() {
    let mut shuffled = ramp(10);
    shuffled.reverse();
    assert_eq!(percentile(&shuffled, 50), 5.0);
    assert_eq!(percentile(&shuffled, 90), 9.0);
    assert_eq!(percentile(&shuffled, 100), 10.0);
    assert_eq!(percentile(&[7.0], 90), 7.0);
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(median(&ramp(10)), Some(5.5));
    assert_eq!(spread(&ramp(10)), Some(1.0));
}

#[test]
fn bound_comparison_follows_the_better_direction() {
    // hit_rate: higher is better, so only a drop beyond the bound counts.
    assert!(regressed(0.50, 0.44, 0.10, Better::Higher));
    assert!(!regressed(0.50, 0.46, 0.10, Better::Higher));
    assert!(!regressed(0.50, 0.90, 0.10, Better::Higher));
    // shrink_p50_ms: lower is better, so only a rise beyond the bound.
    assert!(regressed(70.0, 80.0, 0.10, Better::Lower));
    assert!(!regressed(70.0, 76.0, 0.10, Better::Lower));
    assert!(!regressed(70.0, 20.0, 0.10, Better::Lower));
    assert_eq!(Better::parse("higher"), Some(Better::Higher));
    assert_eq!(Better::parse("lower"), Some(Better::Lower));
    assert_eq!(Better::parse("up"), None);
}

#[test]
fn timed_scheduler_plans_exactly_as_the_scheduler_it_wraps() {
    let spec = ScheduleSpec::random_priority();
    let mut bare = spec
        .scheduler(3, 11)
        .expect("random priority builds a scheduler");
    let mut timed = TimedScheduler(spec.scheduler(3, 11).expect("same"));
    let runnable = [true, false, true];
    for now in 0..5_000u64 {
        let (mut a, mut b) = ([true; 3], [true; 3]);
        bare.plan(ptest::Cycles::new(now), &runnable, &mut a);
        timed.plan(ptest::Cycles::new(now), &runnable, &mut b);
        assert_eq!(a, b, "cycle {now}");
    }
    let (mut ia, mut ib) = (
        vec![ptest::master::IdleAdvance::default(); 3],
        vec![ptest::master::IdleAdvance::default(); 3],
    );
    let (mut a, mut b) = ([true; 3], [true; 3]);
    bare.skip_idle_cycles(ptest::Cycles::new(5_000), 700, &runnable, &mut a, &mut ia);
    timed.skip_idle_cycles(ptest::Cycles::new(5_000), 700, &runnable, &mut b, &mut ib);
    assert_eq!(ia, ib);
}

/// One trial per workload and campaign, at a trial index whose specs
/// install every decorator the campaign rotates through.
#[test]
fn traced_trials_reproduce_the_engine_on_every_workload() {
    let mut cache = SnapshotCache::default();
    let mut scratch = TrialScratch::new();
    for w in ALL {
        for subject in w.campaigns(DEFAULT_SEED) {
            let base = subject.scenario.base_config();
            let engine = TrialEngine::new(base.clone()).expect("workload scenarios compile");
            // Trial 3 of the pipeline sweep runs a random-priority
            // scheduler, the store buffer and quantum slicing at once.
            let point = trial_point(&subject.campaign, &base, 0, 3);
            let scenario = subject.scenario.as_ref();
            for capture in [false, true] {
                let reference =
                    engine_trial(&engine, scenario, &point, None, capture, &mut scratch)
                        .expect("engine trial runs");
                let traced = traced_trial(&engine, scenario, &point, None, capture, &mut cache)
                    .expect("traced trial runs");
                check_fidelity(&traced, &reference).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            }
            let counts = ptest_benchsuite::traced::take().counts;
            if w == Workload::PipelineAxes {
                assert!(
                    counts.plans > 0 && counts.syncs > 0,
                    "decorators were installed"
                );
            }
        }
    }
}
