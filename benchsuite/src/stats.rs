//! Sample statistics shared by the benchmark run and the `compare` tool:
//! medians, quartiles as Python's `statistics.quantiles(n=4)` computes
//! them, the tail-percentile rule, and the regression test against a
//! metric's bound.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput, hit rate).
    Higher,
    /// Smaller values are better (latency, set-up time, memory).
    Lower,
}

impl Better {
    /// Parses the `better` field of `BENCHMARK.json`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

/// Whether `change` is worse than `parent` by more than `bound`, a share
/// of `parent`, in the direction the metric improves.
#[must_use]
pub fn regressed(parent: f64, change: f64, bound: f64, better: Better) -> bool {
    match better {
        Better::Higher => change < parent * (1.0 - bound),
        Better::Lower => change > parent * (1.0 + bound),
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (mean of the two middle values for an even
/// count); `None` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile by the exclusive method of Python's
/// `statistics.quantiles(samples, n=4)`; `None` below two samples.
#[must_use]
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median — the
/// run-to-run spread a metric's bound is checked against.
#[must_use]
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let mid = median(samples)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// Samples a percentile needs beyond it before it may be reported.
pub const TAIL_SAMPLES: usize = 10;

/// The percentiles [`tail_percentile`] steps down through.
pub const PERCENTILE_LADDER: [u32; 3] = [90, 75, 50];

/// Nearest-rank percentile `p` of `samples`.
///
/// # Panics
///
/// When `samples` is empty.
#[must_use]
pub fn percentile(samples: &[f64], p: u32) -> f64 {
    let v = sorted(samples);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = (p as usize * v.len()).div_ceil(100).max(1);
    v[rank - 1]
}

/// The highest percentile at or below `wanted` on [`PERCENTILE_LADDER`]
/// that has at least [`TAIL_SAMPLES`] samples beyond it, with its value.
/// The median is the floor and is reported whatever the count.
///
/// # Panics
///
/// When `samples` is empty.
#[must_use]
pub fn tail_percentile(samples: &[f64], wanted: u32) -> (u32, f64) {
    let n = samples.len();
    let p = PERCENTILE_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= wanted)
        .find(|&p| n - (p as usize * n).div_ceil(100).max(1) >= TAIL_SAMPLES)
        .unwrap_or(50);
    (p, percentile(samples, p))
}
