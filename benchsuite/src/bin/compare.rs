//! Summarises benchmark runs against the metric bounds in
//! `BENCHMARK.json`.
//!
//! ```sh
//! cargo run --release --manifest-path benchsuite/Cargo.toml --bin compare -- RUNS [CHANGE_RUNS]
//! ```
//!
//! Each file holds the result lines the benchmark printed, one per run;
//! other lines are skipped. With one file, every metric's median,
//! quartiles and spread are printed, and a spread wider than the metric's
//! bound is marked. With two (parent runs, then change runs), each metric
//! is judged: `regressed` when the change's median is worse than the
//! parent's by more than the bound, `unresolved` when the parent's own
//! spread is wider than the bound and not every change run reads better
//! than every parent run, else `ok`. Run it from the repository root, or
//! pass `--benchmark <path>`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use ptest_benchsuite::stats::{median, quartiles, regressed, spread, Better};
use serde::{DeError, Deserialize, Value};

struct Raw(Value);

impl Deserialize for Raw {
    fn from_value(v: &Value) -> Result<Raw, DeError> {
        Ok(Raw(v.clone()))
    }
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(x) => Some(x),
        Value::U64(x) => Some(x as f64),
        Value::I64(x) => Some(x as f64),
        _ => None,
    }
}

struct Metric {
    better: Better,
    bound: Option<f64>,
}

fn read_benchmark(path: &str) -> Result<BTreeMap<String, Metric>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let Raw(root) = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = BTreeMap::new();
    for group in ["end_to_end", "per_layer"] {
        let Some(Value::Arr(metrics)) = root.field(group) else {
            return Err(format!("{path}: no `{group}` list"));
        };
        for m in metrics {
            let name = match m.field("name") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err(format!("{path}: a metric without a name")),
            };
            let better = match m.field("better") {
                Some(Value::Str(s)) => Better::parse(s),
                _ => None,
            }
            .ok_or(format!("{path}: `{name}` has no valid `better`"))?;
            let bound = m.field("bound").and_then(number);
            out.insert(name, Metric { better, bound });
        }
    }
    Ok(out)
}

fn read_runs(path: &str) -> Result<BTreeMap<String, Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for line in text.lines() {
        let Ok(Raw(run)) = serde_json::from_str(line.trim()) else {
            continue;
        };
        let Some(Value::Obj(metrics)) = run.field("metrics") else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.field("value").and_then(number) {
                out.entry(name.clone()).or_default().push(v);
            }
        }
    }
    if out.is_empty() {
        return Err(format!("{path}: no result lines"));
    }
    Ok(out)
}

fn run() -> Result<(), String> {
    let mut benchmark = "BENCHMARK.json".to_owned();
    let mut files = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--benchmark" {
            benchmark = args.next().ok_or("--benchmark needs a path")?;
        } else {
            files.push(a);
        }
    }
    let metrics = read_benchmark(&benchmark)?;
    match files.as_slice() {
        [runs] => {
            for (name, values) in read_runs(runs)? {
                let bound = metrics.get(&name).and_then(|m| m.bound);
                let s = spread(&values).unwrap_or(0.0);
                let (q1, q3) = quartiles(&values).unwrap_or((f64::NAN, f64::NAN));
                let mark = if bound.is_some_and(|b| s > b) {
                    " WIDE"
                } else {
                    ""
                };
                println!(
                    "{name:28} n={:<3} median={:<12.6} q1={q1:<12.6} q3={q3:<12.6} spread={s:.4} bound={}{mark}",
                    values.len(),
                    median(&values).unwrap_or(f64::NAN),
                    bound.map_or("-".to_owned(), |b| b.to_string()),
                );
            }
        }
        [parent, change] => {
            let (parent, change) = (read_runs(parent)?, read_runs(change)?);
            for (name, m) in &metrics {
                let (Some(p), Some(c), Some(bound)) = (parent.get(name), change.get(name), m.bound)
                else {
                    continue;
                };
                let (pm, cm) = (median(p).unwrap_or(f64::NAN), median(c).unwrap_or(f64::NAN));
                let all_better = c.iter().all(|&x| {
                    p.iter().all(|&y| match m.better {
                        Better::Higher => x > y,
                        Better::Lower => x < y,
                    })
                });
                let verdict = if regressed(pm, cm, bound, m.better) {
                    "regressed"
                } else if spread(p).unwrap_or(0.0) > bound && !all_better {
                    "unresolved"
                } else {
                    "ok"
                };
                println!("{name:28} parent={pm:<12.6} change={cm:<12.6} bound={bound} {verdict}");
            }
        }
        _ => return Err("usage: compare [--benchmark PATH] RUNS [CHANGE_RUNS]".to_owned()),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
