//! `benchmark compare A.json B.json`: for every workload and end-to-end
//! metric, each side's median and quartiles and a verdict judged by the
//! bound BENCHMARK.json fixes for the metric. A and B hold run records
//! as `results.json` accumulates them, one JSON object per line.

use crate::stats::{median, quartiles};
use serde_json::Value;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// The run-to-run spread exceeds the bound and the sides overlap.
    Unresolved,
}

/// Median and the first/third quartiles (both the median for a single run).
fn summarize(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let med = median(xs)?;
    Some(quartiles(xs).map_or((med, med, med), |[q1, _, q3]| (med, q1, q3)))
}

/// B judged against A. `bound` is the share of A's median by which B may
/// differ before it counts as better or worse.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Option<Verdict> {
    let (ma, q1a, q3a) = summarize(a)?;
    let (mb, q1b, q3b) = summarize(b)?;
    if ma == 0.0 || mb == 0.0 {
        return None;
    }
    let spread = ((q3a - q1a) / ma).max((q3b - q1b) / mb);
    let overlap = q1b <= q3a && q1a <= q3b;
    let change = (mb - ma) / ma;
    let worse_by = if lower_is_better { change } else { -change };
    Some(if spread > bound && overlap {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    })
}

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

fn text(v: Option<&Value>) -> Option<&str> {
    match v? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn read_json(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

fn bounds() -> Result<(Vec<String>, Vec<Bound>), String> {
    let spec = serde_json::parse_value(&read_json("BENCHMARK.json")?)
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| match spec.get(key) {
        Some(Value::Array(items)) => Ok(items.clone()),
        _ => Err(format!("BENCHMARK.json has no {key} list")),
    };
    let workloads = list("workloads")?
        .iter()
        .filter_map(|w| text(w.get("name")).map(str::to_owned))
        .collect();
    let metrics = list("end_to_end")?
        .iter()
        .filter_map(|m| {
            Some(Bound {
                name: text(m.get("name"))?.to_owned(),
                lower_is_better: text(m.get("better"))? == "lower",
                bound: number(m.get("bound"))?,
            })
        })
        .collect();
    Ok((workloads, metrics))
}

/// The untraced run records of one results file.
fn records(path: &str) -> Result<Vec<Value>, String> {
    read_json(path)?
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::parse_value(l).map_err(|e| format!("{path}: {e}")))
        .filter(|r| !matches!(r, Ok(v) if v.get("trace") == Some(&Value::Bool(true))))
        .collect()
}

fn values(runs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| text(r.get("workload")) == Some(workload))
        .filter_map(|r| number(r.get("metrics")?.get(metric)?.get("value")))
        .collect()
}

pub fn run_compare(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: benchmark compare A.json B.json");
        return ExitCode::from(2);
    };
    let result = (|| -> Result<(), String> {
        let (workloads, metrics) = bounds()?;
        let (runs_a, runs_b) = (records(a)?, records(b)?);
        println!(
            "{:<13} {:<12} {:>36} {:>36} {:>8}  verdict",
            "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "change"
        );
        let side = |xs: &[f64]| {
            summarize(xs).map_or("—".to_owned(), |(m, q1, q3)| {
                format!("{m:.4} [{q1:.4}, {q3:.4}] {}", xs.len())
            })
        };
        for w in &workloads {
            for m in &metrics {
                let (va, vb) = (values(&runs_a, w, &m.name), values(&runs_b, w, &m.name));
                if va.is_empty() && vb.is_empty() {
                    continue;
                }
                let change = match (median(&va), median(&vb)) {
                    (Some(x), Some(y)) if x != 0.0 => format!("{:+.1}%", (y - x) / x * 100.0),
                    _ => "—".to_owned(),
                };
                let v = verdict(&va, &vb, m.lower_is_better, m.bound)
                    .map_or("—".to_owned(), |v| format!("{v:?}").to_lowercase());
                println!(
                    "{w:<13} {:<12} {:>36} {:>36} {change:>8}  {v} (bound {:.0}%)",
                    m.name,
                    side(&va),
                    side(&vb),
                    m.bound * 100.0
                );
            }
        }
        Ok(())
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.4, 100.1, 99.8];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let faster = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(verdict(&a, &same, true, 0.05), Some(Verdict::Unchanged));
        assert_eq!(verdict(&a, &slower, true, 0.05), Some(Verdict::Worse));
        assert_eq!(verdict(&a, &faster, true, 0.05), Some(Verdict::Better));
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&a, &slower, false, 0.05), Some(Verdict::Better));
        // A spread wider than the bound with overlapping sides decides nothing.
        let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(verdict(&a, &noisy, true, 0.05), Some(Verdict::Unresolved));
        assert_eq!(verdict(&[], &a, true, 0.05), None);
    }
}
