//! Compare mode: two sets of untraced records (a base and a change), and
//! per workload and end-to-end metric each side's median and quartiles
//! with a verdict against the metric's bound from `BENCHMARK.json`.

use crate::json::Json;
use crate::stats::{median, quartiles};
use crate::{Record, Result};
use std::fmt;

/// An end-to-end metric with its regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether higher is better.
    pub higher_is_better: bool,
    /// Share of the base median the metric may worsen by.
    pub bound: f64,
}

/// Reads the `end_to_end` list of a `BENCHMARK.json`.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>> {
    let doc = Json::parse(benchmark_json)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("end_to_end entry lacks '{k}'"))
            };
            let better = text("better")?;
            Ok(Bound {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: match better.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("'better' is '{other}', not higher or lower")),
                },
                bound: m
                    .get("bound")
                    .and_then(Json::num)
                    .ok_or("end_to_end entry lacks 'bound'")?,
            })
        })
        .collect()
}

/// One side's values of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Runs.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `values`.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            n: values.len(),
            median: median(values),
            q1,
            q3,
        }
    }

    /// Quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// How the change compares with the base on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The medians differ by no more than the bound (and not better by
    /// more than the spread).
    Within,
    /// The change's median is worse by more than the bound.
    Worse,
    /// The change's median is better by more than either side's spread.
    Better,
    /// The spread is wider than the bound and the runs overlap.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Within => "within bounds",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Judges the change's values against the base's.
///
/// When either side's quartile spread is wider than `bound`, only
/// complete separation decides: every change run better than every base
/// run is `Better`, every one worse is `Worse`, anything else is
/// `Unresolved`. Otherwise a median worse by more than `bound` is
/// `Worse`, one better by more than the wider spread is `Better`, and
/// the rest is `Within`.
pub fn verdict(base: &[f64], change: &[f64], bound: f64, higher_is_better: bool) -> Verdict {
    let (b, c) = (Summary::of(base), Summary::of(change));
    // Positive = worse, as a share of the base median.
    let worse_by = |x: f64| {
        let d = (x - b.median) / b.median.abs();
        if higher_is_better {
            -d
        } else {
            d
        }
    };
    let spread = b.spread().max(c.spread());
    if spread > bound {
        let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
        if change.iter().all(|&x| base.iter().all(|&y| better(x, y))) {
            return Verdict::Better;
        }
        if change.iter().all(|&x| base.iter().all(|&y| better(y, x))) {
            return Verdict::Worse;
        }
        return Verdict::Unresolved;
    }
    let delta = worse_by(c.median);
    if delta > bound {
        Verdict::Worse
    } else if -delta > spread && delta < 0.0 {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric and its bound.
    pub metric: Bound,
    /// The base side.
    pub base: Summary,
    /// The change side.
    pub change: Summary,
    /// The judgement.
    pub verdict: Verdict,
}

/// Compares untraced records per workload and end-to-end metric.
/// Workloads present on only one side are skipped.
pub fn compare(base: &[Record], change: &[Record], bounds: &[Bound]) -> Vec<Row> {
    let values = |records: &[Record], workload: &str, metric: &str| -> Vec<f64> {
        records
            .iter()
            .filter(|r| !r.trace && r.workload == workload)
            .filter_map(|r| r.metrics.get(metric).copied())
            .collect()
    };
    let mut workloads: Vec<&str> = base.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut rows = Vec::new();
    for workload in workloads {
        for metric in bounds {
            let (b, c) = (
                values(base, workload, &metric.name),
                values(change, workload, &metric.name),
            );
            if b.is_empty() || c.is_empty() {
                continue;
            }
            rows.push(Row {
                workload: workload.to_string(),
                metric: metric.clone(),
                base: Summary::of(&b),
                change: Summary::of(&c),
                verdict: verdict(&b, &c, metric.bound, metric.higher_is_better),
            });
        }
    }
    rows
}

/// Reads every record line in `text`; other lines are skipped.
pub fn records(text: &str) -> Result<Vec<Record>> {
    let mut out = Vec::new();
    for line in text.lines().map(str::trim).filter(|l| l.starts_with('{')) {
        if let Some(record) = Record::parse(line)? {
            out.push(record);
        }
    }
    Ok(out)
}

/// Renders the rows as a table.
pub fn render(rows: &[Row]) -> String {
    let side = |s: &Summary| format!("{:.4} [{:.4}, {:.4}] n={}", s.median, s.q1, s.q3, s.n);
    let mut out = format!(
        "{:<8} {:<16} {:<6} {:<40} {:<40} verdict\n",
        "workload", "metric", "bound", "base median [q1, q3]", "change median [q1, q3]"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:<16} {:<6} {:<40} {:<40} {}\n",
            r.workload,
            format!("{} ({})", r.metric.name, r.metric.unit),
            r.metric.bound,
            side(&r.base),
            side(&r.change),
            r.verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Latency (lower is better), bound 10%.
        assert_eq!(
            verdict(&base, &[101.0, 102.0, 100.0, 101.5, 100.5], 0.1, false),
            Verdict::Within
        );
        assert_eq!(
            verdict(&base, &[120.0, 121.0, 119.0, 120.5, 119.5], 0.1, false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &[90.0, 91.0, 89.0, 90.5, 89.5], 0.1, false),
            Verdict::Better
        );
        // Throughput (higher is better): the same numbers read the other way.
        assert_eq!(
            verdict(&base, &[120.0, 121.0, 119.0, 120.5, 119.5], 0.1, true),
            Verdict::Better
        );
        // Spread wider than the bound, overlapping: unresolved.
        let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(verdict(&base, &noisy, 0.1, false), Verdict::Unresolved);
        // Wide but fully separated: decided.
        assert_eq!(
            verdict(&base, &[150.0, 200.0, 250.0, 300.0, 160.0], 0.1, false),
            Verdict::Worse
        );
    }
}
