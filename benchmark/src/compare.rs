//! `compare`: the acceptance rule for a change that claims a gain.
//!
//! Reads two JSONL files of recorded runs (`--record`), the parent's and
//! the change's, taken as alternating pairs: the i-th run of a workload
//! in one file pairs with the i-th run of that workload in the other. For
//! every end-to-end metric and workload it prints each side's median,
//! quartiles and spread (IQR ÷ median), the pairs the change won, and a
//! verdict:
//!
//! - `gain`: the change won at least 9 of every 10 pairs (ties count for
//!   neither) and the medians differ, in the better direction, by more
//!   than the parent's interquartile range;
//! - `regression`: the change's median is worse than the parent's by more
//!   than the metric's bound in `BENCHMARK.json`;
//! - `unresolved`: a side's spread (IQR ÷ median) exceeds the bound and
//!   not every change run beats every parent run;
//! - `no change` otherwise.
//!
//! Per-layer metrics of traced runs are listed with their medians only.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};
use crate::stats::{median, quartiles, spread};

/// Minimum pairs the rule needs.
pub const MIN_PAIRS: usize = 10;

/// A metric's direction and allowed worsening, from `BENCHMARK.json`.
#[derive(Clone, Copy, Debug)]
pub struct Bound {
    /// `true` when a larger value is better.
    pub higher: bool,
    /// Allowed worsening as a share of the parent's median.
    pub bound: f64,
}

impl Bound {
    /// Whether `a` reads better than `b`.
    pub fn better(&self, a: f64, b: f64) -> bool {
        if self.higher {
            a > b
        } else {
            a < b
        }
    }

    /// Pairs `(parent[i], change[i])` the change won.
    fn wins(&self, parent: &[f64], change: &[f64]) -> usize {
        parent
            .iter()
            .zip(change)
            .filter(|(p, c)| self.better(**c, **p))
            .count()
    }
}

/// The end-to-end bounds declared in the `BENCHMARK.json` text `doc`.
pub fn bounds(doc: &str) -> Result<BTreeMap<String, Bound>, String> {
    let v = json::parse(doc)?;
    let mut out = BTreeMap::new();
    for m in v
        .get("end_to_end")
        .and_then(Value::arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
    {
        let name = m
            .get("name")
            .and_then(Value::str)
            .ok_or("metric without a name")?;
        let higher = m.get("better").and_then(Value::str) == Some("higher");
        let bound = m
            .get("bound")
            .and_then(Value::num)
            .ok_or("metric without a bound")?;
        out.insert(name.to_string(), Bound { higher, bound });
    }
    Ok(out)
}

/// Recorded runs: `(workload, traced) → metric → values in file order`.
type Runs = BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>>;

fn load(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Runs::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: String| format!("{}:{}: {e}", path.display(), n + 1);
        let v = json::parse(line).map_err(at)?;
        let workload = v
            .get("workload")
            .and_then(Value::str)
            .ok_or_else(|| at("no workload".into()))?;
        let traced = v.get("trace") == Some(&Value::Bool(true));
        let metrics = v
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::obj)
            .ok_or_else(|| at("no result metrics".into()))?;
        let slot = runs.entry((workload.to_string(), traced)).or_default();
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Value::num) {
                slot.entry(name.clone()).or_default().push(x);
            }
        }
    }
    Ok(runs)
}

/// The verdict of one (metric, workload) pairing.
pub fn verdict(parent: &[f64], change: &[f64], b: Bound) -> &'static str {
    let n = parent.len().min(change.len());
    if n < MIN_PAIRS {
        return "too few pairs";
    }
    let (mp, mc) = (median(parent), median(change));
    let [q1, _, q3] = quartiles(parent);
    let dominates = change
        .iter()
        .all(|&c| parent.iter().all(|&p| b.better(c, p)));
    if (spread(parent) > b.bound || spread(change) > b.bound) && !dominates {
        return "unresolved";
    }
    if b.wins(parent, change) * 10 >= n * 9 && b.better(mc, mp) && (mc - mp).abs() > q3 - q1 {
        return "gain";
    }
    let worse = if b.higher { mp - mc } else { mc - mp };
    if worse > b.bound * mp.abs() {
        return "regression";
    }
    "no change"
}

/// Renders the comparison table of two recorded files.
pub fn compare(parent: &Path, change: &Path, benchmark_json: &str) -> Result<String, String> {
    let bounds = bounds(benchmark_json)?;
    let (p, c) = (load(parent)?, load(change)?);
    let mut out = format!(
        "{:<34} {:<12} {:>12} {:>25} {:>7} {:>12} {:>25} {:>7} {:>7}  verdict\n",
        "metric",
        "workload",
        "parent p50",
        "parent [q1, q3]",
        "spread",
        "change p50",
        "change [q1, q3]",
        "spread",
        "wins"
    );
    for ((workload, traced), metrics) in &p {
        let Some(other) = c.get(&(workload.clone(), *traced)) else {
            continue;
        };
        for (name, pv) in metrics {
            let Some(cv) = other.get(name) else { continue };
            let n = pv.len().min(cv.len());
            let (pv, cv) = (&pv[..n], &cv[..n]);
            let [p1, _, p3] = quartiles(pv);
            let [c1, _, c3] = quartiles(cv);
            let (wins, verdict) = match bounds.get(name) {
                Some(b) if !traced => (format!("{}/{n}", b.wins(pv, cv)), verdict(pv, cv, *b)),
                _ => ("-".to_string(), "-"),
            };
            out.push_str(&format!(
                "{:<34} {:<12} {:>12.6} {:>25} {:>7.4} {:>12.6} {:>25} {:>7.4} {:>7}  {verdict}\n",
                name,
                workload,
                median(pv),
                format!("[{p1:.6}, {p3:.6}]"),
                spread(pv),
                median(cv),
                format!("[{c1:.6}, {c3:.6}]"),
                spread(cv),
                wins,
            ));
        }
    }
    Ok(out)
}
