//! Self-tests of the benchmark harness: statistics, the seeded fleet
//! schedule, the metric catalogue against `BENCHMARK.json`, the compare
//! rule, and build-profile parity with the repository.

use std::collections::BTreeSet;
use std::path::Path;

use ramp_benchmark::compare::{verdict, Bound};
use ramp_benchmark::fleet::{plan, Op, RATE_PER_S};
use ramp_benchmark::json::{self, Value};
use ramp_benchmark::report::{Report, END_TO_END, PER_LAYER};
use ramp_benchmark::stats::{quartiles, tail};
use ramp_benchmark::WORKLOADS;

fn repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
    for (n, pct, value) in [
        (1000, 99.0, 990.0),
        (999, 95.0, 950.0),
        (200, 95.0, 190.0),
        (100, 90.0, 90.0),
        (40, 75.0, 30.0),
        (25, 50.0, 13.0),
    ] {
        let t = tail(&ramp(n));
        assert_eq!((t.pct, t.value, t.samples), (pct, value, n), "{n} samples");
        let beyond = ramp(n).iter().filter(|v| **v > t.value).count();
        assert!(beyond >= 10, "{n} samples: only {beyond} beyond p{pct}");
    }
    // Too few samples for any percentile at or above the median: the
    // maximum, flagged as percentile 100, still with its sample count.
    let t = tail(&ramp(12));
    assert_eq!((t.pct, t.value, t.samples), (100.0, 12.0, 12));
    assert_eq!(tail(&[]).samples, 0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
}

#[test]
fn fleet_schedule_is_a_function_of_the_seed() {
    let a = plan(7, 10.0, 64);
    let b = plan(7, 10.0, 64);
    let c = plan(8, 10.0, 64);
    assert_eq!(a, b);
    assert_eq!(a.len(), (RATE_PER_S * 10.0) as usize);
    assert_eq!(c.len(), a.len());
    let due = |p: &[ramp_benchmark::fleet::Planned]| p.iter().map(|r| r.due_us).collect::<Vec<_>>();
    let mix = |p: &[ramp_benchmark::fleet::Planned]| {
        p.iter()
            .map(|r| match r.op {
                Op::Get(_) => 'g',
                Op::Batch(_) => 'b',
                Op::Submit { .. } => 's',
            })
            .collect::<String>()
    };
    let keys = |p: &[ramp_benchmark::fleet::Planned]| {
        p.iter()
            .filter_map(|r| match r.op {
                Op::Get(k) => Some(k),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    assert_ne!(due(&a), due(&c), "arrival schedule ignores the seed");
    assert_ne!(mix(&a), mix(&c), "request mix ignores the seed");
    assert_ne!(keys(&a), keys(&c), "key sequence ignores the seed");
    assert!(due(&a).windows(2).all(|w| w[0] <= w[1]));
    assert!(due(&a).iter().all(|&d| d < 10_000_000));

    // Cold specs never repeat and never collide with the warm grid.
    let long = plan(3, 60.0, 64);
    let mut cold = BTreeSet::new();
    for p in &long {
        match &p.op {
            Op::Submit { workload, pct } => {
                assert!(*pct != 25 && *pct != 50 && (1..100).contains(pct));
                assert!(cold.insert((*workload, *pct)), "cold spec repeated");
            }
            Op::Batch(idx) => {
                assert_eq!(idx.len(), 8);
                assert_eq!(idx.iter().collect::<BTreeSet<_>>().len(), 8);
                assert!(idx.iter().all(|&i| i < 64));
            }
            Op::Get(k) => assert!(*k < 64),
        }
    }
}

fn declared(doc: &Value, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Value::arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {list}"))
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Value::str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn printed_metrics_are_exactly_the_declared_ones() {
    let doc = json::parse(&repo_file("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let valid = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    };
    let mut seen = BTreeSet::new();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid(m.name), "bad metric name {:?}", m.name);
        assert!(seen.insert(m.name), "metric {} declared twice", m.name);
    }
    let names = |t: &[ramp_benchmark::report::Metric]| {
        t.iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(declared(&doc, "end_to_end"), names(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), names(PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);

    // What a run prints: every declared name once, in both the lines and
    // the JSON result, and nothing else.
    let mut report = Report::default();
    for m in END_TO_END {
        report.set(m.name, 1.5);
    }
    report.check(true, String::new);
    for (traced, table) in [(false, END_TO_END), (true, PER_LAYER)] {
        let out = report.render(traced);
        let lines: Vec<&str> = out.lines().collect();
        let (result, metric_lines) = lines.split_last().expect("output");
        let printed: Vec<String> = metric_lines
            .iter()
            .map(|l| l.split(' ').next().expect("name").to_string())
            .collect();
        let expect: Vec<String> = table.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(printed, expect);
        let v = json::parse(result).expect("result line parses");
        let keys: Vec<&str> = v
            .obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let in_json: Vec<String> = v
            .get("metrics")
            .and_then(Value::obj)
            .expect("metrics")
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(in_json, expect);
    }
}

#[test]
fn compare_applies_the_gain_rule() {
    let lower = Bound {
        higher: false,
        bound: 0.1,
    };
    let parent: Vec<f64> = (0..10).map(|i| 100.0 + (i % 3) as f64).collect();
    let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
    let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
    let noisy: Vec<f64> = (0..10)
        .map(|i| if i % 2 == 0 { 60.0 } else { 140.0 })
        .collect();
    assert_eq!(verdict(&parent, &faster, lower), "gain");
    assert_eq!(verdict(&parent, &slower, lower), "regression");
    assert_eq!(verdict(&parent, &parent, lower), "no change");
    assert_eq!(verdict(&parent, &noisy, lower), "unresolved");
    assert_eq!(verdict(&parent[..5], &faster[..5], lower), "too few pairs");
}

/// The `key = value` lines of `[profile.release]` in a manifest.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut inside = false;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            inside = line == "[profile.release]";
            continue;
        }
        if inside && !line.is_empty() {
            out.push(line.split_whitespace().collect::<Vec<_>>().join(" "));
        }
    }
    out.sort();
    out
}

#[test]
fn release_profile_matches_the_repository() {
    let root = release_profile(&repo_file("Cargo.toml"));
    let bench = release_profile(&repo_file("benchmark/Cargo.toml"));
    assert!(!root.is_empty(), "the repository has no [profile.release]");
    assert_eq!(
        bench, root,
        "benchmark/Cargo.toml's [profile.release] drifted from the root Cargo.toml's"
    );
}
