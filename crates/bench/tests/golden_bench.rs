//! Golden-snapshot test pinning the `BENCH_*.json` scorecard schema.
//!
//! A synthetic scorecard with fixed values ([`Scorecard::example`]) is
//! rendered and compared byte-for-byte against the committed golden file
//! `tests/golden/scorecard_example.json`; any layout change (key order,
//! number formatting, new or dropped fields) fails here first. After an
//! intentional schema change:
//!
//! ```text
//! RAMP_BLESS=1 cargo test -p ramp-bench --test golden_bench
//! ```
//!
//! then re-bless the committed `BENCH_0028.json` with `scorecard update`
//! and bump [`scorecard::SCHEMA`] if the layout changed shape.
//!
//! The committed repo-root `BENCH_0028.json` is itself structurally
//! checked: schema version, required metadata, both probes with their
//! frozen baselines and speedups, and no key of the retired kernel
//! suite, so scorecards stay comparable across PRs.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ramp_bench::scorecard::{self, baseline_of, Scorecard, REQUIRED_META, SCHEMA};
use ramp_serve::json::parse_flat;

const GOLDEN_PATH: &str = "tests/golden/scorecard_example.json";

/// The probe anchors frozen at the first bless; `scorecard update` must
/// carry them over byte for byte.
const BASELINES: &[(&str, &str)] = &[
    ("baseline.probe.all_experiments_cold_ms", "8035.067665"),
    ("baseline.probe.all_experiments_warm_ms", "2299.054671"),
];

fn golden_file() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH)
}

fn committed_scorecard() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_0028.json")
}

#[test]
fn example_render_matches_golden_snapshot() {
    let rendered = Scorecard::example().render(&BTreeMap::new());
    let path = golden_file();
    if std::env::var("RAMP_BLESS").is_ok() {
        std::fs::write(&path, &rendered).expect("write golden file");
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with RAMP_BLESS=1 cargo test -p ramp-bench --test golden_bench",
            path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "scorecard layout drifted from {GOLDEN_PATH}; if intentional, \
         re-bless and update the committed BENCH_0028.json in the same PR"
    );
}

#[test]
fn render_is_deterministic_and_preserves_baseline() {
    let card = Scorecard::example();
    assert_eq!(
        card.render(&BTreeMap::new()),
        card.render(&BTreeMap::new()),
        "render must be a pure function of its inputs"
    );
    // A second render against the first's baseline keeps every
    // baseline.* key verbatim while the current sections move.
    let first = parse_flat(card.render(&BTreeMap::new()).trim()).unwrap();
    let mut faster = Scorecard::example();
    for p in &mut faster.probes {
        p.1 /= 2.0;
    }
    let second = parse_flat(faster.render(&baseline_of(&first)).trim()).unwrap();
    for (k, v) in first.iter().filter(|(k, _)| k.starts_with("baseline.")) {
        assert_eq!(second.get(k), Some(v), "baseline key {k} not preserved");
    }
    assert_eq!(second["speedup.all_experiments_cold"], "2");
}

#[test]
fn committed_scorecard_has_required_schema() {
    let fields = scorecard::parse_file(&committed_scorecard())
        .expect("committed BENCH_0028.json parses as a flat JSON object");
    assert_eq!(
        fields.get("schema").map(String::as_str),
        Some(SCHEMA),
        "committed scorecard schema version"
    );
    assert_eq!(SCHEMA, "ramp-bench-v4");
    for key in REQUIRED_META {
        assert!(fields.contains_key(*key), "missing metadata {key}");
    }
    // Metadata values carry their context: threads is a count, profile
    // one of the two cargo profiles.
    assert!(fields["meta.threads"].parse::<u64>().is_ok());
    assert!(matches!(
        fields["meta.profile"].as_str(),
        "release" | "debug"
    ));
    // No key of the retired kernel suite or fast mode.
    for key in fields.keys() {
        assert!(
            !key.starts_with("bench.") && !key.starts_with("baseline.bench."),
            "retired kernel key {key}"
        );
    }
    assert!(!fields.contains_key("meta.fast"), "retired key meta.fast");
    for probe in ["all_experiments_cold_ms", "all_experiments_warm_ms"] {
        for section in ["probe", "baseline.probe"] {
            let key = format!("{section}.{probe}");
            let v = fields.get(&key).unwrap_or_else(|| panic!("missing {key}"));
            assert!(v.parse::<f64>().unwrap() > 0.0, "{key} must be positive");
        }
        let speedup = format!("speedup.{}", probe.trim_end_matches("_ms"));
        let v = fields
            .get(&speedup)
            .unwrap_or_else(|| panic!("missing {speedup}"));
        assert!(
            v.parse::<f64>().unwrap() > 0.0,
            "{speedup} must be positive"
        );
    }
    for (key, anchor) in BASELINES {
        assert_eq!(fields.get(*key).map(String::as_str), Some(*anchor), "{key}");
    }
}
