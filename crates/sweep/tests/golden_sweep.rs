//! Golden-snapshot test pinning the sweep artifact schema end to end:
//! a small pinned spec is parsed from the TOML subset, executed cold,
//! rendered, and compared byte-for-byte against the committed
//! `tests/golden/sweep_artifact.json`. Any drift — key order, number
//! formatting, added or dropped fields, simulator output, store keys,
//! Pareto ranking — fails here first. After an intentional change:
//!
//! ```text
//! RAMP_BLESS=1 cargo test -p ramp-sweep --test golden_sweep
//! ```
//!
//! and bump [`ramp_sweep::artifact::SCHEMA`] if the layout changed shape.

use std::path::{Path, PathBuf};

use ramp_serve::json::parse_flat;
use ramp_serve::store::RunStore;
use ramp_sweep::engine::{run_local, run_local_with};
use ramp_sweep::{artifact, SweepSpec};

const GOLDEN_PATH: &str = "tests/golden/sweep_artifact.json";

/// A 6-point pinned spec: 1 workload × 3 policies × 2 FC intervals over
/// the smoke base with a shrunk budget, exercising every artifact
/// section (axes incl. a knob, per-point cfg fields, ranks, frontier).
const SPEC: &str = "\
[sweep]
name = \"golden\"
strategy = \"grid\"
base = \"smoke\"
insts = 20000

[axes]
workload = [\"astar\"]
policy = [\"profile\", \"balanced\", \"wr2-ratio\"]
fc_interval_cycles = [60000, 30000]
";

fn golden_file() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH)
}

fn scratch_store(tag: &str) -> (PathBuf, RunStore) {
    let dir = std::env::temp_dir().join(format!("ramp-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (dir.clone(), RunStore::open(dir).unwrap())
}

#[test]
fn pinned_sweep_matches_golden_artifact() {
    let spec = SweepSpec::parse(SPEC).expect("pinned spec parses");
    assert_eq!(spec.grid_len(), 6);
    let (dir, store) = scratch_store("golden");
    let run = run_local_with(&spec, Some(&store), 1, None).unwrap();
    let rendered = artifact::render(&spec, &run);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    // Whatever the bytes, the artifact must parse as flat JSON with the
    // advertised schema and an internally consistent frontier.
    let fields = parse_flat(rendered.trim()).expect("artifact parses as flat JSON");
    assert_eq!(
        fields.get("schema").map(String::as_str),
        Some(artifact::SCHEMA)
    );
    assert_eq!(fields["sweep.points"], "6");
    let frontier_size: usize = fields["frontier.size"].parse().unwrap();
    let listed = fields["frontier.points"]
        .split(',')
        .filter(|s| !s.is_empty())
        .count();
    assert_eq!(
        frontier_size, listed,
        "frontier.size disagrees with its index list"
    );
    for i in 0..6 {
        for suffix in [
            "workload", "policy", "key", "ipc", "ser_fit", "rank", "frontier",
        ] {
            let key = format!("point.{i}.{suffix}");
            assert!(fields.contains_key(&key), "missing {key}");
        }
        assert!(
            fields.contains_key(&format!("point.{i}.cfg.fc_interval_cycles")),
            "knob-axis value missing from point {i}"
        );
    }

    let path = golden_file();
    if std::env::var("RAMP_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).expect("write golden file");
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with RAMP_BLESS=1 cargo test -p ramp-sweep --test golden_sweep",
            path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "sweep artifact drifted from {GOLDEN_PATH}; if intentional, re-bless \
         (RAMP_BLESS=1) and bump artifact::SCHEMA on layout changes"
    );
}

/// Warm lookups fan out across the sweep's threads; the rows must still
/// come back in point order, so a warm sweep at any thread count renders
/// the cold artifact byte for byte without simulating anything.
#[test]
fn warm_sweeps_render_the_cold_artifact_at_any_thread_count() {
    let spec = SweepSpec::parse(SPEC).expect("pinned spec parses");
    let points = spec.grid_len() as u64;
    let (dir, store) = scratch_store("warm-threads");
    let cold = artifact::render(&spec, &run_local(&spec, Some(&store), 1).unwrap());
    for threads in [1, 4] {
        let warm = run_local(&spec, Some(&store), threads).unwrap();
        assert_eq!(warm.counters.cached, points, "threads {threads}");
        assert_eq!(warm.counters.simulated, 0, "threads {threads}");
        assert_eq!(warm.counters.profile_sims, 0, "threads {threads}");
        assert_eq!(
            artifact::render(&spec, &warm),
            cold,
            "warm artifact at {threads} threads differs from the cold one"
        );
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
