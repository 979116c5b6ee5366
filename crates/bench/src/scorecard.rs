//! The committed performance scorecard (`BENCH_*.json`).
//!
//! The one end-to-end number the repo pins: the wall clock of the
//! `all_experiments` binary at a fixed configuration, cold and warm,
//! rendered as one flat JSON object (dotted keys, [`ramp_serve::json`]
//! writer/scanner — no JSON dependency) so CI can diff a fresh run
//! against the committed file with a tolerance band. Per-layer timings
//! (trace generation, caches, DRAM, page map, AVF, store, HTTP) come
//! from the traced pass of the benchmark package (`benchmark/`), not
//! from here.
//!
//! Layout of the emitted document (`schema` pins it; golden-tested by
//! `tests/golden_bench.rs`):
//!
//! - `schema` — schema version string ([`SCHEMA`]).
//! - `meta.*` — measurement context: executor thread count, build
//!   profile, `git describe` and the store modes exercised by the probe.
//!   Perf numbers are never comparable without these.
//! - `probe.all_experiments_{cold,warm}_ms` — end-to-end wall clock of
//!   `all_experiments` over `lbm,mcf` at 200k instructions and 4
//!   threads, with the store off (cold: every simulation runs) and
//!   against a prewarmed store (warm: zero simulations, pure replay +
//!   formatting).
//! - `baseline.probe.*` — the probes of the first bless, preserved
//!   verbatim by [`update`] so speedups stay anchored to the
//!   pre-campaign numbers.
//! - `speedup.*` — `baseline` probe divided by current probe.
//!
//! Workflow (see DESIGN.md §10): `scorecard update BENCH_0028.json`
//! re-measures and rewrites the file keeping the baseline section;
//! `scorecard check BENCH_0028.json` (the `ci.sh` bench stage)
//! re-measures and fails on schema drift or on a probe slower than the
//! tolerance band allows.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ramp_serve::json::{parse_flat, ObjWriter};

/// Schema version of the emitted document. Bump only with a deliberate
/// layout change (and re-bless the golden snapshot + committed file).
///
/// v2: added a store append+replay kernel pair, one per store backend.
/// v3: the kernel pinning the append-only log backend left with that
/// backend; `store_append_replay_files` is the one store kernel.
/// v4: the kernel suite and fast mode left (`bench.*`,
/// `baseline.bench.*`, `meta.fast`); the probe is the whole document.
pub const SCHEMA: &str = "ramp-bench-v4";

/// Default tolerance band for [`check`]: a probe regresses when the
/// fresh measurement exceeds `committed * TOLERANCE`.
pub const TOLERANCE: f64 = 1.6;

/// Metadata keys every scorecard must carry (asserted by the golden
/// schema test so scorecards stay comparable across PRs).
pub const REQUIRED_META: &[&str] = &[
    "meta.threads",
    "meta.profile",
    "meta.git",
    "meta.store_modes",
];

/// The build profile baked into this binary.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// when git (or the repository) is unavailable.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The full scorecard: context + probe wall clocks.
#[derive(Clone, Debug)]
pub struct Scorecard {
    /// Executor threads the probe ran with.
    pub threads: u64,
    /// `release` or `debug`.
    pub profile: String,
    /// `git describe` of the tree that was measured.
    pub git: String,
    /// Store modes the probe exercised (`cold+warm`).
    pub store_modes: String,
    /// `(probe key, milliseconds)` pairs, e.g.
    /// `("all_experiments_cold_ms", 8200.0)`.
    pub probes: Vec<(&'static str, f64)>,
}

impl Scorecard {
    /// A synthetic scorecard with fixed values — used by the golden
    /// schema test so the rendered layout is deterministic.
    pub fn example() -> Self {
        Scorecard {
            threads: 4,
            profile: "release".to_string(),
            git: "v0-test".to_string(),
            store_modes: "cold+warm".to_string(),
            probes: vec![
                ("all_experiments_cold_ms", 8000.0),
                ("all_experiments_warm_ms", 2000.0),
            ],
        }
    }

    /// Renders the scorecard as the canonical flat JSON document. Each
    /// probe's `baseline.probe.*` value comes from `baseline`, or is
    /// frozen from the current number when `baseline` lacks it (first
    /// bless).
    pub fn render(&self, baseline: &BTreeMap<String, String>) -> String {
        let mut w = ObjWriter::new();
        w.str("schema", SCHEMA);
        w.u64("meta.threads", self.threads);
        w.str("meta.profile", &self.profile);
        w.str("meta.git", &self.git);
        w.str("meta.store_modes", &self.store_modes);
        for (k, ms) in &self.probes {
            w.f64(&format!("probe.{k}"), *ms);
        }
        let anchors: Vec<f64> = self
            .probes
            .iter()
            .map(|(k, ms)| {
                baseline
                    .get(&format!("baseline.probe.{k}"))
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or(*ms)
            })
            .collect();
        for ((k, _), base) in self.probes.iter().zip(&anchors) {
            w.f64(&format!("baseline.probe.{k}"), *base);
        }
        for ((k, ms), base) in self.probes.iter().zip(&anchors) {
            let name = k.trim_end_matches("_ms");
            w.f64(&format!("speedup.{name}"), base / ms.max(f64::MIN_POSITIVE));
        }
        let mut s = w.finish();
        s.push('\n');
        s
    }
}

/// Pinned probe configuration: the `all_experiments` binary over the
/// `lbm,mcf` pair at 200k instructions per core and 4 threads.
const PROBE_ENV: &[(&str, &str)] = &[
    ("RAMP_WORKLOADS", "lbm,mcf"),
    ("RAMP_INSTS", "200000"),
    ("RAMP_THREADS", "4"),
];

fn all_experiments_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("scorecard binary has no parent dir")?;
    let bin = dir.join(format!("all_experiments{}", std::env::consts::EXE_SUFFIX));
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found (build the workspace first)",
            bin.display()
        ))
    }
}

/// Runs `all_experiments` once with `extra` env and returns wall ms.
fn timed_probe_run(bin: &Path, extra: &[(&str, &str)]) -> Result<f64, String> {
    let mut cmd = std::process::Command::new(bin);
    cmd.envs(PROBE_ENV.iter().chain(extra).copied());
    cmd.stdout(std::process::Stdio::null());
    cmd.stderr(std::process::Stdio::null());
    let t0 = Instant::now();
    let status = cmd.status().map_err(|e| format!("spawn probe: {e}"))?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if !status.success() {
        return Err(format!("probe exited with {status}"));
    }
    Ok(ms)
}

/// Prewarms a scratch store at `dir` (untimed), then times a run served
/// from it. The store is removed on every path, failed runs included.
fn warm_probe(bin: &Path, dir: &Path) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(dir);
    let warm = std::fs::create_dir_all(dir)
        .map_err(|e| format!("mkdir {}: {e}", dir.display()))
        .and_then(|()| {
            let dir = dir.display().to_string();
            let store = [("RAMP_STORE_DIR", dir.as_str())];
            timed_probe_run(bin, &store)?;
            timed_probe_run(bin, &store)
        });
    let _ = std::fs::remove_dir_all(dir);
    warm
}

/// Runs the cold + warm `all_experiments` probes; returns probe rows.
pub fn run_probe() -> Result<Vec<(&'static str, f64)>, String> {
    let bin = all_experiments_bin()?;
    // Cold: store disabled, every simulation executes.
    eprintln!("  [probe] all_experiments cold (store off) ...");
    let cold = timed_probe_run(&bin, &[("RAMP_STORE", "off")])?;
    eprintln!("  [probe] all_experiments cold: {cold:.0} ms");
    eprintln!("  [probe] all_experiments warm (prewarming store) ...");
    let dir = std::env::temp_dir().join(format!("ramp-scorecard-{}", std::process::id()));
    let warm = warm_probe(&bin, &dir)?;
    eprintln!("  [probe] all_experiments warm: {warm:.0} ms");
    Ok(vec![
        ("all_experiments_cold_ms", cold),
        ("all_experiments_warm_ms", warm),
    ])
}

/// Measures a fresh scorecard.
pub fn measure() -> Result<Scorecard, String> {
    Ok(Scorecard {
        threads: 4,
        profile: build_profile().to_string(),
        git: git_describe(),
        store_modes: "cold+warm".to_string(),
        probes: run_probe()?,
    })
}

/// Parses a committed scorecard file into its flat field map.
pub fn parse_file(path: &Path) -> Result<BTreeMap<String, String>, String> {
    let body =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse_flat(body.trim())
}

/// Extracts the `baseline.probe.*` keys of a parsed scorecard.
pub fn baseline_of(fields: &BTreeMap<String, String>) -> BTreeMap<String, String> {
    fields
        .iter()
        .filter(|(k, _)| k.starts_with("baseline.probe."))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

/// Re-measures and rewrites `path`, preserving its `baseline.probe.*`
/// values (or freezing the fresh numbers as the baseline when the file
/// does not exist yet).
pub fn update(path: &Path) -> Result<(), String> {
    let baseline = if path.exists() {
        baseline_of(&parse_file(path)?)
    } else {
        BTreeMap::new()
    };
    let card = measure()?;
    let body = card.render(&baseline);
    std::fs::write(path, &body).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    for (k, v) in parse_flat(body.trim())? {
        if k.starts_with("speedup.") {
            eprintln!("  {k} = {v}");
        }
    }
    Ok(())
}

/// One regression / drift complaint from [`check`].
#[derive(Debug, PartialEq)]
pub struct Violation(pub String);

/// Diffs a fresh measurement against committed fields: schema drift
/// (version, missing metadata, a probe that is not a number) is always
/// fatal; a probe wall clock exceeding `committed * tol` is a
/// regression.
pub fn check_against(
    fields: &BTreeMap<String, String>,
    fresh: &Scorecard,
    tol: f64,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if fields.get("schema").map(String::as_str) != Some(SCHEMA) {
        out.push(Violation(format!(
            "schema drift: committed {:?}, expected {SCHEMA:?}",
            fields.get("schema")
        )));
        return out;
    }
    for key in REQUIRED_META {
        if !fields.contains_key(*key) {
            out.push(Violation(format!("schema drift: missing {key}")));
        }
    }
    for (k, ms) in &fresh.probes {
        let key = format!("probe.{k}");
        let Some(committed) = fields.get(&key).and_then(|v| v.parse::<f64>().ok()) else {
            out.push(Violation(format!("schema drift: {key} not a number")));
            continue;
        };
        if *ms > committed * tol {
            out.push(Violation(format!(
                "regression: {key} {ms:.0} ms > committed {committed:.0} ms * {tol}"
            )));
        }
    }
    out
}

/// Measures fresh and checks against the committed file at `path`.
pub fn check(path: &Path, tol: f64) -> Result<Vec<Violation>, String> {
    let fields = parse_file(path)?;
    let fresh = measure()?;
    Ok(check_against(&fields, &fresh, tol))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed_example() -> BTreeMap<String, String> {
        let card = Scorecard::example();
        parse_flat(card.render(&BTreeMap::new()).trim()).unwrap()
    }

    #[test]
    fn render_freezes_baseline_on_first_bless() {
        let fields = committed_example();
        assert_eq!(fields["schema"], SCHEMA);
        assert_eq!(fields["probe.all_experiments_cold_ms"], "8000");
        assert_eq!(fields["baseline.probe.all_experiments_cold_ms"], "8000");
        assert_eq!(fields["speedup.all_experiments_cold"], "1");
        for key in REQUIRED_META {
            assert!(fields.contains_key(*key), "missing {key}");
        }
    }

    #[test]
    fn render_preserves_existing_baseline_and_computes_speedup() {
        let first = committed_example();
        let mut faster = Scorecard::example();
        faster.probes = vec![
            ("all_experiments_cold_ms", 4000.0),
            ("all_experiments_warm_ms", 1000.0),
        ];
        let second = parse_flat(faster.render(&baseline_of(&first)).trim()).unwrap();
        assert_eq!(second["baseline.probe.all_experiments_cold_ms"], "8000");
        assert_eq!(second["probe.all_experiments_cold_ms"], "4000");
        assert_eq!(second["speedup.all_experiments_cold"], "2");
        assert_eq!(second["speedup.all_experiments_warm"], "2");
    }

    #[test]
    fn baseline_of_keeps_only_probe_anchors() {
        let mut fields = committed_example();
        fields.insert("baseline.bench.trace_gen.median_ns".into(), "1000".into());
        let base = baseline_of(&fields);
        assert_eq!(
            base.keys().collect::<Vec<_>>(),
            [
                "baseline.probe.all_experiments_cold_ms",
                "baseline.probe.all_experiments_warm_ms"
            ]
        );
    }

    #[test]
    fn check_passes_identical_and_flags_regression() {
        let fields = committed_example();
        let card = Scorecard::example();
        assert_eq!(check_against(&fields, &card, TOLERANCE), Vec::new());
        let mut slow = Scorecard::example();
        slow.probes[1].1 = 2000.0 * TOLERANCE * 2.0;
        let violations = check_against(&fields, &slow, TOLERANCE);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].0.contains("probe.all_experiments_warm_ms"));
    }

    #[test]
    fn check_flags_schema_drift() {
        let mut fields = committed_example();
        fields.insert("schema".into(), "ramp-bench-v0".into());
        let v = check_against(&fields, &Scorecard::example(), TOLERANCE);
        assert!(v[0].0.contains("schema drift"), "{v:?}");

        let mut fields = committed_example();
        fields.remove("meta.git");
        let v = check_against(&fields, &Scorecard::example(), TOLERANCE);
        assert!(v.iter().any(|x| x.0.contains("missing meta.git")), "{v:?}");

        let mut fields = committed_example();
        fields.insert("probe.all_experiments_cold_ms".into(), "fast".into());
        let v = check_against(&fields, &Scorecard::example(), TOLERANCE);
        assert!(v.iter().any(|x| x.0.contains("not a number")), "{v:?}");
    }

    #[test]
    fn v3_document_with_kernel_keys_is_schema_drift() {
        // A scorecard of the kernel-suite era: schema v3, fast mode and
        // per-kernel timings next to the same probes.
        let mut fields = committed_example();
        fields.insert("schema".into(), "ramp-bench-v3".into());
        fields.insert("meta.fast".into(), "false".into());
        fields.insert("bench.trace_gen.median_ns".into(), "1000".into());
        fields.insert("baseline.bench.trace_gen.median_ns".into(), "1000".into());
        let v = check_against(&fields, &Scorecard::example(), TOLERANCE);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].0.contains("schema drift"), "{v:?}");
        assert!(v[0].0.contains("ramp-bench-v3"), "{v:?}");
    }

    #[test]
    fn warm_probe_removes_its_store_when_a_run_fails() {
        let dir = std::env::temp_dir().join(format!("ramp-scorecard-test-{}", std::process::id()));
        let missing = dir.with_extension("no-such-binary");
        assert!(warm_probe(&missing, &dir).is_err());
        assert!(!dir.exists(), "scratch store {} left behind", dir.display());
    }
}
