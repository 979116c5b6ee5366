//! The committed performance scorecard (`BENCH_*.json`).
//!
//! A pinned suite of microbenches over the simulator's hot kernels plus
//! an `all_experiments` cold/warm wall-clock probe, rendered as one flat
//! JSON object (dotted keys, [`ramp_serve::json`] writer/scanner — no
//! JSON dependency) so CI can diff a fresh run against the committed
//! baseline with a tolerance band.
//!
//! Layout of the emitted document (`schema` pins it; golden-tested by
//! `tests/golden_bench.rs`):
//!
//! - `schema` — schema version string ([`SCHEMA`]).
//! - `meta.*` — measurement context: executor thread count, build
//!   profile, `git describe`, store modes exercised by the probe, and
//!   whether fast mode was active. Perf numbers are never comparable
//!   without these.
//! - `bench.<name>.{median_ns,mean_ns,samples}` — per-kernel timings;
//!   median of N samples with warmup iterations discarded.
//! - `probe.all_experiments_{cold,warm}_ms` — end-to-end wall clock of
//!   the `all_experiments` binary with the store off (cold: every
//!   simulation runs) and against a prewarmed store (warm: zero
//!   simulations, pure replay + formatting).
//! - `baseline.*` — frozen mirror of `bench.*`/`probe.*` from the first
//!   bless, preserved verbatim by [`update`] so speedups stay anchored
//!   to the pre-campaign numbers.
//! - `speedup.*` — `baseline` probe divided by current probe.
//!
//! Workflow (see DESIGN.md §10): `scorecard update BENCH_0007.json`
//! re-measures and rewrites the file keeping the baseline section;
//! `scorecard check BENCH_0007.json` (the `ci.sh bench` /
//! `bench-smoke` stages) re-measures and fails on schema drift or
//! regression past the tolerance band.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ramp_avf::{PageStats, StatsTable};
use ramp_cache::{Hierarchy, HierarchyConfig};
use ramp_core::config::SystemConfig;
use ramp_core::system::RunResult;
use ramp_core::PageMap;
use ramp_dram::{AddressMapping, MemRequest, MemorySystem, Organization};
use ramp_serve::json::{parse_flat, ObjWriter};
use ramp_serve::store::{run_key, RunKind, RunStore};
use ramp_sim::rng::{SimRng, Zipf};
use ramp_sim::telemetry::{Snapshot, Stat};
use ramp_sim::units::{AccessKind, Cycle, LineAddr, PageId};
use ramp_trace::{Benchmark, InstanceGen};

use crate::microbench::black_box;

/// Schema version of the emitted document. Bump only with a deliberate
/// layout change (and re-bless the golden snapshot + committed file).
///
/// v2: added a store append+replay kernel pair, one per store backend.
/// v3: the kernel pinning the append-only log backend left with that
/// backend; `store_append_replay_files` is the one store kernel.
pub const SCHEMA: &str = "ramp-bench-v3";

/// Environment variable: any value switches the suite to fast mode
/// (fewer samples, smaller probe) for the CI smoke stage.
pub const ENV_FAST: &str = "RAMP_BENCH_FAST";

/// Default tolerance band for [`check`]: a metric regresses when the
/// fresh measurement exceeds `committed * TOLERANCE`.
pub const TOLERANCE: f64 = 1.6;

/// Metadata keys every scorecard must carry (asserted by the golden
/// schema test so scorecards stay comparable across PRs).
pub const REQUIRED_META: &[&str] = &[
    "meta.threads",
    "meta.profile",
    "meta.git",
    "meta.store_modes",
    "meta.fast",
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

fn fast_mode() -> bool {
    std::env::var(ENV_FAST).is_ok()
}

/// One measured kernel: median/mean over `samples` timed iterations.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Pinned kernel name (stable across PRs — the check stage treats a
    /// name-set change as schema drift).
    pub name: &'static str,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Mean nanoseconds per iteration (all samples, warmup discarded).
    pub mean_ns: f64,
    /// Number of timed samples.
    pub samples: u64,
}

/// The full scorecard: context + kernel timings + probe wall clocks.
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
    /// Fast (smoke) mode?
    pub fast: bool,
    /// Kernel timings, in pinned suite order.
    pub benches: Vec<BenchResult>,
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
            fast: false,
            benches: vec![
                BenchResult {
                    name: "trace_gen",
                    median_ns: 1000.0,
                    mean_ns: 1100.0,
                    samples: 9,
                },
                BenchResult {
                    name: "dram_channel",
                    median_ns: 2000.0,
                    mean_ns: 2100.0,
                    samples: 9,
                },
            ],
            probes: vec![
                ("all_experiments_cold_ms", 8000.0),
                ("all_experiments_warm_ms", 2000.0),
            ],
        }
    }

    /// Renders the scorecard as the canonical flat JSON document,
    /// copying `baseline.*` keys from `baseline` (or freezing the
    /// current numbers as the baseline when `baseline` is empty).
    pub fn render(&self, baseline: &BTreeMap<String, String>) -> String {
        let mut w = ObjWriter::new();
        w.str("schema", SCHEMA);
        w.u64("meta.threads", self.threads);
        w.str("meta.profile", &self.profile);
        w.str("meta.git", &self.git);
        w.str("meta.store_modes", &self.store_modes);
        w.bool("meta.fast", self.fast);
        for b in &self.benches {
            w.f64(&format!("bench.{}.median_ns", b.name), b.median_ns);
            w.f64(&format!("bench.{}.mean_ns", b.name), b.mean_ns);
            w.u64(&format!("bench.{}.samples", b.name), b.samples);
        }
        for (k, ms) in &self.probes {
            w.f64(&format!("probe.{k}"), *ms);
        }
        // Baseline: preserved verbatim (BTreeMap => sorted key order) or
        // frozen from the current numbers on first bless.
        if baseline.is_empty() {
            for b in &self.benches {
                w.f64(&format!("baseline.bench.{}.median_ns", b.name), b.median_ns);
            }
            for (k, ms) in &self.probes {
                w.f64(&format!("baseline.probe.{k}"), *ms);
            }
        } else {
            // Kernels added after the first bless freeze their first
            // measurement, so a suite extension never orphans the
            // committed anchors of the original kernels.
            let mut merged = baseline.clone();
            for b in &self.benches {
                merged
                    .entry(format!("baseline.bench.{}.median_ns", b.name))
                    .or_insert_with(|| b.median_ns.to_string());
            }
            for (k, v) in &merged {
                match v.parse::<f64>() {
                    Ok(n) => w.f64(k, n),
                    Err(_) => w.str(k, v),
                };
            }
        }
        // Speedups: baseline probe / current probe (1.0 at first bless).
        for (k, ms) in &self.probes {
            let base = if baseline.is_empty() {
                *ms
            } else {
                baseline
                    .get(&format!("baseline.probe.{k}"))
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or(*ms)
            };
            let name = k.trim_end_matches("_ms");
            w.f64(&format!("speedup.{name}"), base / ms.max(f64::MIN_POSITIVE));
        }
        let mut s = w.finish();
        s.push('\n');
        s
    }
}

/// Times `routine` (over fresh state from `setup`): `warmup` discarded
/// iterations, then `n` timed samples; returns (median_ns, mean_ns, n).
fn sample<I>(
    warmup: usize,
    n: usize,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I),
) -> (f64, f64, u64) {
    for _ in 0..warmup {
        routine(setup());
    }
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let input = setup();
        let t0 = Instant::now();
        routine(input);
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let median = samples[samples.len() / 2];
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    (median, mean, samples.len() as u64)
}

/// Runs the pinned kernel suite. Names are stable: the check stage
/// treats any change to the name set as schema drift.
pub fn run_suite(fast: bool) -> Vec<BenchResult> {
    let (warmup, n) = if fast { (1, 5) } else { (3, 15) };
    let mut out = Vec::new();
    let mut push = |name: &'static str, (median_ns, mean_ns, samples): (f64, f64, u64)| {
        eprintln!("  [bench] {name}: median {:.0} ns", median_ns);
        out.push(BenchResult {
            name,
            median_ns,
            mean_ns,
            samples,
        });
    };

    push(
        "trace_gen",
        sample(
            warmup,
            n,
            || InstanceGen::new(Benchmark::Mcf.profile(), 0, 1, 10_000_000),
            |mut gen| {
                for _ in 0..10_000 {
                    black_box(gen.next());
                }
            },
        ),
    );

    let zipf = Zipf::new(65_536, 0.8);
    push(
        "zipf_sample",
        sample(
            warmup,
            n,
            || SimRng::from_seed(11),
            |mut rng| {
                for _ in 0..10_000 {
                    black_box(zipf.sample(&mut rng));
                }
            },
        ),
    );

    let zipf_c = Zipf::new(4096, 0.8);
    push(
        "cache_hierarchy",
        sample(
            warmup,
            n,
            || {
                (
                    Hierarchy::new(HierarchyConfig::table1_scaled()),
                    SimRng::from_seed(3),
                )
            },
            |(mut h, mut rng)| {
                let mut mem_out = Vec::new();
                for i in 0..10_000u64 {
                    let line = LineAddr(zipf_c.sample(&mut rng) as u64 * 64 + i % 64);
                    let kind = if i % 3 == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    h.access((i % 16) as usize, line, kind, &mut mem_out);
                    mem_out.clear();
                }
            },
        ),
    );

    push(
        "dram_channel",
        sample(
            warmup,
            n,
            || (MemorySystem::hbm(), SimRng::from_seed(5)),
            |(mut mem, mut rng)| {
                let mut done = Vec::new();
                let mut t = 0u64;
                let mut issued = 0u64;
                while issued < 2_000 {
                    t += 40;
                    let req = MemRequest {
                        id: issued,
                        line: LineAddr(rng.below(1 << 20)),
                        kind: AccessKind::Read,
                        core: 0,
                        arrive: Cycle(t),
                    };
                    if mem.can_accept(&req) {
                        mem.enqueue(req).unwrap();
                        issued += 1;
                    }
                    mem.advance(Cycle(t), &mut done);
                }
                black_box(done.len());
            },
        ),
    );

    let mapping = AddressMapping::new(Organization::hbm());
    push(
        "dram_mapping",
        sample(
            warmup,
            n,
            || (),
            |()| {
                let mut acc = 0u64;
                for line in 0..100_000u64 {
                    let c = mapping.decode(LineAddr(line * 7 + 3));
                    acc = acc
                        .wrapping_add(c.channel as u64)
                        .wrapping_add(c.bank as u64)
                        .wrapping_add(c.row)
                        .wrapping_add(c.col);
                }
                black_box(acc);
            },
        ),
    );

    push(
        "pagemap_frame_line",
        sample(
            warmup,
            n,
            || {
                let mut pm = PageMap::new(4096);
                for core in 0..16u64 {
                    for p in 0..1024u64 {
                        let page = PageId((core << 22) | p);
                        if p % 4 == 0 {
                            let _ = pm.place_in_hbm(page);
                        } else {
                            pm.resolve(page);
                        }
                    }
                }
                (pm, SimRng::from_seed(17))
            },
            |(mut pm, mut rng)| {
                let mut acc = 0u64;
                for _ in 0..100_000u64 {
                    let page = PageId((rng.below(16) << 22) | rng.below(1024));
                    let (kind, fl) = pm.frame_line(page, rng.below(64) as usize);
                    acc = acc.wrapping_add(fl.0).wrapping_add(kind as u64);
                }
                black_box(acc);
            },
        ),
    );

    // Store append + replay: K results into a fresh store, drop, reopen,
    // one readback — the write path (temp file, rename, read-back
    // verify) plus one warm read (DESIGN.md §11).
    let store_cfg = SystemConfig::smoke_test();
    let store_k = if fast { 8u64 } else { 24 };
    let dir = std::env::temp_dir().join(format!("ramp-bench-store-files-{}", std::process::id()));
    push(
        "store_append_replay_files",
        sample(
            warmup,
            n,
            || {
                let _ = std::fs::remove_dir_all(&dir);
                dir.clone()
            },
            |dir| {
                let store = RunStore::open(&dir).expect("open bench store");
                let mut last = String::new();
                for i in 0..store_k {
                    let key = run_key(&store_cfg, RunKind::Migration, &format!("wl{i}"), "bench");
                    assert!(store.store_run(&key, &store_sample_run(i)));
                    last = key;
                }
                drop(store);
                let store = RunStore::open(&dir).expect("reopen bench store");
                black_box(store.load_run(&last).expect("readback after reopen").cycles);
            },
        ),
    );
    let _ = std::fs::remove_dir_all(&dir);

    out
}

/// A small fully-populated run result for the store kernels; bytes vary
/// with `salt` so successive appends exercise distinct records.
fn store_sample_run(salt: u64) -> RunResult {
    let mut telemetry = Snapshot::default();
    telemetry.insert("system", "instructions", Stat::Counter(1_000 + salt));
    RunResult {
        workload: format!("wl{salt}"),
        policy: "bench".into(),
        ipc: 1.0 + salt as f64 / 7.0,
        per_core_ipc: vec![1.0, 0.5 + salt as f64],
        ser_fit: 100.0 + salt as f64,
        ser_ddr_only_fit: 1.0,
        cycles: 10_000 + salt,
        instructions: 1_000 + salt,
        mpki: 2.5,
        hbm_accesses: 40 + salt,
        ddr_accesses: 11,
        migrations: salt % 5,
        mean_read_latency: (80.0, 200.0),
        table: StatsTable::from_stats(
            vec![PageStats {
                page: PageId(salt),
                reads: salt,
                writes: 2,
                ace_hbm: 10,
                ace_ddr: 5,
                avf: 0.25,
            }],
            10_000 + salt,
        ),
        telemetry,
    }
}

/// Pinned probe configuration: the `all_experiments` binary over the
/// `lbm,mcf` pair. Fast mode shrinks the instruction budget so the
/// smoke stage stays quick (fast and full scorecards are therefore not
/// probe-comparable — [`check`] enforces matching `meta.fast`).
fn probe_env(fast: bool) -> Vec<(&'static str, String)> {
    vec![
        ("RAMP_WORKLOADS", "lbm,mcf".to_string()),
        (
            "RAMP_INSTS",
            if fast { "50000" } else { "200000" }.to_string(),
        ),
        ("RAMP_THREADS", "4".to_string()),
    ]
}

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
fn timed_probe_run(bin: &Path, fast: bool, extra: &[(&str, String)]) -> Result<f64, String> {
    let mut cmd = std::process::Command::new(bin);
    for (k, v) in probe_env(fast) {
        cmd.env(k, v);
    }
    for (k, v) in extra {
        cmd.env(k, v);
    }
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

/// Runs the cold + warm `all_experiments` probes; returns probe rows.
pub fn run_probe(fast: bool) -> Result<Vec<(&'static str, f64)>, String> {
    let bin = all_experiments_bin()?;
    // Cold: store disabled, every simulation executes.
    eprintln!("  [probe] all_experiments cold (store off) ...");
    let cold = timed_probe_run(&bin, fast, &[("RAMP_STORE", "off".to_string())])?;
    eprintln!("  [probe] all_experiments cold: {cold:.0} ms");
    // Warm: prewarm a scratch store (untimed), then measure pure replay.
    let dir = std::env::temp_dir().join(format!("ramp-scorecard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let store = [("RAMP_STORE_DIR", dir.display().to_string())];
    eprintln!("  [probe] all_experiments warm (prewarming store) ...");
    timed_probe_run(&bin, fast, &store)?;
    let warm = timed_probe_run(&bin, fast, &store)?;
    eprintln!("  [probe] all_experiments warm: {warm:.0} ms");
    let _ = std::fs::remove_dir_all(&dir);
    Ok(vec![
        ("all_experiments_cold_ms", cold),
        ("all_experiments_warm_ms", warm),
    ])
}

/// Measures a full scorecard (suite + probe) in the current mode.
pub fn measure() -> Result<Scorecard, String> {
    let fast = fast_mode();
    let benches = run_suite(fast);
    let probes = run_probe(fast)?;
    Ok(Scorecard {
        threads: 4,
        profile: build_profile().to_string(),
        git: git_describe(),
        store_modes: "cold+warm".to_string(),
        fast,
        benches,
        probes,
    })
}

/// Parses a committed scorecard file into its flat field map.
pub fn parse_file(path: &Path) -> Result<BTreeMap<String, String>, String> {
    let body =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse_flat(body.trim())
}

/// Extracts the `baseline.*` keys of a parsed scorecard.
pub fn baseline_of(fields: &BTreeMap<String, String>) -> BTreeMap<String, String> {
    fields
        .iter()
        .filter(|(k, _)| k.starts_with("baseline."))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

/// Re-measures and rewrites `path`, preserving its `baseline.*` section
/// (or freezing the fresh numbers as the baseline when the file does
/// not exist yet).
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
/// (version, missing metadata, kernel name-set change) is always fatal;
/// a kernel median or probe wall clock exceeding `committed * tol`
/// is a regression. Probes are only compared when both sides ran in
/// the same mode (`meta.fast` matches) — fast probes use a smaller
/// instruction budget and are not comparable to full ones.
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
    let committed_names: Vec<&str> = fields
        .keys()
        .filter_map(|k| {
            k.strip_prefix("bench.")
                .and_then(|r| r.strip_suffix(".median_ns"))
        })
        .collect();
    let fresh_names: Vec<&str> = fresh.benches.iter().map(|b| b.name).collect();
    if committed_names != {
        let mut s = fresh_names.clone();
        s.sort_unstable();
        s
    } {
        out.push(Violation(format!(
            "schema drift: kernel set changed (committed {committed_names:?}, fresh {fresh_names:?})"
        )));
        return out;
    }
    for b in &fresh.benches {
        let key = format!("bench.{}.median_ns", b.name);
        let Some(committed) = fields.get(&key).and_then(|v| v.parse::<f64>().ok()) else {
            out.push(Violation(format!("schema drift: {key} not a number")));
            continue;
        };
        if b.median_ns > committed * tol {
            out.push(Violation(format!(
                "regression: {key} {:.0} ns > committed {:.0} ns * {tol}",
                b.median_ns, committed
            )));
        }
    }
    let modes_match = fields.get("meta.fast").map(String::as_str)
        == Some(if fresh.fast { "true" } else { "false" });
    if modes_match {
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
    } else {
        eprintln!("  [check] probe skipped: committed meta.fast differs from this run");
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
        assert_eq!(fields["bench.trace_gen.median_ns"], "1000");
        assert_eq!(fields["baseline.bench.trace_gen.median_ns"], "1000");
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
    fn render_freezes_baseline_for_kernels_added_after_first_bless() {
        let first = committed_example();
        let mut extended = Scorecard::example();
        extended.benches.push(BenchResult {
            name: "new_kernel",
            median_ns: 512.0,
            mean_ns: 600.0,
            samples: 9,
        });
        let second = parse_flat(extended.render(&baseline_of(&first)).trim()).unwrap();
        // Old anchors survive verbatim; the new kernel gets frozen at
        // its first measurement.
        assert_eq!(second["baseline.bench.trace_gen.median_ns"], "1000");
        assert_eq!(second["baseline.bench.new_kernel.median_ns"], "512");
    }

    #[test]
    fn check_passes_identical_and_flags_regression() {
        let fields = committed_example();
        let card = Scorecard::example();
        assert_eq!(check_against(&fields, &card, TOLERANCE), Vec::new());
        let mut slow = Scorecard::example();
        slow.benches[0].median_ns = 1000.0 * TOLERANCE * 2.0;
        slow.probes[0].1 = 8000.0 * TOLERANCE * 2.0;
        let violations = check_against(&fields, &slow, TOLERANCE);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].0.contains("bench.trace_gen.median_ns"));
        assert!(violations[1].0.contains("probe.all_experiments_cold_ms"));
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

        let mut renamed = Scorecard::example();
        renamed.benches[0].name = "trace_gen_v2";
        let v = check_against(&committed_example(), &renamed, TOLERANCE);
        assert!(v[0].0.contains("kernel set changed"), "{v:?}");
    }

    #[test]
    fn probe_comparison_requires_matching_mode() {
        let fields = committed_example();
        let mut fast = Scorecard::example();
        fast.fast = true;
        fast.probes[0].1 = 1e9; // would regress if compared
        assert_eq!(check_against(&fields, &fast, TOLERANCE), Vec::new());
    }
}
