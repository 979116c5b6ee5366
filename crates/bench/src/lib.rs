//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper (see DESIGN.md's experiment index and
//! EXPERIMENTS.md for paper-vs-measured numbers).
//!
//! Each figure has its own binary (`cargo run --release -p ramp-bench
//! --bin fig05_perf_static`); `all_experiments` runs the whole suite,
//! sharing profiling passes and baseline runs through [`Harness`].
//!
//! [`Harness`] is a typed view over [`ramp_serve::spec::resolve`], the
//! one execution path that the sweep engine and the server use too.
//! Simulation runs are independent `(config, workload, policy)` jobs:
//! [`Harness::prewarm`] resolves a batch of them in parallel on the
//! [`ramp_sim::exec`] pool (`-j N`, `--threads N` or `RAMP_THREADS`;
//! default: all cores), after which the figure code reads the harness's
//! memo and formats sequentially — stdout is byte-identical at every
//! thread count.
//!
//! `resolve` consults the persistent `ramp_serve` run store
//! (`target/ramp-store/` by default; `RAMP_STORE=off` disables,
//! `RAMP_STORE_DIR` relocates) before simulating and persists what it
//! simulated, so a second invocation of any experiment binary performs
//! **zero** simulations and prints byte-identical stdout. Which tier
//! answered each run (memo, store, simulation, checkpoint resume) and
//! the store's hit/miss counters are volatile process observability:
//! they surface only in the `RAMP_STATS=table` epilogue, never in the
//! deterministic `json` document.

pub mod microbench;
pub mod scorecard;

use std::collections::BTreeMap;

use ramp_core::annotate::AnnotationSet;
use ramp_core::config::SystemConfig;
use ramp_core::migration::MigrationScheme;
use ramp_core::placement::PlacementPolicy;
use ramp_core::system::RunResult;
use ramp_serve::spec::{resolve, Finished, Job, Memo, Resolver, RunAction, RunSpec};
use ramp_serve::store::RunStore;
use ramp_sim::chaos;
use ramp_sim::exec::{ExecMetrics, TaskOptions};
use ramp_sim::telemetry::{render_runs_json, render_runs_table, Snapshot, StatRegistry};
use ramp_trace::Workload;

/// Environment variable overriding the per-core instruction budget.
pub const ENV_INSTS: &str = "RAMP_INSTS";
/// Environment variable overriding the workload list (comma-separated).
pub const ENV_WORKLOADS: &str = "RAMP_WORKLOADS";
/// Environment variable overriding the worker-thread count.
pub const ENV_THREADS: &str = "RAMP_THREADS";
/// Environment variable selecting the telemetry dump appended to a
/// binary's output: `json` (deterministic machine-readable snapshot) or
/// `table` (human-readable, includes volatile executor stats).
pub const ENV_STATS: &str = "RAMP_STATS";

/// Worker threads for the experiment binaries: `-j N` / `-jN` /
/// `--threads N` on the command line, else `RAMP_THREADS`, else all
/// available cores.
pub fn threads() -> usize {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == "-j" || a == "--threads" {
            if let Some(n) = args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
                return n.max(1);
            }
        } else if let Some(rest) = a.strip_prefix("-j") {
            if let Ok(n) = rest.parse::<usize>() {
                return n.max(1);
            }
        }
    }
    ramp_sim::exec::default_threads()
}

/// The experiment configuration: Table 1 scaled, with env overrides.
pub fn experiment_config() -> SystemConfig {
    let mut cfg = SystemConfig::table1_scaled();
    if let Ok(v) = std::env::var(ENV_INSTS) {
        if let Ok(n) = v.parse::<u64>() {
            cfg.insts_per_core = n.max(10_000);
        }
    }
    cfg
}

/// The evaluated workloads (14 by default; `RAMP_WORKLOADS=mix1,lbm` to
/// restrict).
pub fn workloads() -> Vec<Workload> {
    if let Ok(list) = std::env::var(ENV_WORKLOADS) {
        let picked: Vec<Workload> = list
            .split(',')
            .filter_map(|n| Workload::from_name(n.trim()))
            .collect();
        if !picked.is_empty() {
            return picked;
        }
    }
    Workload::all()
}

/// Every `(workload, action)` pair of `wls` × `actions`, workload-major.
pub fn specs(wls: &[Workload], actions: &[RunAction]) -> Vec<RunSpec> {
    wls.iter()
        .flat_map(|&workload| {
            actions
                .iter()
                .map(move |&action| RunSpec { workload, action })
        })
        .collect()
}

/// The experiment harness: a typed view over [`resolve`] for one system
/// config. Every run it obtains lands in its memo, so multi-figure
/// drivers execute each simulation at most once per process and — with
/// the run store — at most once ever.
#[derive(Debug)]
pub struct Harness {
    /// The system configuration of the typed runs.
    pub cfg: SystemConfig,
    /// Worker threads of every resolve stage.
    pub threads: usize,
    /// Executor counters accumulated across every simulation stage
    /// (steal counts, busy time; volatile — table mode only).
    pub metrics: ExecMetrics,
    store: Option<RunStore>,
    failures: Vec<String>,
    memo: Memo,
    /// Telemetry labels of the typed runs obtained so far, by store key.
    labels: BTreeMap<String, String>,
    /// How many jobs each tier answered so far, plus `failed` and
    /// `profile_sims` (volatile: table mode only).
    tiers: BTreeMap<&'static str, u64>,
}

impl Harness {
    /// Creates a harness around the (env-adjusted) experiment config,
    /// backed by the environment-configured persistent run store.
    pub fn new() -> Self {
        Self::with_store(RunStore::from_env())
    }

    /// Creates a harness with an explicit store (or none): tests use this
    /// to point at a scratch directory without touching the environment.
    pub fn with_store(store: Option<RunStore>) -> Self {
        Harness {
            cfg: experiment_config(),
            threads: threads(),
            metrics: ExecMetrics::new(),
            store,
            failures: Vec::new(),
            memo: Memo::new(),
            labels: BTreeMap::new(),
            tiers: [
                "memo",
                "store",
                "simulated",
                "resumed",
                "failed",
                "profile_sims",
            ]
            .map(|tier| (tier, 0))
            .into(),
        }
    }

    /// The persistent run store backing this harness, if any.
    pub fn store(&self) -> Option<&RunStore> {
        self.store.as_ref()
    }

    /// Runs that failed (panicked past the retry budget) during
    /// [`Harness::prewarm`], plus runs skipped because their profile
    /// failed. Empty unless `RAMP_CHAOS` (or a
    /// simulator bug) is in play — the harness isolates such failures
    /// per job, reports them in [`finish`]'s epilogue and keeps going
    /// with the runs that survived.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Resolves `jobs` into the memo, counting tiers and recording
    /// failures; returns each job's key, or `None` if it failed.
    fn resolve(&mut self, jobs: &[Job<'_>], opts: TaskOptions) -> Vec<Option<String>> {
        let announce =
            |_: &SystemConfig, spec: RunSpec| eprintln!("  [simulate] {}", telemetry_label(&spec));
        let resolver = Resolver {
            store: self.store.as_ref(),
            threads: self.threads,
            metrics: Some(&self.metrics),
            opts,
            on_simulate: Some(&announce),
            progress: None,
        };
        let start = std::time::Instant::now();
        let resolution = resolve(jobs, &resolver, Some(&mut self.memo), |_, key, _| {
            key.to_string()
        });
        let mut simulated = resolution.profile_sims;
        *self.tiers.entry("profile_sims").or_default() += resolution.profile_sims;
        let keys = jobs
            .iter()
            .zip(resolution.jobs)
            .map(|((_, spec), outcome)| {
                let tier = outcome.as_ref().map_or("failed", |done| done.tier.label());
                *self.tiers.entry(tier).or_default() += 1;
                simulated += u64::from(matches!(tier, "simulated" | "resumed"));
                match outcome {
                    Ok(done) => Some(done.value),
                    Err(e) => {
                        self.failures
                            .push(format!("{}: {e}", telemetry_label(spec)));
                        None
                    }
                }
            })
            .collect();
        if simulated > 0 {
            eprintln!(
                "[resolve x{} (threads={})] {simulated} simulated, {:.2}s",
                jobs.len(),
                self.threads,
                start.elapsed().as_secs_f64()
            );
        }
        keys
    }

    /// Resolves `specs` under the harness config in parallel: memo, then
    /// store, then simulation (each missing DDR-only profile once, ahead
    /// of the runs that read it), with the retry budget and `exec.task`
    /// fault injection of `RAMP_CHAOS`. The runs join
    /// [`Harness::telemetry_runs`].
    pub fn prewarm(&mut self, specs: &[RunSpec]) {
        let cfg = self.cfg.clone();
        let jobs: Vec<Job<'_>> = specs.iter().map(|&spec| (&cfg, spec)).collect();
        let keys = self.resolve(&jobs, TaskOptions::from_env());
        for (spec, key) in specs.iter().zip(keys) {
            if let Some(key) = key {
                self.labels.insert(key, telemetry_label(spec));
            }
        }
    }

    /// One typed run: resolved without retries or injected faults, like a
    /// plain call; a run that cannot be produced panics.
    fn get(&mut self, workload: Workload, action: RunAction) -> &Finished {
        let spec = RunSpec { workload, action };
        let key = spec.key(&self.cfg);
        if !self.labels.contains_key(&key) {
            if !self.memo.contains_key(&key) {
                let cfg = self.cfg.clone();
                self.resolve(&[(&cfg, spec)], TaskOptions::none());
            }
            if !self.memo.contains_key(&key) {
                let why = self.failures.last().cloned().unwrap_or_default();
                panic!("{why}");
            }
            self.labels.insert(key.clone(), telemetry_label(&spec));
        }
        &self.memo[&key]
    }

    /// The DDR-only profiling run for `workload`.
    pub fn profile(&mut self, wl: &Workload) -> RunResult {
        self.get(*wl, RunAction::Profile).run.clone()
    }

    /// A static-placement run under `policy`.
    pub fn static_run(&mut self, wl: &Workload, policy: PlacementPolicy) -> RunResult {
        self.get(*wl, RunAction::Static(policy)).run.clone()
    }

    /// A dynamic-migration run under `scheme`.
    pub fn migration_run(&mut self, wl: &Workload, scheme: MigrationScheme) -> RunResult {
        self.get(*wl, RunAction::Migration(scheme)).run.clone()
    }

    /// The annotation run (Section 7) for `workload`.
    pub fn annotated_run(&mut self, wl: &Workload) -> (RunResult, AnnotationSet) {
        let f = self.get(*wl, RunAction::Annotated);
        let set = f
            .annotations
            .clone()
            .expect("annotated runs carry their set");
        (f.run.clone(), set)
    }

    /// The telemetry snapshot of every typed run obtained so far,
    /// labelled `profile/{wl}`, `static/{wl}/{policy}`,
    /// `migration/{wl}/{scheme}` or `annotated/{wl}` and sorted by label
    /// (deterministic).
    pub fn telemetry_runs(&self) -> Vec<(String, Snapshot)> {
        let mut runs: Vec<(String, Snapshot)> = self
            .labels
            .iter()
            .map(|(key, label)| (label.clone(), self.memo[key].run.telemetry.clone()))
            .collect();
        runs.sort_by(|a, b| a.0.cmp(&b.0));
        runs
    }

    /// Workloads ordered by decreasing MPKI (how Figures 7/8 order their
    /// x-axes: bandwidth-intensive on the left).
    pub fn workloads_by_mpki(&mut self, wls: &[Workload]) -> Vec<Workload> {
        let mut v: Vec<(f64, Workload)> =
            wls.iter().map(|wl| (self.profile(wl).mpki, *wl)).collect();
        v.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        v.into_iter().map(|(_, w)| w).collect()
    }
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

/// The telemetry label of a typed run: `profile/{wl}`, `annotated/{wl}`
/// or `{kind}/{wl}/{policy}`.
fn telemetry_label(spec: &RunSpec) -> String {
    let (kind, wl) = (spec.kind().label(), spec.workload.name());
    match spec.action {
        RunAction::Profile | RunAction::Annotated => format!("{kind}/{wl}"),
        _ => format!("{kind}/{wl}/{}", spec.policy_label()),
    }
}

/// The shared epilogue of every experiment binary: dumps the cached
/// runs' telemetry to stdout when `RAMP_STATS` is set.
///
/// `json` emits one deterministic document (byte-identical at any thread
/// count *and* across cold/warm store runs — golden-tested by
/// `tests/golden_stats.rs`); `table` emits human-readable tables plus
/// the volatile process stats: executor counters, how many jobs each
/// tier answered (`[resolve]` section: `memo`, `store`, `simulated`,
/// `resumed`, `failed`, `profile_sims`) and, when a store is configured,
/// its hit/miss/write counters (`[store]` section). Call this as the
/// last line of an experiment binary's `main`.
pub fn finish(h: &Harness) {
    // Failed/skipped runs are reported unconditionally (stderr, so the
    // deterministic stdout stays byte-identical), before the RAMP_STATS
    // gate: a chaos run without stats must still account for every task.
    if !h.failures.is_empty() {
        eprintln!(
            "[harness] {} run(s) failed or were skipped:",
            h.failures.len()
        );
        for f in &h.failures {
            eprintln!("  [failed] {f}");
        }
    }
    let Ok(mode) = std::env::var(ENV_STATS) else {
        return;
    };
    let runs = h.telemetry_runs();
    match mode.trim() {
        "json" => {
            // The JSON document must stay byte-identical across thread
            // counts (golden-tested), so the measurement context rides
            // on stderr instead of inside the payload.
            eprintln!(
                "[bench] context: threads={} profile={}",
                h.threads,
                scorecard::build_profile()
            );
            println!("{}", render_runs_json(&runs));
        }
        "table" => {
            print!("{}", render_runs_table(&runs));
            let mut reg = StatRegistry::new();
            h.metrics.export_telemetry(&mut reg, "exec");
            for (tier, n) in &h.tiers {
                reg.counter_add("resolve", tier, *n);
            }
            if let Some(store) = h.store() {
                store.export_telemetry(&mut reg, "store");
            }
            if let Some(chaos) = chaos::global() {
                chaos.export_telemetry(&mut reg, "chaos");
            }
            println!("=== harness ===");
            println!(
                "threads = {} | profile = {}",
                h.threads,
                scorecard::build_profile()
            );
            print!("{}", reg.snapshot_full().to_table());
        }
        other => eprintln!("{ENV_STATS}={other}: expected `json` or `table`"),
    }
}

/// Figure 13's FC-interval sweep: the perf-FC migration IPC of each of
/// `wls` at each of `intervals` (workload-major), formatted `{:.3}`.
///
/// Each point is a job under its own config, so all of them resolve in
/// one call through the memo and the store, without retries or injected
/// faults like the single-run getters; a point that cannot be produced
/// panics. The base-config profiles join the telemetry document; the
/// interval runs do not.
pub fn fc_interval_sweep(h: &mut Harness, wls: &[Workload], intervals: &[u64]) -> Vec<String> {
    h.prewarm(&specs(wls, &[RunAction::Profile]));
    for wl in wls {
        h.profile(wl); // a profile whose prewarm failed resolves again here
    }
    let cfgs: Vec<SystemConfig> = intervals
        .iter()
        .map(|&fc_interval_cycles| SystemConfig {
            fc_interval_cycles,
            ..h.cfg.clone()
        })
        .collect();
    let action = RunAction::Migration(MigrationScheme::PerfFc);
    let jobs: Vec<Job<'_>> = wls
        .iter()
        .flat_map(|&workload| {
            cfgs.iter()
                .map(move |cfg| (cfg, RunSpec { workload, action }))
        })
        .collect();
    h.resolve(&jobs, TaskOptions::none())
        .into_iter()
        .map(|key| match key {
            Some(k) => format!("{:.3}", h.memo[&k].run.ipc),
            None => panic!("{}", h.failures.last().cloned().unwrap_or_default()),
        })
        .collect()
}

/// A static-policy comparison row: IPC and SER relative to the
/// performance-focused placement (how Figures 7-11 are normalized).
#[derive(Clone, Debug)]
pub struct RelativeRow {
    /// Workload name.
    pub workload: String,
    /// IPC of the policy divided by perf-focused IPC.
    pub ipc_rel: f64,
    /// SER reduction factor: perf-focused SER divided by policy SER.
    pub ser_reduction: f64,
}

/// Runs `policy` against the performance-focused baseline over `wls`.
pub fn static_vs_perf(
    h: &mut Harness,
    wls: &[Workload],
    policy: PlacementPolicy,
) -> Vec<RelativeRow> {
    wls.iter()
        .map(|wl| {
            let base = h.static_run(wl, PlacementPolicy::PerfFocused);
            let run = h.static_run(wl, policy);
            RelativeRow {
                workload: wl.name().to_string(),
                ipc_rel: run.ipc / base.ipc,
                ser_reduction: base.ser_fit / run.ser_fit.max(f64::MIN_POSITIVE),
            }
        })
        .collect()
}

/// Runs migration `scheme` against the performance-focused migration
/// baseline over `wls` (how Figures 14/15 are normalized).
pub fn migration_vs_perf(
    h: &mut Harness,
    wls: &[Workload],
    scheme: MigrationScheme,
) -> Vec<RelativeRow> {
    wls.iter()
        .map(|wl| {
            let base = h.migration_run(wl, MigrationScheme::PerfFc);
            let run = h.migration_run(wl, scheme);
            RelativeRow {
                workload: wl.name().to_string(),
                ipc_rel: run.ipc / base.ipc,
                ser_reduction: base.ser_fit / run.ser_fit.max(f64::MIN_POSITIVE),
            }
        })
        .collect()
}

/// Prints relative rows plus their means, paper-style.
pub fn print_relative(title: &str, rows: &[RelativeRow], paper_ipc_loss: &str, paper_ser: &str) {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                format!("{:.3}", r.ipc_rel),
                fmt_x(r.ser_reduction),
            ]
        })
        .collect();
    print_table(
        title,
        &["workload", "IPC vs perf-focused", "SER reduction"],
        &data,
    );
    let ipc_mean = geomean_or_one(&rows.iter().map(|r| r.ipc_rel).collect::<Vec<_>>());
    let ser_mean = geomean_or_one(&rows.iter().map(|r| r.ser_reduction).collect::<Vec<_>>());
    println!(
        "\nmean: IPC loss {:.1}% (paper: {paper_ipc_loss}), SER reduction {} (paper: {paper_ser})",
        (1.0 - ipc_mean) * 100.0,
        fmt_x(ser_mean),
    );
}

/// Prints a markdown table: header row plus aligned data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", header.join(" | "));
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Formats a ratio the way the paper quotes it ("1.60x").
pub fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a fraction as a percentage.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Geometric mean helper that tolerates empty input.
pub fn geomean_or_one(xs: &[f64]) -> f64 {
    ramp_sim::stats::geomean(xs).unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_workload_list_is_fourteen() {
        if std::env::var(ENV_WORKLOADS).is_err() {
            assert_eq!(workloads().len(), 14);
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_x(1.6), "1.60x");
        assert_eq!(fmt_pct(0.049), "4.9%");
        assert_eq!(geomean_or_one(&[]), 1.0);
    }
}
