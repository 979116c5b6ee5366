//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper (see DESIGN.md's experiment index and
//! EXPERIMENTS.md for paper-vs-measured numbers).
//!
//! Each table and figure is defined once, as a section of the
//! [`figures`] registry. `all_experiments` renders every section, sharing
//! profiling passes and baseline runs through [`Harness`]; a
//! single-figure binary (`cargo run --release -p ramp-bench --bin
//! fig05_perf_static`) renders the sections that cover its figure.
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

pub mod figures;
pub mod scorecard;

use std::collections::BTreeMap;
use std::fmt::Write as _;

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
    match parse_threads(&args) {
        Ok(Some(n)) => n,
        Ok(None) => ramp_sim::exec::default_threads(),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2)
        }
    }
}

/// The thread count `args` ask for with `-j N`, `-jN` or `--threads N`,
/// if any; a value that is missing or not a count names the bad token.
fn parse_threads(args: &[String]) -> Result<Option<usize>, String> {
    let count = |flag: &str, value: Option<&String>| match value {
        Some(v) => v
            .parse::<usize>()
            .map(|n| Some(n.max(1)))
            .map_err(|_| format!("{flag}: `{v}` is not a thread count")),
        None => Err(format!("{flag} needs a thread count")),
    };
    for (i, a) in args.iter().enumerate() {
        if a == "-j" || a == "--threads" {
            return count(a, args.get(i + 1));
        } else if let Some(rest) = a.strip_prefix("-j") {
            return count("-j", Some(&rest.to_string()));
        }
    }
    Ok(None)
}

/// The experiment configuration: Table 1 scaled, with the `RAMP_INSTS`
/// budget if set. A budget that does not parse ends the process with
/// status 2.
pub fn experiment_config() -> SystemConfig {
    let mut cfg = SystemConfig::table1_scaled();
    if let Some(n) = env_or_exit(ENV_INSTS, parse_insts) {
        cfg.insts_per_core = n;
    }
    cfg
}

/// The evaluated workloads (14 by default; `RAMP_WORKLOADS=mix1,lbm` to
/// restrict). A list with an unknown name ends the process with status 2.
pub fn workloads() -> Vec<Workload> {
    env_or_exit(ENV_WORKLOADS, parse_workloads).unwrap_or_else(Workload::all)
}

/// Parses a `RAMP_INSTS` value: the per-core instruction budget, raised
/// to at least 10,000.
fn parse_insts(value: &str) -> Result<u64, String> {
    value
        .trim()
        .parse::<u64>()
        .map(|n| n.max(10_000))
        .map_err(|_| format!("{ENV_INSTS}: `{value}` is not an instruction count"))
}

/// Parses a `RAMP_WORKLOADS` value: comma-separated workload names, each
/// of them known.
fn parse_workloads(list: &str) -> Result<Vec<Workload>, String> {
    list.split(',')
        .map(|name| {
            Workload::from_name(name.trim()).ok_or_else(|| {
                let valid: Vec<&str> = Workload::all().iter().map(|w| w.name()).collect();
                format!(
                    "{ENV_WORKLOADS}: unknown workload `{name}` (valid: {})",
                    valid.join(", ")
                )
            })
        })
        .collect()
}

/// `parse` applied to environment variable `name`, if it is set; a value
/// that does not parse is reported and ends the process with status 2.
fn env_or_exit<T>(name: &str, parse: fn(&str) -> Result<T, String>) -> Option<T> {
    let value = std::env::var(name).ok()?;
    Some(parse(&value).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    }))
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
    /// How many jobs each tier answered so far, plus `failed`,
    /// `profile_sims` and the runs that recorded, replayed or fell back
    /// from event streams (volatile: table mode only).
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
                "streams_recorded",
                "streams_replayed",
                "streams_fallback",
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
        let streams = resolution.streams;
        *self.tiers.entry("streams_recorded").or_default() += streams.recorded;
        *self.tiers.entry("streams_replayed").or_default() += streams.replayed;
        *self.tiers.entry("streams_fallback").or_default() += streams.fallback;
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
        let mut v: Vec<(f64, Workload)> = wls
            .iter()
            .map(|wl| (self.get(*wl, RunAction::Profile).run.mpki, *wl))
            .collect();
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
/// `resumed`, `failed`, `profile_sims`, and `streams_recorded`,
/// `streams_replayed`, `streams_fallback`: runs fed from event streams)
/// and, when a store is configured,
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

/// Appends a markdown table to `out`: title, header row and data rows.
pub fn print_table(out: &mut String, title: &str, header: &[&str], rows: &[Vec<String>]) {
    let _ = write!(
        out,
        "\n### {title}\n\n| {} |\n|{}|\n",
        header.join(" | "),
        vec!["---"; header.len()].join("|")
    );
    for row in rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
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
    fn thread_flags_parse_or_name_the_bad_token() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            parse_threads(&args)
        };
        assert_eq!(parse(&["bin"]), Ok(None));
        assert_eq!(parse(&["bin", "-j", "3"]), Ok(Some(3)));
        assert_eq!(parse(&["bin", "-j4"]), Ok(Some(4)));
        assert_eq!(parse(&["bin", "--threads", "0"]), Ok(Some(1)));
        for (args, token) in [
            (&["bin", "-j", "abc"][..], "`abc`"),
            (&["bin", "-jx2"][..], "`x2`"),
            (&["bin", "--threads", "-1"][..], "`-1`"),
            (&["bin", "--threads"][..], "--threads needs"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(token), "{err}");
        }
    }

    #[test]
    fn default_workload_list_is_fourteen() {
        if std::env::var(ENV_WORKLOADS).is_err() {
            assert_eq!(workloads().len(), 14);
        }
    }

    #[test]
    fn workload_lists_parse_or_name_the_bad_token() {
        let names = |list: &str| {
            parse_workloads(list).map(|wls| wls.iter().map(|w| w.name()).collect::<Vec<_>>())
        };
        assert_eq!(names(" lbm, mcf ").unwrap(), ["lbm", "mcf"]);
        let err = names("lbm,mfc").unwrap_err();
        assert!(err.contains("`mfc`") && err.contains("mcf"), "{err}");
        assert!(names("lmb").unwrap_err().contains("`lmb`"));
        assert!(names("").unwrap_err().contains("unknown workload ``"));
        assert!(names("lbm,").unwrap_err().contains("unknown workload ``"));
    }

    #[test]
    fn instruction_budgets_parse_or_name_the_bad_token() {
        assert_eq!(parse_insts("60000"), Ok(60_000));
        assert_eq!(parse_insts("5"), Ok(10_000));
        let err = parse_insts("60k").unwrap_err();
        assert!(err.contains("`60k`"), "{err}");
        assert!(parse_insts("").is_err());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_x(1.6), "1.60x");
        assert_eq!(fmt_pct(0.049), "4.9%");
        assert_eq!(geomean_or_one(&[]), 1.0);
    }
}
