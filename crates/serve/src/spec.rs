//! Parsed run requests and the one path that executes them.
//!
//! A [`RunSpec`] is the validated form of a client request ("run `lbm`
//! under the `perf-focused` static policy"). [`resolve`] is the single
//! choke point between every front end and the simulator: the
//! experiment harness, the sweep engine and the server hand it
//! `(config, spec)` jobs. It answers each job from the caller's memo or
//! the [`RunStore`] when it can, simulates only what is missing, persists
//! what it simulated, and reports which tier answered. Each distinct
//! DDR-only profile is had once per call and reduced at once to the
//! [`Placement`]s of the runs that read it, which then simulate without
//! its table.
//! [`RunSpec::execute`] is a one-job `resolve`.
//!
//! With a store, every simulation is fed from its workload's post-L1
//! event streams ([`stream_key`]): the first run of a stream key records
//! them, and every later run of any action on that key replays them
//! ([`RunStore::attach_streams`]). A stream that fails to open or to
//! decode is quarantined and the run answered live; the counts go only
//! to [`Resolution::streams`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ramp_avf::StatsTable;
use ramp_core::annotate::AnnotationSet;
use ramp_core::config::SystemConfig;
use ramp_core::migration::{MigrationEngine, MigrationScheme};
use ramp_core::placement::PlacementPolicy;
use ramp_core::runner::{self, Placement};
use ramp_core::system::{RunHooks, RunResult, SystemSim};
use ramp_sim::exec::{parallel_map, try_parallel_map_metrics, ExecMetrics, TaskOptions};
use ramp_trace::Workload;

use crate::store::{run_key, stream_key, Feeds, RunKind, RunStore};

/// Policy label recorded for profile runs (a profile *is* a DDR-only run).
pub const PROFILE_POLICY: &str = "ddr-only";
/// Policy label recorded for annotated runs.
pub const ANNOTATED_POLICY: &str = "annotations";
/// Environment variable: checkpoint every K FC-interval epochs
/// (`0`/unset disables checkpointing).
pub const ENV_CKPT_EPOCHS: &str = "RAMP_CKPT_EPOCHS";

/// Reads the [`ENV_CKPT_EPOCHS`] knob: checkpoint every K epochs, 0 = off.
/// The simulator core never reads the environment; this serving-layer
/// shim is the only place the knob is interpreted.
pub fn ckpt_epochs_from_env() -> u64 {
    std::env::var(ENV_CKPT_EPOCHS)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Live progress of one executing run, shared lock-free between the
/// worker thread driving the simulation and poll responses reading it.
#[derive(Debug, Default)]
pub struct RunProgress {
    /// FC-interval epochs completed so far.
    pub epochs_done: AtomicU64,
    /// Lower-bound estimate of the run's total epochs
    /// ([`SystemConfig::epochs_estimate`]); real runs overshoot it, so
    /// `done > total` means "still running", not an error.
    pub epochs_total: AtomicU64,
    /// Epoch of the last durable checkpoint (0 = none yet).
    pub ckpt_epoch: AtomicU64,
    /// Whether this execution resumed from a checkpoint.
    pub resumed: AtomicBool,
}

/// Runs `build()`'s simulator live to completion with epoch-granular
/// checkpointing into `store` under `key` every `ckpt_every` epochs (0
/// disables checkpointing), resuming from the newest restorable
/// checkpoint when one exists.
///
/// Torn or corrupt segments are filtered (and quarantined) by
/// [`RunStore::load_latest_checkpoint`]; a segment that *frames*
/// cleanly but fails to restore — e.g. one written for a different run
/// — is quarantined here and the walk falls back further, so worst
/// case the run simply starts cold. On completion the run's checkpoint
/// trail is removed. Returns the result and whether the run resumed.
///
/// [`resolve`] runs every simulation through the same path, with the
/// interval from [`ENV_CKPT_EPOCHS`] and its cores fed from the store's
/// event streams, so any process that can reach the run store gets
/// kill-and-resume for free.
pub fn run_with_recovery_every(
    build: impl Fn() -> SystemSim,
    key: &str,
    label: &str,
    store: Option<&RunStore>,
    progress: Option<&RunProgress>,
    ckpt_every: u64,
) -> (RunResult, bool) {
    let (run, resumed, _) = run_streamed(build, key, label, store, progress, ckpt_every, None);
    (run, resumed)
}

/// How the simulations of one [`resolve`] call used the store's event
/// streams. Volatile: cold and warm calls differ, so these counts go to
/// progress reports only, never into a [`RunResult`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamCounts {
    /// Runs that recorded every core's stream.
    pub recorded: u64,
    /// Runs that replayed every core's stream.
    pub replayed: u64,
    /// Streams found damaged — refused when opened, or failing to decode
    /// mid-run — and quarantined; their runs went live.
    pub fallback: u64,
}

impl std::ops::AddAssign for StreamCounts {
    fn add_assign(&mut self, o: StreamCounts) {
        self.recorded += o.recorded;
        self.replayed += o.replayed;
        self.fallback += o.fallback;
    }
}

/// Builds a simulator and, given a store and a stream key, feeds its
/// cores from the key's streams; the counts note a quarantined stream.
fn build_fed(
    build: &impl Fn() -> SystemSim,
    store: Option<&RunStore>,
    streams: Option<&str>,
    counts: &mut StreamCounts,
) -> (SystemSim, Option<Feeds>) {
    let mut sim = build();
    let feeds = match (store, streams) {
        (Some(s), Some(skey)) => {
            let (feeds, damaged) = s.attach_streams(&mut sim, skey);
            counts.fallback += u64::from(damaged);
            feeds
        }
        _ => None,
    };
    (sim, feeds)
}

/// [`run_with_recovery_every`], with every core fed from the streams
/// stored under `streams` when a store and a key are given. A replayed
/// stream that fails mid-run is quarantined with the run's checkpoint
/// trail, and the run is simulated again live.
fn run_streamed(
    build: impl Fn() -> SystemSim,
    key: &str,
    label: &str,
    store: Option<&RunStore>,
    progress: Option<&RunProgress>,
    ckpt_every: u64,
    mut streams: Option<&str>,
) -> (RunResult, bool, StreamCounts) {
    let mut counts = StreamCounts::default();
    loop {
        let (mut sim, mut feeds) = build_fed(&build, store, streams, &mut counts);
        let mut resumed = false;
        if ckpt_every > 0 {
            if let Some(s) = store {
                while let Some((epoch, bytes)) = s.load_latest_checkpoint(key) {
                    match sim.restore_state(&bytes) {
                        Ok(()) => {
                            if let Some(p) = progress {
                                p.epochs_done.store(epoch, Ordering::Relaxed);
                                p.ckpt_epoch.store(epoch, Ordering::Relaxed);
                                p.resumed.store(true, Ordering::Relaxed);
                            }
                            // Stderr only: stdout of a resumed run must stay
                            // byte-identical to an uninterrupted one.
                            eprintln!("[ckpt] resumed {label} from epoch {epoch}");
                            resumed = true;
                            break;
                        }
                        Err(e) => {
                            s.quarantine_checkpoint(key, epoch, &format!("{e:?}"));
                            // Restore may have partially mutated it.
                            (sim, feeds) = build_fed(&build, store, streams, &mut counts);
                        }
                    }
                }
            }
        }
        let mut on_epoch = |epoch: u64| {
            if let Some(p) = progress {
                p.epochs_done.store(epoch, Ordering::Relaxed);
            }
        };
        let mut on_checkpoint = |epoch: u64, blob: Vec<u8>| {
            if let Some(s) = store {
                if s.store_checkpoint(key, epoch, &blob) {
                    if let Some(p) = progress {
                        p.ckpt_epoch.store(epoch, Ordering::Relaxed);
                    }
                }
            }
        };
        let cores = sim.cores();
        // A restored live checkpoint leaves its cores live.
        let (replaying, recording) = sim.feeds();
        let outcome = sim.try_run_with_hooks(RunHooks {
            checkpoint_every: if store.is_some() { ckpt_every } else { 0 },
            on_epoch: Some(&mut on_epoch),
            on_checkpoint: Some(&mut on_checkpoint),
        });
        if let (Some(s), true) = (store, ckpt_every > 0) {
            s.remove_checkpoints(key);
        }
        match (outcome, store, streams) {
            (Ok(run), _, _) => {
                counts.replayed += u64::from(replaying == cores);
                if let Some(Feeds::Recording(committed)) = feeds {
                    let all = committed.load(Ordering::Relaxed) == cores as u64;
                    counts.recorded += u64::from(recording == cores && all);
                }
                return (run, resumed, counts);
            }
            (Err(e), Some(s), Some(skey)) => {
                // Only a replayed core fails, so the stream is at fault:
                // set it aside and answer the run live.
                eprintln!("[stream] {label}: {e}; simulating live");
                s.quarantine_streams(skey, &e.to_string());
                counts.fallback += 1;
                streams = None;
            }
            (Err(e), _, _) => unreachable!("a run without streams failed to replay: {e}"),
        }
    }
}

/// What to do with the workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RunAction {
    /// DDR-only profiling run.
    Profile,
    /// Static placement under a policy.
    Static(PlacementPolicy),
    /// Dynamic migration under a scheme.
    Migration(MigrationScheme),
    /// Programmer-annotated placement.
    Annotated,
}

/// A validated, executable run request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunSpec {
    /// The workload to run.
    pub workload: Workload,
    /// The kind of run and its policy/scheme, if any.
    pub action: RunAction,
}

impl RunSpec {
    /// Parses the `(workload, kind, policy)` triple of a client request.
    ///
    /// `kind` is one of `profile`, `static`, `migration`, `annotated`;
    /// `policy` names a [`PlacementPolicy`] for `static` runs and a
    /// [`MigrationScheme`] for `migration` runs (and must be empty
    /// otherwise). Errors are human-readable strings for 400 responses.
    pub fn parse(workload: &str, kind: &str, policy: &str) -> Result<RunSpec, String> {
        let wl = Workload::from_name(workload)
            .ok_or_else(|| format!("unknown workload '{workload}'"))?;
        let action = match kind {
            "profile" | "annotated" => {
                if !policy.is_empty() {
                    return Err(format!("kind '{kind}' takes no policy"));
                }
                if kind == "profile" {
                    RunAction::Profile
                } else {
                    RunAction::Annotated
                }
            }
            "static" => RunAction::Static(
                PlacementPolicy::from_name(policy)
                    .ok_or_else(|| format!("unknown placement policy '{policy}'"))?,
            ),
            "migration" => RunAction::Migration(
                MigrationScheme::from_name(policy)
                    .ok_or_else(|| format!("unknown migration scheme '{policy}'"))?,
            ),
            _ => return Err(format!("unknown run kind '{kind}'")),
        };
        Ok(RunSpec {
            workload: wl,
            action,
        })
    }

    /// The store kind of this spec.
    pub fn kind(&self) -> RunKind {
        match self.action {
            RunAction::Profile => RunKind::Profile,
            RunAction::Static(_) => RunKind::Static,
            RunAction::Migration(_) => RunKind::Migration,
            RunAction::Annotated => RunKind::Annotated,
        }
    }

    /// The policy/scheme label recorded in results and keys.
    pub fn policy_label(&self) -> String {
        match self.action {
            RunAction::Profile => PROFILE_POLICY.to_string(),
            RunAction::Static(p) => p.name(),
            RunAction::Migration(s) => s.name().to_string(),
            RunAction::Annotated => ANNOTATED_POLICY.to_string(),
        }
    }

    /// The content-addressed store key of this run under `cfg`.
    pub fn key(&self, cfg: &SystemConfig) -> String {
        run_key(cfg, self.kind(), self.workload.name(), &self.policy_label())
    }

    /// Executes the spec, serving from `store` when possible and
    /// persisting whatever had to be simulated: a one-job [`resolve`].
    /// Panics with the failure message if the run cannot be produced.
    pub fn execute(&self, cfg: &SystemConfig, store: Option<&RunStore>) -> RunResult {
        let resolution = resolve(&[(cfg, *self)], &Resolver::new(store), None, |_, _, f| {
            f.run.clone()
        });
        match resolution.jobs.into_iter().next() {
            Some(Ok(done)) => done.value,
            Some(Err(why)) => panic!("{}/{}: {why}", self.workload.name(), self.policy_label()),
            None => unreachable!("one job in, one report out"),
        }
    }
}

/// One unit of work for [`resolve`]: a run spec under its system config.
pub type Job<'a> = (&'a SystemConfig, RunSpec);

/// A finished run: the result plus, for an annotated run, the
/// annotation set it pinned.
#[derive(Clone, Debug)]
pub struct Finished {
    /// The simulation result.
    pub run: RunResult,
    /// The annotation set of an annotated run (`None` for other kinds).
    pub annotations: Option<AnnotationSet>,
}

/// Finished runs by store key: the in-memory tier a caller of
/// [`resolve`] may own. `resolve` reads it first and adds every job it
/// answers and every profile it simulates.
pub type Memo = HashMap<String, Arc<Finished>>;

/// Which tier answered a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// The caller's [`Memo`].
    Memo,
    /// The run store.
    Store,
    /// A fresh simulation.
    Simulated,
    /// A simulation that resumed from a checkpoint (the job's own run or
    /// the profile simulated for it).
    Resumed,
}

impl Tier {
    /// The tier's name in reports: `memo`, `store`, `simulated`, `resumed`.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Memo => "memo",
            Tier::Store => "store",
            Tier::Simulated => "simulated",
            Tier::Resumed => "resumed",
        }
    }
}

/// One job's answer from [`resolve`].
#[derive(Debug)]
pub struct Resolved<T> {
    /// Which tier answered.
    pub tier: Tier,
    /// `false` when a store write of this job's simulation (the run or
    /// the profile simulated for it) failed: the value is correct but
    /// lives in memory only.
    pub persisted: bool,
    /// What the caller's `finish` closure made of the run.
    pub value: T,
}

/// What one [`resolve`] call produced.
#[derive(Debug)]
pub struct Resolution<T> {
    /// Per job, in input order: its answer, or why it failed (a panic
    /// past the retry budget, or a skip because its profile failed).
    pub jobs: Vec<Result<Resolved<T>, String>>,
    /// DDR-only profiles simulated only as dependencies of other jobs.
    pub profile_sims: u64,
    /// How the call's simulations used the store's event streams.
    pub streams: StreamCounts,
}

/// A hook called at the start of every simulation attempt.
pub type OnSimulate<'a> = dyn Fn(&SystemConfig, RunSpec) + Sync + 'a;

/// How [`resolve`] executes its jobs.
pub struct Resolver<'a> {
    /// The run store consulted before simulating and written after.
    pub store: Option<&'a RunStore>,
    /// Worker threads for store lookups and simulations.
    pub threads: usize,
    /// Executor counters for the profile and simulation stages: one task
    /// per distinct profile pending jobs need (memo, store load or
    /// simulation) and one per other run simulated. The jobs' own store
    /// lookups are not executor tasks, so a fully warm call leaves them
    /// untouched.
    pub metrics: Option<&'a ExecMetrics>,
    /// Retry budget and `exec.task` fault injection of the profile and
    /// simulation stages.
    pub opts: TaskOptions,
    /// Called on the worker at the start of every simulation attempt,
    /// profiles included (the sweep's chaos site, the harness's
    /// progress lines).
    pub on_simulate: Option<&'a OnSimulate<'a>>,
    /// Live progress of the jobs' own simulations, for a one-job caller
    /// such as a server worker; profile phases leave it alone.
    pub progress: Option<&'a RunProgress>,
}

impl<'a> Resolver<'a> {
    /// One thread, no retries, no hooks.
    pub fn new(store: Option<&'a RunStore>) -> Self {
        Resolver {
            store,
            threads: 1,
            metrics: None,
            opts: TaskOptions::none(),
            on_simulate: None,
            progress: None,
        }
    }
}

/// A distinct DDR-only profile that pending jobs need: as a job of its
/// own, as the input their placements are derived from, or both.
struct Profile<'a> {
    job: Job<'a>,
    key: String,
    /// The pending profile jobs that share this key, if any.
    group: Option<usize>,
    /// The pending groups whose placements read this profile.
    dependents: Vec<usize>,
}

fn load(store: &RunStore, kind: RunKind, key: &str) -> Option<Finished> {
    match kind {
        RunKind::Annotated => store.load_annotated(key).map(|(run, set)| Finished {
            run,
            annotations: Some(set),
        }),
        _ => store.load_run(key).map(|run| Finished {
            run,
            annotations: None,
        }),
    }
}

/// The placement `spec` starts from, derived from its profile's `table`;
/// a profile starts from the empty one.
fn placement((cfg, spec): Job<'_>, table: &StatsTable) -> Placement {
    match spec.action {
        RunAction::Profile => Placement::default(),
        RunAction::Static(policy) => runner::static_placement(cfg, policy, table),
        RunAction::Migration(scheme) => runner::migration_placement(cfg, scheme, table),
        RunAction::Annotated => runner::annotated_placement(cfg, &spec.workload, table, None),
    }
}

/// Simulates one job from its placement with checkpoint recovery, fed
/// from its workload's event streams when there is a store, and persists
/// the result. Returns it with `(persisted, resumed)`; the stream counts
/// go to `streams`.
fn simulate(
    how: &Resolver<'_>,
    (cfg, spec): Job<'_>,
    key: &str,
    progress: Option<&RunProgress>,
    placement: &Placement,
    streams: &Mutex<StreamCounts>,
) -> (Finished, bool, bool) {
    if let Some(hook) = how.on_simulate {
        hook(cfg, spec);
    }
    let (wl, label) = (&spec.workload, spec.policy_label());
    let build = || {
        let engine = match spec.action {
            RunAction::Migration(scheme) => Some(MigrationEngine::new(scheme)),
            _ => None,
        };
        runner::build_sim(cfg, wl, label.as_str(), placement, engine)
    };
    let name = format!("{}/{label}", wl.name());
    let skey = stream_key(cfg, wl);
    let every = ckpt_epochs_from_env();
    let (run, resumed, counts) =
        run_streamed(build, key, &name, how.store, progress, every, Some(&skey));
    *streams.lock().expect("stream counts poisoned") += counts;
    let annotations = placement.annotations.clone();
    let persisted = match (how.store, &annotations) {
        (None, _) => true,
        (Some(s), Some(set)) => s.store_annotated(key, &run, set),
        (Some(s), None) => s.store_run(key, &run),
    };
    (Finished { run, annotations }, persisted, resumed)
}

fn simulated(resumed: bool) -> Tier {
    if resumed {
        Tier::Resumed
    } else {
        Tier::Simulated
    }
}

/// The one execution path of every run: the experiment harness, the
/// sweep engine and the server all resolve their jobs here.
///
/// Each job is answered by the first tier that has it:
/// 1. the caller's `memo`, when given;
/// 2. the store, with lookups fanned out over `how.threads`;
/// 3. a simulation on the [`ramp_sim::exec`] pool with checkpoint/resume
///    ([`run_with_recovery_every`]) and its workload's event streams
///    recorded or replayed, persisted with
///    [`RunStore::store_run`] or [`RunStore::store_annotated`].
///
/// Jobs that share a key simulate once. The rest run in two executor
/// stages. The first has one task per distinct DDR-only profile that
/// pending jobs are or read. It takes the profile from the memo, loads
/// it from the store once, or simulates it; an entry that fails to load
/// is simulated. The task answers the profile's own jobs, derives the
/// [`Placement`] of every run that reads it, and drops the table before
/// it returns. The second stage simulates those runs from their
/// placements alone. The dependents of a failed profile are skipped
/// with its failure.
///
/// `finish(job_index, key, run)` runs on the worker thread that loaded
/// or simulated the job, so a caller without a memo holds at most one
/// decoded job entry and one profile table per worker.
pub fn resolve<T, F>(
    jobs: &[Job<'_>],
    how: &Resolver<'_>,
    mut memo: Option<&mut Memo>,
    finish: F,
) -> Resolution<T>
where
    T: Send,
    F: Fn(usize, &str, &Finished) -> T + Sync,
{
    let keys: Vec<String> = jobs.iter().map(|(cfg, spec)| spec.key(cfg)).collect();
    let mut out: Vec<Option<Result<Resolved<T>, String>>> = jobs.iter().map(|_| None).collect();
    let keep = memo.is_some();
    let answer = |tier, persisted, value| {
        Some(Ok(Resolved {
            tier,
            persisted,
            value,
        }))
    };

    if let Some(m) = memo.as_deref() {
        for (i, key) in keys.iter().enumerate() {
            if let Some(f) = m.get(key) {
                out[i] = answer(Tier::Memo, true, finish(i, key, f));
            }
        }
    }
    if let Some(store) = how.store {
        let misses: Vec<usize> = (0..jobs.len()).filter(|&i| out[i].is_none()).collect();
        let hits = parallel_map(how.threads, misses.clone(), |_, &i| {
            let f = load(store, jobs[i].1.kind(), &keys[i])?;
            Some((finish(i, &keys[i], &f), keep.then_some(f)))
        });
        for (i, hit) in misses.into_iter().zip(hits) {
            if let Some((value, f)) = hit {
                out[i] = answer(Tier::Store, true, value);
                if let (Some(m), Some(f)) = (memo.as_deref_mut(), f) {
                    m.insert(keys[i].clone(), Arc::new(f));
                }
            }
        }
    }

    // The rest simulates: one group per distinct key, and one entry per
    // distinct DDR-only profile the groups are or read.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of: HashMap<&str, usize> = HashMap::new();
    for i in (0..jobs.len()).filter(|&i| out[i].is_none()) {
        let g = *group_of.entry(&keys[i]).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(i);
    }
    let mut profiles: Vec<Profile<'_>> = Vec::new();
    let mut profile_of: HashMap<String, usize> = HashMap::new();
    for (g, members) in groups.iter().enumerate() {
        let (cfg, spec) = jobs[members[0]];
        let job = (
            cfg,
            RunSpec {
                action: RunAction::Profile,
                ..spec
            },
        );
        let key = job.1.key(cfg);
        let p = *profile_of.entry(key.clone()).or_insert_with(|| {
            profiles.push(Profile {
                job,
                key,
                group: None,
                dependents: Vec::new(),
            });
            profiles.len() - 1
        });
        match spec.action {
            RunAction::Profile => profiles[p].group = Some(g),
            _ => profiles[p].dependents.push(g),
        }
    }

    let scratch = ExecMetrics::new();
    let metrics = how.metrics.unwrap_or(&scratch);
    let streams = Mutex::new(StreamCounts::default());
    let cached = memo.as_deref();
    let results = try_parallel_map_metrics(
        how.threads,
        profiles.iter().collect(),
        metrics,
        None,
        &how.opts,
        |_, profile| {
            let found = match profile.group {
                // Its own job already missed the memo and the store.
                Some(_) => None,
                None => cached
                    .and_then(|m| m.get(&profile.key))
                    .cloned()
                    .or_else(|| {
                        let f = load(how.store?, RunKind::Profile, &profile.key)?;
                        Some(Arc::new(f))
                    }),
            };
            let (f, sim) = match found {
                Some(f) => (f, None),
                None => {
                    let progress = profile.group.and(how.progress);
                    let ddr_only = Placement::default();
                    let (f, persisted, resumed) = simulate(
                        how,
                        profile.job,
                        &profile.key,
                        progress,
                        &ddr_only,
                        &streams,
                    );
                    (Arc::new(f), Some((persisted, resumed)))
                }
            };
            let values: Vec<T> = profile.group.map_or(Vec::new(), |g| {
                groups[g]
                    .iter()
                    .map(|&i| finish(i, &profile.key, &f))
                    .collect()
            });
            let placements: Vec<Placement> = (profile.dependents.iter())
                .map(|&g| placement(jobs[groups[g][0]], &f.run.table))
                .collect();
            let f = (keep && sim.is_some()).then_some(f);
            (values, sim, placements, f)
        },
    );
    let mut profile_sims = 0;
    let mut runs: Vec<(usize, Placement, (bool, bool))> = Vec::new();
    for (profile, result) in profiles.iter().zip(results) {
        let members = profile.group.map_or(&[][..], |g| &groups[g]);
        match result {
            Ok((values, sim, placements, f)) => {
                let (persisted, resumed) = sim.unwrap_or((true, false));
                for (&i, value) in members.iter().zip(values) {
                    out[i] = answer(simulated(resumed), persisted, value);
                }
                profile_sims += u64::from(sim.is_some() && profile.group.is_none());
                if let (Some(m), Some(f)) = (memo.as_deref_mut(), f) {
                    m.insert(profile.key.clone(), f);
                }
                let state = (persisted, resumed);
                runs.extend(
                    profile
                        .dependents
                        .iter()
                        .zip(placements)
                        .map(|(&g, p)| (g, p, state)),
                );
            }
            Err(e) => {
                for &i in members {
                    out[i] = Some(Err(e.to_string()));
                }
                let wl = profile.job.1.workload.name();
                let why = format!("skipped: profile {wl}/{PROFILE_POLICY} failed: {e}");
                for &i in profile.dependents.iter().flat_map(|&g| &groups[g]) {
                    out[i] = Some(Err(why.clone()));
                }
            }
        }
    }

    // The runs that read a profile, from their placements alone.
    let results = try_parallel_map_metrics(
        how.threads,
        runs.iter().collect(),
        metrics,
        None,
        &how.opts,
        |_, &&(g, ref placement, _)| {
            let (job, key) = (jobs[groups[g][0]], &keys[groups[g][0]]);
            let (f, persisted, resumed) =
                simulate(how, job, key, how.progress, placement, &streams);
            let values: Vec<T> = groups[g].iter().map(|&i| finish(i, key, &f)).collect();
            (values, persisted, resumed, keep.then(|| Arc::new(f)))
        },
    );
    for (&(g, _, (profile_persisted, profile_resumed)), result) in runs.iter().zip(results) {
        match result {
            Ok((values, persisted, resumed, f)) => {
                for (&i, value) in groups[g].iter().zip(values) {
                    let tier = simulated(resumed || profile_resumed);
                    out[i] = answer(tier, persisted && profile_persisted, value);
                }
                if let (Some(m), Some(f)) = (memo.as_deref_mut(), f) {
                    m.insert(keys[groups[g][0]].clone(), f);
                }
            }
            Err(e) => {
                for &i in &groups[g] {
                    out[i] = Some(Err(e.to_string()));
                }
            }
        }
    }

    let jobs = out
        .into_iter()
        .map(|r| r.expect("every job is answered"))
        .collect();
    Resolution {
        jobs,
        profile_sims,
        streams: streams.into_inner().expect("stream counts poisoned"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn parse_accepts_all_kinds() {
        assert_eq!(
            RunSpec::parse("lbm", "profile", "").unwrap().action,
            RunAction::Profile
        );
        assert_eq!(
            RunSpec::parse("lbm", "static", "perf-focused")
                .unwrap()
                .action,
            RunAction::Static(PlacementPolicy::PerfFocused)
        );
        assert_eq!(
            RunSpec::parse("mcf", "migration", "rel-fc").unwrap().action,
            RunAction::Migration(MigrationScheme::RelFc)
        );
        assert_eq!(
            RunSpec::parse("mcf", "annotated", "").unwrap().action,
            RunAction::Annotated
        );
        assert!(matches!(
            RunSpec::parse("lbm", "static", "frac-hottest-0.25").unwrap().action,
            RunAction::Static(PlacementPolicy::FracHottest(f)) if (f - 0.25).abs() < 1e-12
        ));
    }

    #[test]
    fn parse_rejects_bad_triples() {
        assert!(RunSpec::parse("nope", "profile", "").is_err());
        assert!(RunSpec::parse("lbm", "profile", "perf-focused").is_err());
        assert!(RunSpec::parse("lbm", "static", "").is_err());
        assert!(RunSpec::parse("lbm", "static", "rel-fc").is_err());
        assert!(RunSpec::parse("lbm", "migration", "perf-focused").is_err());
        assert!(RunSpec::parse("lbm", "sweep", "x").is_err());
    }

    #[test]
    fn execute_hits_store_on_second_call() {
        let store = crate::store::testutil::test_store();
        let cfg = SystemConfig {
            insts_per_core: 20_000,
            ..SystemConfig::smoke_test()
        };
        let spec = RunSpec::parse("lbm", "static", "perf-focused").unwrap();
        let cold = spec.execute(&cfg, Some(&store));
        // Cold run persisted the profile and the static run.
        assert_eq!(store.metrics().writes.load(Ordering::Relaxed), 2);
        let warm = spec.execute(&cfg, Some(&store));
        assert_eq!(store.metrics().hits.load(Ordering::Relaxed), 1);
        assert_eq!(store.metrics().writes.load(Ordering::Relaxed), 2);
        assert_eq!(cold.ipc.to_bits(), warm.ipc.to_bits());
        assert_eq!(cold.telemetry, warm.telemetry);
        // The cached profile also serves other policies' dependency.
        let other = RunSpec::parse("lbm", "static", "rel-focused").unwrap();
        other.execute(&cfg, Some(&store));
        assert_eq!(store.metrics().hits.load(Ordering::Relaxed), 2);
    }
}
