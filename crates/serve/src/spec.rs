//! Parsed run requests and the one path that executes them.
//!
//! A [`RunSpec`] is the validated form of a client request ("run `lbm`
//! under the `perf-focused` static policy"). [`resolve`] is the single
//! choke point between every front end and the simulator: the
//! experiment harness, the sweep engine and the server hand it
//! `(config, spec)` jobs. It answers each job from the caller's memo or
//! the [`RunStore`] when it can, simulates only what is missing (each
//! distinct DDR-only profile once, ahead of the runs that read its
//! table), persists what it simulated, and reports which tier answered.
//! [`RunSpec::execute`] is a one-job `resolve`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ramp_avf::StatsTable;
use ramp_core::annotate::AnnotationSet;
use ramp_core::config::SystemConfig;
use ramp_core::migration::MigrationScheme;
use ramp_core::placement::PlacementPolicy;
use ramp_core::runner;
use ramp_core::system::{RunHooks, RunResult, SystemSim};
use ramp_sim::exec::{parallel_map, try_parallel_map_metrics, ExecMetrics, TaskOptions};
use ramp_trace::Workload;

use crate::store::{run_key, RunKind, RunStore};

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

/// Runs `build()`'s simulator to completion with epoch-granular
/// checkpointing into `store` under `key`, resuming from the newest
/// restorable checkpoint when one exists.
///
/// Torn or corrupt segments are filtered (and quarantined) by
/// [`RunStore::load_latest_checkpoint`]; a segment that *frames*
/// cleanly but fails to restore — e.g. one written for a different run
/// — is quarantined here and the walk falls back further, so worst
/// case the run simply starts cold. On completion the run's checkpoint
/// trail is removed. Returns the result and whether the run resumed.
///
/// [`resolve`] runs every simulation through it, so any process that
/// can reach the run store gets kill-and-resume for free.
pub fn run_with_recovery(
    build: impl Fn() -> SystemSim,
    key: &str,
    label: &str,
    store: Option<&RunStore>,
    progress: Option<&RunProgress>,
) -> (RunResult, bool) {
    run_with_recovery_every(build, key, label, store, progress, ckpt_epochs_from_env())
}

/// [`run_with_recovery`] with an explicit checkpoint interval instead of
/// the environment knob (0 disables checkpointing). The recovery test
/// suite uses this to exercise kill/resume without mutating process env.
pub fn run_with_recovery_every(
    build: impl Fn() -> SystemSim,
    key: &str,
    label: &str,
    store: Option<&RunStore>,
    progress: Option<&RunProgress>,
    ckpt_every: u64,
) -> (RunResult, bool) {
    let mut sim = build();
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
                        sim = build(); // restore may have partially mutated it
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
    let run = sim.run_with_hooks(RunHooks {
        checkpoint_every: if store.is_some() { ckpt_every } else { 0 },
        on_epoch: Some(&mut on_epoch),
        on_checkpoint: Some(&mut on_checkpoint),
    });
    if ckpt_every > 0 {
        if let Some(s) = store {
            s.remove_checkpoints(key);
        }
    }
    (run, resumed)
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
}

/// A hook called at the start of every simulation attempt.
pub type OnSimulate<'a> = dyn Fn(&SystemConfig, RunSpec) + Sync + 'a;

/// How [`resolve`] executes its jobs.
pub struct Resolver<'a> {
    /// The run store consulted before simulating and written after.
    pub store: Option<&'a RunStore>,
    /// Worker threads for store lookups and simulations.
    pub threads: usize,
    /// Executor counters for the simulation stages (store lookups are
    /// not executor tasks, so a fully warm call leaves them untouched).
    pub metrics: Option<&'a ExecMetrics>,
    /// Retry budget and `exec.task` fault injection of the simulation
    /// stages.
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
/// own, as the table their placement reads, or both.
struct Profile<'a> {
    job: Job<'a>,
    key: String,
    /// The pending profile jobs that share this key, if any.
    group: Option<usize>,
    /// Dependent runs not yet simulated; the last one releases `held`.
    users: AtomicUsize,
    /// The profile, when the call keeps it in memory for its dependents.
    held: Mutex<Option<Arc<Finished>>>,
    /// `(persisted, resumed)` of this call's simulation of it, or why it
    /// could not be had.
    state: Result<(bool, bool), String>,
}

impl Profile<'_> {
    /// The profile for one dependent: the held one, or else a copy of
    /// its own decoded on the dependent's worker. An entry that fails to
    /// load (damaged, or an injected read fault) is simulated again.
    fn acquire(&self, how: &Resolver<'_>) -> Arc<Finished> {
        if let Some(f) = self.held.lock().unwrap_or_else(|e| e.into_inner()).as_ref() {
            return Arc::clone(f);
        }
        Arc::new(match how.store.and_then(|s| s.load_run(&self.key)) {
            Some(run) => Finished {
                run,
                annotations: None,
            },
            None => simulate(how, self.job, &self.key, None, None).0,
        })
    }

    fn release(&self) {
        if self.users.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.held.lock().unwrap_or_else(|e| e.into_inner()).take();
        }
    }
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

/// Simulates one job through [`run_with_recovery`] — placements read the
/// profile `table`, which a profile job does not have — and persists the
/// result. Returns it with `(persisted, resumed)`.
fn simulate(
    how: &Resolver<'_>,
    (cfg, spec): Job<'_>,
    key: &str,
    progress: Option<&RunProgress>,
    table: Option<&StatsTable>,
) -> (Finished, bool, bool) {
    if let Some(hook) = how.on_simulate {
        hook(cfg, spec);
    }
    let wl = &spec.workload;
    let table = || table.expect("placement runs read a profile");
    let annotations = (spec.action == RunAction::Annotated)
        .then(|| runner::build_annotated_sim(cfg, wl, table()).1);
    let build = || match spec.action {
        RunAction::Profile => runner::build_profile_sim(cfg, wl),
        RunAction::Static(policy) => runner::build_static_sim(cfg, wl, policy, table()),
        RunAction::Migration(scheme) => runner::build_migration_sim(cfg, wl, scheme, table()),
        RunAction::Annotated => runner::build_annotated_sim(cfg, wl, table()).0,
    };
    let label = format!("{}/{}", wl.name(), spec.policy_label());
    let (run, resumed) = run_with_recovery(build, key, &label, how.store, progress);
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
/// 3. a simulation on the [`ramp_sim::exec`] pool through
///    [`run_with_recovery`] (checkpoint/resume), persisted with
///    [`RunStore::store_run`] or [`RunStore::store_annotated`].
///
/// Jobs that share a key simulate once. Each distinct DDR-only profile
/// that pending jobs are or read is taken from the memo or the store, or
/// is simulated once in a stage of its own before its dependents run,
/// which run grouped by it. The dependents of a failed profile are
/// skipped with its failure.
///
/// `finish(job_index, key, run)` runs on the worker thread that loaded
/// or simulated the job, so a caller without a memo holds at most one
/// decoded job entry per worker. For the same reason, a profile found in
/// the store is decoded by each dependent on its own worker. One
/// simulated here is held for its dependents, and released by the last
/// of them, when the caller keeps a memo, when it cannot be reloaded, or
/// when no more profiles than workers would be held; otherwise each
/// dependent reloads it too.
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
    let mut dependents: Vec<(usize, usize)> = Vec::new();
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
            let (users, held) = (AtomicUsize::new(0), Mutex::new(None));
            let state = Ok((true, false));
            profiles.push(Profile {
                job,
                key,
                group: None,
                users,
                held,
                state,
            });
            profiles.len() - 1
        });
        if spec.action == RunAction::Profile {
            profiles[p].group = Some(g);
        } else {
            *profiles[p].users.get_mut() += 1;
            dependents.push((g, p));
        }
    }

    // Profiles read but not asked for: the memo's copy is shared, one in
    // the store is decoded by each dependent on its own worker, and the
    // rest simulate below.
    let mut to_simulate: Vec<usize> = Vec::new();
    for (p, profile) in profiles.iter_mut().enumerate() {
        if let Some(f) = memo.as_deref().and_then(|m| m.get(&profile.key)) {
            *profile
                .held
                .get_mut()
                .expect("no worker locks a profile between stages") = Some(Arc::clone(f));
        } else if profile.group.is_some()
            || !how.store.is_some_and(|s| s.contains_run(&profile.key))
        {
            to_simulate.push(p);
        }
    }
    // A simulated profile stays in memory for its dependents when the
    // caller keeps a memo (it is there anyway), when it cannot be
    // reloaded, or when this stage holds no more profiles than there are
    // workers; otherwise each dependent decodes its own copy. Holding all
    // of them took a cold 288-point sweep (24 profiles, 2 workers) from
    // ~21 MB to ~49 MB peak RSS.
    let needed = to_simulate
        .iter()
        .filter(|&&p| *profiles[p].users.get_mut() > 0)
        .count();
    let hold_all = keep || how.store.is_none() || needed <= how.threads.max(1);
    let scratch = ExecMetrics::new();
    let metrics = how.metrics.unwrap_or(&scratch);
    let results = try_parallel_map_metrics(
        how.threads,
        to_simulate.clone(),
        metrics,
        None,
        &how.opts,
        |_, &p| {
            let profile = &profiles[p];
            let progress = profile.group.and(how.progress);
            let (f, persisted, resumed) = simulate(how, profile.job, &profile.key, progress, None);
            let values: Vec<T> = profile.group.map_or(Vec::new(), |g| {
                groups[g]
                    .iter()
                    .map(|&i| finish(i, &profile.key, &f))
                    .collect()
            });
            let hold = profile.users.load(Ordering::SeqCst) > 0 && (hold_all || !persisted);
            (
                values,
                persisted,
                resumed,
                (keep || hold).then(|| Arc::new(f)),
            )
        },
    );
    let mut profile_sims = 0;
    for (p, result) in to_simulate.into_iter().zip(results) {
        let profile = &mut profiles[p];
        let members = profile.group.map_or(&[][..], |g| &groups[g]);
        match result {
            Ok((values, persisted, resumed, f)) => {
                profile.state = Ok((persisted, resumed));
                for (&i, value) in members.iter().zip(values) {
                    out[i] = answer(simulated(resumed), persisted, value);
                }
                profile_sims += u64::from(profile.group.is_none());
                if let (Some(m), Some(f)) = (memo.as_deref_mut(), &f) {
                    m.insert(profile.key.clone(), Arc::clone(f));
                }
                if *profile.users.get_mut() > 0 {
                    *profile
                        .held
                        .get_mut()
                        .expect("no worker locks a profile between stages") = f;
                }
            }
            Err(e) => {
                for &i in members {
                    out[i] = Some(Err(e.to_string()));
                }
                let wl = profile.job.1.workload.name();
                profile.state = Err(format!("profile {wl}/{PROFILE_POLICY} failed: {e}"));
            }
        }
    }

    // The runs that read a profile, grouped by it so that each profile
    // is in memory only while its dependents run.
    dependents.retain(|&(g, p)| match &profiles[p].state {
        Ok(_) => true,
        Err(why) => {
            for &i in &groups[g] {
                out[i] = Some(Err(format!("skipped: {why}")));
            }
            false
        }
    });
    dependents.sort_by_key(|&(_, p)| p);
    let results = try_parallel_map_metrics(
        how.threads,
        dependents.clone(),
        metrics,
        None,
        &how.opts,
        |_, &(g, p)| {
            let (job, key) = (jobs[groups[g][0]], &keys[groups[g][0]]);
            let profile = profiles[p].acquire(how);
            let (f, persisted, resumed) =
                simulate(how, job, key, how.progress, Some(&profile.run.table));
            drop(profile);
            profiles[p].release();
            let values: Vec<T> = groups[g].iter().map(|&i| finish(i, key, &f)).collect();
            (values, persisted, resumed, keep.then(|| Arc::new(f)))
        },
    );
    for ((g, p), result) in dependents.into_iter().zip(results) {
        match result {
            Ok((values, persisted, resumed, f)) => {
                let (profile_persisted, profile_resumed) = profiles[p]
                    .state
                    .clone()
                    .expect("the dependents of a failed profile were skipped");
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
    Resolution { jobs, profile_sims }
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
