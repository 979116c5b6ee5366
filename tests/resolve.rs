//! The one execution path: `resolve` answers each `(config, spec)` job
//! from the caller's memo, the run store or a simulation, simulates each
//! DDR-only profile at most once per call, and reports which tier
//! answered. Pinned at smoke budget:
//!
//! - a cold pass over every run kind (plus a second FC interval)
//!   simulates and persists everything; a warm pass through a new store
//!   handle is answered by the store alone, byte for byte, and a memo
//!   pass by the memo alone;
//! - without a store, runs that read one profile simulate it once;
//! - with one, a cold call loads each stored profile once, and a stored
//!   profile that does not decode is quarantined and simulated once;
//! - a profile that panics fails its dependents as skips, and nothing
//!   reaches the store.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ramp::avf::StatsTable;
use ramp::core::config::SystemConfig;
use ramp::core::migration::MigrationScheme;
use ramp::core::placement::PlacementPolicy;
use ramp::core::runner::profile_workload;
use ramp::core::system::RunResult;
use ramp::serve::spec::{resolve, Job, Memo, Resolver, RunAction, RunSpec, Tier, PROFILE_POLICY};
use ramp::serve::store::RunStore;
use ramp::serve::wire::encode_run;
use ramp::sim::chaos::Chaos;
use ramp::sim::exec::{ExecMetrics, TaskOptions};
use ramp::trace::{Benchmark, Workload};

const LBM: Workload = Workload::Homogeneous(Benchmark::Lbm);
const MCF: Workload = Workload::Homogeneous(Benchmark::Mcf);

fn smoke() -> SystemConfig {
    SystemConfig {
        insts_per_core: 20_000,
        ..SystemConfig::smoke_test()
    }
}

fn spec(action: RunAction) -> RunSpec {
    RunSpec {
        workload: LBM,
        action,
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ramp-resolve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `run` encoded as the store keeps it: table rows for DDR-only runs
/// only, `total_cycles` for every run.
fn persisted_bytes(run: &RunResult) -> Vec<u8> {
    let rows = match run.policy == PROFILE_POLICY {
        true => run.table.pages().to_vec(),
        false => Vec::new(),
    };
    encode_run(&RunResult {
        table: StatsTable::from_stats(rows, run.table.total_cycles()),
        ..run.clone()
    })
}

fn writes_misses_hits(store: &RunStore) -> (u64, u64, u64) {
    let m = store.metrics();
    (
        m.writes.load(Ordering::Relaxed),
        m.misses.load(Ordering::Relaxed),
        m.hits.load(Ordering::Relaxed),
    )
}

#[test]
fn warm_pass_is_served_by_the_store_with_identical_bytes() {
    let base = smoke();
    let faster = SystemConfig {
        fc_interval_cycles: base.fc_interval_cycles / 4,
        ..base.clone()
    };
    let jobs: Vec<Job<'_>> = vec![
        (&base, spec(RunAction::Profile)),
        (&base, spec(RunAction::Static(PlacementPolicy::PerfFocused))),
        (&base, spec(RunAction::Migration(MigrationScheme::PerfFc))),
        (&faster, spec(RunAction::Migration(MigrationScheme::PerfFc))),
        (&base, spec(RunAction::Annotated)),
    ];
    let dir = scratch("warm");
    let bytes = |i: usize, _: &str, f: &ramp::serve::spec::Finished| {
        assert_eq!(f.annotations.is_some(), i == 4, "job {i}: annotation set");
        persisted_bytes(&f.run)
    };

    let store = RunStore::open(&dir).unwrap();
    let metrics = ExecMetrics::new();
    let how = Resolver {
        threads: 2,
        metrics: Some(&metrics),
        ..Resolver::new(Some(&store))
    };
    let cold = resolve(&jobs, &how, None, bytes);
    // The second interval reads a profile of its own config.
    assert_eq!(cold.profile_sims, 1);
    let cold: Vec<Vec<u8>> = cold
        .jobs
        .into_iter()
        .map(|r| {
            let done = r.expect("cold job fails");
            assert_eq!((done.tier, done.persisted), (Tier::Simulated, true));
            done.value
        })
        .collect();
    assert_eq!(writes_misses_hits(&store).0, 6, "five runs and one profile");
    assert_ne!(cold[2], cold[3], "the FC interval changed nothing");
    drop(store);

    let store = RunStore::open(&dir).unwrap();
    let metrics = ExecMetrics::new();
    let how = Resolver {
        threads: 2,
        metrics: Some(&metrics),
        ..Resolver::new(Some(&store))
    };
    let mut memo = Memo::new();
    let warm = resolve(&jobs, &how, Some(&mut memo), bytes);
    assert_eq!(warm.profile_sims, 0);
    for (i, r) in warm.jobs.into_iter().enumerate() {
        let done = r.expect("warm job fails");
        assert_eq!((done.tier, done.persisted), (Tier::Store, true), "job {i}");
        assert_eq!(done.value, cold[i], "job {i}: warm bytes differ");
    }
    assert_eq!(writes_misses_hits(&store), (0, 0, jobs.len() as u64));
    assert_eq!(metrics.total.load(Ordering::Relaxed), 0, "executor ran");

    let again = resolve(&jobs, &how, Some(&mut memo), bytes);
    for (i, r) in again.jobs.into_iter().enumerate() {
        let done = r.expect("memo job fails");
        assert_eq!(done.tier, Tier::Memo, "job {i}");
        assert_eq!(done.value, cold[i], "job {i}: memo bytes differ");
    }
    assert_eq!(writes_misses_hits(&store), (0, 0, jobs.len() as u64));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn storeless_runs_simulate_their_profile_once() {
    let cfg = smoke();
    let jobs: Vec<Job<'_>> = [
        PlacementPolicy::PerfFocused,
        PlacementPolicy::RelFocused,
        PlacementPolicy::Balanced,
    ]
    .map(|p| (&cfg, spec(RunAction::Static(p))))
    .to_vec();
    let profiles = AtomicUsize::new(0);
    let count = |_: &SystemConfig, s: RunSpec| {
        if s.action == RunAction::Profile {
            profiles.fetch_add(1, Ordering::SeqCst);
        }
    };
    let how = Resolver {
        threads: 2,
        on_simulate: Some(&count),
        ..Resolver::new(None)
    };
    let resolution = resolve(&jobs, &how, None, |_, _, f| f.run.ipc);
    assert_eq!(profiles.load(Ordering::SeqCst), 1);
    assert_eq!(resolution.profile_sims, 1);
    for r in resolution.jobs {
        let done = r.expect("store-less job fails");
        assert_eq!((done.tier, done.persisted), (Tier::Simulated, true));
        assert!(done.value > 0.0);
    }
}

/// Static jobs of `workloads` under `policies`, workload-major.
fn statics<'a>(
    cfg: &'a SystemConfig,
    workloads: &[Workload],
    policies: &[PlacementPolicy],
) -> Vec<Job<'a>> {
    let spec = |workload, p| RunSpec {
        workload,
        action: RunAction::Static(p),
    };
    (workloads.iter())
        .flat_map(|&w| policies.iter().map(move |&p| (cfg, spec(w, p))))
        .collect()
}

/// Every job's full `encode_run` bytes, in input order.
fn encoded(jobs: &[Job<'_>], how: &Resolver<'_>) -> (Vec<Vec<u8>>, u64) {
    let resolution = resolve(jobs, how, None, |_, _, f| encode_run(&f.run));
    let bytes = (resolution.jobs.into_iter())
        .map(|r| {
            let done = r.expect("job fails");
            assert_eq!((done.tier, done.persisted), (Tier::Simulated, true));
            done.value
        })
        .collect();
    (bytes, resolution.profile_sims)
}

#[test]
fn cold_call_loads_each_stored_profile_once() {
    let cfg = smoke();
    let dir = scratch("profiles");
    let profiles: Vec<Job<'_>> = [LBM, MCF]
        .map(|workload| {
            let action = RunAction::Profile;
            (&cfg, RunSpec { workload, action })
        })
        .to_vec();
    let store = RunStore::open(&dir).unwrap();
    resolve(&profiles, &Resolver::new(Some(&store)), None, |_, _, _| ());
    drop(store);

    let policies = [
        PlacementPolicy::PerfFocused,
        PlacementPolicy::RelFocused,
        PlacementPolicy::Balanced,
        PlacementPolicy::Wr2Ratio,
    ];
    let jobs = statics(&cfg, &[LBM, MCF], &policies);
    let store = RunStore::open(&dir).unwrap();
    let how = |store| Resolver {
        threads: 2,
        ..Resolver::new(store)
    };
    let (served, sims) = encoded(&jobs, &how(Some(&store)));
    assert_eq!(sims, 0);
    assert_eq!(
        writes_misses_hits(&store),
        (8, 8, 2),
        "one load per profile"
    );
    let (fresh, sims) = encoded(&jobs, &how(None));
    assert_eq!(sims, 2);
    assert!(served == fresh, "runs from stored profiles differ");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_stored_profile_is_simulated_once_and_counted() {
    let cfg = smoke();
    let policies = [
        PlacementPolicy::PerfFocused,
        PlacementPolicy::RelFocused,
        PlacementPolicy::Balanced,
    ];
    let jobs = statics(&cfg, &[LBM], &policies);
    let profiles = AtomicUsize::new(0);
    let count = |_: &SystemConfig, s: RunSpec| {
        if s.action == RunAction::Profile {
            profiles.fetch_add(1, Ordering::SeqCst);
        }
    };
    let how = |store| Resolver {
        threads: 2,
        on_simulate: Some(&count),
        ..Resolver::new(store)
    };
    let clean_dir = scratch("clean");
    let clean_store = RunStore::open(&clean_dir).unwrap();
    let (clean, _) = encoded(&jobs, &how(Some(&clean_store)));
    profiles.store(0, Ordering::SeqCst);

    // A profile entry that exists but does not decode: cut in half.
    let dir = scratch("damaged");
    let store = RunStore::open(&dir).unwrap();
    let key = spec(RunAction::Profile).key(&cfg);
    assert!(store.store_run(&key, &profile_workload(&cfg, &LBM)));
    let entry = (std::fs::read_dir(&dir).unwrap())
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "run"))
        .expect("the profile entry");
    let bytes = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();

    let (damaged, sims) = encoded(&jobs, &how(Some(&store)));
    assert_eq!(profiles.load(Ordering::SeqCst), 1, "profile simulations");
    assert_eq!(sims, 1);
    assert_eq!(store.metrics().quarantined.load(Ordering::Relaxed), 1);
    assert!(
        damaged == clean,
        "runs over the re-simulated profile differ"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&clean_dir);
}

#[test]
fn failed_profile_skips_its_dependent_and_writes_nothing() -> Result<(), String> {
    let cfg = smoke();
    let dir = scratch("chaos");
    let store = RunStore::open(&dir).unwrap();
    let how = Resolver {
        opts: TaskOptions {
            retries: 0,
            chaos: Some(Arc::new(Chaos::parse("1:panic=1.0")?)),
        },
        ..Resolver::new(Some(&store))
    };
    let jobs = [(&cfg, spec(RunAction::Static(PlacementPolicy::PerfFocused)))];
    let resolution = resolve(&jobs, &how, None, |_, _, _| ());
    assert_eq!(resolution.profile_sims, 0);
    let why = resolution.jobs[0].as_ref().expect_err("the static job ran");
    assert!(
        why.starts_with("skipped: profile lbm/ddr-only failed: ") && why.contains("panicked"),
        "{why}"
    );
    assert_eq!(writes_misses_hits(&store).0, 0, "a failed job persisted");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
