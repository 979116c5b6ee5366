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
//! - a profile that panics fails its dependents as skips, and nothing
//!   reaches the store.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ramp::avf::StatsTable;
use ramp::core::config::SystemConfig;
use ramp::core::migration::MigrationScheme;
use ramp::core::placement::PlacementPolicy;
use ramp::core::system::RunResult;
use ramp::serve::spec::{resolve, Job, Memo, Resolver, RunAction, RunSpec, Tier, PROFILE_POLICY};
use ramp::serve::store::RunStore;
use ramp::serve::wire::encode_run;
use ramp::sim::chaos::Chaos;
use ramp::sim::exec::{ExecMetrics, TaskOptions};
use ramp::trace::{Benchmark, Workload};

const LBM: Workload = Workload::Homogeneous(Benchmark::Lbm);

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
