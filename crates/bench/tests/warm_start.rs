//! Warm-start contract of the harness + run store: a second harness
//! pointed at the same store directory must serve every run from disk —
//! zero simulations, bit-identical results — and a config change must
//! miss rather than serve a stale entry.

use std::sync::atomic::Ordering;

use ramp_bench::{specs, Harness};
use ramp_core::config::SystemConfig;
use ramp_core::migration::MigrationScheme;
use ramp_core::placement::PlacementPolicy;
use ramp_serve::spec::RunAction;
use ramp_serve::store::RunStore;
use ramp_trace::{Benchmark, Workload};

fn tiny() -> SystemConfig {
    SystemConfig {
        insts_per_core: 20_000,
        ..SystemConfig::smoke_test()
    }
}

/// A harness over a scratch store directory with a fast config; no
/// environment mutation, so tests stay parallel-safe.
fn harness(dir: &std::path::Path) -> Harness {
    let mut h = Harness::with_store(Some(RunStore::open(dir).unwrap()));
    h.cfg = tiny();
    h.threads = 2;
    h
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ramp-warm-start-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn counters(h: &Harness) -> (u64, u64, u64) {
    let m = h.store().unwrap().metrics();
    (
        m.hits.load(Ordering::Relaxed),
        m.misses.load(Ordering::Relaxed),
        m.writes.load(Ordering::Relaxed),
    )
}

#[test]
fn warm_harness_performs_zero_simulations() {
    let dir = scratch("zero-sim");
    let wl = Workload::Homogeneous(Benchmark::Lbm);

    // Cold: simulate a profile + static + migration and persist them.
    let mut cold = harness(&dir);
    cold.prewarm(&specs(
        &[wl],
        &[RunAction::Static(PlacementPolicy::PerfFocused)],
    ));
    let cold_static = cold.static_run(&wl, PlacementPolicy::PerfFocused);
    let cold_mig = cold.migration_run(&wl, MigrationScheme::RelFc);
    let (hits, _, writes) = counters(&cold);
    assert_eq!(hits, 0, "cold harness found a pre-existing entry");
    assert_eq!(writes, 3, "profile + static + migration persisted");

    // Warm: a fresh harness over the same directory must not simulate.
    let mut warm = harness(&dir);
    warm.prewarm(&specs(
        &[wl],
        &[RunAction::Static(PlacementPolicy::PerfFocused)],
    ));
    let warm_static = warm.static_run(&wl, PlacementPolicy::PerfFocused);
    let warm_mig = warm.migration_run(&wl, MigrationScheme::RelFc);
    let warm_profile = warm.profile(&wl);
    let (hits, misses, writes) = counters(&warm);
    assert_eq!(misses, 0, "warm harness had a store miss (simulated!)");
    assert_eq!(writes, 0, "warm harness wrote (simulated!)");
    assert_eq!(hits, 3, "static + migration + profile all from disk");
    // Executor never ran: the parallel prewarm stages were skipped.
    assert_eq!(warm.metrics.total.load(Ordering::Relaxed), 0);

    // Served results are bit-identical to the simulated ones.
    assert_eq!(warm_static.ipc.to_bits(), cold_static.ipc.to_bits());
    assert_eq!(warm_static.ser_fit.to_bits(), cold_static.ser_fit.to_bits());
    assert_eq!(warm_static.telemetry, cold_static.telemetry);
    assert_eq!(warm_mig.migrations, cold_mig.migrations);
    assert_eq!(warm_mig.telemetry, cold_mig.telemetry);
    assert!(warm_profile.ipc > 0.0);
}

#[test]
fn annotated_runs_round_trip_through_the_store() {
    let dir = scratch("annotated");
    let wl = Workload::Homogeneous(Benchmark::Mcf);

    let mut cold = harness(&dir);
    let (cold_run, cold_set) = cold.annotated_run(&wl);

    let mut warm = harness(&dir);
    warm.prewarm(&specs(&[wl], &[RunAction::Annotated]));
    let (warm_run, warm_set) = warm.annotated_run(&wl);
    let (hits, misses, _) = counters(&warm);
    assert_eq!((hits, misses), (1, 0));
    assert_eq!(warm_run.ipc.to_bits(), cold_run.ipc.to_bits());
    assert_eq!(warm_set.structures, cold_set.structures);
    assert_eq!(warm_set.pinned, cold_set.pinned);
}

#[test]
fn config_changes_miss_instead_of_serving_stale_results() {
    let dir = scratch("config-miss");
    let wl = Workload::Homogeneous(Benchmark::Lbm);

    let mut cold = harness(&dir);
    cold.profile(&wl);

    // Same store, different instruction budget: must resimulate.
    let mut other = harness(&dir);
    other.cfg.insts_per_core += 10_000;
    other.profile(&wl);
    let (hits, misses, writes) = counters(&other);
    assert_eq!(hits, 0, "config change served a stale entry");
    assert_eq!((misses, writes), (1, 1));
}

#[test]
fn store_disabled_harness_still_works() {
    let mut h = Harness::with_store(None);
    h.cfg = tiny();
    h.threads = 2;
    assert!(h.store().is_none());
    let wl = Workload::Homogeneous(Benchmark::Lbm);
    let run = h.static_run(&wl, PlacementPolicy::PerfFocused);
    assert!(run.ipc > 0.0);
}
