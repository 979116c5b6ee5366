//! Failure accounting of the harness under `RAMP_CHAOS`: a prewarm whose
//! profile panics past its retry budget reports the profile failure and
//! skips its dependents, persisting nothing.
//!
//! `RAMP_CHAOS` is read once per process, so this suite lives in a test
//! binary of its own and sets it before anything reads it.

use std::sync::atomic::Ordering;

use ramp_bench::{specs, Harness};
use ramp_core::config::SystemConfig;
use ramp_core::placement::PlacementPolicy;
use ramp_serve::spec::RunAction;
use ramp_serve::store::RunStore;
use ramp_sim::chaos::ENV_CHAOS;
use ramp_trace::{Benchmark, Workload};

#[test]
fn failed_profile_is_reported_with_its_dependents_skip() {
    std::env::set_var(ENV_CHAOS, "1:panic=1.0,retries=0");
    let dir = std::env::temp_dir().join(format!("ramp-harness-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut h = Harness::with_store(Some(RunStore::open(&dir).unwrap()));
    h.cfg = SystemConfig {
        insts_per_core: 20_000,
        ..SystemConfig::smoke_test()
    };
    h.threads = 2;

    let wl = Workload::Homogeneous(Benchmark::Lbm);
    h.prewarm(&specs(
        &[wl],
        &[RunAction::Static(PlacementPolicy::PerfFocused)],
    ));
    let failures = h.failures();
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(
        failures[0].starts_with("static/lbm/perf-focused: skipped: profile lbm/ddr-only failed:")
            && failures[0].contains("panicked"),
        "{failures:?}"
    );
    let writes = h.store().unwrap().metrics().writes.load(Ordering::Relaxed);
    assert_eq!(writes, 0, "a failed prewarm persisted something");
    assert!(
        h.telemetry_runs().is_empty(),
        "a failed run entered the telemetry"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
