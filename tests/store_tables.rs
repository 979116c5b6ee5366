//! The run store's table contract: per-page `StatsTable` rows are
//! persisted only for DDR-only runs (profiles and `static:ddr-only`),
//! whose tables the placement builders read. Every other entry keeps
//! just the table's `total_cycles`.
//!
//! Pinned end to end at smoke budget: what lands on disk for each run
//! kind, that a placement built from a store-served profile is
//! byte-identical to one built from a freshly simulated profile, and that
//! a second pass over the same specs is served entirely from the store.

use std::path::PathBuf;
use std::sync::atomic::Ordering;

use ramp::core::config::SystemConfig;
use ramp::core::placement::PlacementPolicy;
use ramp::core::runner::run_static;
use ramp::core::system::RunResult;
use ramp::serve::spec::RunSpec;
use ramp::serve::store::{RunKind, RunStore};
use ramp::serve::wire::{decode_annotated, decode_run, encode_run};
use ramp::trace::Workload;

const WORKLOAD: &str = "lbm";

/// `(kind, policy, keeps table rows)` of every spec the contract covers.
const SPECS: [(&str, &str, bool); 5] = [
    ("profile", "", true),
    ("static", "perf-focused", false),
    ("static", "ddr-only", true),
    ("migration", "perf-fc", false),
    ("annotated", "", false),
];

fn scratch_store() -> (PathBuf, RunStore) {
    let dir = std::env::temp_dir().join(format!("ramp-store-tables-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = RunStore::open(&dir).unwrap();
    (dir, store)
}

/// Decodes the entry `spec` left on disk under `cfg`.
fn decode_entry(dir: &std::path::Path, spec: &RunSpec, cfg: &SystemConfig) -> RunResult {
    let key = spec.key(cfg);
    if spec.kind() == RunKind::Annotated {
        let bytes = std::fs::read(dir.join(format!("{key}.ann"))).unwrap();
        decode_annotated(&bytes).unwrap().0
    } else {
        let bytes = std::fs::read(dir.join(format!("{key}.run"))).unwrap();
        decode_run(&bytes).unwrap()
    }
}

#[test]
fn only_ddr_only_entries_persist_table_rows() {
    let cfg = SystemConfig::smoke_test();
    let wl = Workload::from_name(WORKLOAD).unwrap();
    let specs: Vec<RunSpec> = SPECS
        .iter()
        .map(|(kind, policy, _)| RunSpec::parse(WORKLOAD, kind, policy).unwrap())
        .collect();
    let (dir, store) = scratch_store();

    // Cold: every spec simulates (static, migration and annotated runs
    // reuse the profile persisted by the first spec).
    let fresh: Vec<RunResult> = specs
        .iter()
        .map(|s| s.execute(&cfg, Some(&store)))
        .collect();
    let writes = store.metrics().writes.load(Ordering::Relaxed);
    assert_eq!(writes, specs.len() as u64, "one write per spec");

    for ((spec, run), (kind, policy, keeps)) in specs.iter().zip(&fresh).zip(SPECS) {
        let label = format!("{kind}:{policy}");
        assert_eq!(
            run.table.pages().len() as u64,
            wl.footprint_pages(),
            "{label}: the in-memory result keeps its full table"
        );
        let entry = decode_entry(&dir, spec, &cfg);
        let rows = if keeps { wl.footprint_pages() } else { 0 };
        assert_eq!(entry.table.pages().len() as u64, rows, "{label}: rows");
        assert_eq!(
            entry.table.total_cycles(),
            run.table.total_cycles(),
            "{label}: total_cycles"
        );
        if keeps {
            assert_eq!(encode_run(&entry), encode_run(run), "{label}: entry");
        }
        assert_eq!(entry.telemetry, run.telemetry, "{label}: telemetry");
        assert_eq!(entry.ipc.to_bits(), run.ipc.to_bits(), "{label}: ipc");
    }

    // A placement built from the store-served profile is byte-identical
    // to the one built from the freshly simulated profile.
    let served = store.load_run(&specs[0].key(&cfg)).unwrap();
    let placed = run_static(&cfg, &wl, PlacementPolicy::PerfFocused, &served.table);
    assert_eq!(encode_run(&placed), encode_run(&fresh[1]));

    // Warm, through a new handle: every spec is a store hit and
    // nothing simulates.
    drop(store);
    let store = RunStore::open(&dir).unwrap();
    for (spec, run) in specs.iter().zip(&fresh) {
        let warm = spec.execute(&cfg, Some(&store));
        assert_eq!(
            encode_run(&warm),
            encode_run(&decode_entry(&dir, spec, &cfg))
        );
        assert_eq!(warm.table.total_cycles(), run.table.total_cycles());
    }
    let stats = store.stats();
    assert_eq!((stats.writes, stats.misses), (0, 0), "warm pass simulated");
    assert_eq!(stats.hits, specs.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}
