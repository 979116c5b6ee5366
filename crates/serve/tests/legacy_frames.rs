//! Stores written by builds that framed entries with magic `RAMPSTOR`
//! and an FNV-1a checksum: every such entry must read as a miss (or be
//! quarantined), never as a hit, and the affected runs simulate again
//! once, after which they are warm.
//!
//! The old framing is rebuilt here from its definition rather than
//! kept in the library: the library has exactly one frame format.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::Command;

use ramp_avf::StatsTable;
use ramp_core::config::SystemConfig;
use ramp_core::runner::build_profile_sim;
use ramp_core::system::{RunHooks, RunResult, SystemSim};
use ramp_serve::spec::{run_with_recovery_every, RunSpec};
use ramp_serve::store::{RunKind, RunStore};
use ramp_serve::wire;
use ramp_sim::codec::{decode_framed, fnv1a64, ByteReader, MAGIC};
use ramp_trace::{Benchmark, Workload};

const OLD_MAGIC: &[u8; 8] = b"RAMPSTOR";

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ramp-legacy-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Re-frames one current store entry in the old `RAMPSTOR` + FNV-1a
/// layout, keeping every version, kind and payload byte.
fn to_old_frame(bytes: &[u8]) -> Vec<u8> {
    let mut r = ByteReader::new(bytes);
    assert_eq!(r.take(MAGIC.len()).unwrap(), MAGIC);
    let version = r.u32().unwrap();
    let kind = r.u8().unwrap();
    let payload = decode_framed(bytes, kind, version).unwrap();
    let mut out = OLD_MAGIC.to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out
}

/// Rewrites every framed file in `dir` in the old layout; returns how
/// many files it rewrote.
fn downgrade(dir: &Path) -> usize {
    let mut rewritten = 0;
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        let bytes = std::fs::read(entry.path()).unwrap();
        if bytes.starts_with(&MAGIC) {
            std::fs::write(entry.path(), to_old_frame(&bytes)).unwrap();
            rewritten += 1;
        }
    }
    rewritten
}

/// `ramp-store verify` on `dir`: (exit success, stdout + stderr).
fn verify(dir: &Path) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ramp-store"))
        .arg("verify")
        .arg("--dir")
        .arg(dir)
        .env_remove("RAMP_STORE_DIR")
        .output()
        .unwrap();
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

fn tiny() -> SystemConfig {
    SystemConfig {
        insts_per_core: 20_000,
        ..SystemConfig::smoke_test()
    }
}

/// A profile, a static run (which also persists its profile) and an
/// annotated run, so run and annotated entries are both on disk.
fn specs() -> Vec<RunSpec> {
    [
        ("lbm", "profile", ""),
        ("mcf", "static", "perf-focused"),
        ("astar", "annotated", ""),
    ]
    .iter()
    .map(|(wl, kind, policy)| RunSpec::parse(wl, kind, policy).unwrap())
    .collect()
}

/// `run` as the store persists it for `spec`: a profile keeps its
/// table rows, every other run keeps only the table's `total_cycles`.
fn persisted(spec: &RunSpec, run: &RunResult) -> RunResult {
    let rows = match spec.kind() {
        RunKind::Profile => run.table.pages().to_vec(),
        _ => Vec::new(),
    };
    RunResult {
        table: StatsTable::from_stats(rows, run.table.total_cycles()),
        ..run.clone()
    }
}

fn lookup(store: &RunStore, spec: &RunSpec, cfg: &SystemConfig) -> bool {
    let key = spec.key(cfg);
    match spec.kind() {
        RunKind::Annotated => store.load_annotated(&key).is_some(),
        _ => store.load_run(&key).is_some(),
    }
}

/// Runs every spec cold, downgrades the store, and checks that the old
/// entries are misses, that a re-run simulates them once with the cold
/// bytes, and that a second re-run is served warm.
#[test]
fn old_file_store_entries_are_misses_and_resimulate_once() {
    let cfg = tiny();
    let dir = scratch("files");
    let cold: Vec<RunResult> = {
        let store = RunStore::open(&dir).unwrap();
        specs()
            .iter()
            .map(|s| s.execute(&cfg, Some(&store)))
            .collect()
    };
    assert!(downgrade(&dir) >= specs().len(), "nothing to downgrade");
    let (ok, text) = verify(&dir);
    assert!(!ok, "verify passed an old-format store:\n{text}");
    assert!(text.contains("BadMagic"), "{text}");

    let store = RunStore::open(&dir).unwrap();
    for spec in specs() {
        assert!(!lookup(&store, &spec, &cfg), "old entry read as a hit");
    }
    assert_eq!(store.stats().hits, 0);
    let writes_before = store.stats().writes;
    for (spec, reference) in specs().iter().zip(&cold) {
        let run = spec.execute(&cfg, Some(&store));
        assert_eq!(
            wire::encode_run(&run),
            wire::encode_run(reference),
            "re-run differs"
        );
    }
    let writes = store.stats().writes;
    assert!(writes > writes_before, "re-run did not simulate");
    for (spec, reference) in specs().iter().zip(&cold) {
        assert!(lookup(&store, spec, &cfg), "re-run entry is not warm");
        let run = spec.execute(&cfg, Some(&store));
        assert_eq!(
            wire::encode_run(&run),
            wire::encode_run(&persisted(spec, reference)),
            "warm bytes differ"
        );
        if spec.kind() != RunKind::Profile {
            assert!(run.table.pages().is_empty(), "warm table kept its rows");
        }
        assert_eq!(run.table.total_cycles(), reference.table.total_cycles());
    }
    assert_eq!(store.stats().writes, writes, "warm re-run simulated");
    drop(store);
    let (ok, text) = verify(&dir);
    assert!(ok, "store not sound after the re-run:\n{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `sim` with a checkpoint every epoch and kills it at
/// `kill_epoch`, leaving the trail for epochs `1..kill_epoch`.
fn kill_at_epoch(sim: SystemSim, store: &RunStore, key: &str, kill_epoch: u64) {
    let died = catch_unwind(AssertUnwindSafe(|| {
        let mut on_epoch = |e: u64| {
            if e == kill_epoch {
                panic!("injected kill at epoch {e}");
            }
        };
        let mut on_checkpoint = |e: u64, blob: Vec<u8>| {
            assert!(store.store_checkpoint(key, e, &blob));
        };
        sim.run_with_hooks(RunHooks {
            checkpoint_every: 1,
            on_epoch: Some(&mut on_epoch),
            on_checkpoint: Some(&mut on_checkpoint),
        });
    }));
    assert!(died.is_err(), "injected kill did not fire");
}

#[test]
fn old_checkpoint_trail_is_ignored_and_a_new_one_resumes() {
    let cfg = SystemConfig::smoke_test();
    let wl = Workload::Homogeneous(Benchmark::Lbm);
    let build = || build_profile_sim(&cfg, &wl);
    let reference = wire::encode_run(&build().run());
    let dir = scratch("ckpt");
    let store = RunStore::open(&dir).unwrap();
    let key = "legacy-ckpt-lbm";

    kill_at_epoch(build(), &store, key, 3);
    assert_eq!(store.list_checkpoints(key).len(), 2);
    assert_eq!(downgrade(&dir), 2);
    let (ok, text) = verify(&dir);
    assert!(!ok && text.contains("BadMagic"), "{text}");

    // The old trail is quarantined and the run starts cold.
    let (run, resumed) = run_with_recovery_every(build, key, "lbm", Some(&store), None, 1);
    assert!(!resumed, "resumed from an old-format checkpoint");
    assert_eq!(wire::encode_run(&run), reference);
    assert!(store.list_checkpoints(key).is_empty());

    // A trail written by this build resumes, byte-identical to cold.
    kill_at_epoch(build(), &store, key, 3);
    let (run, resumed) = run_with_recovery_every(build, key, "lbm", Some(&store), None, 1);
    assert!(resumed, "did not resume from a current checkpoint");
    assert_eq!(wire::encode_run(&run), reference);
    drop(store);
    let (ok, text) = verify(&dir);
    assert!(ok, "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
