//! Kill-and-diff recovery suite for epoch-granular checkpoint/resume.
//!
//! Each matrix cell runs an uninterrupted reference simulation, then a
//! second copy of the same simulation that is killed (via a panic from
//! the epoch hook) at a seeded random epoch while writing a checkpoint
//! every epoch, and finally resumes through the production recovery
//! path ([`run_with_recovery_every`]). The resumed [`RunResult`] must be
//! **byte-identical** to the reference — asserted on the wire encoding
//! (`wire::encode_run`, which covers every counter bit-for-bit) and on
//! the rendered telemetry JSON. The matrix is exercised both serially
//! and sharded over four worker threads of the `ramp_sim::exec`
//! executor, mirroring how `ramp-bench` and the server drive runs.
//!
//! A second family of tests tears checkpoint tails at every byte
//! boundary (truncation and bit flips) and proves the store falls back
//! to the previous durable segment — never garbage, never a panic — and
//! that an end-to-end resume over a corrupted tail still reproduces the
//! reference bytes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;

use ramp_core::config::SystemConfig;
use ramp_core::migration::MigrationScheme;
use ramp_core::runner::{build_migration_sim, build_profile_sim, profile_workload};
use ramp_core::system::{RunHooks, RunResult, SystemSim, CHECKPOINT_KIND, CHECKPOINT_VERSION};
use ramp_serve::spec::{run_with_recovery_every, RunProgress};
use ramp_serve::store::RunStore;
use ramp_serve::wire;
use ramp_sim::codec::encode_framed;
use ramp_sim::exec::parallel_map;
use ramp_trace::{Benchmark, Workload};

fn scratch_store(tag: &str) -> RunStore {
    let dir = std::env::temp_dir().join(format!("ramp-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    RunStore::open(dir).unwrap()
}

/// One kill/resume scenario: which sim to build and the seed that picks
/// the kill epoch.
struct Cell {
    name: &'static str,
    workload: Workload,
    scheme: Option<MigrationScheme>,
    seed: u64,
}

fn matrix() -> Vec<Cell> {
    vec![
        Cell {
            name: "profile-lbm",
            workload: Workload::Homogeneous(Benchmark::Lbm),
            scheme: None,
            seed: 3,
        },
        Cell {
            name: "migration-mcf-perf-fc",
            workload: Workload::Homogeneous(Benchmark::Mcf),
            scheme: Some(MigrationScheme::PerfFc),
            seed: 5,
        },
        Cell {
            name: "migration-milc-cross-counter",
            workload: Workload::Homogeneous(Benchmark::Milc),
            scheme: Some(MigrationScheme::CrossCounter),
            seed: 11,
        },
    ]
}

/// Runs `build()` to completion while recording the number of epoch
/// boundaries the run crosses.
fn reference_run(build: &dyn Fn() -> SystemSim) -> (RunResult, u64) {
    let mut epochs = 0u64;
    let mut on_epoch = |e: u64| epochs = e;
    let run = build().run_with_hooks(RunHooks {
        checkpoint_every: 0,
        on_epoch: Some(&mut on_epoch),
        on_checkpoint: None,
    });
    (run, epochs)
}

/// Kills a checkpointing copy of `build()` at `kill_epoch` (panic from
/// the epoch hook, caught here), leaving checkpoint segments for epochs
/// `1..kill_epoch` in `store` under `key`.
fn kill_at_epoch(build: &dyn Fn() -> SystemSim, store: &RunStore, key: &str, kill_epoch: u64) {
    let died = catch_unwind(AssertUnwindSafe(|| {
        let mut on_epoch = |e: u64| {
            if e == kill_epoch {
                panic!("injected kill at epoch {e}");
            }
        };
        let mut on_checkpoint = |e: u64, blob: Vec<u8>| {
            assert!(
                store.store_checkpoint(key, e, &blob),
                "checkpoint write failed"
            );
        };
        build().run_with_hooks(RunHooks {
            checkpoint_every: 1,
            on_epoch: Some(&mut on_epoch),
            on_checkpoint: Some(&mut on_checkpoint),
        });
    }));
    assert!(died.is_err(), "{key}: injected kill did not fire");
}

/// Full kill-at-seeded-epoch → resume → byte-diff scenario for one cell.
fn exercise(cell: &Cell, store: &RunStore) {
    let cfg = SystemConfig::smoke_test();
    let profile = cell.scheme.map(|_| profile_workload(&cfg, &cell.workload));
    let build = || match (cell.scheme, &profile) {
        (Some(scheme), Some(p)) => build_migration_sim(&cfg, &cell.workload, scheme, &p.table),
        _ => build_profile_sim(&cfg, &cell.workload),
    };

    let (reference, total_epochs) = reference_run(&build);
    assert!(
        total_epochs >= 2,
        "{}: run too short ({total_epochs} epochs) to kill mid-flight",
        cell.name
    );
    // Seeded kill epoch in [1, total]. Epoch 1 kills before the first
    // checkpoint lands, covering the cold-fallback path.
    let kill_epoch = 1 + cell.seed % total_epochs;

    let key = format!("ckpt-test-{}", cell.name);
    kill_at_epoch(&build, store, &key, kill_epoch);
    assert_eq!(
        store.list_checkpoints(&key).len() as u64,
        kill_epoch - 1,
        "{}: unexpected checkpoint trail after kill",
        cell.name
    );

    let progress = RunProgress::default();
    let (resumed, was_resumed) =
        run_with_recovery_every(build, &key, cell.name, Some(store), Some(&progress), 1);

    assert_eq!(
        wire::encode_run(&resumed),
        wire::encode_run(&reference),
        "{}: resumed RunResult is not byte-identical to the reference",
        cell.name
    );
    assert_eq!(
        resumed.telemetry.to_json(),
        reference.telemetry.to_json(),
        "{}: resumed telemetry drifted from the reference",
        cell.name
    );
    assert_eq!(
        was_resumed,
        kill_epoch > 1,
        "{}: resume flag wrong for kill at epoch {kill_epoch}",
        cell.name
    );
    assert_eq!(progress.resumed.load(Ordering::Relaxed), kill_epoch > 1);
    assert!(
        store.list_checkpoints(&key).is_empty(),
        "{}: completed run left its checkpoint trail behind",
        cell.name
    );
}

#[test]
fn kill_and_resume_matrix_single_thread() {
    let store = scratch_store("matrix-t1");
    for cell in &matrix() {
        exercise(cell, &store);
    }
}

#[test]
fn kill_and_resume_matrix_four_threads() {
    let store = scratch_store("matrix-t4");
    parallel_map(4, matrix(), |_, cell| exercise(cell, &store));
}

#[test]
fn torn_tail_falls_back_at_every_byte_boundary() {
    let store = scratch_store("torn-exhaustive");
    let key = "torn-synthetic";
    let good = encode_framed(CHECKPOINT_KIND, CHECKPOINT_VERSION, &[0xA5u8; 64]);
    let tail = encode_framed(CHECKPOINT_KIND, CHECKPOINT_VERSION, &[0x5Au8; 64]);
    assert!(store.store_checkpoint(key, 1, &good));

    // Truncation at every prefix length (including the empty file).
    for cut in 0..tail.len() {
        assert!(store.store_checkpoint(key, 2, &tail[..cut]));
        let (epoch, bytes) = store
            .load_latest_checkpoint(key)
            .expect("previous segment must survive a torn tail");
        assert_eq!(
            (epoch, &bytes),
            (1, &good),
            "truncation at byte {cut} leaked a torn segment"
        );
    }
    // A single flipped bit at every byte offset.
    for pos in 0..tail.len() {
        let mut bad = tail.clone();
        bad[pos] ^= 0x40;
        assert!(store.store_checkpoint(key, 2, &bad));
        let (epoch, bytes) = store
            .load_latest_checkpoint(key)
            .expect("previous segment must survive a corrupt tail");
        assert_eq!(
            (epoch, &bytes),
            (1, &good),
            "bit flip at byte {pos} leaked a corrupt segment"
        );
    }
    // The intact tail is preferred once it decodes.
    assert!(store.store_checkpoint(key, 2, &tail));
    assert_eq!(store.load_latest_checkpoint(key), Some((2, tail)));
}

#[test]
fn torn_real_checkpoint_resumes_byte_identical() {
    let store = scratch_store("torn-resume");
    let cfg = SystemConfig::smoke_test();
    let workload = Workload::Homogeneous(Benchmark::Libquantum);
    let profile = profile_workload(&cfg, &workload);
    let build = || build_migration_sim(&cfg, &workload, MigrationScheme::PerfFc, &profile.table);

    let (reference, total_epochs) = reference_run(&build);
    assert!(
        total_epochs >= 3,
        "need >=2 checkpoint segments to tear one"
    );
    let kill_epoch = total_epochs;
    let key = "torn-real";
    kill_at_epoch(&build, &store, key, kill_epoch);

    // Tear the newest segment at a handful of sampled byte boundaries
    // (real blobs are large; the exhaustive sweep above covers every
    // offset on a small frame).
    let segments = store.list_checkpoints(key);
    let (latest_epoch, latest_path) = segments.last().expect("trail exists").clone();
    let intact = std::fs::read(&latest_path).unwrap();
    let cuts: Vec<usize> = (0..intact.len())
        .filter(|i| *i < 32 || *i % 997 == 0 || *i + 32 >= intact.len())
        .collect();
    for cut in cuts {
        std::fs::write(&latest_path, &intact[..cut]).unwrap();
        let (epoch, _) = store
            .load_latest_checkpoint(key)
            .expect("older segments must survive");
        assert_eq!(
            epoch,
            latest_epoch - 1,
            "torn tail at byte {cut} was not quarantined"
        );
        // Quarantine renamed the file; restore the trail for the next cut.
        assert!(store.store_checkpoint(key, latest_epoch, &intact[..cut]));
    }

    // Leave the tail torn and resume end to end: recovery must fall
    // back to the previous epoch and still reproduce the reference.
    std::fs::write(&latest_path, &intact[..intact.len() / 2]).unwrap();
    let progress = RunProgress::default();
    let (resumed, was_resumed) =
        run_with_recovery_every(build, key, "torn-real", Some(&store), Some(&progress), 1);
    assert!(was_resumed);
    assert!(progress.ckpt_epoch.load(Ordering::Relaxed) >= latest_epoch);
    assert_eq!(wire::encode_run(&resumed), wire::encode_run(&reference));
    assert_eq!(resumed.telemetry.to_json(), reference.telemetry.to_json());
    assert!(store.list_checkpoints(key).is_empty());
}

/// A trail left by a build whose checkpoints carry layout version 1
/// (the header rewritten, the checksum valid) fails `decode_framed`
/// with `WrongVersion`: every segment is quarantined with that reason,
/// the run starts cold, and its result is byte-identical to an
/// uninterrupted run.
#[test]
fn version_1_trail_is_quarantined_and_run_starts_cold() {
    use ramp_sim::codec::{decode_framed, CodecError};

    let store = scratch_store("v1-trail");
    let cfg = SystemConfig::smoke_test();
    let workload = Workload::Homogeneous(Benchmark::Mcf);
    let profile = profile_workload(&cfg, &workload);
    let build = || build_migration_sim(&cfg, &workload, MigrationScheme::PerfFc, &profile.table);
    let (reference, total_epochs) = reference_run(&build);
    let key = "v1-trail";
    kill_at_epoch(&build, &store, key, total_epochs);
    let segments = store.list_checkpoints(key);
    assert!(segments.len() >= 2, "need a trail of several segments");
    for (_, path) in &segments {
        let blob = std::fs::read(path).unwrap();
        let payload = decode_framed(&blob, CHECKPOINT_KIND, CHECKPOINT_VERSION).unwrap();
        let old = encode_framed(CHECKPOINT_KIND, 1, payload);
        assert_eq!(
            decode_framed(&old, CHECKPOINT_KIND, CHECKPOINT_VERSION),
            Err(CodecError::WrongVersion {
                found: 1,
                expected: CHECKPOINT_VERSION
            })
        );
        std::fs::write(path, &old).unwrap();
    }

    let progress = RunProgress::default();
    let (run, was_resumed) =
        run_with_recovery_every(build, key, "v1-trail", Some(&store), Some(&progress), 1);
    assert!(!was_resumed, "a version-1 segment was restored");
    assert!(!progress.resumed.load(Ordering::Relaxed));
    assert_eq!(wire::encode_run(&run), wire::encode_run(&reference));
    assert_eq!(run.telemetry.to_json(), reference.telemetry.to_json());
    assert!(store.list_checkpoints(key).is_empty());
    for (_, path) in &segments {
        let name = path.file_name().unwrap().to_string_lossy();
        assert!(path.with_file_name(format!("{name}.quarantine")).is_file());
        let reason =
            std::fs::read_to_string(path.with_file_name(format!("{name}.reason"))).unwrap();
        assert!(reason.contains("WrongVersion"), "{reason}");
    }
}
