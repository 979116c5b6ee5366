//! A core's post-L1 stream depends on nothing but its own generator.
//!
//! Each core of `SystemSim` pulls records from its `InstanceGen` and
//! runs them through its private L1; only the shared L2 and what lies
//! below it see timing, placement or migration. So the records a core
//! pulls inside any run must equal a fresh generator drawn in isolation
//! up to the core's instruction budget, and its L1 must see the same
//! hits, misses and dirty evictions as a lone L1 fed that stream. This
//! is what makes recording the stream once and replaying it in every
//! later run exact.

use std::collections::HashSet;
use std::io::{Cursor, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use ramp::cache::stream::{StreamSink, StreamSource, StreamWriter};
use ramp::cache::{L1Event, SetAssocCache, StreamReader};
use ramp::core::config::SystemConfig;
use ramp::core::migration::{MigrationEngine, MigrationScheme};
use ramp::core::placement::PlacementPolicy;
use ramp::core::runner::{self, Placement};
use ramp::core::system::{RunHooks, RunResult, SystemSim};
use ramp::serve::spec::{resolve, Job, Resolver, RunAction, RunSpec, StreamCounts};
use ramp::serve::store::{stream_key, RunStore};
use ramp::serve::wire::encode_run;
use ramp::sim::exec::{default_threads, parallel_map};
use ramp::trace::{Benchmark, MixId, Workload};

const WORKLOADS: [Workload; 3] = [
    Workload::Homogeneous(Benchmark::Mcf),
    Workload::Homogeneous(Benchmark::Libquantum),
    Workload::Mix(MixId::Mix1),
];

/// The profile, the 8 static placements, the 3 migration schemes and
/// the annotated run.
fn actions() -> Vec<RunAction> {
    let statics = [
        PlacementPolicy::DdrOnly,
        PlacementPolicy::PerfFocused,
        PlacementPolicy::RelFocused,
        PlacementPolicy::Balanced,
        PlacementPolicy::WrRatio,
        PlacementPolicy::Wr2Ratio,
        PlacementPolicy::FracHottest(0.25),
        PlacementPolicy::FracHottest(0.5),
    ];
    let schemes = [
        MigrationScheme::PerfFc,
        MigrationScheme::RelFc,
        MigrationScheme::CrossCounter,
    ];
    std::iter::once(RunAction::Profile)
        .chain(statics.into_iter().map(RunAction::Static))
        .chain(schemes.into_iter().map(RunAction::Migration))
        .chain(std::iter::once(RunAction::Annotated))
        .collect()
}

/// Per core: instructions retired, records pulled, and the L1's hits,
/// misses and dirty evictions.
type CoreCounts = (u64, u64, u64, u64, u64);

/// A stream sink in memory; a commit leaves the bytes where they are.
#[derive(Clone, Default)]
struct Mem(Arc<Mutex<Vec<u8>>>);

impl Write for Mem {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl StreamSink for Mem {
    fn commit(self: Box<Self>) -> std::io::Result<()> {
        Ok(())
    }
}

/// Identity the tests give core `i`'s stream.
fn ident(i: usize) -> u64 {
    0x5eed_0000 + i as u64
}

/// Makes every core of `sim` record its stream into memory.
fn record(sim: &mut SystemSim) -> Vec<Mem> {
    (0..sim.cores())
        .map(|i| {
            let mem = Mem::default();
            let sink: Box<dyn StreamSink> = Box::new(mem.clone());
            sim.record_core(i, StreamWriter::new(sink, ident(i)));
            mem
        })
        .collect()
}

/// Makes every core of `sim` replay `streams`.
fn replay(sim: &mut SystemSim, streams: &[Vec<u8>]) {
    for (i, bytes) in streams.iter().enumerate() {
        let src: Box<dyn StreamSource> = Box::new(Cursor::new(bytes.clone()));
        let reader = StreamReader::open(src, ident(i), sim.core_lines(i)).expect("stream opens");
        sim.replay_core(i, reader);
    }
}

fn bytes(mems: &[Mem]) -> Vec<Vec<u8>> {
    mems.iter().map(|m| m.0.lock().unwrap().clone()).collect()
}

/// What each core of `workload` pulls when drawn alone — a fresh
/// generator up to the budget, through a lone L1 — as counts and as the
/// encoded stream.
fn isolated(cfg: &SystemConfig, workload: &Workload) -> Vec<(CoreCounts, Vec<u8>)> {
    workload
        .build_cores(cfg.seed, cfg.insts_per_core)
        .into_iter()
        .enumerate()
        .map(|(i, mut gen)| {
            let mut l1 = SetAssocCache::new(cfg.hierarchy.l1);
            let mut out = StreamWriter::new(Vec::new(), ident(i));
            let (mut retired, mut records) = (0, 0);
            while retired < cfg.insts_per_core {
                let rec = gen.next().expect("trace streams are infinite");
                retired += rec.instructions();
                records += 1;
                let r = l1.access(rec.addr.line(), rec.kind.is_write());
                let outcome = match r {
                    r if r.hit => ramp::cache::L1Outcome::Hit,
                    r => ramp::cache::L1Outcome::Miss {
                        line: rec.addr.line(),
                        write: rec.kind.is_write(),
                        victim: r.victim.filter(|&(_, dirty)| dirty).map(|(v, _)| v),
                    },
                };
                let ev = L1Event {
                    insts: rec.instructions(),
                    outcome,
                };
                out.push(&ev).unwrap();
            }
            let st = l1.stats();
            let counts = (retired, records, st.hits, st.misses, st.dirty_evictions);
            (counts, out.finish().unwrap())
        })
        .collect()
}

/// The same counts read back from a run's telemetry.
fn in_run(run: &RunResult, cores: usize) -> Vec<CoreCounts> {
    let counter = |scope: &str, name: &str| {
        run.telemetry
            .get(scope, name)
            .and_then(|v| v.as_counter())
            .unwrap_or_else(|| panic!("{scope}.{name} missing"))
    };
    (0..cores)
        .map(|i| {
            let l1 = format!("cache.l1.core{i:02}");
            let (hits, misses) = (counter(&l1, "hits"), counter(&l1, "misses"));
            (
                counter(&format!("core.c{i:02}"), "instructions"),
                hits + misses,
                hits,
                misses,
                counter(&l1, "writebacks"),
            )
        })
        .collect()
}

/// The simulator of `action` on `workload`, placed from `profile`.
fn build(
    cfg: &SystemConfig,
    workload: &Workload,
    action: RunAction,
    profile: &RunResult,
) -> SystemSim {
    let table = &profile.table;
    let (placement, engine) = match action {
        RunAction::Profile => (Placement::default(), None),
        RunAction::Static(p) => (runner::static_placement(cfg, p, table), None),
        RunAction::Migration(s) => (
            runner::migration_placement(cfg, s, table),
            Some(MigrationEngine::new(s)),
        ),
        RunAction::Annotated => (
            runner::annotated_placement(cfg, workload, table, None),
            None,
        ),
    };
    runner::build_sim(cfg, workload, "run", &placement, engine)
}

/// Runs `action` on `workload` recording its cores: the result, each
/// core's counts from telemetry, and each core's stream bytes.
fn recorded_run(
    cfg: &SystemConfig,
    workload: &Workload,
    action: RunAction,
    profile: &RunResult,
) -> (RunResult, Vec<CoreCounts>, Vec<Vec<u8>>) {
    let mut sim = build(cfg, workload, action, profile);
    let mems = record(&mut sim);
    let run = sim.run();
    let counts = in_run(&run, mems.len());
    (run, counts, bytes(&mems))
}

#[test]
fn every_action_pulls_the_isolated_generator_stream() {
    let cfg = SystemConfig::smoke_test();
    let threads = default_threads();
    let expected = parallel_map(threads, WORKLOADS.to_vec(), |_, w| isolated(&cfg, w));
    let profiles = parallel_map(threads, WORKLOADS.to_vec(), |_, w| {
        runner::profile_workload(&cfg, w)
    });
    let jobs: Vec<(usize, RunAction)> = (0..WORKLOADS.len())
        .flat_map(|w| actions().into_iter().map(move |a| (w, a)))
        .collect();
    let runs = parallel_map(threads, jobs.clone(), |_, &(w, action)| {
        let (_, counts, streams) = recorded_run(&cfg, &WORKLOADS[w], action, &profiles[w]);
        (counts, streams)
    });
    for (&(w, action), (counts, streams)) in jobs.iter().zip(runs) {
        let spec = RunSpec {
            workload: WORKLOADS[w],
            action,
        };
        let name = format!("{}/{}", spec.workload.name(), spec.policy_label());
        let want_counts: Vec<CoreCounts> = expected[w].iter().map(|(c, _)| *c).collect();
        assert_eq!(
            counts, want_counts,
            "{name}: a core pulled other records than its generator alone"
        );
        for (core, (got, (_, want))) in streams.iter().zip(&expected[w]).enumerate() {
            assert!(
                got == want,
                "{name}: core {core} recorded another stream than its generator alone"
            );
        }
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ramp-streams-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn replayed_runs_equal_live_runs_for_every_action() {
    let cfg = SystemConfig {
        insts_per_core: 40_000,
        ..SystemConfig::smoke_test()
    };
    let workloads = [
        Workload::Homogeneous(Benchmark::Mcf),
        Workload::Mix(MixId::Mix1),
    ];
    let specs: Vec<RunSpec> = workloads
        .iter()
        .flat_map(|&workload| {
            actions()
                .into_iter()
                .map(move |action| RunSpec { workload, action })
        })
        .collect();
    let jobs: Vec<Job<'_>> = specs.iter().map(|&spec| (&cfg, spec)).collect();
    let pass = |store: Option<&RunStore>| {
        let how = Resolver {
            threads: default_threads(),
            ..Resolver::new(store)
        };
        let r = resolve(&jobs, &how, None, |_, _, f| encode_run(&f.run));
        let runs: Vec<Vec<u8>> = r.jobs.into_iter().map(|j| j.unwrap().value).collect();
        (runs, r.streams)
    };
    let (live, none) = pass(None);
    assert_eq!(none, StreamCounts::default(), "no store, no streams");

    // Cold: each workload's profile records, and its 12 dependents replay.
    let dir = scratch("replay");
    let (cold, counts) = pass(Some(&RunStore::open(&dir).unwrap()));
    let n = workloads.len() as u64;
    let want = StreamCounts {
        recorded: n,
        replayed: 12 * n,
        fallback: 0,
    };
    assert_eq!(counts, want);
    // Without the stored results, all 13 actions replay.
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        if entry
            .path()
            .extension()
            .is_some_and(|e| e == "run" || e == "ann")
        {
            std::fs::remove_file(entry.path()).unwrap();
        }
    }
    let (warm, counts) = pass(Some(&RunStore::open(&dir).unwrap()));
    assert_eq!((counts.recorded, counts.replayed), (0, 13 * n));
    for (i, spec) in specs.iter().enumerate() {
        let name = format!("{}/{}", spec.workload.name(), spec.policy_label());
        assert!(cold[i] == live[i], "{name}: a cold run differs from live");
        assert!(
            warm[i] == live[i],
            "{name}: a replayed run differs from live"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn migration_sim(cfg: &SystemConfig) -> SystemSim {
    SystemSim::new(
        cfg.clone(),
        &Workload::Homogeneous(Benchmark::Libquantum),
        "perf-fc",
        &[],
        HashSet::new(),
        Some(MigrationEngine::new(MigrationScheme::PerfFc)),
    )
}

/// Runs `sim` with a checkpoint every epoch: the result and the blobs.
fn checkpointed(sim: SystemSim) -> (RunResult, Vec<Vec<u8>>) {
    let mut blobs = Vec::new();
    let mut keep = |_epoch: u64, blob: Vec<u8>| blobs.push(blob);
    let run = sim.run_with_hooks(RunHooks {
        checkpoint_every: 1,
        on_checkpoint: Some(&mut keep),
        ..RunHooks::default()
    });
    (run, blobs)
}

#[test]
fn resume_from_a_replay_checkpoint_is_byte_identical() {
    let cfg = SystemConfig::smoke_test();
    let mut sim = migration_sim(&cfg);
    let mems = record(&mut sim);
    let (reference, live_blobs) = checkpointed(sim);
    let streams = bytes(&mems);
    let want = encode_run(&reference);

    let mut sim = migration_sim(&cfg);
    replay(&mut sim, &streams);
    assert_eq!(sim.feeds(), (16, 0));
    let (replayed, blobs) = checkpointed(sim);
    assert!(encode_run(&replayed) == want, "replayed run differs");
    assert!(blobs.len() > 2, "expected several checkpoints");

    for blob in [&blobs[1], &blobs[blobs.len() / 2]] {
        let mut sim = migration_sim(&cfg);
        replay(&mut sim, &streams);
        sim.restore_state(blob).unwrap();
        assert!(encode_run(&sim.run()) == want, "resumed replay differs");
        // A replay checkpoint needs its stream.
        assert!(migration_sim(&cfg).restore_state(blob).is_err());
    }
    // A live checkpoint resumes live, streams or not.
    let mut sim = migration_sim(&cfg);
    replay(&mut sim, &streams);
    sim.restore_state(&live_blobs[live_blobs.len() / 2])
        .unwrap();
    assert_eq!(sim.feeds(), (0, 0));
    assert!(encode_run(&sim.run()) == want, "resumed live run differs");
}

/// A Cross-Counter run resumes byte-identical from an early and a middle
/// checkpoint of its replay. It starts from its migration placement, so
/// HBM is full and every MEA interval that brings a page in evicts one.
/// Its 7,000-cycle MEA interval does not divide the 60,000-cycle epoch,
/// so each checkpoint (cut at an epoch) holds live MEA entries. The
/// pending high-risk list is empty at every cut of a real run (the FC
/// interval evicts the pages it flags and clears it); the differential
/// interval test restores non-empty ones.
#[test]
fn cross_counter_resumes_byte_identical_from_a_replay_checkpoint() {
    let cfg = SystemConfig {
        mea_interval_cycles: 7_000,
        ..SystemConfig::smoke_test()
    };
    let wl = Workload::Homogeneous(Benchmark::Mcf);
    let profile = runner::profile_workload(&cfg, &wl);
    let sim = || {
        build(
            &cfg,
            &wl,
            RunAction::Migration(MigrationScheme::CrossCounter),
            &profile,
        )
    };
    let mut live = sim();
    let mems = record(&mut live);
    let (reference, _) = checkpointed(live);
    let streams = bytes(&mems);
    let want = encode_run(&reference);
    let migrations = reference
        .telemetry
        .get("migration", "migrations")
        .and_then(|v| v.as_counter());
    assert!(migrations > Some(0), "no page moved: {migrations:?}");

    let mut replayed = sim();
    replay(&mut replayed, &streams);
    let (replayed, blobs) = checkpointed(replayed);
    assert!(encode_run(&replayed) == want, "replayed run differs");
    assert!(blobs.len() > 2, "expected several checkpoints");
    for (at, blob) in [(1, &blobs[1]), (blobs.len() / 2, &blobs[blobs.len() / 2])] {
        let mut resumed = sim();
        replay(&mut resumed, &streams);
        resumed.restore_state(blob).unwrap();
        assert!(
            encode_run(&resumed.run()) == want,
            "run resumed from checkpoint {at} differs"
        );
    }
}

#[test]
fn streams_depend_only_on_the_fields_of_their_key() {
    let base = SystemConfig {
        insts_per_core: 30_000,
        ..SystemConfig::smoke_test()
    };
    let wl = Workload::Homogeneous(Benchmark::Libquantum);
    let streams_of = |cfg: &SystemConfig| {
        let mut sim = migration_sim(cfg);
        let mems = record(&mut sim);
        sim.run();
        bytes(&mems)
    };
    let reference = streams_of(&base);
    let key = stream_key(&base, &wl);
    type Perturb = fn(&mut SystemConfig);
    let outside: [(&str, Perturb); 11] = [
        ("cores", |c| c.cores = 8),
        ("issue_width", |c| c.issue_width = 2),
        ("mshrs_per_core", |c| c.mshrs_per_core = 2),
        ("hbm_capacity_pages", |c| c.hbm_capacity_pages = 64),
        ("hierarchy.cores", |c| c.hierarchy.cores = 32),
        ("hierarchy.l2", |c| {
            c.hierarchy.l2 = ramp::cache::CacheConfig::new(256 * 1024, 8, 64)
        }),
        ("fc_interval_cycles", |c| c.fc_interval_cycles = 20_000),
        ("mea_interval_cycles", |c| c.mea_interval_cycles = 1_000),
        ("max_swaps_per_interval", |c| c.max_swaps_per_interval = 2),
        ("mea_max_pages_per_interval", |c| {
            c.mea_max_pages_per_interval = 64
        }),
        ("ser_model", |c| c.ser_model.fit_hbm_per_gb *= 2.0),
    ];
    for (field, perturb) in outside {
        let mut cfg = base.clone();
        perturb(&mut cfg);
        assert_ne!(cfg.canonical_bytes(), base.canonical_bytes(), "{field}");
        assert_eq!(stream_key(&cfg, &wl), key, "{field} moved the key");
        assert!(streams_of(&cfg) == reference, "{field} changed a stream");
    }
    let inside: [(&str, Perturb); 3] = [
        ("seed", |c| c.seed ^= 1),
        ("insts_per_core", |c| c.insts_per_core += 1),
        ("hierarchy.l1", |c| {
            c.hierarchy.l1 = ramp::cache::CacheConfig::new(32 * 1024, 4, 64)
        }),
    ];
    for (field, perturb) in inside {
        let mut cfg = base.clone();
        perturb(&mut cfg);
        assert_ne!(stream_key(&cfg, &wl), key, "{field} left the key");
    }
    let other = Workload::Homogeneous(Benchmark::Mcf);
    assert_ne!(stream_key(&base, &other), key, "workload left the key");
}
