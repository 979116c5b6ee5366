//! Property tests for the store wire format: randomized run results must
//! round-trip bit-exactly, and *any* single-byte corruption, truncation
//! or version skew must decode to a clean error — the store treats those
//! as cache misses, so a panic or a silently-wrong result here would
//! poison every downstream experiment.

use ramp_avf::{PageStats, StatsTable};
use ramp_core::annotate::AnnotationSet;
use ramp_core::system::RunResult;
use ramp_sim::check::{check, Gen};
use ramp_sim::codec::CodecError;
use ramp_sim::telemetry::{BinHistogram, Snapshot, Stat};
use ramp_sim::PageId;
use ramp_trace::{Benchmark, Workload};

fn gen_string(g: &mut Gen) -> String {
    let pool = [
        "lbm",
        "mcf",
        "frac-hottest-0.50",
        "perf-fc",
        "",
        "caf\u{e9}/\"x\"",
    ];
    (*g.pick(&pool)).to_string()
}

fn gen_stat(g: &mut Gen) -> Stat {
    match g.u64_below(4) {
        0 => Stat::Counter(g.u64()),
        1 => Stat::Gauge(g.f64_in(-1e12, 1e12)),
        2 => {
            let bins = g.usize_in(1, 9);
            let lo = g.f64_in(-100.0, 100.0);
            let hi = lo + g.f64_in(0.5, 1000.0);
            let mut h = BinHistogram::new(lo, hi, bins);
            for _ in 0..g.usize_in(0, 20) {
                h.observe(g.f64_in(lo - 10.0, hi + 10.0));
            }
            Stat::Histogram(h)
        }
        _ => Stat::Ratio {
            num: g.u64_below(1 << 40),
            den: g.u64_below(1 << 40),
        },
    }
}

fn gen_snapshot(g: &mut Gen) -> Snapshot {
    let mut snap = Snapshot::default();
    for s in 0..g.usize_in(0, 4) {
        for n in 0..g.usize_in(1, 5) {
            snap.insert(&format!("scope{s}"), &format!("stat{n}"), gen_stat(g));
        }
    }
    snap
}

fn gen_run(g: &mut Gen) -> RunResult {
    let pages = g.vec(0, 12, |g| PageStats {
        page: PageId(g.u64_below(1 << 48)),
        reads: g.u64_below(1 << 32),
        writes: g.u64_below(1 << 32),
        ace_hbm: g.u64_below(1 << 40),
        ace_ddr: g.u64_below(1 << 40),
        avf: g.f64_in(0.0, 1.0),
    });
    RunResult {
        workload: gen_string(g),
        policy: gen_string(g),
        ipc: g.f64_in(0.0, 16.0),
        per_core_ipc: g.vec(0, 16, |g| g.f64_in(0.0, 4.0)),
        ser_fit: g.f64_in(0.0, 1e6),
        ser_ddr_only_fit: g.f64_in(1e-9, 1e4),
        cycles: g.u64(),
        instructions: g.u64(),
        mpki: g.f64_in(0.0, 500.0),
        hbm_accesses: g.u64_below(1 << 48),
        ddr_accesses: g.u64_below(1 << 48),
        migrations: g.u64_below(1 << 32),
        mean_read_latency: (g.f64_in(0.0, 1e4), g.f64_in(0.0, 1e4)),
        table: StatsTable::from_stats(pages, g.u64_below(1 << 48)),
        telemetry: gen_snapshot(g),
    }
}

fn assert_bit_equal(a: &RunResult, b: &RunResult) {
    assert_eq!(a.workload, b.workload);
    assert_eq!(a.policy, b.policy);
    assert_eq!(a.ipc.to_bits(), b.ipc.to_bits());
    assert_eq!(a.per_core_ipc.len(), b.per_core_ipc.len());
    for (x, y) in a.per_core_ipc.iter().zip(&b.per_core_ipc) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(a.ser_fit.to_bits(), b.ser_fit.to_bits());
    assert_eq!(a.ser_ddr_only_fit.to_bits(), b.ser_ddr_only_fit.to_bits());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.mpki.to_bits(), b.mpki.to_bits());
    assert_eq!(a.hbm_accesses, b.hbm_accesses);
    assert_eq!(a.ddr_accesses, b.ddr_accesses);
    assert_eq!(a.migrations, b.migrations);
    assert_eq!(
        a.mean_read_latency.0.to_bits(),
        b.mean_read_latency.0.to_bits()
    );
    assert_eq!(
        a.mean_read_latency.1.to_bits(),
        b.mean_read_latency.1.to_bits()
    );
    assert_eq!(a.table.pages(), b.table.pages());
    assert_eq!(a.table.total_cycles(), b.table.total_cycles());
    assert_eq!(a.telemetry, b.telemetry);
}

#[test]
fn random_runs_round_trip_bit_exactly() {
    check("wire: run round trip", |g| {
        let run = gen_run(g);
        let bytes = ramp_serve::wire::encode_run(&run);
        let back = ramp_serve::wire::decode_run(&bytes).expect("round trip decodes");
        assert_bit_equal(&run, &back);
        // The deterministic JSON document must also be unchanged.
        assert_eq!(run.telemetry.to_json(), back.telemetry.to_json());
    });
}

#[test]
fn random_annotated_runs_round_trip() {
    check("wire: annotated round trip", |g| {
        let run = gen_run(g);
        let benches = Benchmark::ALL;
        let set = AnnotationSet {
            structures: g.vec(0, 5, |g| {
                (*g.pick(&benches), format!("structure{}", g.u64_below(10)))
            }),
            pinned: g
                .vec(0, 20, |g| PageId(g.u64_below(1 << 30)))
                .into_iter()
                .collect(),
        };
        let bytes = ramp_serve::wire::encode_annotated(&run, &set);
        let (back, back_set) = ramp_serve::wire::decode_annotated(&bytes).unwrap();
        assert_bit_equal(&run, &back);
        assert_eq!(back_set.structures, set.structures);
        assert_eq!(back_set.pinned, set.pinned);
    });
}

#[test]
fn any_single_byte_corruption_is_a_clean_error() {
    check("wire: corruption detected", |g| {
        let run = gen_run(g);
        let good = ramp_serve::wire::encode_run(&run);
        // Flip one random bit somewhere in the frame.
        let mut bad = good.clone();
        let at = g.usize_in(0, bad.len());
        bad[at] ^= 1 << g.u64_below(8);
        match ramp_serve::wire::decode_run(&bad) {
            Err(_) => {}
            // Only a bit-exact reproduction may decode (never happens
            // with a real flip, but keeps the property honest).
            Ok(back) => assert_bit_equal(&run, &back),
        }
    });
}

#[test]
fn any_truncation_is_a_clean_error() {
    check("wire: truncation detected", |g| {
        let run = gen_run(g);
        let good = ramp_serve::wire::encode_run(&run);
        let cut = g.usize_in(0, good.len()); // strictly shorter
        assert!(
            ramp_serve::wire::decode_run(&good[..cut]).is_err(),
            "decode of {cut}/{} bytes must fail",
            good.len()
        );
    });
}

#[test]
fn version_and_kind_skew_are_clean_misses() {
    let run = gen_run(&mut test_gen());
    let good = ramp_serve::wire::encode_run(&run);
    let mut skewed = good.clone();
    skewed[8] ^= 0x01; // first byte of the little-endian version field
    assert!(matches!(
        ramp_serve::wire::decode_run(&skewed),
        Err(CodecError::WrongVersion { .. })
    ));
    assert!(matches!(
        ramp_serve::wire::decode_annotated(&good),
        Err(CodecError::WrongKind { .. })
    ));
}

#[test]
fn store_survives_random_garbage_files() {
    // Random bytes dropped into the store directory must read as misses.
    let dir = std::env::temp_dir().join(format!("ramp-codec-props-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ramp_serve::store::RunStore::open(&dir).unwrap();
    let cfg = ramp_core::config::SystemConfig::smoke_test();
    let key = ramp_serve::store::run_key(
        &cfg,
        ramp_serve::store::RunKind::Profile,
        Workload::all()[0].name(),
        "ddr-only",
    );
    check("store: garbage files are misses", |g| {
        let garbage: Vec<u8> = g.vec(0, 200, |g| g.u64() as u8);
        std::fs::write(dir.join(format!("{key}.run")), &garbage).unwrap();
        assert!(store.load_run(&key).is_none());
    });
}

#[test]
fn corrupted_persisted_entries_quarantine_and_never_serve_garbage() {
    // A persisted entry damaged on disk — one flipped bit or a random
    // truncation — must read back as a clean miss AND be quarantined
    // (renamed `*.quarantine` beside a `*.reason` autopsy note). It must
    // never panic and never serve a payload that differs from what was
    // written.
    let dir = std::env::temp_dir().join(format!("ramp-codec-quarantine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ramp_serve::store::RunStore::open(&dir).unwrap();
    let cfg = ramp_core::config::SystemConfig::smoke_test();
    let key = ramp_serve::store::run_key(
        &cfg,
        ramp_serve::store::RunKind::Static,
        Workload::all()[0].name(),
        "perf-focused",
    );
    let path = dir.join(format!("{key}.run"));
    let jail = dir.join(format!("{key}.run.quarantine"));
    let reason = dir.join(format!("{key}.run.reason"));
    check("store: damaged entries quarantine", |g| {
        let _ = std::fs::remove_file(&jail);
        let _ = std::fs::remove_file(&reason);
        let run = gen_run(g);
        // What the store persists: `gen_run` never yields a DDR-only
        // policy, so the table keeps only its `total_cycles`.
        let stored = RunResult {
            table: StatsTable::from_stats(Vec::new(), run.table.total_cycles()),
            ..run.clone()
        };
        assert!(store.store_run(&key, &run), "persist a fresh entry");
        let good = std::fs::read(&path).unwrap();
        let mut bad = good.clone();
        if g.u64_below(2) == 0 {
            let at = g.usize_in(0, bad.len());
            bad[at] ^= 1 << g.u64_below(8);
        } else {
            bad.truncate(g.usize_in(0, bad.len()));
        }
        std::fs::write(&path, &bad).unwrap();
        match store.load_run(&key) {
            None => {
                assert!(!path.exists(), "damaged file must leave the serving path");
                assert!(jail.exists(), "damaged file must be jailed");
                let note = std::fs::read_to_string(&reason).unwrap();
                assert!(note.contains(&format!("{key}.run")), "{note}");
                assert_eq!(
                    std::fs::read(&jail).unwrap(),
                    bad,
                    "jail preserves the bytes"
                );
            }
            // Only a bit-exact reproduction of the persisted form may
            // ever serve.
            Some(back) => assert_bit_equal(&stored, &back),
        }
    });
    let quarantined = store
        .metrics()
        .quarantined
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(quarantined > 0, "at least one iteration must quarantine");
}

fn test_gen() -> Gen {
    Gen::from_seed(0x52414d50)
}
