//! Property-based tests over the core data structures and invariants
//! (in-tree `ramp::sim::check` harness): ECC algebra, AVF bounds,
//! page-map consistency, MEA's frequent-element guarantee,
//! trace-generator containment, telemetry invariants (histogram
//! conservation, epoch monotonicity, merge/sequential equivalence),
//! store-entry round trips, and the store's frame and wire decoders,
//! simulator checkpoint restores and the HTTP request and response
//! parsers under hostile bytes.
//!
//! Each property runs 256 deterministic cases; on failure the harness
//! prints the case's seed so `RAMP_PROP_SEED=<seed>` replays it alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ramp::avf::AvfTracker;
use ramp::core::{MeaTracker, PageMap};
use ramp::dram::MemoryKind;
use ramp::faultsim::ecc::chipkill::TOTAL_SYMBOLS;
use ramp::faultsim::{ChipKill, ErrorClass, Hsiao7264};
use ramp::sim::check::check;
use ramp::sim::units::{AccessKind, Cycle, PageId, LINES_PER_PAGE};
use ramp::trace::{Benchmark, InstanceGen};

/// Forwards to the system allocator, recording the largest single
/// allocation each thread requests so a decoder property can bound it.
struct PeakAlloc;

thread_local! {
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    // `try_with`: allocations during thread teardown are not recorded.
    let _ = LARGEST_ALLOC.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches only
// a const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Runs `f` and asserts that none of the allocations it made on this
/// thread was larger than `limit` bytes.
fn assert_allocs_within(limit: usize, what: &str, f: impl FnOnce()) {
    LARGEST_ALLOC.with(|m| m.set(0));
    f();
    let largest = LARGEST_ALLOC.with(Cell::get);
    assert!(
        largest <= limit,
        "{what}: a {largest}-byte allocation, limit {limit}"
    );
}

/// Hsiao (72,64): encode/decode round-trips for arbitrary data words.
#[test]
fn hsiao_round_trip() {
    check("hsiao_round_trip", |g| {
        let data = g.u64();
        let code = Hsiao7264::new();
        let check = code.encode(data);
        let (outcome, decoded) = code.decode(data, check);
        assert_eq!(outcome, ramp::faultsim::ecc::hsiao::DecodeOutcome::Clean);
        assert_eq!(decoded, data);
    });
}

/// Hsiao: any single flipped bit of any codeword is corrected back to
/// the original data.
#[test]
fn hsiao_corrects_any_single_bit() {
    check("hsiao_corrects_any_single_bit", |g| {
        let data = g.u64();
        let bit = g.usize_in(0, 72);
        let code = Hsiao7264::new();
        let check = code.encode(data);
        let (rd, rc) = if bit < 64 {
            (data ^ (1u64 << bit), check)
        } else {
            (data, check ^ (1u8 << (bit - 64)))
        };
        let (_, decoded) = code.decode(rd, rc);
        assert_eq!(decoded, data, "flipped bit {bit}");
    });
}

/// Hsiao: any double-bit error is detected, never silently accepted.
#[test]
fn hsiao_detects_any_double_bit() {
    check("hsiao_detects_any_double_bit", |g| {
        let a = g.usize_in(0, 72);
        let b = g.usize_in(0, 72);
        if a == b {
            return; // not a double-bit error
        }
        let code = Hsiao7264::new();
        let err = (1u128 << a) | (1u128 << b);
        assert_eq!(
            code.classify_error(err),
            ErrorClass::DetectedUncorrectable,
            "bits {a},{b}"
        );
    });
}

/// ChipKill: any single-symbol (whole chip) error of any value is
/// corrected; any double-symbol error is never corrected or silent.
#[test]
fn chipkill_symbol_guarantees() {
    check("chipkill_symbol_guarantees", |g| {
        let chip_a = g.usize_in(0, TOTAL_SYMBOLS);
        let chip_b = g.usize_in(0, TOTAL_SYMBOLS);
        let val_a = g.u8_in_inclusive(1, 255);
        let val_b = g.u8_in_inclusive(1, 255);
        let ck = ChipKill::new();
        assert_eq!(
            ck.classify_chip_failure(chip_a, val_a),
            ErrorClass::Corrected
        );
        if chip_a != chip_b {
            let mut err = [0u8; TOTAL_SYMBOLS];
            err[chip_a] = val_a;
            err[chip_b] = val_b;
            assert_eq!(ck.classify_error(&err), ErrorClass::DetectedUncorrectable);
        }
    });
}

/// AVF is always within [0, 1] and ACE time is conserved across the
/// two memories for arbitrary access sequences.
#[test]
fn avf_bounded_and_additive() {
    check("avf_bounded_and_additive", |g| {
        let accesses = g.vec(1, 200, |g| {
            (
                g.usize_in(0, LINES_PER_PAGE),
                g.bool(),
                g.bool(),
                g.u64_in(1, 10_000),
            )
        });
        let mut t = AvfTracker::new(Cycle(0));
        let mut now = 0u64;
        let page = PageId(42);
        for (line, is_write, in_hbm, dt) in accesses {
            now += dt;
            let kind = if is_write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let mem = if in_hbm {
                MemoryKind::Hbm
            } else {
                MemoryKind::Ddr
            };
            t.on_access(page, line, kind, Cycle(now), mem);
        }
        let table = t.finish(Cycle(now));
        let s = table.get(page).expect("touched");
        assert!(s.avf >= 0.0 && s.avf <= 1.0 + 1e-12, "avf {}", s.avf);
        let total = table.total_cycles();
        let split = s.avf_in(MemoryKind::Hbm, total) + s.avf_in(MemoryKind::Ddr, total);
        assert!((split - s.avf).abs() < 1e-12, "ACE split must sum to AVF");
    });
}

/// PageMap: after an arbitrary sequence of placements and migrations,
/// every page has exactly one frame, frames within a memory are unique,
/// and HBM occupancy never exceeds capacity.
#[test]
fn pagemap_consistency() {
    check("pagemap_consistency", |g| {
        let ops = g.vec(1, 300, |g| (g.u64_below(64), g.bool()));
        let capacity = 16u64;
        let mut pm = PageMap::new(capacity);
        for (page, to_hbm) in ops {
            let to = if to_hbm {
                MemoryKind::Hbm
            } else {
                MemoryKind::Ddr
            };
            let _ = pm.migrate(PageId(page), to); // HbmFull is a legal outcome
        }
        assert!(pm.hbm_used() <= capacity);
        // Frames unique per memory.
        let mut seen_hbm = std::collections::HashSet::new();
        let mut seen_ddr = std::collections::HashSet::new();
        for page in 0..64u64 {
            if let Some((kind, frame)) = pm.lookup(PageId(page)) {
                let fresh = match kind {
                    MemoryKind::Hbm => seen_hbm.insert(frame),
                    MemoryKind::Ddr => seen_ddr.insert(frame),
                };
                assert!(fresh, "duplicate frame {frame} in {kind}");
            }
        }
    });
}

/// MEA (Misra-Gries): any element with more than n/(k+1) occurrences
/// in a stream of n accesses survives in a k-entry tracker.
#[test]
fn mea_frequent_element_guarantee() {
    check("mea_frequent_element_guarantee", |g| {
        let noise = g.vec(0, 120, |g| g.u64_in(100, 10_000));
        let heavy_count = g.usize_in(40, 80);
        let k = 8;
        let mut stream: Vec<PageId> = noise.into_iter().map(PageId).collect();
        for _ in 0..heavy_count {
            stream.push(PageId(7));
        }
        let n = stream.len();
        if heavy_count <= n / (k + 1) {
            return; // below the frequency threshold: no guarantee applies
        }
        // Deterministic interleave.
        stream.sort_by_key(|p| p.0.wrapping_mul(0x9e3779b9) % 251);
        let mut mea = MeaTracker::new(k);
        for p in stream {
            mea.record(p);
        }
        assert!(mea.hot_pages().contains(&PageId(7)));
    });
}

/// Trace generators only emit addresses inside their declared
/// footprint, for every benchmark and seed.
#[test]
fn traces_stay_in_footprint() {
    check("traces_stay_in_footprint", |g| {
        let seed = g.u64();
        let bench = *g.pick(&Benchmark::ALL);
        let mut gen = InstanceGen::new(bench.profile(), 3, seed, 1_000_000);
        let base = gen.base_page().index();
        let fp = gen.footprint_pages();
        for _ in 0..2_000 {
            let rec = gen.next().unwrap();
            let p = rec.addr.page().index();
            assert!(p >= base && p < base + fp, "{bench:?} escaped footprint");
        }
    });
}

/// Telemetry: a histogram's bin counts always sum to its observation
/// total, for arbitrary geometry and arbitrary (even out-of-range)
/// observations.
#[test]
fn telemetry_histogram_counts_sum_to_total() {
    use ramp::sim::telemetry::BinHistogram;
    check("telemetry_histogram_counts_sum_to_total", |g| {
        let lo = g.f64_in(-1e3, 1e3);
        let width = g.f64_in(0.5, 1e3);
        let bins = g.usize_in(1, 64);
        let mut h = BinHistogram::new(lo, lo + width, bins);
        let xs = g.vec(0, 200, |g| g.f64_in(-2e3, 2e3));
        let n = xs.len() as u64;
        for x in xs {
            h.observe(x);
        }
        assert_eq!(h.total(), n);
        assert_eq!(h.counts().iter().sum::<u64>(), n, "clamping lost a sample");
    });
}

/// Telemetry: counter values are monotone non-decreasing across epoch
/// snapshots, for arbitrary interleavings of adds and epoch marks.
#[test]
fn telemetry_counters_monotone_across_epochs() {
    use ramp::sim::telemetry::StatRegistry;
    check("telemetry_counters_monotone_across_epochs", |g| {
        let mut reg = StatRegistry::new();
        let ops = g.vec(1, 100, |g| (g.bool(), g.u64_below(1000)));
        for (i, (mark, delta)) in ops.into_iter().enumerate() {
            reg.counter_add("s", "events", delta);
            if mark {
                reg.mark_epoch(format!("e{i}"));
            }
        }
        reg.mark_epoch("final");
        let mut prev = 0u64;
        for (label, snap) in reg.epochs() {
            let v = snap.get("s", "events").unwrap().as_counter().unwrap();
            assert!(v >= prev, "epoch {label}: counter went backwards");
            prev = v;
        }
    });
}

/// Telemetry: merging per-shard registries equals accumulating every
/// event sequentially into one registry, regardless of how events are
/// split across shards.
#[test]
fn telemetry_merge_equals_sequential_accumulation() {
    use ramp::sim::telemetry::StatRegistry;
    check("telemetry_merge_equals_sequential_accumulation", |g| {
        let shards = g.usize_in(1, 5);
        let events = g.vec(0, 150, |g| {
            (
                g.usize_in(0, 5), // shard the event lands on
                g.u64_below(3),   // stat selector
                g.u64_below(100), // payload
            )
        });
        let mut seq = StatRegistry::new();
        let mut parts: Vec<StatRegistry> = (0..shards).map(|_| StatRegistry::new()).collect();
        for (shard, which, v) in events {
            let part = &mut parts[shard % shards];
            match which {
                0 => {
                    part.counter_add("scope", "c", v);
                    seq.counter_add("scope", "c", v);
                }
                1 => {
                    part.ratio_add("scope", "r", v, v + 1);
                    seq.ratio_add("scope", "r", v, v + 1);
                }
                _ => {
                    part.observe("scope", "h", 0.0, 100.0, 10, v as f64);
                    seq.observe("scope", "h", 0.0, 100.0, 10, v as f64);
                }
            }
        }
        let mut merged = StatRegistry::new();
        for p in &parts {
            merged.merge_from(p);
        }
        assert_eq!(merged.snapshot(), seq.snapshot());
        assert_eq!(merged.snapshot().to_json(), seq.snapshot().to_json());
    });
}

/// Statistics: Pearson correlation is symmetric and within [-1, 1].
#[test]
fn pearson_properties() {
    check("pearson_properties", |g| {
        let pairs = g.vec(3, 50, |g| (g.f64_in(-1e6, 1e6), g.f64_in(-1e6, 1e6)));
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Some(r) = ramp::sim::stats::pearson(&xs, &ys) {
            assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "rho {}", r);
            let r2 = ramp::sim::stats::pearson(&ys, &xs).unwrap();
            assert!((r - r2).abs() < 1e-9);
        }
    });
}

fn gen_run(g: &mut ramp::sim::check::Gen) -> ramp::core::system::RunResult {
    use ramp::avf::{PageStats, StatsTable};
    use ramp::sim::telemetry::{BinHistogram, Snapshot, Stat};
    let pages = g.vec(0, 12, |g| PageStats {
        page: PageId(g.u64_below(1 << 40)),
        reads: g.u64_below(1 << 32),
        writes: g.u64_below(1 << 32),
        ace_hbm: g.u64(),
        ace_ddr: g.u64(),
        avf: g.f64_in(0.0, 1.0),
    });
    let mut telemetry = Snapshot::default();
    for s in 0..g.usize_in(0, 4) {
        for n in 0..g.usize_in(1, 4) {
            let stat = match g.u64_below(3) {
                0 => Stat::Counter(g.u64()),
                1 => Stat::Gauge(g.f64_in(-1e9, 1e9)),
                _ => {
                    // Observed, so every decoded bin count is non-trivial.
                    let mut h = BinHistogram::new(0.0, 100.0, g.usize_in(1, 12));
                    for _ in 0..g.usize_in(0, 40) {
                        h.observe(g.f64_in(-10.0, 110.0));
                    }
                    Stat::Histogram(h)
                }
            };
            telemetry.insert(format!("scope{s}"), format!("stat{n}"), stat);
        }
    }
    ramp::core::system::RunResult {
        workload: (*g.pick(&["lbm", "mix1", ""])).to_string(),
        policy: (*g.pick(&["profile", "frac-hottest-0.50"])).to_string(),
        ipc: g.f64_in(0.0, 16.0),
        per_core_ipc: g.vec(0, 16, |g| g.f64_in(0.0, 4.0)),
        ser_fit: g.f64_in(0.0, 1e6),
        ser_ddr_only_fit: g.f64_in(1e-9, 1e4),
        cycles: g.u64(),
        instructions: g.u64(),
        mpki: g.f64_in(0.0, 500.0),
        hbm_accesses: g.u64(),
        ddr_accesses: g.u64(),
        migrations: g.u64(),
        mean_read_latency: (g.f64_in(0.0, 1e4), g.f64_in(0.0, 1e4)),
        table: StatsTable::from_stats(pages, g.u64()),
        telemetry,
    }
}

/// Store entries round-trip bit-exactly: a decoded run, histogram bin
/// counts and table rows included, re-encodes to the same bytes.
#[test]
fn wire_entries_round_trip_bit_exactly() {
    use ramp::serve::wire;

    check("wire_entries_round_trip_bit_exactly", |g| {
        let run = gen_run(g);
        let bytes = wire::encode_run(&run);
        let back = wire::decode_run(&bytes).unwrap();
        assert_eq!(back.telemetry, run.telemetry);
        assert_eq!(back.table.pages(), run.table.pages());
        assert_eq!(wire::encode_run(&back), bytes);
    });
}

/// Overwrites up to 5 bytes of `bytes`, then cuts or extends it.
fn mutate(g: &mut ramp::sim::check::Gen, bytes: &mut Vec<u8>) {
    for _ in 0..g.usize_in(0, 6) {
        if bytes.is_empty() {
            break;
        }
        let at = g.usize_in(0, bytes.len());
        bytes[at] = g.u8_in_inclusive(0, 255);
    }
    match g.u64_below(4) {
        0 => bytes.truncate(g.usize_in(0, bytes.len() + 1)),
        1 => bytes.extend(g.vec(1, 16, |g| g.u8_in_inclusive(0, 255))),
        _ => {}
    }
}

/// Runs every frame and wire decoder on `bytes`: each must return `Ok`
/// or a typed `CodecError` (a panic fails the case with its replay
/// seed), and no single allocation may outgrow the input — at most 4
/// bytes per input byte (an annotated entry's structure list holds
/// 32-byte elements whose shortest encoding is 8 bytes) plus 4 KiB for
/// fixed-size B-tree nodes. So a corrupt length never sizes an
/// allocation.
fn assert_decodes_cleanly(bytes: &[u8]) {
    use ramp::serve::wire::{self, KIND_RUN, WIRE_VERSION};
    use ramp::sim::codec::decode_framed;

    // The decoded values are dropped inside the measured calls.
    let limit = 4 * bytes.len() + 4096;
    assert_allocs_within(limit, "decode_framed", || {
        let _ = decode_framed(bytes, KIND_RUN, WIRE_VERSION);
    });
    assert_allocs_within(limit, "decode_run", || {
        let _ = wire::decode_run(bytes);
    });
    assert_allocs_within(limit, "decode_annotated", || {
        let _ = wire::decode_annotated(bytes);
    });
}

/// Store frames and wire entries under hostile bytes. Each case builds
/// a real run or annotated entry, then decodes (1) random bytes or the
/// entry with overwritten bytes, a cut or an extension, re-framed half
/// the time so the mutated payload passes the checksum and reaches the
/// wire parser, and (2) the entry re-framed with one hostile count — a
/// `u32` no larger than the payload — written at every fourth offset
/// from a random start, so every length field of the payload meets
/// plausible but wrong claims across the cases.
#[test]
fn hostile_frames_decode_cleanly_within_input_sized_allocations() {
    use ramp::core::annotate::AnnotationSet;
    use ramp::serve::wire::{self, KIND_ANNOTATED, KIND_RUN, WIRE_VERSION};
    use ramp::sim::codec::{decode_framed, encode_framed};

    check("hostile_frames_decode_cleanly", |g| {
        let run = gen_run(g);
        let (kind, entry) = if g.bool() {
            (KIND_RUN, wire::encode_run(&run))
        } else {
            let set = AnnotationSet {
                structures: g.vec(0, 6, |g| {
                    (*g.pick(&Benchmark::ALL), format!("s{}", g.u64_below(1000)))
                }),
                pinned: g
                    .vec(0, 16, |g| PageId(g.u64_below(1 << 40)))
                    .into_iter()
                    .collect(),
            };
            (KIND_ANNOTATED, wire::encode_annotated(&run, &set))
        };

        let mut bytes = if g.u64_below(4) == 0 {
            g.vec(0, 600, |g| g.u8_in_inclusive(0, 255))
        } else {
            entry.clone()
        };
        mutate(g, &mut bytes);
        // Header: 8 magic + 4 version + 1 kind + 8 length; trailer: 8.
        if bytes.len() >= 29 && g.bool() {
            bytes = encode_framed(kind, WIRE_VERSION, &bytes[21..bytes.len() - 8]);
        }
        assert_decodes_cleanly(&bytes);

        let payload = decode_framed(&entry, kind, WIRE_VERSION).unwrap();
        let claim = g.u64_below(payload.len() as u64 + 1) as u32;
        for at in (g.usize_in(0, 4)..payload.len().saturating_sub(3)).step_by(4) {
            let mut hostile = payload.to_vec();
            hostile[at..at + 4].copy_from_slice(&claim.to_le_bytes());
            assert_decodes_cleanly(&encode_framed(kind, WIRE_VERSION, &hostile));
        }
    });
}

/// The simulator checkpoints are taken from: perf-FC migration of
/// libquantum at smoke config, so every section (page map, AVF tracker,
/// migration engine, copy backlog) carries state.
fn checkpoint_sim() -> ramp::core::system::SystemSim {
    use ramp::core::config::SystemConfig;
    use ramp::core::migration::{MigrationEngine, MigrationScheme};
    use std::collections::HashSet;

    ramp::core::system::SystemSim::new(
        SystemConfig::smoke_test(),
        &ramp::trace::Workload::Homogeneous(Benchmark::Libquantum),
        "perf-fc",
        &HashSet::new(),
        HashSet::new(),
        Some(MigrationEngine::new(MigrationScheme::PerfFc)),
    )
}

/// Pages the smoke run's regions span, ascending: the footprint a
/// restore accepts.
fn checkpoint_footprint() -> Vec<PageId> {
    let cfg = ramp::core::config::SystemConfig::smoke_test();
    let mut pages: Vec<PageId> = ramp::trace::Workload::Homogeneous(Benchmark::Libquantum)
        .build_cores(cfg.seed, cfg.insts_per_core)
        .iter()
        .flat_map(|gen| {
            (0..gen.profile().regions.len()).flat_map(|ri| {
                let (lo, hi) = gen.region_page_range(ri);
                (lo.0..hi.0).map(PageId)
            })
        })
        .collect();
    pages.sort_unstable();
    pages
}

/// Restores `bytes` into a freshly built simulator: the restore must
/// return `Ok` or a typed `CodecError` (a panic fails the case with its
/// replay seed), and no single allocation may exceed `limit`.
fn assert_restores_cleanly(bytes: &[u8], limit: usize) {
    let mut sim = checkpoint_sim();
    assert_allocs_within(limit, "SystemSim::restore_state", || {
        let _ = sim.restore_state(bytes);
    });
}

/// Smoke-config checkpoints under hostile bytes. Each case takes one of
/// a real run's checkpoints and restores, each into a freshly built
/// simulator, (1) the blob with overwritten bytes, a cut or an
/// extension, re-framed half the time so the mutated payload passes
/// the checksum, and (2) four re-framed copies with one hostile field
/// each: a `u32` count no larger than the payload, a page id (just past
/// the footprint, at the top of index chunk 0 or 4095, or `u64::MAX`), or a
/// run of `0xff` varint bytes, at a random offset (half of them in the
/// payload's second half, where the page map, the AVF tracker and the
/// migration engine sit).
///
/// Allocation bound: the larger of the decoders' 4× input + 4 KiB and
/// the footprint-sized arena — one AVF record (64 line stamps and four
/// counters, 8 bytes each) per footprint page. A restore rebuilds the
/// page map and the tracker only for pages inside the run's footprint,
/// so no count or id in the blob sizes an allocation past that.
#[test]
fn hostile_checkpoints_restore_cleanly_within_footprint_sized_allocations() {
    use ramp::core::system::{RunHooks, CHECKPOINT_KIND, CHECKPOINT_VERSION};
    use ramp::sim::codec::{decode_framed, encode_framed};

    let mut blobs: Vec<Vec<u8>> = Vec::new();
    let mut keep = |_epoch: u64, blob: Vec<u8>| blobs.push(blob);
    checkpoint_sim().run_with_hooks(RunHooks {
        checkpoint_every: 2,
        on_checkpoint: Some(&mut keep),
        ..RunHooks::default()
    });
    let blobs = [blobs[0].clone(), blobs[blobs.len() - 1].clone()];
    let footprint = checkpoint_footprint();
    let arena = footprint.len() * (LINES_PER_PAGE + 4) * 8;
    let limit = |len: usize| (4 * len + 4096).max(arena);
    for blob in &blobs {
        let mut sim = checkpoint_sim();
        assert_eq!(sim.restore_state(blob), Ok(()), "a real checkpoint");
    }

    ramp::sim::check::check_n("hostile_checkpoints_restore_cleanly", 32, |g| {
        let blob = g.pick(&blobs);
        let mut bytes = blob.clone();
        mutate(g, &mut bytes);
        if bytes.len() >= 29 && g.bool() {
            bytes = encode_framed(
                CHECKPOINT_KIND,
                CHECKPOINT_VERSION,
                &bytes[21..bytes.len() - 8],
            );
        }
        assert_restores_cleanly(&bytes, limit(bytes.len()));

        let payload = decode_framed(blob, CHECKPOINT_KIND, CHECKPOINT_VERSION).unwrap();
        for _ in 0..4 {
            let from = if g.bool() { payload.len() / 2 } else { 0 };
            let at = g.usize_in(from, payload.len() - 10);
            let mut hostile = payload.to_vec();
            match g.u64_below(3) {
                0 => {
                    let claim = g.u64_below(payload.len() as u64 + 1) as u32;
                    hostile[at..at + 4].copy_from_slice(&claim.to_le_bytes());
                }
                1 => {
                    let page = *g.pick(&[
                        footprint[footprint.len() - 1].0 + 1,
                        (1 << 22) - 1,
                        (4095 << 22) | ((1 << 22) - 1),
                        u64::MAX,
                    ]);
                    hostile[at..at + 8].copy_from_slice(&page.to_le_bytes());
                }
                _ => {
                    let run = g.usize_in(1, 11);
                    hostile[at..at + run].fill(0xff);
                }
            }
            let framed = encode_framed(CHECKPOINT_KIND, CHECKPOINT_VERSION, &hostile);
            assert_restores_cleanly(&framed, limit(framed.len()));
        }
    });
}

/// Runs both HTTP parsers on `bytes`: each must return `Ok` or a typed
/// `RequestError` (a panic fails the case with its replay seed), within
/// the decoders' allocation bound above — 4× the input plus 4 KiB, the
/// 4 KiB being the parsers' fixed read buffer. A parsed request never
/// carries more body than `MAX_BODY_BYTES`.
fn assert_http_parses_cleanly(bytes: &[u8]) {
    use ramp::serve::http::{read_request, read_response_full, MAX_BODY_BYTES};

    let limit = 4 * bytes.len() + 4096;
    assert_allocs_within(limit, "read_request", || {
        if let Ok(req) = read_request(&mut &bytes[..]) {
            assert!(req.body.len() <= MAX_BODY_BYTES);
        }
    });
    assert_allocs_within(limit, "read_response_full", || {
        let _ = read_response_full(&mut &bytes[..]);
    });
}

/// The HTTP request and response parsers under hostile bytes. Each case
/// builds a valid request (random method, path, filler headers, a
/// `connection` header and a body) and checks that it parses back
/// exactly; then feeds both parsers random bytes or the request
/// mutated, the request with a hostile `content-length` (too large,
/// overflowing, negative, empty, non-decimal — each must be an `Err`),
/// a header count at the bound ± 2 (`TooLarge` exactly past it), and a
/// mutated response.
#[test]
fn hostile_http_messages_parse_cleanly_within_input_sized_allocations() {
    use ramp::serve::http::{
        read_request, write_request, write_response_keep, RequestError, MAX_HEADER_COUNT,
    };

    check("hostile_http_messages_parse_cleanly", |g| {
        let method = *g.pick(&["GET", "POST", "PUT", "DELETE"]);
        let path = format!("/runs/{:x}", g.u64());
        let body: String = g
            .vec(0, 300, |g| g.u8_in_inclusive(b' ', b'~'))
            .into_iter()
            .map(char::from)
            .collect();
        let mut head = format!("{method} {path} HTTP/1.1\r\n");
        for i in 0..g.usize_in(0, 8) {
            head.push_str(&format!("x-filler-{i}: {}\r\n", g.u64()));
        }
        let close = g.bool();
        head.push_str(if close {
            "connection: close\r\n"
        } else {
            "connection: keep-alive\r\n"
        });
        let valid = format!("{head}content-length: {}\r\n\r\n{body}", body.len());
        let req = read_request(&mut valid.as_bytes()).unwrap();
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            (method, path.as_str())
        );
        assert_eq!((req.body.as_str(), req.keep_alive), (body.as_str(), !close));
        assert_http_parses_cleanly(valid.as_bytes());

        let mut bytes = if g.u64_below(4) == 0 {
            g.vec(0, 600, |g| g.u8_in_inclusive(0, 255))
        } else {
            valid.clone().into_bytes()
        };
        mutate(g, &mut bytes);
        assert_http_parses_cleanly(&bytes);

        let huge = (1000 + g.u64() % (1 << 40)).to_string();
        let claim = g
            .pick(&[
                "18446744073709551615".to_string(),
                "18446744073709551616".to_string(),
                "4294967296".to_string(),
                "65536".to_string(),
                "65537".to_string(),
                huge,
                "-1".to_string(),
                String::new(),
                "0x10".to_string(),
                "1e9".to_string(),
            ])
            .clone();
        let hostile = format!("{head}content-length: {claim}\r\n\r\n{body}");
        assert!(read_request(&mut hostile.as_bytes()).is_err(), "{claim:?}");
        assert_http_parses_cleanly(hostile.as_bytes());

        let count = g.usize_in(MAX_HEADER_COUNT - 2, MAX_HEADER_COUNT + 3);
        let many = (0..count).fold(format!("{method} {path} HTTP/1.1\r\n"), |s, i| {
            s + &format!("h{i}: v\r\n")
        }) + "\r\n";
        match read_request(&mut many.as_bytes()) {
            Ok(_) => assert!(count <= MAX_HEADER_COUNT),
            Err(RequestError::TooLarge(_)) => assert!(count > MAX_HEADER_COUNT),
            Err(e) => panic!("{count} headers: {e}"),
        }
        assert_http_parses_cleanly(many.as_bytes());

        let mut wire = Vec::new();
        write_request(&mut wire, "shard", method, &path, &body).unwrap();
        assert_eq!(read_request(&mut wire.as_slice()).unwrap().body, body);
        let mut response = Vec::new();
        write_response_keep(&mut response, 200, &[("retry-after", "1")], &body, !close).unwrap();
        mutate(g, &mut response);
        assert_http_parses_cleanly(&response);
    });
}

/// A short string over the characters JSON has to escape or re-decode:
/// quotes, backslashes, control characters and multi-byte UTF-8.
fn gen_text(g: &mut ramp::sim::check::Gen) -> String {
    g.vec(0, 12, |g| {
        *g.pick(&[
            'a', 'Z', '0', ' ', '-', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', 'é', '€',
            '😀',
        ])
    })
    .into_iter()
    .collect()
}

/// Runs the flat-JSON reader on `body`: it must return `Ok` or an `Err`
/// (a panic fails the case with its replay seed), within the decoders'
/// allocation bound of 4× the input plus 4 KiB.
fn assert_json_parses_cleanly(body: &str) {
    use ramp::serve::json::parse_flat;

    assert_allocs_within(4 * body.len() + 4096, "parse_flat", || {
        let _ = parse_flat(body);
    });
}

/// The flat-JSON reader under hostile bytes. Each case writes an object
/// with `ObjWriter` (string, integer, float and boolean fields; floats
/// from arbitrary bits, so NaN and infinities become `null`) and checks
/// that every field parses back exactly, then feeds the reader random
/// bytes or the body mutated.
#[test]
fn hostile_json_bodies_parse_cleanly_within_input_sized_allocations() {
    use ramp::serve::json::{parse_flat, ObjWriter};

    check("hostile_json_bodies_parse_cleanly", |g| {
        let mut w = ObjWriter::new();
        let mut floats = Vec::new();
        let mut expect = std::collections::BTreeMap::new();
        for i in 0..g.usize_in(0, 12) {
            // The index suffix keeps keys distinct.
            let key = format!("{}{i}", gen_text(g));
            let text = match g.u64_below(4) {
                0 => {
                    let v = gen_text(g);
                    w.str(&key, &v);
                    v
                }
                1 => {
                    let v = g.u64();
                    w.u64(&key, v);
                    v.to_string()
                }
                2 => {
                    let v = f64::from_bits(g.u64());
                    w.f64(&key, v);
                    if v.is_finite() {
                        floats.push((key.clone(), v));
                    }
                    "null".to_string()
                }
                _ => {
                    let v = g.bool();
                    w.bool(&key, v);
                    v.to_string()
                }
            };
            expect.insert(key, text);
        }
        let body = w.finish();
        let mut fields = parse_flat(&body).unwrap();
        for (key, v) in floats {
            let back: f64 = fields[&key].parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{key:?}: {}", fields[&key]);
            fields.insert(key, "null".to_string());
        }
        assert_eq!(fields, expect, "{body}");
        assert_json_parses_cleanly(&body);

        let mut bytes = if g.u64_below(4) == 0 {
            g.vec(0, 600, |g| g.u8_in_inclusive(0, 255))
        } else {
            body.into_bytes()
        };
        mutate(g, &mut bytes);
        assert_json_parses_cleanly(&String::from_utf8_lossy(&bytes));
    });
}

/// Runs `SweepSpec::parse` on `text` within the same allocation bound;
/// when it parses, enumerating the grid must return `Ok` or an `Err`
/// (an allocation failure would abort the whole test binary).
fn assert_spec_parses_cleanly(text: &str) {
    use ramp::sweep::spec::{SweepSpec, MAX_GRID_POINTS};

    let mut parsed = None;
    assert_allocs_within(4 * text.len() + 4096, "SweepSpec::parse", || {
        parsed = SweepSpec::parse(text).ok();
    });
    if let Some(spec) = parsed {
        assert!(spec.grid_len() <= MAX_GRID_POINTS);
        if let Ok(points) = spec.points() {
            assert!(points.len() <= spec.grid_len());
        }
    }
}

/// The sweep spec reader under hostile text. Each case writes a spec
/// (random strategy, base and counts, workload, policy and knob axes
/// with now and then an unknown name, and an axis list of up to 3,000
/// values a quarter of the time) and checks that the axes parse back in
/// order; then feeds the reader random bytes or the spec mutated.
#[test]
fn hostile_sweep_specs_parse_cleanly_within_input_sized_allocations() {
    use ramp::sweep::spec::{SweepSpec, KNOBS, MAX_GRID_POINTS};

    let workloads = ["lbm", "mcf", "astar", "mix1", "mix5"];
    let policies = [
        "profile",
        "annotated",
        "rel-fc",
        "perf-focused",
        "static:wr2-ratio",
        "migration:cross-counter",
        "frac-hottest-0.25",
    ];
    // The largest allocation the grid bound admits: a full-size policy
    // axis of the shortest token, 40 bytes in memory per 9 in the spec.
    let shortest = vec!["\"rel-fc\""; MAX_GRID_POINTS].join(",");
    let text =
        format!("[sweep]\nname = \"w\"\n[axes]\nworkload = [\"lbm\"]\npolicy = [{shortest}]\n");
    assert_eq!(SweepSpec::parse(&text).unwrap().grid_len(), MAX_GRID_POINTS);
    assert_spec_parses_cleanly(&text);

    let axis_names: Vec<&str> = KNOBS.iter().map(|k| k.name()).collect();
    check("hostile_sweep_specs_parse_cleanly", |g| {
        let len = |g: &mut ramp::sim::check::Gen| {
            if g.u64_below(4) == 0 {
                g.usize_in(200, 3000)
            } else {
                g.usize_in(1, 5)
            }
        };
        // `n` drawn names; one time in eight, `bad` replaces one of them.
        let axis = |g: &mut ramp::sim::check::Gen, names: &[&'static str], bad, n| {
            let mut items: Vec<&str> = (0..n).map(|_| *g.pick(names)).collect();
            if g.u64_below(8) == 0 {
                items[g.usize_in(0, n)] = bad;
            }
            items
        };
        let mut text = format!("[sweep]\nname = \"s{}\"\n", g.u64_below(100));
        for (key, value) in [
            (
                "strategy",
                format!("\"{}\"", g.pick(&["grid", "random", "halving", "bogus"])),
            ),
            ("seed", g.u64().to_string()),
            ("samples", g.u64_below(20).to_string()),
            ("rungs", g.u64_below(4).to_string()),
            ("base", format!("\"{}\"", g.pick(&["smoke", "table1"]))),
            ("insts", g.u64_below(100_000).to_string()),
        ] {
            if g.bool() {
                text.push_str(&format!("{key} = {value}\n"));
            }
        }
        text.push_str("[axes]\n");
        let n = len(g);
        let wls = axis(g, &workloads, "mix9", n);
        let n = len(g);
        let pols = axis(g, &policies, "static:rel-fc", n);
        let quoted = |items: &[&str]| {
            let items: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
            items.join(", ")
        };
        text.push_str(&format!("workload = [{}]\n", quoted(&wls)));
        text.push_str(&format!("policy = [{}]\n", quoted(&pols)));
        let mut knobs = Vec::new();
        for _ in 0..g.usize_in(0, 4) {
            let name = axis(g, &axis_names, "cores", 1)[0];
            let values: Vec<u64> = (0..len(g)).map(|_| g.u64_below(200_000)).collect();
            let joined: Vec<String> = values.iter().map(u64::to_string).collect();
            text.push_str(&format!("{name} = [{}]  # knob\n", joined.join(",")));
            knobs.push((name, values));
        }
        if let Ok(spec) = SweepSpec::parse(&text) {
            let names: Vec<&str> = spec.workloads.iter().map(|w| w.name()).collect();
            assert_eq!(names, wls);
            let tokens: Vec<&str> = spec.policies.iter().map(|p| p.0.as_str()).collect();
            assert_eq!(tokens, pols);
            let parsed: Vec<(&str, Vec<u64>)> = spec
                .knobs
                .iter()
                .map(|a| (a.knob.name(), a.values.clone()))
                .collect();
            assert_eq!(parsed, knobs);
        }
        assert_spec_parses_cleanly(&text);

        let mut bytes = if g.u64_below(4) == 0 {
            g.vec(0, 600, |g| g.u8_in_inclusive(0, 255))
        } else {
            text.into_bytes()
        };
        mutate(g, &mut bytes);
        assert_spec_parses_cleanly(&String::from_utf8_lossy(&bytes));
    });
}
