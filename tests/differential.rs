//! Differential tests gating the hot-path optimizations.
//!
//! Every optimized fast path in the stack is pinned here against a naive
//! reference implementation kept *in this file*, so a future change to the
//! optimized code cannot silently drift:
//!
//! 1. The flat two-level page table (`ramp::core::PageMap`) against a
//!    plain `HashMap` page map with identical LIFO frame recycling —
//!    seeded property streams of grow (first touch), evict (migrate to
//!    DDR), and migrate ops, including remap-during-migration edge cases.
//!    The dense AVF page arena (`ramp::avf::AvfTracker`) against the
//!    `HashMap` tracker it replaced: identical `finish` tables, resumes
//!    from a checkpoint that continue like the reference, and
//!    save → restore → save byte round trips.
//! 2. Batched DRAM event advancement (`MemorySystem::advance` over whole
//!    chunks, with the controller's idle/wake fast paths) against a naive
//!    walker that advances one cycle at a time — identical completions,
//!    telemetry, and `save_state` wire bytes.
//! 3. End-to-end `RunResult` wire encoding and telemetry JSON across a
//!    seeded config matrix at 1 and 4 executor threads — the executor may
//!    never leak into results.
//!
//! On failure the property harness prints the case's seed;
//! `RAMP_PROP_SEED=<seed>` replays it alone.

use std::collections::{HashMap, HashSet};

use ramp::avf::{AvfTracker, PageStats};
use ramp::core::config::SystemConfig;
use ramp::core::migration::{MigrationEngine, MigrationScheme, Move};
use ramp::core::placement::PlacementPolicy;
use ramp::core::runner::{profile_workload, run_migration, run_static};
use ramp::core::PageMap;
use ramp::core::{FullCounters, MeaTracker};
use ramp::dram::request::MemRequest;
use ramp::dram::{MemoryKind, MemorySystem};
use ramp::serve::wire::encode_run;
use ramp::sim::check::{check, check_n, Gen};
use ramp::sim::codec::{ByteReader, ByteWriter};
use ramp::sim::telemetry::{render_runs_json, BinHistogram, StatRegistry};
use ramp::sim::units::{AccessKind, Cycle, LineAddr, PageId, LINES_PER_PAGE, PAGE_SIZE};
use ramp::trace::{Benchmark, Workload};

// ---------------------------------------------------------------------
// 1. Reference page map: the pre-optimization HashMap implementation.
// ---------------------------------------------------------------------

/// The naive page map the flat table replaced: a `HashMap` binding plus
/// the same LIFO free lists and high-watermark allocators. Every public
/// operation mirrors `PageMap`'s contract exactly; the differential tests
/// drive both with identical op streams and demand identical results.
struct RefPageMap {
    map: HashMap<PageId, (MemoryKind, u64)>,
    free_hbm: Vec<u64>,
    next_hbm: u64,
    hbm_capacity: u64,
    free_ddr: Vec<u64>,
    next_ddr: u64,
}

impl RefPageMap {
    fn new(hbm_capacity_pages: u64) -> Self {
        RefPageMap {
            map: HashMap::new(),
            free_hbm: Vec::new(),
            next_hbm: 0,
            hbm_capacity: hbm_capacity_pages,
            free_ddr: Vec::new(),
            next_ddr: 0,
        }
    }

    fn alloc_hbm(&mut self) -> Option<u64> {
        self.free_hbm.pop().or_else(|| {
            (self.next_hbm < self.hbm_capacity).then(|| {
                let f = self.next_hbm;
                self.next_hbm += 1;
                f
            })
        })
    }

    fn alloc_ddr(&mut self) -> u64 {
        self.free_ddr.pop().unwrap_or_else(|| {
            let f = self.next_ddr;
            self.next_ddr += 1;
            f
        })
    }

    fn resolve(&mut self, page: PageId) -> (MemoryKind, u64) {
        if let Some(&bound) = self.map.get(&page) {
            return bound;
        }
        let frame = self.alloc_ddr();
        self.map.insert(page, (MemoryKind::Ddr, frame));
        (MemoryKind::Ddr, frame)
    }

    fn lookup(&self, page: PageId) -> Option<(MemoryKind, u64)> {
        self.map.get(&page).copied()
    }

    fn frame_line(&mut self, page: PageId, line_in_page: usize) -> (MemoryKind, LineAddr) {
        let (kind, frame) = self.resolve(page);
        (
            kind,
            LineAddr(frame * LINES_PER_PAGE as u64 + line_in_page as u64),
        )
    }

    fn place_in_hbm(&mut self, page: PageId) -> Result<(), ()> {
        let old = self.map.get(&page).copied();
        if let Some((MemoryKind::Hbm, _)) = old {
            return Ok(());
        }
        let frame = self.alloc_hbm().ok_or(())?;
        if let Some((MemoryKind::Ddr, ddr_frame)) = old {
            self.free_ddr.push(ddr_frame);
        }
        self.map.insert(page, (MemoryKind::Hbm, frame));
        Ok(())
    }

    fn migrate(&mut self, page: PageId, to: MemoryKind) -> Result<(), ()> {
        let (kind, frame) = self.resolve(page);
        if kind == to {
            return Ok(());
        }
        match to {
            MemoryKind::Hbm => {
                let new = self.alloc_hbm().ok_or(())?;
                self.map.insert(page, (MemoryKind::Hbm, new));
                self.free_ddr.push(frame);
            }
            MemoryKind::Ddr => {
                let new = self.alloc_ddr();
                self.map.insert(page, (MemoryKind::Ddr, new));
                self.free_hbm.push(frame);
            }
        }
        Ok(())
    }

    fn hbm_pages(&self) -> Vec<PageId> {
        let mut pages: Vec<PageId> = self
            .map
            .iter()
            .filter(|&(_, &(k, _))| k == MemoryKind::Hbm)
            .map(|(&p, _)| p)
            .collect();
        pages.sort();
        pages
    }

    fn hbm_used(&self) -> u64 {
        self.map
            .values()
            .filter(|&&(k, _)| k == MemoryKind::Hbm)
            .count() as u64
    }
}

/// One random op applied to both maps; results must agree exactly.
fn apply_op(pm: &mut PageMap, rf: &mut RefPageMap, op: u64, page: PageId, line: usize) {
    match op {
        0 => assert_eq!(pm.resolve(page), rf.resolve(page), "resolve {page:?}"),
        1 => assert_eq!(pm.lookup(page), rf.lookup(page), "lookup {page:?}"),
        2 => assert_eq!(
            pm.frame_line(page, line),
            rf.frame_line(page, line),
            "frame_line {page:?}/{line}"
        ),
        3 => assert_eq!(
            pm.place_in_hbm(page).is_ok(),
            rf.place_in_hbm(page).is_ok(),
            "place_in_hbm {page:?}"
        ),
        4 => assert_eq!(
            pm.migrate(page, MemoryKind::Hbm).is_ok(),
            rf.migrate(page, MemoryKind::Hbm).is_ok(),
            "migrate->HBM {page:?}"
        ),
        _ => assert_eq!(
            pm.migrate(page, MemoryKind::Ddr).is_ok(),
            rf.migrate(page, MemoryKind::Ddr).is_ok(),
            "migrate->DDR {page:?}"
        ),
    }
}

/// Flat table vs reference map: identical bindings, allocations and
/// HBM occupancy under arbitrary op streams. Page ids mix dense per-core
/// ranges (the trace layer's layout), the 22-bit chunk boundary, and
/// far-outside ids that exercise the flat table's spill path.
#[test]
fn flat_pagemap_matches_reference_hashmap() {
    check("flat_pagemap_matches_reference_hashmap", |g| {
        let capacity = g.u64_in(1, 24);
        let mut pm = PageMap::new(capacity);
        let mut rf = RefPageMap::new(capacity);
        let ops = g.vec(1, 300, |g| {
            let page = match g.u64_below(4) {
                0 => g.u64_below(48),                   // dense low range
                1 => (1 << 22) | g.u64_below(48),       // second core's chunk
                2 => (3 << 22) | g.u64_below(48),       // sparse outer index
                _ => (4096u64 << 22) + g.u64_below(16), // beyond outer range: spill
            };
            (g.u64_below(6), PageId(page), g.usize_in(0, LINES_PER_PAGE))
        });
        let mut touched: Vec<PageId> = ops.iter().map(|&(_, p, _)| p).collect();
        for (op, page, line) in ops {
            apply_op(&mut pm, &mut rf, op, page, line);
        }
        // Aggregate state agrees, and so does every touched binding.
        assert_eq!(pm.hbm_used(), rf.hbm_used());
        assert_eq!(pm.hbm_free(), capacity - rf.hbm_used());
        assert_eq!(pm.hbm_pages(), rf.hbm_pages());
        assert_eq!(pm.len(), rf.map.len());
        touched.sort();
        touched.dedup();
        for p in touched {
            assert_eq!(pm.lookup(p), rf.lookup(p), "final binding {p:?}");
        }
    });
}

/// Pages at the very top of a chunk force the inner table to grow to its
/// full extent; bindings on both sides of the chunk boundary must still
/// match the reference (a single directed case — the growth memsets tens
/// of megabytes, so the seeded stream above sticks to dense offsets).
#[test]
fn pagemap_chunk_boundary_growth_parity() {
    let mut pm = PageMap::new(8);
    let mut rf = RefPageMap::new(8);
    for k in 0..48u64 {
        let page = PageId((1 << 22) - 24 + k); // straddles chunks 0 and 1
        apply_op(&mut pm, &mut rf, k % 6, page, 0);
        assert_eq!(pm.lookup(page), rf.lookup(page));
    }
    assert_eq!(pm.hbm_pages(), rf.hbm_pages());
    assert_eq!(pm.len(), rf.map.len());
}

/// Remap-during-migration edge cases: pages re-placed while HBM churns at
/// capacity, so freed frames recycle into concurrent first-touch streams.
/// The flat table must recycle in exactly the reference's LIFO order.
#[test]
fn pagemap_remap_during_migration_parity() {
    check("pagemap_remap_during_migration_parity", |g| {
        let capacity = g.u64_in(1, 4);
        let mut pm = PageMap::new(capacity);
        let mut rf = RefPageMap::new(capacity);
        // Fill HBM to capacity, then interleave evictions of resident
        // pages with promotions and first-touches of fresh ones: every
        // promotion must reuse the frame the paired eviction just freed.
        for p in 0..capacity {
            assert_eq!(
                pm.place_in_hbm(PageId(p)).is_ok(),
                rf.place_in_hbm(PageId(p)).is_ok()
            );
        }
        for i in 0..g.u64_in(10, 60) {
            let resident = *g.pick(pm.hbm_pages());
            // Evict a resident to DDR, first-touch a newcomer in DDR, then
            // promote it into the freed frame: the re-placed page went back
            // to a recycled DDR frame and the newcomer took over the
            // recycled HBM frame — byte-for-byte.
            apply_op(&mut pm, &mut rf, 5, resident, 0);
            let newcomer = PageId(100 + i);
            apply_op(&mut pm, &mut rf, 0, newcomer, 0);
            apply_op(&mut pm, &mut rf, 4, newcomer, 0);
            assert_eq!(pm.lookup(resident), rf.lookup(resident));
            assert_eq!(pm.lookup(newcomer), rf.lookup(newcomer));
            assert_eq!(pm.hbm_used(), capacity);
        }
        assert_eq!(pm.hbm_pages(), rf.hbm_pages());
    });
}

// ---------------------------------------------------------------------
// 1b. Reference AVF tracker: the pre-arena HashMap implementation.
// ---------------------------------------------------------------------

/// The `HashMap` tracker the dense arena replaced: one boxed stamp array
/// per touched page, sorted by page id only when finished.
struct RefAvfTracker {
    pages: HashMap<PageId, RefPageTrack>,
    start: Cycle,
}

struct RefPageTrack {
    last_access: Box<[u64; LINES_PER_PAGE]>,
    ace: [u64; 2],
    reads: u64,
    writes: u64,
}

impl RefAvfTracker {
    fn new(start: Cycle) -> Self {
        RefAvfTracker {
            pages: HashMap::new(),
            start,
        }
    }

    fn on_access(
        &mut self,
        page: PageId,
        line_in_page: usize,
        kind: AccessKind,
        now: Cycle,
        resident_in: MemoryKind,
    ) {
        assert!(line_in_page < LINES_PER_PAGE, "line index out of page");
        assert!(now >= self.start, "access before tracker start");
        let start = self.start.0;
        let track = self.pages.entry(page).or_insert_with(|| RefPageTrack {
            last_access: Box::new([start; LINES_PER_PAGE]),
            ace: [0, 0],
            reads: 0,
            writes: 0,
        });
        let last = &mut track.last_access[line_in_page];
        match kind {
            AccessKind::Read => {
                let mem = match resident_in {
                    MemoryKind::Hbm => 0,
                    MemoryKind::Ddr => 1,
                };
                track.ace[mem] += now.0.saturating_sub(*last);
                track.reads += 1;
            }
            AccessKind::Write => track.writes += 1,
        }
        *last = now.0;
    }

    fn finish(self, end: Cycle) -> Vec<PageStats> {
        assert!(end >= self.start, "end before start");
        let total = (end - self.start).0;
        let mut stats: Vec<PageStats> = self
            .pages
            .into_iter()
            .map(|(page, t)| PageStats {
                page,
                reads: t.reads,
                writes: t.writes,
                ace_hbm: t.ace[0],
                ace_ddr: t.ace[1],
                avf: if total == 0 {
                    0.0
                } else {
                    (t.ace[0] + t.ace[1]) as f64 / (LINES_PER_PAGE as f64 * total as f64)
                },
            })
            .collect();
        stats.sort_by_key(|s| s.page);
        stats
    }
}

/// One tracker access: page, line, kind, cycle, memory.
type AvfOp = (PageId, usize, AccessKind, Cycle, MemoryKind);

/// A seeded access stream from `start` over `pages`. Lines repeat (a
/// few hot lines per page), and time advances by 0 to 300 cycles per
/// access, so reads and writes land at `start` and at the same cycle as
/// the line's previous access. One access in eight is at `start`
/// whatever the time: cores' clocks differ, so a line's stamp can move
/// back.
fn avf_ops(g: &mut ramp::sim::check::Gen, start: u64, pages: &[PageId]) -> Vec<AvfOp> {
    let mut now = start;
    g.vec(1, 400, |g| {
        if g.u64_below(4) != 0 {
            now += g.u64_below(300);
        }
        let at = if g.u64_below(8) == 0 { start } else { now };
        let line = if g.bool() {
            g.usize_in(0, 3)
        } else {
            g.usize_in(0, LINES_PER_PAGE)
        };
        let kind = if g.bool() {
            AccessKind::Read
        } else {
            AccessKind::Write
        };
        let mem = if g.bool() {
            MemoryKind::Hbm
        } else {
            MemoryKind::Ddr
        };
        (*g.pick(pages), line, kind, Cycle(at), mem)
    })
}

fn avf_saved(t: &AvfTracker) -> Vec<u8> {
    let mut w = ByteWriter::new();
    t.save_state(&mut w);
    w.into_bytes()
}

/// Drives arena and reference through `ops`, saving the arena after
/// `cut` of them and restoring it (over `footprint`) into a fresh arena
/// that runs the rest. The restored arena must save the bytes it was
/// restored from, and both arenas must finish with the reference's
/// table.
fn avf_parity(ops: &[AvfOp], cut: usize, start: u64, end: Cycle, footprint: &[PageId]) {
    let mut arena = AvfTracker::new(Cycle(start));
    let mut reference = RefAvfTracker::new(Cycle(start));
    for &(page, line, kind, now, mem) in &ops[..cut] {
        arena.on_access(page, line, kind, now, mem);
        reference.on_access(page, line, kind, now, mem);
    }
    let blob = avf_saved(&arena);
    let mut resumed = AvfTracker::new(Cycle(7));
    resumed
        .restore_state(&mut ByteReader::new(&blob), footprint)
        .expect("a saved arena restores");
    assert_eq!(avf_saved(&resumed), blob, "save -> restore -> save");
    for &(page, line, kind, now, mem) in &ops[cut..] {
        arena.on_access(page, line, kind, now, mem);
        resumed.on_access(page, line, kind, now, mem);
        reference.on_access(page, line, kind, now, mem);
    }
    let want = reference.finish(end);
    assert_eq!(arena.finish(end).pages(), &want[..], "finish tables");
    assert_eq!(resumed.finish(end).pages(), &want[..], "resumed tables");
}

/// Arena vs reference over seeded access streams on dense page ranges
/// of three index chunks (the first pages of chunk 1 sit just past the
/// 22-bit boundary), cut and resumed at a random point.
#[test]
fn avf_arena_matches_reference_hashmap() {
    let footprint: Vec<PageId> = [0u64, 1 << 22, 3 << 22]
        .iter()
        .flat_map(|&base| (base..base + 40).map(PageId))
        .collect();
    check("avf_arena_matches_reference_hashmap", |g| {
        let start = *g.pick(&[0, 1, 1 << 40]);
        let ops = avf_ops(g, start, &footprint);
        let cut = g.usize_in(0, ops.len() + 1);
        let end = Cycle(ops.last().map_or(start, |op| op.3 .0) + g.u64_below(100));
        avf_parity(&ops, cut, start, end, &footprint);
    });
}

/// Pages at the top of chunk 0, the bottom of chunk 1 and the top of the
/// last index chunk grow the index to its full extent (a single seeded
/// case: each such chunk memsets 16 MiB, so the stream above sticks to
/// dense offsets).
#[test]
fn avf_arena_chunk_boundary_parity() {
    let mut footprint: Vec<PageId> = ((1 << 22) - 8..(1 << 22) + 8)
        .chain((1 << 34) - 2..1 << 34)
        .map(PageId)
        .collect();
    footprint.sort();
    check_n("avf_arena_chunk_boundary_parity", 1, |g| {
        let ops = avf_ops(g, 5, &footprint);
        let end = Cycle(ops.last().map_or(5, |op| op.3 .0));
        avf_parity(&ops, ops.len() / 2, 5, end, &footprint);
    });
}

// ---------------------------------------------------------------------
// 2. Naive bank-state walker vs batched chunk advancement.
// ---------------------------------------------------------------------

fn save_bytes(mem: &MemorySystem) -> Vec<u8> {
    let mut w = ByteWriter::new();
    mem.save_state(&mut w);
    w.into_bytes()
}

fn telemetry_json(mem: &MemorySystem) -> String {
    let mut reg = StatRegistry::new();
    mem.export_telemetry(&mut reg, "dram");
    reg.snapshot().to_json()
}

/// The controller's batched advancement (whole-chunk jumps, idle and
/// wake fast paths, fused pick scan) against a walker that advances one
/// cycle at a time: same requests at the same instants must yield the
/// same completions, the same telemetry, and byte-identical state.
#[test]
fn batched_bank_advance_matches_percycle_walker() {
    check_n("batched_bank_advance_matches_percycle_walker", 64, |g| {
        let (mut fast, mut slow) = if g.bool() {
            (MemorySystem::hbm(), MemorySystem::hbm())
        } else {
            (MemorySystem::ddr3(), MemorySystem::ddr3())
        };
        // A bursty schedule: gaps up to 400 cycles leave banks idle long
        // enough to cross refresh intervals through both code paths.
        let mut at = 0u64;
        let schedule: Vec<(u64, MemRequest)> = g
            .vec(1, 120, |g| {
                at += g.u64_in(1, 400);
                let req = MemRequest {
                    id: at, // unique: `at` strictly increases
                    line: LineAddr(g.u64_below(1 << 20)),
                    kind: if g.u64_below(10) < 3 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                    core: 0,
                    arrive: Cycle(at),
                };
                (at, req)
            })
            .into_iter()
            .collect();
        let horizon = at + 3_000;

        // Fast path: jump straight to each enqueue instant, then drain.
        let mut fast_done = Vec::new();
        let mut fast_accepted = Vec::new();
        for &(t, req) in &schedule {
            fast.advance(Cycle(t), &mut fast_done);
            let ok = fast.can_accept(&req);
            fast_accepted.push(ok);
            if ok {
                fast.enqueue(req).unwrap();
            }
        }
        fast.advance(Cycle(horizon), &mut fast_done);

        // Naive walker: one cycle at a time, same enqueue instants. Its
        // accept decisions must match the fast path's at every step.
        let mut slow_done = Vec::new();
        let mut next = 0usize;
        for t in 0..=horizon {
            slow.advance(Cycle(t), &mut slow_done);
            while next < schedule.len() && schedule[next].0 == t {
                let req = schedule[next].1;
                let ok = slow.can_accept(&req);
                assert_eq!(
                    ok, fast_accepted[next],
                    "backpressure decision diverged at request {next}"
                );
                if ok {
                    slow.enqueue(req).unwrap();
                }
                next += 1;
            }
        }

        // Completions may interleave differently across channels between
        // the two schedules-of-advance, but per-request results and final
        // state may not.
        let key =
            |c: &ramp::dram::Completion| (c.id, c.kind.is_write(), c.finish, c.latency, c.core);
        let mut fa: Vec<_> = fast_done.iter().map(key).collect();
        let mut sl: Vec<_> = slow_done.iter().map(key).collect();
        fa.sort();
        sl.sort();
        assert_eq!(fa, sl, "completion sets diverged");
        assert_eq!(
            telemetry_json(&fast),
            telemetry_json(&slow),
            "telemetry diverged"
        );
        assert_eq!(
            save_bytes(&fast),
            save_bytes(&slow),
            "serialized bank state diverged"
        );
        assert!(fast.is_idle() && slow.is_idle(), "requests left in flight");
    });
}

// ---------------------------------------------------------------------
// 3. End-to-end wire encoding across executor thread counts.
// ---------------------------------------------------------------------

/// The seeded config matrix: the smoke config plus variants that move the
/// knobs the optimized paths care about (seed, HBM capacity, budget).
fn config_matrix() -> Vec<SystemConfig> {
    // Smoke scale, shrunk further so the matrix stays fast in dev builds
    // but still spans several FC/MEA intervals (migrations do happen).
    let mut base = SystemConfig::smoke_test();
    base.insts_per_core = 60_000;
    base.fc_interval_cycles = 20_000;
    base.mea_interval_cycles = 2_000;
    let mut seeded = base.clone();
    seeded.seed = 0xD1FF;
    let mut tight = base.clone();
    tight.hbm_capacity_pages /= 2;
    tight.insts_per_core = 40_000;
    vec![base, seeded, tight]
}

fn matrix_wire_bytes(threads: usize) -> Vec<Vec<u8>> {
    let wl = Workload::Homogeneous(Benchmark::Lbm);
    let tasks: Vec<(SystemConfig, u8)> = config_matrix()
        .into_iter()
        .flat_map(|cfg| [(cfg.clone(), 0u8), (cfg, 1u8)])
        .collect();
    ramp::sim::exec::parallel_map(threads, tasks, |_, (cfg, mode)| {
        let profile = profile_workload(cfg, &wl);
        let run = match *mode {
            0 => run_static(cfg, &wl, PlacementPolicy::PerfFocused, &profile.table),
            _ => run_migration(cfg, &wl, MigrationScheme::PerfFc, &profile.table),
        };
        let mut bytes = encode_run(&profile);
        bytes.extend_from_slice(&encode_run(&run));
        bytes.extend_from_slice(
            render_runs_json(&[("m".to_string(), run.telemetry.clone())]).as_bytes(),
        );
        bytes
    })
}

/// `RunResult` wire encoding and telemetry JSON are byte-identical at 1
/// and 4 executor threads for every config in the matrix: the executor
/// can shard work but never influence results.
#[test]
fn run_results_byte_identical_across_thread_counts() {
    let one = matrix_wire_bytes(1);
    let four = matrix_wire_bytes(4);
    assert_eq!(one.len(), four.len());
    for (i, (a, b)) in one.iter().zip(&four).enumerate() {
        assert_eq!(a, b, "task {i}: thread count leaked into the wire bytes");
    }
}

// ---------------------------------------------------------------------
// 4. Reference migration intervals: the full-sort interval logic.
// ---------------------------------------------------------------------

/// The migration engine as it was before its intervals selected only the
/// pages they can move: `on_mea_interval`, `on_fc_interval` and
/// `fc_swaps` are verbatim copies of that code, which builds a `HashSet`
/// of the HBM residency and fully sorts every candidate and victim list.
/// Its state mirrors `MigrationEngine` field for field, and `save_state`
/// writes the engine's checkpoint layout, so the two can be compared byte
/// for byte.
struct RefEngine {
    scheme: MigrationScheme,
    counters: FullCounters,
    mea: MeaTracker,
    pending_high_risk: Vec<PageId>,
    migrations: u64,
    fc_intervals: u64,
    mea_intervals: u64,
    pingpongs: u64,
    bytes_copied: u64,
    last_dest: HashMap<PageId, MemoryKind>,
    moves_per_fc_interval: BinHistogram,
}

impl RefEngine {
    fn new(scheme: MigrationScheme) -> Self {
        let counters = match scheme {
            MigrationScheme::CrossCounter => FullCounters::cc_16bit(),
            _ => FullCounters::fc_8bit(),
        };
        RefEngine {
            scheme,
            counters,
            mea: MeaTracker::mempod(),
            pending_high_risk: Vec::new(),
            migrations: 0,
            fc_intervals: 0,
            mea_intervals: 0,
            pingpongs: 0,
            bytes_copied: 0,
            last_dest: HashMap::new(),
            moves_per_fc_interval: BinHistogram::new(0.0, 65.0, 65),
        }
    }

    fn note_moves(&mut self, moves: &[Move]) {
        self.migrations += moves.len() as u64;
        self.bytes_copied += moves.len() as u64 * PAGE_SIZE as u64;
        for m in moves {
            if let Some(prev) = self.last_dest.insert(m.page, m.to) {
                if prev != m.to {
                    self.pingpongs += 1;
                }
            }
        }
    }

    fn on_mem_access(&mut self, page: PageId, kind: AccessKind, resident: MemoryKind) {
        match self.scheme {
            MigrationScheme::PerfFc | MigrationScheme::RelFc => {
                self.counters.record(page, kind);
            }
            MigrationScheme::CrossCounter => match resident {
                MemoryKind::Ddr => self.mea.record(page),
                MemoryKind::Hbm => self.counters.record(page, kind),
            },
        }
    }

    fn on_mea_interval(
        &mut self,
        hbm_pages: &[PageId],
        hbm_free: u64,
        pinned: &HashSet<PageId>,
        max_in: usize,
    ) -> Vec<Move> {
        if self.scheme != MigrationScheme::CrossCounter {
            return Vec::new();
        }
        self.mea_intervals += 1;
        let hot = self.mea.drain();
        if hot.is_empty() {
            return Vec::new();
        }
        let hbm_set: HashSet<PageId> = hbm_pages.iter().copied().collect();
        let incoming: Vec<PageId> = hot
            .into_iter()
            .filter(|p| !hbm_set.contains(p))
            .take(max_in)
            .collect();
        // Victims: pending high-risk pages first, then the coldest HBM
        // pages by the reliability unit's counters.
        let mut victims: Vec<PageId> = Vec::new();
        self.pending_high_risk.retain(|p| hbm_set.contains(p));
        victims.extend(self.pending_high_risk.iter().copied());
        let mut cold: Vec<PageId> = hbm_pages
            .iter()
            .copied()
            .filter(|p| !pinned.contains(p) && !self.pending_high_risk.contains(p))
            .collect();
        cold.sort_by_key(|&p| (self.counters.hotness(p), p));
        victims.extend(cold);

        let mut moves = Vec::new();
        let mut victims = victims.into_iter();
        let mut free = hbm_free;
        for page in incoming {
            if free > 0 {
                free -= 1;
            } else {
                match victims.next() {
                    Some(v) => {
                        self.pending_high_risk.retain(|&p| p != v);
                        moves.push(Move {
                            page: v,
                            to: MemoryKind::Ddr,
                        });
                    }
                    None => break,
                }
            }
            moves.push(Move {
                page,
                to: MemoryKind::Hbm,
            });
        }
        self.note_moves(&moves);
        moves
    }

    fn on_fc_interval(
        &mut self,
        hbm_pages: &[PageId],
        hbm_free: u64,
        pinned: &HashSet<PageId>,
        max_moves: usize,
    ) -> Vec<Move> {
        let moves = match self.scheme {
            MigrationScheme::PerfFc => self.fc_swaps(hbm_pages, hbm_free, pinned, max_moves, false),
            MigrationScheme::RelFc => self.fc_swaps(hbm_pages, hbm_free, pinned, max_moves, true),
            MigrationScheme::CrossCounter => {
                // Reliability unit: flag high-risk HBM pages; evict them now
                // (both units cooperate at FC boundaries, Section 6.4.3).
                let mean_share = self.counters.mean_write_share();
                let mut flagged: Vec<PageId> = hbm_pages
                    .iter()
                    .copied()
                    .filter(|&p| {
                        !pinned.contains(&p)
                            && self.counters.hotness(p) > 0
                            && self.counters.write_share(p) < mean_share
                    })
                    .collect();
                flagged.sort_by_key(|&p| {
                    // Most read-dominated (riskiest) first.
                    (
                        self.counters.get(p).1,
                        std::cmp::Reverse(self.counters.get(p).0),
                        p,
                    )
                });
                flagged.truncate(max_moves);
                let moves: Vec<Move> = flagged
                    .iter()
                    .map(|&page| Move {
                        page,
                        to: MemoryKind::Ddr,
                    })
                    .collect();
                self.pending_high_risk.clear();
                self.counters.reset();
                moves
            }
        };
        self.fc_intervals += 1;
        self.moves_per_fc_interval.observe(moves.len() as f64);
        self.note_moves(&moves);
        moves
    }

    fn save_state(&self, w: &mut ByteWriter) {
        self.counters.save_state(w);
        self.mea.save_state(w);
        w.u32(self.pending_high_risk.len() as u32);
        for &p in &self.pending_high_risk {
            w.u64(p.0);
        }
        w.u64(self.migrations);
        w.u64(self.fc_intervals);
        w.u64(self.mea_intervals);
        w.u64(self.pingpongs);
        w.u64(self.bytes_copied);
        let mut dests: Vec<(PageId, MemoryKind)> =
            self.last_dest.iter().map(|(&p, &k)| (p, k)).collect();
        dests.sort_by_key(|(p, _)| *p);
        w.u32(dests.len() as u32);
        for (page, kind) in dests {
            w.u64(page.0);
            w.u8(match kind {
                MemoryKind::Hbm => 0,
                MemoryKind::Ddr => 1,
            });
        }
        self.moves_per_fc_interval.save_state(w);
    }

    fn fc_swaps(
        &mut self,
        hbm_pages: &[PageId],
        hbm_free: u64,
        pinned: &HashSet<PageId>,
        max_moves: usize,
        reliability_aware: bool,
    ) -> Vec<Move> {
        let hbm_set: HashSet<PageId> = hbm_pages.iter().copied().collect();
        // The paper's thresholds: "all pages in slow memory above mean page
        // hotness" become candidates, so the candidate threshold is the
        // mean over slow-memory activity; the victim threshold is the mean
        // over HBM-resident activity.
        let (mut ddr_sum, mut ddr_n, mut hbm_sum, mut hbm_n) = (0u64, 0u64, 0u64, 0u64);
        for (p, r, w) in self.counters.iter() {
            if hbm_set.contains(&p) {
                hbm_sum += (r + w) as u64;
                hbm_n += 1;
            } else {
                ddr_sum += (r + w) as u64;
                ddr_n += 1;
            }
        }
        let mean_hot_ddr = ddr_sum as f64 / ddr_n.max(1) as f64;
        let mean_hot_hbm = hbm_sum as f64 / hbm_n.max(1) as f64;
        let mean_share = if reliability_aware {
            self.counters.mean_write_share()
        } else {
            0.0
        };

        // Incoming candidates: hot (and, if reliability-aware, low-risk)
        // pages currently in DDR.
        let mut incoming: Vec<(PageId, u32)> = self
            .counters
            .iter()
            .filter(|&(p, r, w)| {
                !hbm_set.contains(&p)
                    && (r + w) as f64 > mean_hot_ddr
                    && (!reliability_aware || (w as f64 / (r + w) as f64) >= mean_share)
            })
            .map(|(p, r, w)| (p, r + w))
            .collect();
        incoming.sort_by_key(|&(p, h)| (std::cmp::Reverse(h), p));

        // Victims: every non-pinned HBM page, riskiest first (reliability-
        // aware mode), then coldest. A swap is only performed when it is
        // strictly beneficial (the incoming page is hotter than the victim)
        // or the victim is high-risk — reliability wins ties.
        let mut victims: Vec<(bool, u32, PageId)> = hbm_pages
            .iter()
            .copied()
            .filter(|p| !pinned.contains(p))
            .map(|p| {
                let (r, w) = self.counters.get(p);
                let high_risk =
                    reliability_aware && (r + w) > 0 && (w as f64 / (r + w) as f64) < mean_share;
                (high_risk, r + w, p)
            })
            .collect();
        victims.sort_by_key(|&(high_risk, h, p)| (!high_risk, h, p));
        let _ = mean_hot_hbm; // victim eligibility is pairwise, not mean-based

        let mut moves = Vec::new();
        let mut victims = victims.into_iter();
        let mut free = hbm_free;
        for (page, cand_hot) in incoming {
            if moves.len() + 2 > max_moves * 2 {
                break;
            }
            if free > 0 {
                free -= 1;
            } else {
                match victims.next() {
                    Some((high_risk, victim_hot, v)) => {
                        if !high_risk && victim_hot >= cand_hot {
                            // Remaining victims are hotter still: stop.
                            break;
                        }
                        moves.push(Move {
                            page: v,
                            to: MemoryKind::Ddr,
                        });
                    }
                    None => break,
                }
            }
            moves.push(Move {
                page,
                to: MemoryKind::Hbm,
            });
        }
        self.counters.reset();
        moves
    }
}

fn engine_bytes(save: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    save(&mut w);
    w.into_bytes()
}

/// Applies `moves` to the ascending HBM list the way the page map does:
/// a move into a full HBM fails and is skipped.
fn apply_to_hbm(hbm: &mut Vec<PageId>, capacity: usize, moves: &[Move]) {
    for m in moves {
        match (hbm.binary_search(&m.page), m.to) {
            (Err(i), MemoryKind::Hbm) if hbm.len() < capacity => hbm.insert(i, m.page),
            (Ok(i), MemoryKind::Ddr) => {
                hbm.remove(i);
            }
            _ => {}
        }
    }
}

/// A page of a `pool`-page population, with sparse ids so the
/// ascending order is not the draw order.
fn pool_page(g: &mut Gen, pool: u64) -> PageId {
    PageId(g.u64_below(pool) * 7 % 97 + 3)
}

/// Up to five pending high-risk pages, sometimes with a duplicate.
fn pending_pages(g: &mut Gen, pool: u64) -> Vec<PageId> {
    let mut v: Vec<PageId> = (0..g.usize_in(0, 6)).map(|_| pool_page(g, pool)).collect();
    if !v.is_empty() && g.bool() {
        v.push(v[0]);
    }
    v
}

/// Checks that both engines hold the same state, then gives both the
/// pending list `pages` (the engine through a restore of the reference's
/// bytes: nothing else can set it).
fn reseed_pending(rf: &mut RefEngine, eng: &mut MigrationEngine, pages: Vec<PageId>) {
    let bytes = engine_bytes(|w| rf.save_state(w));
    assert_eq!(
        engine_bytes(|w| eng.save_state(w)),
        bytes,
        "engine state differs"
    );
    rf.pending_high_risk = pages;
    let bytes = engine_bytes(|w| rf.save_state(w));
    let mut r = ByteReader::new(&bytes);
    eng.restore_state(&mut r).expect("reference state restores");
    assert!(r.is_empty(), "restore left bytes");
}

/// Random interval sequences through the engine and the full-sort
/// reference: identical `Move` lists after every interval and identical
/// `save_state` bytes at the end. Cases cover a full and a partly free
/// HBM, pinned pages (in and out of HBM), pending high-risk pages carried
/// across MEA intervals (duplicates included), hotness ties from a small
/// page pool, saturated 8- and 16-bit counters, and `max_in` /
/// `max_moves` from 0 to past the pool size.
#[test]
fn migration_intervals_match_full_sort_reference() {
    let schemes = [
        MigrationScheme::PerfFc,
        MigrationScheme::RelFc,
        MigrationScheme::CrossCounter,
    ];
    check("migration_intervals_match_full_sort_reference", |g| {
        let scheme = *g.pick(&schemes);
        let cc = scheme == MigrationScheme::CrossCounter;
        let pool = g.u64_in(2, 48);
        let capacity = g.usize_in(1, pool as usize + 1);
        let fill = if g.bool() {
            capacity
        } else {
            g.usize_in(0, capacity + 1)
        };
        let mut hbm: Vec<PageId> = Vec::new();
        while hbm.len() < fill {
            let p = pool_page(g, pool);
            if let Err(i) = hbm.binary_search(&p) {
                hbm.insert(i, p);
            }
        }
        let pinned: HashSet<PageId> = (0..g.usize_in(0, 4)).map(|_| pool_page(g, pool)).collect();
        for &p in &pinned {
            if let Err(i) = hbm.binary_search(&p) {
                if hbm.len() < capacity {
                    hbm.insert(i, p);
                }
            }
        }

        let mut rf = RefEngine::new(scheme);
        let mut eng = MigrationEngine::new(scheme);
        if cc {
            let pages = pending_pages(g, pool);
            reseed_pending(&mut rf, &mut eng, pages);
        }
        for k in 0..g.usize_in(1, 24) {
            let resident = |hbm: &[PageId], p: PageId| {
                if hbm.binary_search(&p).is_ok() {
                    MemoryKind::Hbm
                } else {
                    MemoryKind::Ddr
                }
            };
            for _ in 0..g.usize_in(0, 160) {
                let p = pool_page(g, pool);
                let kind = if g.u64_below(3) == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                rf.on_mem_access(p, kind, resident(&hbm, p));
                eng.on_mem_access(p, kind, resident(&hbm, p));
            }
            if g.u64_below(8) == 0 {
                // Saturate one page's counters (16-bit ones rarely: each
                // takes 65,535 accesses).
                let p = pool_page(g, pool);
                let n = if cc && g.u64_below(4) == 0 {
                    65_600
                } else {
                    300
                };
                let kinds: &[AccessKind] = if g.bool() {
                    &[AccessKind::Read]
                } else {
                    &[AccessKind::Read, AccessKind::Write]
                };
                for &kind in kinds {
                    for _ in 0..n {
                        rf.on_mem_access(p, kind, resident(&hbm, p));
                        eng.on_mem_access(p, kind, resident(&hbm, p));
                    }
                }
            }
            let free = (capacity - hbm.len()) as u64;
            let max = g.usize_in(0, pool as usize + 8);
            let (want, got) = if g.u64_below(4) == 0 {
                (
                    rf.on_fc_interval(&hbm, free, &pinned, max),
                    eng.on_fc_interval(&hbm, free, &pinned, max),
                )
            } else {
                (
                    rf.on_mea_interval(&hbm, free, &pinned, max),
                    eng.on_mea_interval(&hbm, free, &pinned, max),
                )
            };
            assert_eq!(got, want, "interval {k}: moves differ");
            apply_to_hbm(&mut hbm, capacity, &want);
            if cc && g.u64_below(4) == 0 {
                // More pending pages, carried into the next MEA intervals.
                let mut pages = rf.pending_high_risk.clone();
                pages.extend(pending_pages(g, pool));
                reseed_pending(&mut rf, &mut eng, pages);
            }
        }
        assert_eq!(
            engine_bytes(|w| eng.save_state(w)),
            engine_bytes(|w| rf.save_state(w)),
            "engine state differs"
        );
    });
}
