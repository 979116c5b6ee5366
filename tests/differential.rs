//! Differential tests gating the hot-path optimizations (ISSUE 7).
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

use std::collections::HashMap;

use ramp::avf::{AvfTracker, PageStats};
use ramp::core::config::SystemConfig;
use ramp::core::migration::MigrationScheme;
use ramp::core::placement::PlacementPolicy;
use ramp::core::runner::{profile_workload, run_migration, run_static};
use ramp::core::PageMap;
use ramp::dram::request::MemRequest;
use ramp::dram::{MemoryKind, MemorySystem};
use ramp::serve::wire::encode_run;
use ramp::sim::check::{check, check_n};
use ramp::sim::codec::{ByteReader, ByteWriter};
use ramp::sim::telemetry::{render_runs_json, StatRegistry};
use ramp::sim::units::{AccessKind, Cycle, LineAddr, PageId, LINES_PER_PAGE};
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
            let resident = *g.pick(&pm.hbm_pages());
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
