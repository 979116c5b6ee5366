//! Feed-forward replay of one run through the simulator's layers, timing
//! each layer on its own.
//!
//! The integrated simulator (`SystemSim::run`) interleaves every layer per
//! trace record, so no layer's time can be read from outside it. The
//! replay drives the same public components with the same workload,
//! placement and seed, but one layer at a time per window of 128-cycle
//! chunks: trace generation (`InstanceGen::next`) → cache hierarchy
//! (`Hierarchy::access`) → page map (`PageMap::frame_line`) → migration
//! counters (`MigrationEngine::on_mem_access`, interval decisions) → DRAM
//! (`MemorySystem::{enqueue,advance}` per chunk) → AVF
//! (`AvfTracker::on_access`). Cores are paced at the per-core IPC the
//! integrated run achieved instead of stalling on memory, so each layer
//! sees the run's request rate. The replay is a timing model of the
//! layers, not a second simulator: its outputs are not checked.

use std::collections::{HashSet, VecDeque};
use std::time::Instant;

use ramp_avf::{AvfTracker, StatsTable};
use ramp_cache::Hierarchy;
use ramp_core::config::SystemConfig;
use ramp_core::migration::{MigrationEngine, MigrationScheme};
use ramp_core::pagemap::PageMap;
use ramp_core::placement::PlacementPolicy;
use ramp_core::system::RunResult;
use ramp_dram::{Completion, MemRequest, MemoryKind, MemorySystem};
use ramp_serve::spec::RunAction;
use ramp_sim::units::{AccessKind, Cycle, LineAddr, PageId};
use ramp_trace::{MemEvent, TraceRecord, Workload};

use crate::spans::Tracer;

/// Simulation time step of the integrated simulator, in cycles.
const CHUNK: u64 = 128;
/// Chunks replayed per window (one span per layer per window).
const WINDOW_CHUNKS: u64 = 256;

/// Work counts and busy time per layer over one replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTimes {
    /// Trace records generated.
    pub records: u64,
    /// ns spent generating them.
    pub trace_ns: u64,
    /// Hierarchy accesses (one per record).
    pub cache_accesses: u64,
    /// ns in the hierarchy.
    pub cache_ns: u64,
    /// Page-map translations (one per memory event).
    pub lookups: u64,
    /// ns in the page map.
    pub pagemap_ns: u64,
    /// Requests accepted by the two memory systems.
    pub dram_requests: u64,
    /// ns enqueueing and advancing them.
    pub dram_ns: u64,
    /// AVF accesses recorded.
    pub avf_accesses: u64,
    /// ns recording them.
    pub avf_ns: u64,
    /// ns in `AvfTracker::finish` (building the page statistics table).
    pub avf_finish_ns: u64,
    /// Accesses counted by the migration engine.
    pub mig_accesses: u64,
    /// ns counting them.
    pub mig_access_ns: u64,
    /// Interval decisions taken (MEA and FC).
    pub mig_intervals: u64,
    /// ns deciding and applying them.
    pub mig_interval_ns: u64,
}

impl LayerTimes {
    /// Total busy time across layers, in ns.
    pub fn total_ns(&self) -> u64 {
        self.trace_ns
            + self.cache_ns
            + self.pagemap_ns
            + self.dram_ns
            + self.avf_ns
            + self.avf_finish_ns
            + self.mig_access_ns
            + self.mig_interval_ns
    }
}

/// A memory event after translation.
#[derive(Clone, Copy)]
struct Issued {
    chunk: u64,
    page: PageId,
    lip: usize,
    kind: AccessKind,
    mem: MemoryKind,
    frame: LineAddr,
}

fn since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Replays `workload` under `action` (a static placement or a migration
/// scheme) paced at `integrated`'s per-core IPC, adding into `t` and
/// recording one span per layer per window under `parent`.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    cfg: &SystemConfig,
    workload: &Workload,
    action: RunAction,
    profile: &StatsTable,
    integrated: &RunResult,
    t: &mut LayerTimes,
    tracer: &Tracer,
    parent: u64,
) {
    let capacity = cfg.hbm_capacity_pages as usize;
    let (initial, mut engine) = match action {
        RunAction::Static(p) => (p.select(profile, capacity), None),
        // The runner's initial placements (`build_migration_sim`): top-hot
        // for perf-FC, hot-and-low-risk for the reliability-aware schemes.
        RunAction::Migration(s) => {
            let start = match s {
                MigrationScheme::PerfFc => PlacementPolicy::PerfFocused,
                _ => PlacementPolicy::Balanced,
            };
            (
                start.select(profile, capacity),
                Some(MigrationEngine::new(s)),
            )
        }
        _ => panic!("the replay covers static and migration runs"),
    };
    let mut gens = workload.build_cores(cfg.seed, cfg.insts_per_core);
    let mut hierarchy = Hierarchy::new(cfg.hierarchy);
    let mut pagemap = PageMap::new(cfg.hbm_capacity_pages);
    let mut pages: Vec<PageId> = initial.into_iter().collect();
    pages.sort();
    for p in pages {
        if pagemap.place_in_hbm(p).is_err() {
            break;
        }
    }
    let mut mems = [MemorySystem::hbm(), MemorySystem::ddr3()];
    let mut avf = AvfTracker::new(Cycle::ZERO);
    let pinned: HashSet<PageId> = HashSet::new();

    let budget = cfg.insts_per_core;
    // A core that never retired would never reach its budget.
    let ipc: Vec<f64> = integrated
        .per_core_ipc
        .iter()
        .map(|v| v.max(1e-3))
        .collect();
    let mut retired = vec![0u64; gens.len()];
    let mut backlog: [VecDeque<MemRequest>; 2] = [VecDeque::new(), VecDeque::new()];
    let mut completions: Vec<Completion> = Vec::new();
    let mut next_id = 0u64;
    let mut next_mea = cfg.mea_interval_cycles;
    let mut next_fc = cfg.fc_interval_cycles;
    let mut recs: Vec<(u64, usize, TraceRecord)> = Vec::new();
    let mut events: Vec<(u64, MemEvent)> = Vec::new();
    let mut issued: Vec<Issued> = Vec::new();
    let mut tmp: Vec<MemEvent> = Vec::new();
    let mut chunk = 0u64;
    let mem_index = |k: MemoryKind| match k {
        MemoryKind::Hbm => 0,
        MemoryKind::Ddr => 1,
    };

    while retired.iter().any(|&r| r < budget) {
        let window = tracer.span("core.replay.window", parent, 0);
        let first = chunk;
        let last = chunk + WINDOW_CHUNKS;

        let span = tracer.span("trace.gen", window.id(), 0);
        let start = Instant::now();
        recs.clear();
        for c in first..last {
            let chunk_end = (c + 1) * CHUNK;
            for (i, gen) in gens.iter_mut().enumerate() {
                let target = ((ipc[i] * chunk_end as f64) as u64).min(budget);
                while retired[i] < target {
                    let rec = gen.next().expect("trace streams are infinite");
                    retired[i] += rec.instructions();
                    recs.push((c, i, rec));
                }
            }
        }
        t.trace_ns += since(start);
        t.records += recs.len() as u64;
        drop(span);

        let span = tracer.span("cache.hierarchy", window.id(), 0);
        let start = Instant::now();
        events.clear();
        for &(c, i, rec) in &recs {
            tmp.clear();
            hierarchy.access(i, rec.addr.line(), rec.kind, &mut tmp);
            events.extend(tmp.iter().map(|&ev| (c, ev)));
        }
        t.cache_ns += since(start);
        t.cache_accesses += recs.len() as u64;
        drop(span);

        let span = tracer.span("core.pagemap", window.id(), 0);
        let start = Instant::now();
        issued.clear();
        for &(c, ev) in &events {
            let page = ev.line.page();
            let lip = ev.line.line_in_page();
            let (mem, frame) = pagemap.frame_line(page, lip);
            issued.push(Issued {
                chunk: c,
                page,
                lip,
                kind: ev.kind,
                mem,
                frame,
            });
        }
        t.pagemap_ns += since(start);
        t.lookups += events.len() as u64;
        drop(span);

        if let Some(e) = engine.as_mut() {
            let span = tracer.span("core.migration.count", window.id(), 0);
            let start = Instant::now();
            for ev in &issued {
                e.on_mem_access(ev.page, ev.kind, ev.mem);
            }
            t.mig_access_ns += since(start);
            t.mig_accesses += issued.len() as u64;
            drop(span);

            let span = tracer.span("core.migration.interval", window.id(), 0);
            let start = Instant::now();
            let window_end = last * CHUNK;
            while next_mea <= window_end || next_fc <= window_end {
                let moves = if next_mea <= next_fc {
                    next_mea += cfg.mea_interval_cycles;
                    e.on_mea_interval(
                        &pagemap.hbm_pages(),
                        pagemap.hbm_free(),
                        &pinned,
                        cfg.mea_max_pages_per_interval,
                    )
                } else {
                    next_fc += cfg.fc_interval_cycles;
                    e.on_fc_interval(
                        &pagemap.hbm_pages(),
                        pagemap.hbm_free(),
                        &pinned,
                        cfg.max_swaps_per_interval,
                    )
                };
                for m in moves {
                    let _ = pagemap.migrate(m.page, m.to);
                }
                t.mig_intervals += 1;
            }
            t.mig_interval_ns += since(start);
            drop(span);
        }

        let span = tracer.span("dram.controllers", window.id(), 0);
        let start = Instant::now();
        let mut k = 0;
        for c in first..last {
            while k < issued.len() && issued[k].chunk == c {
                let ev = issued[k];
                backlog[mem_index(ev.mem)].push_back(MemRequest {
                    id: next_id,
                    line: ev.frame,
                    kind: ev.kind,
                    core: 0,
                    arrive: Cycle(c * CHUNK),
                });
                next_id += 1;
                k += 1;
            }
            for (m, queue) in mems.iter_mut().zip(backlog.iter_mut()) {
                while let Some(&req) = queue.front() {
                    let req = MemRequest {
                        arrive: Cycle(req.arrive.0.max(c * CHUNK)),
                        ..req
                    };
                    if m.enqueue(req).is_err() {
                        break;
                    }
                    queue.pop_front();
                    t.dram_requests += 1;
                }
                completions.clear();
                m.advance(Cycle((c + 1) * CHUNK), &mut completions);
            }
        }
        t.dram_ns += since(start);
        drop(span);

        let span = tracer.span("avf.tracker", window.id(), 0);
        let start = Instant::now();
        for ev in &issued {
            avf.on_access(ev.page, ev.lip, ev.kind, Cycle(ev.chunk * CHUNK), ev.mem);
        }
        t.avf_ns += since(start);
        t.avf_accesses += issued.len() as u64;
        drop(span);

        chunk = last;
    }

    // Let the controllers finish what is queued (bounded: every queued
    // request completes within a few thousand cycles once arrivals stop).
    let span = tracer.span("dram.controllers", parent, 0);
    let start = Instant::now();
    let mut c = chunk;
    while backlog.iter().any(|q| !q.is_empty()) || mems.iter().any(|m| !m.is_idle()) {
        for (m, queue) in mems.iter_mut().zip(backlog.iter_mut()) {
            while let Some(&req) = queue.front() {
                if m.enqueue(req).is_err() {
                    break;
                }
                queue.pop_front();
                t.dram_requests += 1;
            }
            completions.clear();
            m.advance(Cycle((c + 1) * CHUNK), &mut completions);
        }
        c += 1;
        assert!(c < chunk + 1_000_000, "replayed DRAM did not drain");
    }
    t.dram_ns += since(start);
    drop(span);

    let span = tracer.span("avf.finish", parent, 0);
    let start = Instant::now();
    let table = avf.finish(Cycle(c * CHUNK));
    t.avf_finish_ns += since(start);
    drop(span);
    std::hint::black_box(table);
}
