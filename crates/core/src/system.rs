//! The full-system HMA simulator: 16 trace-driven cores, the cache
//! hierarchy, two DRAM timing models, the page map, the AVF tracker, and
//! an optional migration engine, advanced in lock-step.
//!
//! The core model is Ramulator-style: non-memory instructions retire at
//! full issue width; demand fills occupy MSHRs (bounding per-core
//! memory-level parallelism, the ROB-limited behaviour of Table 1's
//! 128-entry window); writes are posted. Cores stall when their MSHRs are
//! exhausted or a controller queue refuses a request — that backpressure
//! is where HBM's bandwidth advantage becomes IPC.
//!
//! Each core is fed live — its generator through its private L1 — or from
//! a recorded post-L1 stream ([`ramp_cache::stream`]). A core's L1
//! outcomes depend on nothing but its own records, so a replayed core
//! drives the shared L2, the page map, DRAM and AVF exactly as the live
//! core did, without generating or looking up anything in its L1. A live
//! core can record its stream for later runs as it goes.

use std::collections::{HashSet, VecDeque};
use std::ops::Range;

use ramp_avf::{AvfTracker, SerModel, StatsTable};
use ramp_cache::stream::{
    L1Event, L1Outcome, StreamError, StreamPos, StreamReader, StreamSink, StreamSource,
    StreamWriter,
};
use ramp_cache::Hierarchy;
use ramp_dram::{Completion, MemRequest, MemoryKind, MemorySystem};
use ramp_sim::codec::{self, ByteReader, ByteWriter, CodecError};
use ramp_sim::telemetry::{BinHistogram, Snapshot, StatRegistry};
use ramp_sim::units::{AccessKind, Cycle, LineAddr, PageId, LINES_PER_PAGE};
use ramp_trace::{InstanceGen, MemEvent, Workload};

use crate::config::SystemConfig;
use crate::migration::{MigrationEngine, Move};
use crate::pagemap::PageMap;

/// Extra latency charged to a core for an L1 miss that hits on-chip (L2).
const L2_HIT_LATENCY: u64 = 12;
/// Simulation time step in cycles.
const CHUNK: u64 = 128;
/// Core id used for migration traffic (excluded from IPC/AVF accounting).
const MIGRATION_CORE: usize = usize::MAX;

/// Where a core's post-L1 events come from.
#[derive(Debug)]
enum Feed {
    /// Its generator, through its private L1.
    Live,
    /// Live, and every event is also written to a stream.
    Record(StreamWriter<Box<dyn StreamSink>>),
    /// A recorded stream; the generator and the L1 stay idle.
    Replay(StreamReader<Box<dyn StreamSource>>),
}

#[derive(Debug)]
struct CoreState {
    gen: InstanceGen,
    feed: Feed,
    cycle: u64,
    retired: u64,
    budget: u64,
    outstanding: u32,
    pending: VecDeque<MemEvent>,
    done: bool,
    finish: u64,
}

/// Outcome of one simulated run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Policy/scheme label.
    pub policy: String,
    /// Aggregate IPC: total instructions / makespan cycles.
    pub ipc: f64,
    /// Per-core IPC (instructions / per-core finish cycle).
    pub per_core_ipc: Vec<f64>,
    /// System soft error rate in FIT (Equation 2 over all pages).
    pub ser_fit: f64,
    /// SER of the same run had every page lived in DDR (the baseline
    /// denominator of Figures 5 and 12).
    pub ser_ddr_only_fit: f64,
    /// Makespan in cycles.
    pub cycles: u64,
    /// Total instructions retired.
    pub instructions: u64,
    /// Main-memory accesses per kilo-instruction.
    pub mpki: f64,
    /// Demand accesses served by HBM / DDR.
    pub hbm_accesses: u64,
    /// Demand accesses served by DDR.
    pub ddr_accesses: u64,
    /// Page migrations performed.
    pub migrations: u64,
    /// Mean demand-read latency in cycles (HBM, DDR).
    pub mean_read_latency: (f64, f64),
    /// Final per-page statistics (hotness, write ratio, AVF), one row
    /// per footprint page. Placement and migration read only a DDR-only
    /// profile's table, so the run store persists the rows of DDR-only
    /// runs alone: a result served from the store for any other run
    /// carries a zero-row table that keeps `total_cycles`.
    pub table: StatsTable,
    /// Full telemetry snapshot of the run: DRAM, cache, migration, core
    /// and system scopes (deterministic; see `ramp_sim::telemetry`).
    pub telemetry: Snapshot,
}

impl RunResult {
    /// SER relative to the DDR-only baseline (e.g. the paper's "287x").
    pub fn ser_vs_ddr_only(&self) -> f64 {
        if self.ser_ddr_only_fit == 0.0 {
            1.0
        } else {
            self.ser_fit / self.ser_ddr_only_fit
        }
    }
}

/// Frame kind tag of checkpoint blobs written by
/// [`SystemSim::save_state`] (shares the `ramp_sim::codec` framing used by
/// the persistent run store, under a distinct kind).
pub const CHECKPOINT_KIND: u8 = 3;
/// Version of the checkpoint payload layout. Bump on any layout change so
/// stale checkpoints are rejected instead of misread. Version 2 carries
/// the AVF tracker in its compact encoding (`ramp_avf::tracker`); version
/// 3 saves a replayed core's stream position in place of its generator.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Epoch-granular observation hooks for [`SystemSim::run_with_hooks`].
///
/// An epoch is one FC interval; the hooks fire at the first chunk boundary
/// past each epoch tick, after every subsystem has settled for the chunk,
/// which is exactly the cut [`SystemSim::save_state`] serializes.
#[derive(Default)]
pub struct RunHooks<'a> {
    /// Serialize a checkpoint every this many epochs (0 = never).
    pub checkpoint_every: u64,
    /// Called at every epoch boundary with the epochs completed so far.
    pub on_epoch: Option<&'a mut dyn FnMut(u64)>,
    /// Called with `(epoch, serialized state)` at checkpoint boundaries
    /// (only when `checkpoint_every > 0`).
    pub on_checkpoint: Option<&'a mut dyn FnMut(u64, Vec<u8>)>,
}

impl std::fmt::Debug for RunHooks<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunHooks")
            .field("checkpoint_every", &self.checkpoint_every)
            .field("on_epoch", &self.on_epoch.is_some())
            .field("on_checkpoint", &self.on_checkpoint.is_some())
            .finish()
    }
}

/// The simulator.
#[derive(Debug)]
pub struct SystemSim {
    cfg: SystemConfig,
    workload_name: String,
    policy_name: String,
    cores: Vec<CoreState>,
    hierarchy: Hierarchy,
    hbm: MemorySystem,
    ddr: MemorySystem,
    pagemap: PageMap,
    avf: AvfTracker,
    engine: Option<MigrationEngine>,
    pinned: HashSet<PageId>,
    backlog: VecDeque<(MemoryKind, LineAddr, AccessKind)>,
    completions: Vec<Completion>,
    next_id: u64,
    now: u64,
    demand_hbm: u64,
    demand_ddr: u64,
    /// Every page the workload's regions span, ascending.
    footprint: Vec<PageId>,
    /// Payload capacity of the next checkpoint: the last one's length
    /// plus slack, so a checkpoint is written into one buffer.
    ckpt_capacity: std::cell::Cell<usize>,
    /// Per-core MSHR occupancy sampled once per chunk.
    outstanding_hist: Vec<BinHistogram>,
    /// Aggregate IPC per FC-interval epoch (instruction delta / interval).
    epoch_ipc: BinHistogram,
    epochs: u64,
    last_epoch_insts: u64,
    /// Next FC-interval boundary (migration engine).
    next_fc: u64,
    /// Next MEA-interval boundary (migration engine).
    next_mea: u64,
    /// Next epoch boundary (always FC-interval spaced, engine or not).
    next_epoch: u64,
    /// Demand-read latency accumulator for HBM: `(cycle sum, count)`.
    hbm_lat: (f64, u64),
    /// Demand-read latency accumulator for DDR: `(cycle sum, count)`.
    ddr_lat: (f64, u64),
    /// The first replayed stream that failed to decode; it ends the run.
    stream_error: Option<StreamError>,
}

/// Bins of the epoch-IPC histogram, spanning `[0, cores × issue width)`.
const EPOCH_IPC_BINS: usize = 64;

impl SystemSim {
    /// Builds a simulator for `workload` with an initial HBM placement and
    /// optional migration engine.
    ///
    /// The distinct `initial_hbm` pages are bound into HBM before
    /// execution (truncated at capacity, deterministically by page id);
    /// `pinned` pages are additionally immune to migration.
    pub fn new(
        cfg: SystemConfig,
        workload: &Workload,
        policy_name: impl Into<String>,
        initial_hbm: &[PageId],
        pinned: HashSet<PageId>,
        engine: Option<MigrationEngine>,
    ) -> Self {
        cfg.validate();
        let built = workload.build_cores(cfg.seed, cfg.insts_per_core);
        let mut footprint: Vec<PageId> = Vec::new();
        for gen in &built {
            for ri in 0..gen.profile().regions.len() {
                let (lo, hi) = gen.region_page_range(ri);
                footprint.extend((lo.index()..hi.index()).map(PageId));
            }
        }
        footprint.sort_unstable();
        let cores: Vec<CoreState> = built
            .into_iter()
            .map(|gen| CoreState {
                gen,
                feed: Feed::Live,
                cycle: 0,
                retired: 0,
                budget: cfg.insts_per_core,
                outstanding: 0,
                pending: VecDeque::new(),
                done: false,
                finish: 0,
            })
            .collect();
        let mut pagemap = PageMap::new(cfg.hbm_capacity_pages);
        let mut initial = initial_hbm.to_vec();
        initial.sort_unstable();
        for p in initial {
            if pagemap.place_in_hbm(p).is_err() {
                break;
            }
        }
        let mshr_bins = cfg.mshrs_per_core + 1;
        let peak_ipc = (cfg.hierarchy.cores * cfg.issue_width as usize) as f64;
        SystemSim {
            outstanding_hist: (0..cfg.hierarchy.cores)
                .map(|_| BinHistogram::new(0.0, mshr_bins as f64, mshr_bins))
                .collect(),
            epoch_ipc: BinHistogram::new(0.0, peak_ipc, EPOCH_IPC_BINS),
            epochs: 0,
            last_epoch_insts: 0,
            next_fc: cfg.fc_interval_cycles,
            next_mea: cfg.mea_interval_cycles,
            // Epoch boundaries follow the FC interval whether or not a
            // migration engine is attached, so static runs get the same
            // interval-level IPC series.
            next_epoch: cfg.fc_interval_cycles,
            hbm_lat: (0.0, 0),
            ddr_lat: (0.0, 0),
            stream_error: None,
            hierarchy: Hierarchy::new(cfg.hierarchy),
            hbm: MemorySystem::hbm(),
            ddr: MemorySystem::ddr3(),
            pagemap,
            avf: AvfTracker::new(Cycle::ZERO),
            engine,
            pinned,
            backlog: VecDeque::new(),
            completions: Vec::new(),
            next_id: 0,
            now: 0,
            demand_hbm: 0,
            demand_ddr: 0,
            footprint,
            ckpt_capacity: std::cell::Cell::new(0),
            workload_name: workload.name().to_string(),
            policy_name: policy_name.into(),
            cores,
            cfg,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// The lines core `i`'s records span: every line of a stream
    /// replayed on it must lie here.
    pub fn core_lines(&self, i: usize) -> Range<u64> {
        let gen = &self.cores[i].gen;
        let lo = gen.base_page().index();
        let hi = lo + gen.footprint_pages();
        lo * LINES_PER_PAGE as u64..hi * LINES_PER_PAGE as u64
    }

    /// Feeds core `i` from a recorded stream of its events instead of its
    /// generator and L1. The stream must be the one this core produces
    /// live; call before running or restoring.
    pub fn replay_core(&mut self, i: usize, reader: StreamReader<Box<dyn StreamSource>>) {
        self.cores[i].feed = Feed::Replay(reader);
    }

    /// Records core `i`'s events into `writer` while it runs live; the
    /// stream is committed when the core reaches its budget. A write
    /// error drops the recording and the core runs on live. Call before
    /// running or restoring.
    pub fn record_core(&mut self, i: usize, writer: StreamWriter<Box<dyn StreamSink>>) {
        self.cores[i].feed = Feed::Record(writer);
    }

    /// How many cores replay a stream and how many record one.
    pub fn feeds(&self) -> (usize, usize) {
        self.cores
            .iter()
            .fold((0, 0), |(replay, record), c| match c.feed {
                Feed::Live => (replay, record),
                Feed::Record(_) => (replay, record + 1),
                Feed::Replay(_) => (replay + 1, record),
            })
    }

    fn mem_of(&mut self, kind: MemoryKind) -> &mut MemorySystem {
        match kind {
            MemoryKind::Hbm => &mut self.hbm,
            MemoryKind::Ddr => &mut self.ddr,
        }
    }

    /// Drains queued migration copy traffic into the controllers.
    fn pump_backlog(&mut self) {
        while let Some(&(mk, line, kind)) = self.backlog.front() {
            let req = MemRequest {
                id: self.next_id,
                line,
                kind,
                core: MIGRATION_CORE,
                arrive: Cycle(self.now),
            };
            // A full queue rejects without mutating; retry next chunk.
            if self.mem_of(mk).enqueue(req).is_err() {
                break;
            }
            self.next_id += 1;
            self.backlog.pop_front();
        }
    }

    /// Applies migration directives: rebinds pages and queues the copy
    /// traffic (64 line reads from the old frame + 64 line writes to the
    /// new frame per page).
    fn apply_moves(&mut self, moves: Vec<Move>) {
        for m in moves {
            let Some((from, old_frame)) = self.pagemap.lookup(m.page) else {
                continue;
            };
            if from == m.to || self.pagemap.migrate(m.page, m.to).is_err() {
                continue;
            }
            let (to, new_frame) = self.pagemap.lookup(m.page).expect("just migrated");
            for l in 0..LINES_PER_PAGE as u64 {
                self.backlog.push_back((
                    from,
                    LineAddr(old_frame * LINES_PER_PAGE as u64 + l),
                    AccessKind::Read,
                ));
                self.backlog.push_back((
                    to,
                    LineAddr(new_frame * LINES_PER_PAGE as u64 + l),
                    AccessKind::Write,
                ));
            }
        }
    }

    /// Issues one demand event into the memory system: page-map translate,
    /// enqueue, AVF/engine bookkeeping, MSHR accounting. Returns `false`
    /// on controller backpressure (nothing was mutated; the caller stalls
    /// the core for the chunk and retries the event next chunk).
    #[inline]
    fn issue_event(&mut self, i: usize, ev: MemEvent, chunk_end: u64) -> bool {
        let page = ev.line.page();
        let lip = ev.line.line_in_page();
        let (mk, fline) = self.pagemap.frame_line(page, lip);
        let at = Cycle(self.cores[i].cycle.max(self.now));
        let req = MemRequest {
            id: self.next_id,
            line: fline,
            kind: ev.kind,
            core: i,
            arrive: at,
        };
        // A full queue rejects without mutating: controller backpressure.
        if self.mem_of(mk).enqueue(req).is_err() {
            self.cores[i].cycle = chunk_end;
            return false;
        }
        self.next_id += 1;
        match mk {
            MemoryKind::Hbm => self.demand_hbm += 1,
            MemoryKind::Ddr => self.demand_ddr += 1,
        }
        self.avf.on_access(page, lip, ev.kind, at, mk);
        if let Some(e) = &mut self.engine {
            e.on_mem_access(page, ev.kind, mk);
        }
        if !ev.kind.is_write() {
            self.cores[i].outstanding += 1;
        }
        true
    }

    /// Core `i`'s next post-L1 event, from its stream or from its
    /// generator and L1. `None` once a replayed stream failed: the error
    /// is kept and ends the run.
    #[inline]
    fn next_event(&mut self, i: usize) -> Option<L1Event> {
        let c = &mut self.cores[i];
        if let Feed::Replay(r) = &mut c.feed {
            return match r.next_event() {
                Ok(ev) => {
                    self.hierarchy.count_l1(i, &ev.outcome);
                    Some(ev)
                }
                Err(e) => {
                    self.stream_error.get_or_insert(e);
                    None
                }
            };
        }
        let rec = c.gen.next().expect("trace streams are infinite");
        let ev = L1Event {
            insts: rec.instructions(),
            outcome: self.hierarchy.l1_access(i, rec.addr.line(), rec.kind),
        };
        if let Feed::Record(w) = &mut c.feed {
            if w.push(&ev).is_err() {
                c.feed = Feed::Live;
            }
        }
        Some(ev)
    }

    /// Runs core `i` until the end of the chunk or a stall.
    fn run_core(&mut self, i: usize, chunk_end: u64, tmp: &mut Vec<MemEvent>) {
        // Per-record retire cost divides by the issue width; shipped
        // widths are powers of two, so hoist the shift out of the loop.
        let iw = self.cfg.issue_width as u64;
        let iw_shift = iw.is_power_of_two().then(|| iw.trailing_zeros());
        loop {
            // Drain events left over from a stalled chunk first.
            while let Some(ev) = self.cores[i].pending.front().copied() {
                if !self.issue_event(i, ev, chunk_end) {
                    return;
                }
                self.cores[i].pending.pop_front();
            }
            {
                let c = &mut self.cores[i];
                if c.done || c.cycle >= chunk_end {
                    return;
                }
                if c.outstanding >= self.cfg.mshrs_per_core as u32 {
                    // MSHRs exhausted: wait for completions.
                    c.cycle = chunk_end;
                    return;
                }
                if c.retired >= c.budget {
                    c.done = true;
                    c.finish = c.cycle;
                    if let Feed::Record(w) = std::mem::replace(&mut c.feed, Feed::Live) {
                        // A stream that fails to land is simply not there
                        // for later runs; this run is unaffected.
                        if let Ok(sink) = w.finish() {
                            let _ = sink.commit();
                        }
                    }
                    return;
                }
            }
            let Some(ev) = self.next_event(i) else {
                return;
            };
            {
                let c = &mut self.cores[i];
                let insts = ev.insts;
                c.retired += insts;
                c.cycle += match iw_shift {
                    Some(s) => (insts + iw - 1) >> s,
                    None => insts.div_ceil(iw),
                };
            }
            tmp.clear();
            self.hierarchy.l2_access(i, &ev.outcome, tmp);
            if let L1Outcome::Miss { write: false, .. } = ev.outcome {
                self.cores[i].cycle += L2_HIT_LATENCY;
            }
            // Issue the miss events directly; only a stalled remainder
            // takes the pending-queue detour (drained above next chunk).
            for (k, &ev) in tmp.iter().enumerate() {
                if !self.issue_event(i, ev, chunk_end) {
                    let c = &mut self.cores[i];
                    c.pending.extend(tmp[k..].iter().copied());
                    return;
                }
            }
        }
    }

    /// Hash binding a checkpoint to the run that wrote it: config,
    /// workload and policy. Static state (trace profiles, footprint,
    /// pinned set, DRAM geometry) is a pure function of these, so it is
    /// rebuilt through [`SystemSim::new`] rather than serialized.
    fn identity_hash(&self) -> u64 {
        let h = codec::fnv1a64(&self.cfg.canonical_bytes());
        let h = codec::fnv1a64_seeded(h, self.workload_name.as_bytes());
        codec::fnv1a64_seeded(h, self.policy_name.as_bytes())
    }

    /// Serializes the complete dynamic simulation state as a framed,
    /// checksummed blob. Restoring it into a freshly built simulator of
    /// identical arguments (via [`SystemSim::restore_state`]) and running
    /// on yields results byte-identical to the uninterrupted run.
    pub fn save_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::framed(
            CHECKPOINT_KIND,
            CHECKPOINT_VERSION,
            self.ckpt_capacity.get(),
        );
        w.u64(self.identity_hash());
        w.u64(self.now);
        w.u64(self.next_id);
        w.u64(self.epochs);
        w.u64(self.last_epoch_insts);
        w.u64(self.next_fc);
        w.u64(self.next_mea);
        w.u64(self.next_epoch);
        w.u64(self.demand_hbm);
        w.u64(self.demand_ddr);
        w.f64(self.hbm_lat.0);
        w.u64(self.hbm_lat.1);
        w.f64(self.ddr_lat.0);
        w.u64(self.ddr_lat.1);
        w.u32(self.cores.len() as u32);
        for c in &self.cores {
            match &c.feed {
                Feed::Replay(r) => {
                    let pos = r.position();
                    w.u8(1);
                    w.u64(pos.offset);
                    w.u32(pos.records);
                }
                _ => {
                    w.u8(0);
                    c.gen.save_state(&mut w);
                }
            }
            w.u64(c.cycle);
            w.u64(c.retired);
            w.u64(c.budget);
            w.u32(c.outstanding);
            w.u32(c.pending.len() as u32);
            for ev in &c.pending {
                w.u64(ev.line.0);
                w.u8(u8::from(ev.kind.is_write()));
                w.u64(ev.core as u64);
            }
            w.u8(u8::from(c.done));
            w.u64(c.finish);
        }
        self.hierarchy.save_state(&mut w);
        self.hbm.save_state(&mut w);
        self.ddr.save_state(&mut w);
        self.pagemap.save_state(&mut w);
        self.avf.save_state(&mut w);
        match &self.engine {
            None => w.u8(0),
            Some(e) => {
                w.u8(1);
                e.save_state(&mut w);
            }
        }
        w.u32(self.backlog.len() as u32);
        for &(mk, line, kind) in &self.backlog {
            w.u8(match mk {
                MemoryKind::Hbm => 0,
                MemoryKind::Ddr => 1,
            });
            w.u64(line.0);
            w.u8(u8::from(kind.is_write()));
        }
        w.u32(self.outstanding_hist.len() as u32);
        for h in &self.outstanding_hist {
            h.save_state(&mut w);
        }
        self.epoch_ipc.save_state(&mut w);
        self.note_checkpoint_len(w.bytes().len());
        w.finish_frame()
    }

    /// Sizes the next checkpoint's buffer from a payload of `len` bytes:
    /// state only grows by the pages a run touches between checkpoints.
    fn note_checkpoint_len(&self, len: usize) {
        self.ckpt_capacity.set(len + len / 8);
    }

    /// Restores a checkpoint written by [`SystemSim::save_state`] into a
    /// freshly built simulator with identical constructor arguments.
    ///
    /// # Errors
    ///
    /// Any corruption — bad framing, wrong kind/version, checksum failure,
    /// truncation, or a checkpoint from a different run — returns a
    /// [`CodecError`] and never panics. Page ids must lie in the run's
    /// footprint, so no count or id in the blob sizes the page map or the
    /// AVF tracker past what the footprint bounds. The simulator may be
    /// partially mutated on failure; callers must discard it and rebuild.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let payload = codec::decode_framed(bytes, CHECKPOINT_KIND, CHECKPOINT_VERSION)?;
        self.note_checkpoint_len(payload.len());
        let mut r = ByteReader::new(payload);
        if r.u64()? != self.identity_hash() {
            return Err(CodecError::Malformed("checkpoint is for a different run"));
        }
        self.now = r.u64()?;
        self.next_id = r.u64()?;
        self.epochs = r.u64()?;
        self.last_epoch_insts = r.u64()?;
        self.next_fc = r.u64()?;
        self.next_mea = r.u64()?;
        self.next_epoch = r.u64()?;
        self.demand_hbm = r.u64()?;
        self.demand_ddr = r.u64()?;
        self.hbm_lat = (r.f64()?, r.u64()?);
        self.ddr_lat = (r.f64()?, r.u64()?);
        let n_cores = r.seq_len(64)?;
        if n_cores != self.cores.len() {
            return Err(CodecError::Malformed("core count mismatch"));
        }
        for c in &mut self.cores {
            match (r.u8()?, &mut c.feed) {
                // A live checkpoint resumes live: a replayed stream is
                // set aside, and a recording that missed the run's start
                // is dropped.
                (0, feed) => {
                    *feed = Feed::Live;
                    c.gen.restore_state(&mut r)?;
                }
                (1, Feed::Replay(reader)) => {
                    let pos = StreamPos {
                        offset: r.u64()?,
                        records: r.u32()?,
                    };
                    reader
                        .seek(pos)
                        .map_err(|_| CodecError::Malformed("checkpoint's stream position"))?;
                }
                (1, _) => {
                    return Err(CodecError::Malformed(
                        "replay checkpoint without its stream",
                    ))
                }
                _ => return Err(CodecError::Malformed("bad core feed tag")),
            }
            c.cycle = r.u64()?;
            c.retired = r.u64()?;
            c.budget = r.u64()?;
            c.outstanding = r.u32()?;
            let n_pending = r.seq_len(17)?;
            c.pending.clear();
            for _ in 0..n_pending {
                let line = LineAddr(r.u64()?);
                let write = r.u8()? != 0;
                let core = r.u64()? as usize;
                c.pending.push_back(if write {
                    MemEvent::write(line, core)
                } else {
                    MemEvent::read(line, core)
                });
            }
            c.done = r.u8()? != 0;
            c.finish = r.u64()?;
        }
        self.hierarchy.restore_state(&mut r)?;
        self.hbm.restore_state(&mut r)?;
        self.ddr.restore_state(&mut r)?;
        self.pagemap.restore_state(&mut r, &self.footprint)?;
        self.avf.restore_state(&mut r, &self.footprint)?;
        match (r.u8()?, &mut self.engine) {
            (0, None) => {}
            (1, Some(e)) => e.restore_state(&mut r)?,
            _ => return Err(CodecError::Malformed("migration-engine presence mismatch")),
        }
        let n_backlog = r.seq_len(10)?;
        self.backlog.clear();
        for _ in 0..n_backlog {
            let mk = match r.u8()? {
                0 => MemoryKind::Hbm,
                1 => MemoryKind::Ddr,
                _ => return Err(CodecError::Malformed("bad memory-kind tag")),
            };
            let line = LineAddr(r.u64()?);
            let kind = if r.u8()? != 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            self.backlog.push_back((mk, line, kind));
        }
        let n_hist = r.seq_len(1)?;
        if n_hist != self.outstanding_hist.len() {
            return Err(CodecError::Malformed("core histogram count mismatch"));
        }
        for h in &mut self.outstanding_hist {
            *h = BinHistogram::read_state(&mut r)?;
        }
        self.epoch_ipc = BinHistogram::read_state(&mut r)?;
        if r.remaining() != 0 {
            return Err(CodecError::Malformed("trailing bytes in checkpoint"));
        }
        Ok(())
    }

    /// Runs the workload to completion and produces the result.
    pub fn run(self) -> RunResult {
        self.run_with_hooks(RunHooks::default())
    }

    /// Runs the workload to completion, invoking `hooks` at every epoch
    /// boundary (an epoch is one FC interval). A run resumed from a
    /// checkpoint via [`SystemSim::restore_state`] continues here and
    /// produces a byte-identical [`RunResult`].
    ///
    /// # Panics
    ///
    /// Panics if a replayed stream fails to decode; a simulator without
    /// replayed cores never does. [`SystemSim::try_run_with_hooks`]
    /// returns that failure instead.
    pub fn run_with_hooks(self, hooks: RunHooks<'_>) -> RunResult {
        self.try_run_with_hooks(hooks)
            .unwrap_or_else(|e| panic!("replayed stream failed: {e}"))
    }

    /// [`SystemSim::run_with_hooks`], ending early with the error of the
    /// first replayed stream that fails to decode. The partial run is
    /// lost; the caller runs it again live.
    ///
    /// # Errors
    ///
    /// The first [`StreamError`] of a replayed core.
    pub fn try_run_with_hooks(mut self, mut hooks: RunHooks<'_>) -> Result<RunResult, StreamError> {
        let mut tmp = Vec::new();

        loop {
            let chunk_end = self.now + CHUNK;
            self.pump_backlog();
            for i in 0..self.cores.len() {
                self.run_core(i, chunk_end, &mut tmp);
            }
            if let Some(e) = self.stream_error.take() {
                return Err(e);
            }
            let mut completions = std::mem::take(&mut self.completions);
            completions.clear();
            self.hbm.advance(Cycle(chunk_end), &mut completions);
            let hbm_split = completions.len();
            self.ddr.advance(Cycle(chunk_end), &mut completions);
            for (idx, comp) in completions.iter().enumerate() {
                if comp.core != MIGRATION_CORE && !comp.kind.is_write() {
                    let c = &mut self.cores[comp.core];
                    c.outstanding = c.outstanding.saturating_sub(1);
                    let lat = if idx < hbm_split {
                        &mut self.hbm_lat
                    } else {
                        &mut self.ddr_lat
                    };
                    lat.0 += comp.latency as f64;
                    lat.1 += 1;
                }
            }
            self.completions = completions;

            for (i, c) in self.cores.iter().enumerate() {
                self.outstanding_hist[i].observe(c.outstanding as f64);
            }
            let epoch_fired = chunk_end >= self.next_epoch;
            if epoch_fired {
                self.next_epoch += self.cfg.fc_interval_cycles;
                self.epochs += 1;
                let insts: u64 = self.cores.iter().map(|c| c.retired).sum();
                let delta = insts - self.last_epoch_insts;
                self.last_epoch_insts = insts;
                self.epoch_ipc
                    .observe(delta as f64 / self.cfg.fc_interval_cycles as f64);
            }

            let all_done = self.cores.iter().all(|c| c.done);
            if !all_done && self.engine.is_some() {
                if chunk_end >= self.next_mea {
                    self.next_mea += self.cfg.mea_interval_cycles;
                    let free = self.pagemap.hbm_free();
                    let moves = self
                        .engine
                        .as_mut()
                        .expect("engine present")
                        .on_mea_interval(
                            self.pagemap.hbm_pages(),
                            free,
                            &self.pinned,
                            self.cfg.mea_max_pages_per_interval,
                        );
                    self.apply_moves(moves);
                }
                if chunk_end >= self.next_fc {
                    self.next_fc += self.cfg.fc_interval_cycles;
                    let free = self.pagemap.hbm_free();
                    let max = self.cfg.max_swaps_per_interval;
                    let moves = self
                        .engine
                        .as_mut()
                        .expect("engine present")
                        .on_fc_interval(self.pagemap.hbm_pages(), free, &self.pinned, max);
                    self.apply_moves(moves);
                }
            }

            self.now = chunk_end;
            if epoch_fired {
                // The chunk boundary after an epoch tick is the checkpoint
                // cut: every subsystem is between chunks, so the serialized
                // state resumes at the top of the loop deterministically.
                if let Some(on_epoch) = hooks.on_epoch.as_mut() {
                    on_epoch(self.epochs);
                }
                if hooks.checkpoint_every > 0 && self.epochs % hooks.checkpoint_every == 0 {
                    if let Some(on_checkpoint) = hooks.on_checkpoint.as_mut() {
                        on_checkpoint(self.epochs, self.save_state());
                        if let Some(chaos) = ramp_sim::chaos::global() {
                            chaos.maybe_panic("sim.checkpoint");
                        }
                    }
                }
            }
            if all_done && self.backlog.is_empty() && self.hbm.is_idle() && self.ddr.is_idle() {
                break;
            }
            // Safety valve: a run must terminate even if something wedges.
            assert!(
                self.now < 50_000_000_000,
                "simulation did not converge (cycle {})",
                self.now
            );
        }

        let makespan = self
            .cores
            .iter()
            .map(|c| c.finish)
            .max()
            .unwrap_or(self.now)
            .max(1);
        let instructions: u64 = self.cores.iter().map(|c| c.retired).sum();
        let per_core_ipc: Vec<f64> = self
            .cores
            .iter()
            .map(|c| c.retired as f64 / c.finish.max(1) as f64)
            .collect();
        let table = self
            .avf
            .finish(Cycle(makespan))
            .include_untouched(self.footprint.iter().copied());
        let ser_model: &SerModel = &self.cfg.ser_model;
        let ser_fit = ser_model.system_ser(&table);
        let ser_ddr_only_fit = ser_model.ddr_only_ser(&table);
        let demand_total = self.demand_hbm + self.demand_ddr;
        let mpki = demand_total as f64 / instructions.max(1) as f64 * 1000.0;

        let mut reg = StatRegistry::new();
        self.hbm.export_telemetry(&mut reg, "dram.hbm");
        self.ddr.export_telemetry(&mut reg, "dram.ddr");
        self.hierarchy.export_telemetry(&mut reg, "cache");
        reg.gauge_set(
            "cache.l2",
            "mpki",
            self.hierarchy.l2_stats().misses as f64 / instructions.max(1) as f64 * 1000.0,
        );
        if let Some(e) = &self.engine {
            e.export_telemetry(&mut reg, "migration");
        }
        for (i, c) in self.cores.iter().enumerate() {
            let scope = format!("core.c{i:02}");
            reg.counter_add(&scope, "instructions", c.retired);
            reg.counter_add(&scope, "finish_cycle", c.finish);
            reg.gauge_set(&scope, "ipc", c.retired as f64 / c.finish.max(1) as f64);
            reg.observe_hist(&scope, "outstanding_misses", &self.outstanding_hist[i]);
        }
        reg.counter_add("system", "instructions", instructions);
        reg.counter_add("system", "cycles", makespan);
        reg.counter_add("system", "hbm_accesses", self.demand_hbm);
        reg.counter_add("system", "ddr_accesses", self.demand_ddr);
        reg.counter_add("system", "epochs", self.epochs);
        reg.gauge_set("system", "ipc", instructions as f64 / makespan as f64);
        reg.gauge_set("system", "mpki", mpki);
        reg.observe_hist("system", "epoch_ipc", &self.epoch_ipc);
        reg.gauge_set("avf", "ser_fit", ser_fit);
        reg.gauge_set("avf", "ser_ddr_only_fit", ser_ddr_only_fit);

        Ok(RunResult {
            workload: self.workload_name,
            policy: self.policy_name,
            ipc: instructions as f64 / makespan as f64,
            per_core_ipc,
            ser_fit,
            ser_ddr_only_fit,
            cycles: makespan,
            instructions,
            mpki,
            hbm_accesses: self.demand_hbm,
            ddr_accesses: self.demand_ddr,
            migrations: self.engine.as_ref().map_or(0, |e| e.migrations),
            mean_read_latency: (
                if self.hbm_lat.1 > 0 {
                    self.hbm_lat.0 / self.hbm_lat.1 as f64
                } else {
                    0.0
                },
                if self.ddr_lat.1 > 0 {
                    self.ddr_lat.0 / self.ddr_lat.1 as f64
                } else {
                    0.0
                },
            ),
            table,
            telemetry: reg.snapshot(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramp_trace::Benchmark;

    fn smoke_run(policy: &str, initial: &[PageId]) -> RunResult {
        let cfg = SystemConfig::smoke_test();
        let wl = Workload::Homogeneous(Benchmark::Astar);
        SystemSim::new(cfg, &wl, policy, initial, HashSet::new(), None).run()
    }

    #[test]
    fn ddr_only_smoke_run_completes() {
        let r = smoke_run("ddr-only", &[]);
        assert!(r.ipc > 0.1, "ipc {}", r.ipc);
        assert!(r.instructions >= 4 * 150_000);
        assert_eq!(r.hbm_accesses, 0);
        assert!(r.ddr_accesses > 0);
        assert!(r.mpki > 0.0);
        // DDR-only: SER equals the DDR-only baseline.
        assert!((r.ser_vs_ddr_only() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_runs() {
        let a = smoke_run("x", &[]);
        let b = smoke_run("x", &[]);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.ser_fit, b.ser_fit);
        assert_eq!(a.hbm_accesses, b.hbm_accesses);
    }

    #[test]
    fn hbm_placement_attracts_traffic_and_raises_ser() {
        // Place the first pages of every core's footprint in HBM.
        let cfg = SystemConfig::smoke_test();
        let wl = Workload::Homogeneous(Benchmark::Astar);
        let mut initial = Vec::new();
        for gen in wl.build_cores(cfg.seed, 1) {
            let base = gen.base_page().index();
            for p in 0..128 {
                initial.push(PageId(base + p));
            }
        }
        let r = SystemSim::new(cfg, &wl, "some-hbm", &initial, HashSet::new(), None).run();
        assert!(r.hbm_accesses > 0, "HBM must see traffic");
        assert!(r.ser_vs_ddr_only() >= 1.0, "HBM residency cannot lower SER");
    }

    #[test]
    fn telemetry_snapshot_covers_all_scopes() {
        use crate::migration::{MigrationEngine, MigrationScheme};
        let cfg = SystemConfig::smoke_test();
        let wl = Workload::Homogeneous(Benchmark::Libquantum);
        let engine = MigrationEngine::new(MigrationScheme::PerfFc);
        let r = SystemSim::new(cfg, &wl, "perf-fc", &[], HashSet::new(), Some(engine)).run();
        let t = &r.telemetry;
        // Every top-level scope the acceptance criteria name is present.
        assert_eq!(
            t.get("system", "instructions").unwrap().as_counter(),
            Some(r.instructions)
        );
        assert_eq!(
            t.get("migration", "migrations").unwrap().as_counter(),
            Some(r.migrations)
        );
        assert_eq!(
            t.get("dram.ddr", "accesses")
                .unwrap()
                .as_counter()
                .map(|v| v > 0),
            Some(true)
        );
        assert!(t.get("dram.hbm.ch0", "row_hits").is_some());
        assert!(t.get("cache.l2", "misses").is_some());
        assert!(t.get("cache.l1.core00", "hits").is_some());
        assert!(t.get("core.c00", "ipc").is_some());
        assert!(t.get("avf", "ser_fit").is_some());
        // The MSHR occupancy histogram sampled every chunk on every core.
        let occ = t
            .get("core.c00", "outstanding_misses")
            .unwrap()
            .as_histogram()
            .unwrap();
        assert!(occ.total() > 0);
        // Epoch IPC series recorded at FC-interval boundaries.
        assert!(t.get("system", "epochs").unwrap().as_counter().unwrap() > 0);
        let eipc = t
            .get("system", "epoch_ipc")
            .unwrap()
            .as_histogram()
            .unwrap();
        assert_eq!(
            Some(eipc.total()),
            t.get("system", "epochs").unwrap().as_counter()
        );
        // Deterministic: an identical run yields a byte-identical snapshot.
        let engine2 = MigrationEngine::new(MigrationScheme::PerfFc);
        let r2 = SystemSim::new(
            SystemConfig::smoke_test(),
            &wl,
            "perf-fc",
            &[],
            HashSet::new(),
            Some(engine2),
        )
        .run();
        assert_eq!(r.telemetry.to_json(), r2.telemetry.to_json());
    }

    fn migration_sim() -> SystemSim {
        use crate::migration::{MigrationEngine, MigrationScheme};
        let cfg = SystemConfig::smoke_test();
        let wl = Workload::Homogeneous(Benchmark::Libquantum);
        SystemSim::new(
            cfg,
            &wl,
            "perf-fc",
            &[],
            HashSet::new(),
            Some(MigrationEngine::new(MigrationScheme::PerfFc)),
        )
    }

    #[test]
    fn checkpoint_restore_then_save_is_byte_identical() {
        // Capture a mid-run checkpoint...
        let mut blobs: Vec<Vec<u8>> = Vec::new();
        let mut save = |_epoch: u64, blob: Vec<u8>| blobs.push(blob);
        migration_sim().run_with_hooks(RunHooks {
            checkpoint_every: 2,
            on_checkpoint: Some(&mut save),
            ..RunHooks::default()
        });
        assert!(blobs.len() >= 2, "expected several checkpoints");
        // ...restore it into a fresh sim and re-serialize: the blob must
        // round-trip exactly (nothing was lost or reordered).
        let blob = &blobs[blobs.len() / 2];
        let mut sim = migration_sim();
        sim.restore_state(blob).unwrap();
        assert_eq!(&sim.save_state(), blob);
    }

    #[test]
    fn resume_from_checkpoint_matches_uninterrupted_run() {
        let reference = migration_sim().run();

        let mut blobs: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut save = |epoch: u64, blob: Vec<u8>| blobs.push((epoch, blob));
        let interrupted = migration_sim().run_with_hooks(RunHooks {
            checkpoint_every: 1,
            on_checkpoint: Some(&mut save),
            ..RunHooks::default()
        });
        assert_eq!(
            reference.telemetry.to_json(),
            interrupted.telemetry.to_json()
        );

        // Resume from a mid-run checkpoint as if the first process died.
        let (epoch, blob) = &blobs[blobs.len() / 2];
        assert!(*epoch > 0);
        let mut sim = migration_sim();
        sim.restore_state(blob).unwrap();
        let resumed = sim.run();
        assert_eq!(reference.cycles, resumed.cycles);
        assert_eq!(reference.instructions, resumed.instructions);
        assert_eq!(reference.ser_fit.to_bits(), resumed.ser_fit.to_bits());
        assert_eq!(reference.ipc.to_bits(), resumed.ipc.to_bits());
        assert_eq!(reference.migrations, resumed.migrations);
        assert_eq!(
            reference.mean_read_latency.0.to_bits(),
            resumed.mean_read_latency.0.to_bits()
        );
        assert_eq!(reference.telemetry.to_json(), resumed.telemetry.to_json());
    }

    #[test]
    fn checkpoint_rejects_corruption_and_foreign_runs() {
        let mut blobs: Vec<Vec<u8>> = Vec::new();
        let mut save = |_epoch: u64, blob: Vec<u8>| blobs.push(blob);
        migration_sim().run_with_hooks(RunHooks {
            checkpoint_every: 2,
            on_checkpoint: Some(&mut save),
            ..RunHooks::default()
        });
        let blob = blobs.remove(0);
        // Truncated tail.
        assert!(migration_sim()
            .restore_state(&blob[..blob.len() - 3])
            .is_err());
        // Flipped byte mid-payload breaks the frame checksum.
        let mut flipped = blob.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(migration_sim().restore_state(&flipped).is_err());
        // A different run (other policy label) must be rejected.
        let wl = Workload::Homogeneous(Benchmark::Libquantum);
        let mut other = SystemSim::new(
            SystemConfig::smoke_test(),
            &wl,
            "ddr-only",
            &[],
            HashSet::new(),
            None,
        );
        assert!(other.restore_state(&blob).is_err());
    }

    #[test]
    fn migration_engine_moves_pages() {
        use crate::migration::{MigrationEngine, MigrationScheme};
        let cfg = SystemConfig::smoke_test();
        let wl = Workload::Homogeneous(Benchmark::Libquantum);
        let engine = MigrationEngine::new(MigrationScheme::PerfFc);
        let r = SystemSim::new(cfg, &wl, "perf-fc", &[], HashSet::new(), Some(engine)).run();
        assert!(r.migrations > 0, "expected migrations");
        assert!(r.hbm_accesses > 0, "migrated pages must serve traffic");
    }
}
