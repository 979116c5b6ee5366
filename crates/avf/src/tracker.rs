//! ACE-interval tracking at cache-line granularity (Section 4.1).
//!
//! The AVF of a bit in memory is the fraction of execution time during
//! which flipping it would change program output. At memory-request
//! granularity (Figure 3 of the paper):
//!
//! * a **read** of a line at cycle *t* makes the interval since the line's
//!   previous memory access ACE (the value was live: the fill consumed it);
//! * a **write** at cycle *t* makes the preceding interval un-ACE (dead:
//!   the value was overwritten before being read).
//!
//! The tracker attributes each ACE interval to the memory (HBM or DDR) the
//! page resides in at the time of the read; migration intervals are much
//! longer than typical ACE intervals, so the attribution error is
//! second-order (DESIGN.md).
//!
//! Storage is a dense page arena. A [`PageIndex`], the table behind the
//! page map too, maps each page to the slot of its inline record, handed
//! out on the page's first touch.
//! Records live in fixed 64-record slabs: one growing `Vec` of them
//! would be reallocated, old and new copies side by side, as a run
//! touches more pages. A per-access update is two bounds-checked loads
//! and no hashing, and the index walks in page order.
//!
//! # Checkpoint encoding
//!
//! [`AvfTracker::save_state`] writes the start cycle, the touched-page
//! count, and then per touched page in ascending page order:
//!
//! | field | encoding |
//! |---|---|
//! | page id minus (previous page id + 1) | varint |
//! | lines whose stamp is not the start cycle | 64-bit bitmap |
//! | `stamp - start` of each flagged line, ascending | varint each |
//! | ACE in HBM, ACE in DDR, reads, writes | varint each |
//!
//! Every state has exactly one encoding, whatever order pages were
//! first touched in, so restore-then-save reproduces a blob byte for
//! byte.

use ramp_dram::MemoryKind;
use ramp_sim::codec::{ByteReader, ByteWriter, CodecError};
use ramp_sim::pageindex::PageIndex;
use ramp_sim::units::{AccessKind, Cycle, PageId, LINES_PER_PAGE};

/// Records per arena slab (35 KiB).
const SLAB: usize = 64;
/// Index entry of a page never touched.
const NO_SLOT: u32 = u32::MAX;
/// Fewest bytes one page takes in a checkpoint: a one-byte gap, the
/// bitmap and four one-byte counters.
const MIN_PAGE_BYTES: usize = 1 + 8 + 4;

/// Per-page tracking state. `repr(C)` keeps the fields every access
/// updates together in the record's first cache line.
#[derive(Clone, Debug)]
#[repr(C)]
struct PageTrack {
    /// Lines whose stamp is no longer the start cycle, one bit a line:
    /// the checkpoint bitmap, kept up to date by every access.
    flagged: u64,
    /// ACE cycles accumulated while resident in [HBM, DDR].
    ace: [u64; 2],
    reads: u64,
    writes: u64,
    /// Last memory access per line (fill or writeback).
    last_access: [u64; LINES_PER_PAGE],
}

impl PageTrack {
    fn new(start: u64) -> Self {
        PageTrack {
            flagged: 0,
            ace: [0, 0],
            reads: 0,
            writes: 0,
            last_access: [start; LINES_PER_PAGE],
        }
    }
}

#[inline]
fn mem_index(kind: MemoryKind) -> usize {
    match kind {
        MemoryKind::Hbm => 0,
        MemoryKind::Ddr => 1,
    }
}

/// Final per-page statistics: the raw material of every placement policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PageStats {
    /// The page.
    pub page: PageId,
    /// Memory-level reads (fills).
    pub reads: u64,
    /// Memory-level writes (writebacks).
    pub writes: u64,
    /// ACE cycles accumulated while in HBM.
    pub ace_hbm: u64,
    /// ACE cycles accumulated while in DDR.
    pub ace_ddr: u64,
    /// Page AVF over the whole run, in `[0, 1]`.
    pub avf: f64,
}

impl PageStats {
    /// Raw access count ("hotness"): reads + writes.
    pub fn hotness(&self) -> u64 {
        self.reads + self.writes
    }

    /// The paper's Wr ratio heuristic: writes / reads (Section 5.4.1).
    /// Pages with zero reads use 1 as the denominator (maximally
    /// write-dominated).
    pub fn wr_ratio(&self) -> f64 {
        self.writes as f64 / self.reads.max(1) as f64
    }

    /// The paper's Wr² ratio: writes² / reads (Section 5.4.2) — the same
    /// AVF proxy with extra weight on absolute write traffic.
    pub fn wr2_ratio(&self) -> f64 {
        (self.writes as f64) * (self.writes as f64) / self.reads.max(1) as f64
    }

    /// AVF component accumulated in the given memory.
    pub fn avf_in(&self, kind: MemoryKind, total_cycles: u64) -> f64 {
        let ace = match kind {
            MemoryKind::Hbm => self.ace_hbm,
            MemoryKind::Ddr => self.ace_ddr,
        };
        if total_cycles == 0 {
            0.0
        } else {
            ace as f64 / (LINES_PER_PAGE as f64 * total_cycles as f64)
        }
    }
}

/// Tracks ACE intervals for every page touched during a run.
///
/// ```
/// use ramp_avf::AvfTracker;
/// use ramp_dram::MemoryKind;
/// use ramp_sim::units::{AccessKind, Cycle, PageId};
///
/// let mut t = AvfTracker::new(Cycle(0));
/// let p = PageId(7);
/// // Write at cycle 100 (interval 0..100 dead), read at 300 (100..300 ACE).
/// t.on_access(p, 0, AccessKind::Write, Cycle(100), MemoryKind::Ddr);
/// t.on_access(p, 0, AccessKind::Read, Cycle(300), MemoryKind::Ddr);
/// let stats = t.finish(Cycle(1000));
/// let s = stats.get(p).unwrap();
/// // 200 ACE cycles over 64 lines x 1000 cycles.
/// assert!((s.avf - 200.0 / 64_000.0).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct AvfTracker {
    /// Slot of each touched page's record (`NO_SLOT` if untouched).
    index: PageIndex<u32>,
    /// One record per touched page, in slabs of [`SLAB`]: a slab never
    /// moves, so the arena grows without copying or freeing records.
    slabs: Vec<Vec<PageTrack>>,
    /// Records handed out.
    touched: usize,
    start: Cycle,
}

impl AvfTracker {
    /// Creates a tracker; `start` is the cycle memory contents become live
    /// (data loaded before the simulated window counts as written then).
    pub fn new(start: Cycle) -> Self {
        AvfTracker {
            index: PageIndex::new(NO_SLOT),
            slabs: Vec::new(),
            touched: 0,
            start,
        }
    }

    /// The record of `page`, handing it a slot on first touch.
    #[inline]
    fn track_mut(&mut self, page: PageId) -> &mut PageTrack {
        let slot = match self.index.get(page) {
            NO_SLOT => self.add_slot(page),
            slot => slot,
        } as usize;
        &mut self.slabs[slot / SLAB][slot % SLAB]
    }

    /// Gives `page` a fresh record.
    fn add_slot(&mut self, page: PageId) -> u32 {
        let slot = u32::try_from(self.touched).expect("touched pages fit a u32 slot");
        self.index.set(page, slot);
        if self.touched % SLAB == 0 {
            self.slabs.push(Vec::with_capacity(SLAB));
        }
        let slab = self.slabs.last_mut().expect("a slab with room");
        slab.push(PageTrack::new(self.start.0));
        self.touched += 1;
        slot
    }

    /// Every touched page with its record, in ascending page order.
    fn iter_sorted(&self) -> impl Iterator<Item = (PageId, &PageTrack)> + '_ {
        self.index.iter().map(move |(page, slot)| {
            let slot = slot as usize;
            (page, &self.slabs[slot / SLAB][slot % SLAB])
        })
    }

    /// Records one memory-level access.
    ///
    /// # Panics
    ///
    /// Panics if `line_in_page >= 64`, `now` precedes the start cycle, or
    /// `page` lies beyond the index (ids from `4096 << 22` on).
    pub fn on_access(
        &mut self,
        page: PageId,
        line_in_page: usize,
        kind: AccessKind,
        now: Cycle,
        resident_in: MemoryKind,
    ) {
        assert!(line_in_page < LINES_PER_PAGE, "line index out of page");
        assert!(self.index.covers(page), "page id beyond the tracker index");
        assert!(now >= self.start, "access before tracker start");
        // Cores' clocks differ, so a line's stamp may move back to `start`.
        let moved = u64::from(now != self.start) << line_in_page;
        let track = self.track_mut(page);
        track.flagged = track.flagged & !(1 << line_in_page) | moved;
        let last = &mut track.last_access[line_in_page];
        match kind {
            AccessKind::Read => {
                let interval = now.0.saturating_sub(*last);
                track.ace[mem_index(resident_in)] += interval;
                track.reads += 1;
            }
            AccessKind::Write => {
                track.writes += 1;
            }
        }
        *last = now.0;
    }

    /// Serializes the tracker in the compact, canonical encoding of the
    /// module docs.
    pub fn save_state(&self, w: &mut ByteWriter) {
        let start = self.start.0;
        w.u64(start);
        w.u32(self.touched as u32);
        let mut next = 0u64;
        for (page, t) in self.iter_sorted() {
            w.varint(page.0 - next);
            next = page.0 + 1;
            w.u64(t.flagged);
            let mut rest = t.flagged;
            while rest != 0 {
                w.varint(t.last_access[rest.trailing_zeros() as usize] - start);
                rest &= rest - 1;
            }
            for v in [t.ace[0], t.ace[1], t.reads, t.writes] {
                w.varint(v);
            }
        }
    }

    /// Restores the state captured by [`AvfTracker::save_state`],
    /// replacing the tracker's contents.
    ///
    /// `footprint` lists, ascending, every page the run can touch. A page
    /// outside it is `Malformed`, and so is a page count beyond its
    /// length, so the index and arena a restore builds never outgrow what
    /// the footprint bounds, whatever the blob claims.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or inconsistent bytes; the
    /// tracker may be partially overwritten then.
    pub fn restore_state(
        &mut self,
        r: &mut ByteReader,
        footprint: &[PageId],
    ) -> Result<(), CodecError> {
        let start = r.u64()?;
        let n = r.seq_len(MIN_PAGE_BYTES)?;
        if n > footprint.len() {
            return Err(CodecError::Malformed("more tracked pages than footprint"));
        }
        self.start = Cycle(start);
        self.index.clear();
        self.slabs.clear();
        self.touched = 0;
        let mut next = 0u64;
        for _ in 0..n {
            let page = next
                .checked_add(r.varint()?)
                .filter(|p| footprint.binary_search(&PageId(*p)).is_ok())
                .ok_or(CodecError::Malformed("tracked page outside footprint"))?;
            next = page + 1;
            let slot = self.add_slot(PageId(page)) as usize;
            let t = &mut self.slabs[slot / SLAB][slot % SLAB];
            let mut flagged = r.u64()?;
            t.flagged = flagged;
            while flagged != 0 {
                // A flagged stamp differs from `start`: 0 is never written.
                let d = r.varint()?;
                t.last_access[flagged.trailing_zeros() as usize] = start
                    .checked_add(d)
                    .filter(|_| d != 0)
                    .ok_or(CodecError::Malformed("bad line stamp"))?;
                flagged &= flagged - 1;
            }
            t.ace = [r.varint()?, r.varint()?];
            t.reads = r.varint()?;
            t.writes = r.varint()?;
        }
        Ok(())
    }

    /// Finalizes tracking at `end` and produces the per-page statistics.
    ///
    /// The interval from each line's last access to `end` is un-ACE (the
    /// standard cooldown assumption: data not read again before the window
    /// closes does not count as vulnerable).
    ///
    /// # Panics
    ///
    /// Panics if `end` precedes the start cycle.
    pub fn finish(self, end: Cycle) -> StatsTable {
        assert!(end >= self.start, "end before start");
        let total = (end - self.start).0;
        let stats: Vec<PageStats> = self
            .iter_sorted()
            .map(|(page, t)| {
                let ace_total = t.ace[0] + t.ace[1];
                PageStats {
                    page,
                    reads: t.reads,
                    writes: t.writes,
                    ace_hbm: t.ace[0],
                    ace_ddr: t.ace[1],
                    avf: if total == 0 {
                        0.0
                    } else {
                        ace_total as f64 / (LINES_PER_PAGE as f64 * total as f64)
                    },
                }
            })
            .collect();
        StatsTable {
            stats,
            total_cycles: total,
        }
    }
}

/// The finished per-page statistics of one run.
#[derive(Clone, Debug)]
pub struct StatsTable {
    stats: Vec<PageStats>,
    total_cycles: u64,
}

impl StatsTable {
    /// Builds a table directly (used by tests and synthetic analyses).
    pub fn from_stats(stats: Vec<PageStats>, total_cycles: u64) -> Self {
        let mut stats = stats;
        stats.sort_by_key(|s| s.page);
        StatsTable {
            stats,
            total_cycles,
        }
    }

    /// All pages, sorted by page id.
    pub fn pages(&self) -> &[PageStats] {
        &self.stats
    }

    /// Run length in cycles.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Stats for one page, if it was touched.
    pub fn get(&self, page: PageId) -> Option<&PageStats> {
        self.stats
            .binary_search_by_key(&page, |s| s.page)
            .ok()
            .map(|i| &self.stats[i])
    }

    /// Extends the table with zero-stat entries for every footprint page
    /// that was never touched during the window (the paper's Figure 2/4
    /// statistics are over the *entire* memory footprint, where pages not
    /// accessed in the simulated window have zero hotness and zero AVF).
    pub fn include_untouched(mut self, footprint: impl IntoIterator<Item = PageId>) -> Self {
        use std::collections::HashSet;
        let have: HashSet<PageId> = self.stats.iter().map(|s| s.page).collect();
        for page in footprint {
            if !have.contains(&page) {
                self.stats.push(PageStats {
                    page,
                    reads: 0,
                    writes: 0,
                    ace_hbm: 0,
                    ace_ddr: 0,
                    avf: 0.0,
                });
            }
        }
        self.stats.sort_by_key(|s| s.page);
        self
    }

    /// Mean AVF over all pages in the table (Figure 2's per-workload
    /// metric; include the footprint via [`StatsTable::include_untouched`]
    /// first to match the paper's whole-footprint denominator).
    pub fn mean_avf(&self) -> f64 {
        if self.stats.is_empty() {
            return 0.0;
        }
        self.stats.iter().map(|s| s.avf).sum::<f64>() / self.stats.len() as f64
    }

    /// Mean hotness over all touched pages.
    pub fn mean_hotness(&self) -> f64 {
        if self.stats.is_empty() {
            return 0.0;
        }
        self.stats.iter().map(|s| s.hotness() as f64).sum::<f64>() / self.stats.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramp_sim::pageindex::{CHUNK_BITS, OUTER_CHUNKS};

    const D: MemoryKind = MemoryKind::Ddr;
    const H: MemoryKind = MemoryKind::Hbm;

    fn tracker() -> AvfTracker {
        AvfTracker::new(Cycle(0))
    }

    #[test]
    fn read_after_write_is_ace() {
        let mut t = tracker();
        let p = PageId(1);
        t.on_access(p, 3, AccessKind::Write, Cycle(100), D);
        t.on_access(p, 3, AccessKind::Read, Cycle(250), D);
        let s = t.finish(Cycle(1000));
        let ps = s.get(p).unwrap();
        assert_eq!(ps.ace_ddr, 150);
        assert_eq!(ps.ace_hbm, 0);
        assert_eq!(ps.reads, 1);
        assert_eq!(ps.writes, 1);
    }

    #[test]
    fn write_after_write_is_dead_interval() {
        // Figure 3(b): particle strike between two writes is masked.
        let mut t = tracker();
        let p = PageId(2);
        t.on_access(p, 0, AccessKind::Write, Cycle(10), D);
        t.on_access(p, 0, AccessKind::Write, Cycle(500), D);
        let s = t.finish(Cycle(1000));
        assert_eq!(s.get(p).unwrap().avf, 0.0);
    }

    #[test]
    fn same_hotness_different_avf() {
        // Figure 3(c)/(d): equal access counts, divergent AVF.
        let mut t = tracker();
        let (pa, pb) = (PageId(3), PageId(4));
        // Page A: W at 0, R at 900 -> 900 ACE cycles on one line.
        t.on_access(pa, 0, AccessKind::Write, Cycle(0), D);
        t.on_access(pa, 0, AccessKind::Read, Cycle(900), D);
        // Page B: R at 100 (100 ACE), W at 900 -> 100 ACE cycles.
        t.on_access(pb, 0, AccessKind::Read, Cycle(100), D);
        t.on_access(pb, 0, AccessKind::Write, Cycle(900), D);
        let s = t.finish(Cycle(1000));
        let (a, b) = (s.get(pa).unwrap(), s.get(pb).unwrap());
        assert_eq!(a.hotness(), b.hotness());
        assert!(a.avf > b.avf * 5.0);
    }

    #[test]
    fn first_read_counts_from_start() {
        // Data loaded before the window is live from the start cycle.
        let mut t = AvfTracker::new(Cycle(1000));
        let p = PageId(5);
        t.on_access(p, 0, AccessKind::Read, Cycle(1600), D);
        let s = t.finish(Cycle(2000));
        assert_eq!(s.get(p).unwrap().ace_ddr, 600);
    }

    #[test]
    fn residency_attribution_splits_ace() {
        let mut t = tracker();
        let p = PageId(6);
        t.on_access(p, 0, AccessKind::Write, Cycle(0), D);
        t.on_access(p, 0, AccessKind::Read, Cycle(100), D); // 100 in DDR
        t.on_access(p, 0, AccessKind::Read, Cycle(300), H); // 200 in HBM
        let s = t.finish(Cycle(400));
        let ps = s.get(p).unwrap();
        assert_eq!(ps.ace_ddr, 100);
        assert_eq!(ps.ace_hbm, 200);
        let tot = s.total_cycles();
        assert!((ps.avf_in(H, tot) - 200.0 / (64.0 * 400.0)).abs() < 1e-12);
    }

    #[test]
    fn avf_bounded_by_one() {
        let mut t = tracker();
        let p = PageId(7);
        // Read every line at the last cycle: maximal ACE.
        for l in 0..LINES_PER_PAGE {
            t.on_access(p, l, AccessKind::Read, Cycle(1000), D);
        }
        let s = t.finish(Cycle(1000));
        let a = s.get(p).unwrap().avf;
        assert!(a <= 1.0 + 1e-12, "avf {a} exceeds 1");
        assert!(a > 0.99);
    }

    #[test]
    fn wr_ratio_heuristics() {
        let s = PageStats {
            page: PageId(0),
            reads: 4,
            writes: 8,
            ace_hbm: 0,
            ace_ddr: 0,
            avf: 0.0,
        };
        assert_eq!(s.wr_ratio(), 2.0);
        assert_eq!(s.wr2_ratio(), 16.0);
        let w_only = PageStats {
            reads: 0,
            writes: 5,
            ..s
        };
        assert_eq!(w_only.wr_ratio(), 5.0);
    }

    #[test]
    fn table_means() {
        let mut t = tracker();
        t.on_access(PageId(0), 0, AccessKind::Read, Cycle(500), D);
        t.on_access(PageId(1), 0, AccessKind::Write, Cycle(500), D);
        let s = t.finish(Cycle(1000));
        assert_eq!(s.pages().len(), 2);
        assert!(s.mean_avf() > 0.0);
        assert_eq!(s.mean_hotness(), 1.0);
        assert!(s.get(PageId(9)).is_none());
    }

    #[test]
    #[should_panic(expected = "out of page")]
    fn line_out_of_range_panics() {
        tracker().on_access(PageId(0), 64, AccessKind::Read, Cycle(0), D);
    }

    #[test]
    #[should_panic(expected = "beyond the tracker index")]
    fn page_beyond_index_panics() {
        let far = PageId((OUTER_CHUNKS as u64) << CHUNK_BITS);
        tracker().on_access(far, 0, AccessKind::Read, Cycle(0), D);
    }

    fn saved(t: &AvfTracker) -> Vec<u8> {
        let mut w = ByteWriter::new();
        t.save_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn pages_finish_and_save_in_page_order_whatever_the_touch_order() {
        let pages = [
            PageId((3 << CHUNK_BITS) | 2),
            PageId(5),
            PageId(1 << CHUNK_BITS),
            PageId(0),
        ];
        let mut a = AvfTracker::new(Cycle(10));
        let mut b = AvfTracker::new(Cycle(10));
        for (i, &p) in pages.iter().enumerate() {
            a.on_access(p, i, AccessKind::Read, Cycle(100 + i as u64), D);
        }
        for (i, &p) in pages.iter().enumerate().rev() {
            b.on_access(p, i, AccessKind::Read, Cycle(100 + i as u64), D);
        }
        assert_eq!(saved(&a), saved(&b));
        let mut sorted = pages.to_vec();
        sorted.sort();
        let got: Vec<PageId> = a
            .finish(Cycle(200))
            .pages()
            .iter()
            .map(|s| s.page)
            .collect();
        assert_eq!(got, sorted);
    }

    #[test]
    fn restore_round_trips_and_bounds_pages_by_footprint() {
        let mut t = AvfTracker::new(Cycle(7));
        t.on_access(PageId(3), 0, AccessKind::Write, Cycle(7), D);
        t.on_access(PageId(3), 63, AccessKind::Read, Cycle(1 << 40), H);
        t.on_access(PageId(9), 5, AccessKind::Read, Cycle(20), D);
        let blob = saved(&t);
        let footprint: Vec<PageId> = (0..16).map(PageId).collect();
        let mut back = tracker();
        back.restore_state(&mut ByteReader::new(&blob), &footprint)
            .unwrap();
        assert_eq!(saved(&back), blob);
        // A page outside the footprint, or more pages than it holds.
        assert!(tracker()
            .restore_state(&mut ByteReader::new(&blob), &footprint[..4])
            .is_err());
        assert!(tracker()
            .restore_state(&mut ByteReader::new(&blob), &footprint[..1])
            .is_err());
        let a = t.finish(Cycle(1 << 41));
        let b = back.finish(Cycle(1 << 41));
        assert_eq!(a.pages(), b.pages());
    }
}
