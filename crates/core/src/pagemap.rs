//! The page map: which memory each page lives in, and its frame there.
//!
//! This is the HMA layer's remap table: virtual pages (the trace address
//! space) are bound to frames in either HBM or DDR. Frames are what the
//! DRAM address mappings decode, so migrating a page genuinely changes its
//! channel/bank/row placement. Freed frames are recycled LIFO.
//!
//! Storage is a [`PageIndex`] of packed entries instead of a `HashMap`,
//! so the per-access `resolve` is two bounds-checked loads, no hashing.
//! Pages outside the index (arbitrary ids from tests or tools) fall back
//! to a spill map, which never triggers on the simulator's own traffic.

use std::collections::HashMap;

use ramp_dram::MemoryKind;
use ramp_sim::pageindex::PageIndex;
use ramp_sim::units::{LineAddr, PageId, LINES_PER_PAGE};

/// Packed-entry sentinel: page not bound.
const EMPTY: u64 = u64::MAX;
/// Packed-entry kind bit (set = DDR, clear = HBM).
const KIND_DDR: u64 = 1 << 63;

#[inline]
fn pack(kind: MemoryKind, frame: u64) -> u64 {
    debug_assert!(frame < KIND_DDR);
    match kind {
        MemoryKind::Hbm => frame,
        MemoryKind::Ddr => frame | KIND_DDR,
    }
}

#[inline]
fn unpack(entry: u64) -> (MemoryKind, u64) {
    if entry & KIND_DDR == 0 {
        (MemoryKind::Hbm, entry)
    } else {
        (MemoryKind::Ddr, entry & !KIND_DDR)
    }
}

/// Page-to-frame binding for the two memories.
#[derive(Debug)]
pub struct PageMap {
    /// Packed entry of every bound page inside the index.
    index: PageIndex<u64>,
    /// Bindings for pages past the index (rare; tests/tools only).
    spill: HashMap<PageId, u64>,
    /// Total bound pages (maintained, not recounted).
    bound: usize,
    /// Pages currently in HBM (maintained, not recounted).
    hbm_resident: u64,
    free_hbm: Vec<u64>,
    next_hbm: u64,
    hbm_capacity: u64,
    free_ddr: Vec<u64>,
    next_ddr: u64,
}

/// Error returned when HBM has no free frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HbmFull;

impl std::fmt::Display for HbmFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no free HBM frames")
    }
}

impl std::error::Error for HbmFull {}

impl PageMap {
    /// Creates an empty map with the given HBM capacity in pages (DDR is
    /// effectively unbounded at our scale).
    pub fn new(hbm_capacity_pages: u64) -> Self {
        PageMap {
            index: PageIndex::new(EMPTY),
            spill: HashMap::new(),
            bound: 0,
            hbm_resident: 0,
            free_hbm: Vec::new(),
            next_hbm: 0,
            hbm_capacity: hbm_capacity_pages,
            free_ddr: Vec::new(),
            next_ddr: 0,
        }
    }

    /// The packed entry for `page`, or `EMPTY`.
    #[inline]
    fn entry(&self, page: PageId) -> u64 {
        if self.index.covers(page) {
            self.index.get(page)
        } else {
            self.spill.get(&page).copied().unwrap_or(EMPTY)
        }
    }

    /// Writes `entry` for `page`, growing tables as needed. Callers
    /// maintain `bound` / `hbm_resident` themselves.
    fn set_entry(&mut self, page: PageId, entry: u64) {
        if self.index.covers(page) {
            self.index.set(page, entry);
        } else if entry == EMPTY {
            self.spill.remove(&page);
        } else {
            self.spill.insert(page, entry);
        }
    }

    /// Rebinds `page` (which must already be bound) and keeps the
    /// HBM-residency counter in step.
    fn rebind(&mut self, page: PageId, old: u64, new: u64) {
        debug_assert_ne!(old, EMPTY);
        let was_hbm = old & KIND_DDR == 0;
        let is_hbm = new & KIND_DDR == 0;
        match (was_hbm, is_hbm) {
            (false, true) => self.hbm_resident += 1,
            (true, false) => self.hbm_resident -= 1,
            _ => {}
        }
        self.set_entry(page, new);
    }

    /// Where `page` currently lives (binding it to DDR on first touch).
    #[inline]
    pub fn resolve(&mut self, page: PageId) -> (MemoryKind, u64) {
        let entry = self.entry(page);
        if entry != EMPTY {
            return unpack(entry);
        }
        let frame = self.alloc_ddr();
        self.set_entry(page, pack(MemoryKind::Ddr, frame));
        self.bound += 1;
        (MemoryKind::Ddr, frame)
    }

    /// Current binding without allocating.
    pub fn lookup(&self, page: PageId) -> Option<(MemoryKind, u64)> {
        match self.entry(page) {
            EMPTY => None,
            e => Some(unpack(e)),
        }
    }

    /// Frame-level line address for an access to `line_in_page` of `page`.
    #[inline]
    pub fn frame_line(&mut self, page: PageId, line_in_page: usize) -> (MemoryKind, LineAddr) {
        let (kind, frame) = self.resolve(page);
        (
            kind,
            LineAddr(frame * LINES_PER_PAGE as u64 + line_in_page as u64),
        )
    }

    /// Binds `page` into HBM (used for initial placements and pinning).
    ///
    /// # Errors
    ///
    /// Returns [`HbmFull`] when HBM has no free frames. The page keeps (or
    /// gets) a DDR binding in that case.
    pub fn place_in_hbm(&mut self, page: PageId) -> Result<(), HbmFull> {
        let old = self.entry(page);
        if old != EMPTY && old & KIND_DDR == 0 {
            return Ok(());
        }
        let frame = self.alloc_hbm().ok_or(HbmFull)?;
        if old == EMPTY {
            self.set_entry(page, pack(MemoryKind::Hbm, frame));
            self.bound += 1;
            self.hbm_resident += 1;
        } else {
            let (_, ddr_frame) = unpack(old);
            self.rebind(page, old, pack(MemoryKind::Hbm, frame));
            self.free_ddr.push(ddr_frame);
        }
        Ok(())
    }

    /// Moves `page` to `to`, recycling its old frame.
    ///
    /// # Errors
    ///
    /// Returns [`HbmFull`] when moving to HBM without free frames.
    pub fn migrate(&mut self, page: PageId, to: MemoryKind) -> Result<(), HbmFull> {
        let (kind, frame) = self.resolve(page);
        if kind == to {
            return Ok(());
        }
        let old = pack(kind, frame);
        match to {
            MemoryKind::Hbm => {
                let new = self.alloc_hbm().ok_or(HbmFull)?;
                self.rebind(page, old, pack(MemoryKind::Hbm, new));
                self.free_ddr.push(frame);
            }
            MemoryKind::Ddr => {
                let new = self.alloc_ddr();
                self.rebind(page, old, pack(MemoryKind::Ddr, new));
                self.free_hbm.push(frame);
            }
        }
        Ok(())
    }

    /// Iterates every bound `(page, packed entry)` in ascending page-id
    /// order. The index yields its pages sorted; spill pages all sort
    /// after them (their ids exceed the index), so appending the sorted
    /// spill keeps the whole stream ordered.
    fn iter_sorted(&self) -> impl Iterator<Item = (PageId, u64)> + '_ {
        let mut spill: Vec<(PageId, u64)> = self.spill.iter().map(|(&p, &e)| (p, e)).collect();
        spill.sort_by_key(|(p, _)| *p);
        self.index.iter().chain(spill)
    }

    /// Pages currently resident in HBM, ascending.
    pub fn hbm_pages(&self) -> Vec<PageId> {
        self.iter_sorted()
            .filter(|&(_, e)| e & KIND_DDR == 0)
            .map(|(p, _)| p)
            .collect()
    }

    /// Number of pages in HBM.
    pub fn hbm_used(&self) -> u64 {
        self.hbm_resident
    }

    /// Free HBM frames remaining.
    pub fn hbm_free(&self) -> u64 {
        self.hbm_capacity - self.hbm_resident
    }

    /// Total pages bound.
    pub fn len(&self) -> usize {
        self.bound
    }

    /// `true` when no pages are bound.
    pub fn is_empty(&self) -> bool {
        self.bound == 0
    }

    /// Serializes the map (sorted by page id) and both free lists. The
    /// free lists keep their order verbatim: frames recycle LIFO, so list
    /// order determines future allocations.
    pub(crate) fn save_state(&self, w: &mut ramp_sim::codec::ByteWriter) {
        w.u32(self.bound as u32);
        for (page, entry) in self.iter_sorted() {
            let (kind, frame) = unpack(entry);
            w.u64(page.0);
            w.u8(match kind {
                MemoryKind::Hbm => 0,
                MemoryKind::Ddr => 1,
            });
            w.u64(frame);
        }
        w.u32(self.free_hbm.len() as u32);
        for &f in &self.free_hbm {
            w.u64(f);
        }
        w.u64(self.next_hbm);
        w.u32(self.free_ddr.len() as u32);
        for &f in &self.free_ddr {
            w.u64(f);
        }
        w.u64(self.next_ddr);
    }

    /// Restores the state captured by [`PageMap::save_state`] into a map
    /// of identical HBM capacity. Every page must be in `footprint`
    /// (ascending), so a hostile page id cannot size the table.
    pub(crate) fn restore_state(
        &mut self,
        r: &mut ramp_sim::codec::ByteReader,
        footprint: &[PageId],
    ) -> Result<(), ramp_sim::codec::CodecError> {
        use ramp_sim::codec::CodecError;
        let n = r.seq_len(17)?;
        self.index.clear();
        self.spill.clear();
        self.bound = 0;
        self.hbm_resident = 0;
        for _ in 0..n {
            let page = PageId(r.u64()?);
            if footprint.binary_search(&page).is_err() {
                return Err(CodecError::Malformed("bound page outside footprint"));
            }
            let kind = match r.u8()? {
                0 => MemoryKind::Hbm,
                1 => MemoryKind::Ddr,
                _ => return Err(CodecError::Malformed("bad memory-kind tag")),
            };
            let frame = r.u64()?;
            if frame >= KIND_DDR {
                return Err(CodecError::Malformed("frame number out of range"));
            }
            self.set_entry(page, pack(kind, frame));
            self.bound += 1;
            if kind == MemoryKind::Hbm {
                self.hbm_resident += 1;
            }
        }
        let n_hbm = r.seq_len(8)?;
        let mut free_hbm = Vec::with_capacity(n_hbm);
        for _ in 0..n_hbm {
            free_hbm.push(r.u64()?);
        }
        let next_hbm = r.u64()?;
        if next_hbm > self.hbm_capacity {
            return Err(CodecError::Malformed("HBM watermark over capacity"));
        }
        let n_ddr = r.seq_len(8)?;
        let mut free_ddr = Vec::with_capacity(n_ddr);
        for _ in 0..n_ddr {
            free_ddr.push(r.u64()?);
        }
        self.next_ddr = r.u64()?;
        self.free_hbm = free_hbm;
        self.next_hbm = next_hbm;
        self.free_ddr = free_ddr;
        Ok(())
    }

    fn alloc_hbm(&mut self) -> Option<u64> {
        if let Some(f) = self.free_hbm.pop() {
            return Some(f);
        }
        if self.next_hbm < self.hbm_capacity {
            let f = self.next_hbm;
            self.next_hbm += 1;
            Some(f)
        } else {
            None
        }
    }

    fn alloc_ddr(&mut self) -> u64 {
        if let Some(f) = self.free_ddr.pop() {
            f
        } else {
            let f = self.next_ddr;
            self.next_ddr += 1;
            f
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramp_sim::pageindex::{CHUNK_BITS, OUTER_CHUNKS};

    #[test]
    fn first_touch_binds_to_ddr() {
        let mut pm = PageMap::new(4);
        let (k, _) = pm.resolve(PageId(10));
        assert_eq!(k, MemoryKind::Ddr);
        assert_eq!(pm.hbm_used(), 0);
    }

    #[test]
    fn hbm_capacity_enforced() {
        let mut pm = PageMap::new(2);
        assert!(pm.place_in_hbm(PageId(1)).is_ok());
        assert!(pm.place_in_hbm(PageId(2)).is_ok());
        assert_eq!(pm.place_in_hbm(PageId(3)), Err(HbmFull));
        assert_eq!(pm.hbm_used(), 2);
        assert_eq!(pm.hbm_free(), 0);
    }

    #[test]
    fn migrate_swaps_memories_and_recycles_frames() {
        let mut pm = PageMap::new(1);
        pm.place_in_hbm(PageId(1)).unwrap();
        let (_, hbm_frame) = pm.lookup(PageId(1)).unwrap();
        pm.migrate(PageId(1), MemoryKind::Ddr).unwrap();
        assert_eq!(pm.lookup(PageId(1)).unwrap().0, MemoryKind::Ddr);
        // The freed HBM frame is reused by the next page.
        pm.migrate(PageId(2), MemoryKind::Hbm).unwrap();
        assert_eq!(pm.lookup(PageId(2)).unwrap(), (MemoryKind::Hbm, hbm_frame));
    }

    #[test]
    fn migrate_to_same_memory_is_noop() {
        let mut pm = PageMap::new(1);
        pm.resolve(PageId(5));
        let before = pm.lookup(PageId(5)).unwrap();
        pm.migrate(PageId(5), MemoryKind::Ddr).unwrap();
        assert_eq!(pm.lookup(PageId(5)).unwrap(), before);
    }

    #[test]
    fn frame_lines_distinct_across_pages() {
        let mut pm = PageMap::new(16);
        pm.place_in_hbm(PageId(100)).unwrap();
        pm.place_in_hbm(PageId(200)).unwrap();
        let (k1, l1) = pm.frame_line(PageId(100), 0);
        let (k2, l2) = pm.frame_line(PageId(200), 0);
        assert_eq!(k1, MemoryKind::Hbm);
        assert_eq!(k2, MemoryKind::Hbm);
        assert_ne!(l1, l2);
        let (_, l3) = pm.frame_line(PageId(100), 63);
        assert_eq!(l3.0 - l1.0, 63);
    }

    #[test]
    fn hbm_pages_listing() {
        let mut pm = PageMap::new(8);
        pm.place_in_hbm(PageId(3)).unwrap();
        pm.place_in_hbm(PageId(1)).unwrap();
        pm.resolve(PageId(2));
        assert_eq!(pm.hbm_pages(), vec![PageId(1), PageId(3)]);
        assert_eq!(pm.len(), 3);
    }

    #[test]
    fn ddr_page_promoted_to_hbm_frees_ddr_frame() {
        let mut pm = PageMap::new(4);
        pm.resolve(PageId(1)); // DDR frame 0
        pm.place_in_hbm(PageId(1)).unwrap();
        // New DDR page should reuse the freed frame 0.
        let (_, frame) = pm.resolve(PageId(2));
        assert_eq!(frame, 0);
    }

    #[test]
    fn spill_pages_outside_outer_range() {
        let mut pm = PageMap::new(4);
        let far = PageId((OUTER_CHUNKS as u64) << CHUNK_BITS);
        let near = PageId(7);
        pm.place_in_hbm(far).unwrap();
        pm.resolve(near);
        assert_eq!(pm.lookup(far).unwrap().0, MemoryKind::Hbm);
        assert_eq!(pm.len(), 2);
        assert_eq!(pm.hbm_pages(), vec![far]);
        pm.migrate(far, MemoryKind::Ddr).unwrap();
        assert_eq!(pm.lookup(far).unwrap().0, MemoryKind::Ddr);
        assert_eq!(pm.hbm_used(), 0);
    }

    #[test]
    fn sorted_iteration_interleaves_cores() {
        // Pages from different per-core bases must serialize in global
        // page-id order, exactly like the HashMap + sort reference did.
        let mut pm = PageMap::new(64);
        let pages = [
            PageId(5),
            PageId((3 << CHUNK_BITS) | 2),
            PageId(1 << CHUNK_BITS),
            PageId((OUTER_CHUNKS as u64 + 1) << CHUNK_BITS),
            PageId(0),
        ];
        for p in pages {
            pm.place_in_hbm(p).unwrap();
        }
        let mut expect: Vec<PageId> = pages.to_vec();
        expect.sort();
        assert_eq!(pm.hbm_pages(), expect);
    }
}
