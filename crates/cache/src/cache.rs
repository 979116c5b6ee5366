//! A single set-associative, write-back, write-allocate cache.

use ramp_sim::units::LineAddr;

/// Geometry of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (must match the global 64 B line).
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Creates a config and validates the geometry.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero, sizes are inconsistent, or the
    /// number of sets is not a power of two.
    pub fn new(size_bytes: usize, assoc: usize, line_bytes: usize) -> Self {
        assert!(size_bytes > 0 && assoc > 0 && line_bytes > 0);
        assert_eq!(
            size_bytes % (assoc * line_bytes),
            0,
            "size must be a multiple of assoc * line"
        );
        let sets = size_bytes / (assoc * line_bytes);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheConfig {
            size_bytes,
            assoc,
            line_bytes,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.assoc * self.line_bytes)
    }

    /// Total lines the cache can hold.
    pub fn lines(&self) -> usize {
        self.size_bytes / self.line_bytes
    }
}

/// Outcome of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was already present.
    pub hit: bool,
    /// Line evicted to make room (misses only), with its dirty flag.
    pub victim: Option<(LineAddr, bool)>,
}

/// Hit/miss/writeback counters for one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines evicted.
    pub dirty_evictions: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]` (0 if no accesses).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// `meta` bit: way holds a valid line.
const VALID: u8 = 1;
/// `meta` bit: the held line is dirty.
const DIRTY: u8 = 2;

/// A set-associative cache with true-LRU replacement.
///
/// The cache is write-back and write-allocate with a *write-validate*
/// policy: a store miss allocates the line dirty without requiring a fill
/// from the next level (the caller decides whether to model a fill; see
/// [`crate::hierarchy::Hierarchy`]). This matches streaming-store behaviour
/// and is what lets write-only structures generate writeback-only memory
/// traffic — the low-AVF population the paper's heuristics target.
///
/// ```
/// use ramp_cache::{CacheConfig, SetAssocCache};
/// use ramp_sim::units::LineAddr;
///
/// let mut c = SetAssocCache::new(CacheConfig::new(4096, 2, 64));
/// assert!(!c.access(LineAddr(1), false).hit);
/// assert!(c.access(LineAddr(1), false).hit);
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    // Way state as parallel arrays (sets * assoc, row-major by set): the
    // hit scan walks `assoc` consecutive tags in one or two cache lines
    // instead of striding over padded per-way structs.
    tags: Vec<u64>,
    lrus: Vec<u64>,
    meta: Vec<u8>,
    set_mask: u64,
    set_shift: u32,
    tick: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let n = sets * config.assoc;
        SetAssocCache {
            config,
            tags: vec![0; n],
            lrus: vec![0; n],
            meta: vec![0; n],
            set_mask: sets as u64 - 1,
            set_shift: sets.trailing_zeros(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn index(&self, line: LineAddr) -> (usize, u64) {
        let set = (line.0 & self.set_mask) as usize;
        let tag = line.0 >> self.set_shift;
        (set, tag)
    }

    #[inline]
    fn line_of(&self, set: usize, tag: u64) -> LineAddr {
        LineAddr((tag << self.set_shift) | set as u64)
    }

    /// Counts one access decided elsewhere (a replayed stream's): a hit,
    /// or a miss that did or did not evict a dirty line. Ways and LRU
    /// state are left alone.
    pub fn count(&mut self, hit: bool, dirty_victim: bool) {
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            self.stats.dirty_evictions += u64::from(dirty_victim);
        }
    }

    /// Checks for presence without updating LRU or statistics.
    pub fn probe(&self, line: LineAddr) -> bool {
        let (set, tag) = self.index(line);
        let base = set * self.config.assoc;
        (base..base + self.config.assoc).any(|i| self.meta[i] & VALID != 0 && self.tags[i] == tag)
    }

    /// Accesses `line`; allocates on miss (LRU victim), marking the line
    /// dirty when `write` is set.
    pub fn access(&mut self, line: LineAddr, write: bool) -> AccessResult {
        self.tick += 1;
        let (set, tag) = self.index(line);
        let assoc = self.config.assoc;
        let base = set * assoc;

        let set_shift = self.set_shift;
        let tags = &mut self.tags[base..base + assoc];
        let lrus = &mut self.lrus[base..base + assoc];
        let meta = &mut self.meta[base..base + assoc];

        // Hit path.
        for i in 0..assoc {
            if meta[i] & VALID != 0 && tags[i] == tag {
                lrus[i] = self.tick;
                meta[i] |= u8::from(write) * DIRTY;
                self.stats.hits += 1;
                return AccessResult {
                    hit: true,
                    victim: None,
                };
            }
        }

        // Miss: pick an invalid way, else the LRU way.
        self.stats.misses += 1;
        let mut victim_idx = 0;
        let mut victim_lru = u64::MAX;
        let mut found_invalid = false;
        for i in 0..assoc {
            if meta[i] & VALID == 0 {
                victim_idx = i;
                found_invalid = true;
                break;
            }
            if lrus[i] < victim_lru {
                victim_lru = lrus[i];
                victim_idx = i;
            }
        }
        let victim = if found_invalid {
            None
        } else {
            let dirty = meta[victim_idx] & DIRTY != 0;
            if dirty {
                self.stats.dirty_evictions += 1;
            }
            Some((
                LineAddr((tags[victim_idx] << set_shift) | set as u64),
                dirty,
            ))
        };
        tags[victim_idx] = tag;
        lrus[victim_idx] = self.tick;
        meta[victim_idx] = VALID | u8::from(write) * DIRTY;
        AccessResult { hit: false, victim }
    }

    /// Invalidates `line` if present, returning whether it was dirty.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let (set, tag) = self.index(line);
        let base = set * self.config.assoc;
        for i in base..base + self.config.assoc {
            if self.meta[i] & VALID != 0 && self.tags[i] == tag {
                self.meta[i] &= !VALID;
                return Some(self.meta[i] & DIRTY != 0);
            }
        }
        None
    }

    /// Number of currently-valid lines (test/diagnostic helper).
    pub fn occupancy(&self) -> usize {
        self.meta.iter().filter(|&&m| m & VALID != 0).count()
    }

    /// Serializes the cache's dynamic state (ways, LRU tick, stats) into
    /// `w`. Geometry is not written: restore into a cache built with the
    /// same [`CacheConfig`].
    pub fn save_state(&self, w: &mut ramp_sim::codec::ByteWriter) {
        w.u32(self.tags.len() as u32);
        for i in 0..self.tags.len() {
            w.u64(self.tags[i]);
            w.u64(self.lrus[i]);
            w.u8(u8::from(self.meta[i] & VALID != 0));
            w.u8(u8::from(self.meta[i] & DIRTY != 0));
        }
        w.u64(self.tick);
        w.u64(self.stats.hits);
        w.u64(self.stats.misses);
        w.u64(self.stats.dirty_evictions);
    }

    /// Restores the state captured by [`SetAssocCache::save_state`] into a
    /// cache of identical geometry.
    pub fn restore_state(
        &mut self,
        r: &mut ramp_sim::codec::ByteReader,
    ) -> Result<(), ramp_sim::codec::CodecError> {
        let n = r.seq_len(18)?;
        if n != self.tags.len() {
            return Err(ramp_sim::codec::CodecError::Malformed(
                "cache way count mismatch",
            ));
        }
        for i in 0..n {
            self.tags[i] = r.u64()?;
            self.lrus[i] = r.u64()?;
            let valid = r.u8()? != 0;
            let dirty = r.u8()? != 0;
            self.meta[i] = u8::from(valid) * VALID | u8::from(dirty) * DIRTY;
        }
        self.tick = r.u64()?;
        self.stats.hits = r.u64()?;
        self.stats.misses = r.u64()?;
        self.stats.dirty_evictions = r.u64()?;
        Ok(())
    }

    /// Every valid line with its dirty flag (used to flush at end of run).
    pub fn valid_lines(&self) -> Vec<(LineAddr, bool)> {
        let assoc = self.config.assoc;
        self.meta
            .iter()
            .enumerate()
            .filter(|(_, &m)| m & VALID != 0)
            .map(|(i, &m)| (self.line_of(i / assoc, self.tags[i]), m & DIRTY != 0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways.
        SetAssocCache::new(CacheConfig::new(256, 2, 64))
    }

    fn line_in_set(set: u64, k: u64) -> LineAddr {
        // With 2 sets, lines with the same parity map to the same set.
        LineAddr(set + 2 * k)
    }

    #[test]
    fn config_geometry() {
        let c = CacheConfig::new(16 * 1024, 4, 64);
        assert_eq!(c.sets(), 64);
        assert_eq!(c.lines(), 256);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        CacheConfig::new(3 * 64 * 2, 2, 64);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        let l = LineAddr(4);
        assert!(!c.access(l, false).hit);
        assert!(c.access(l, false).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        let a = line_in_set(0, 0);
        let b = line_in_set(0, 1);
        let d = line_in_set(0, 2);
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a is now MRU
        let res = c.access(d, false); // must evict b
        assert_eq!(res.victim, Some((b, false)));
        assert!(c.probe(a));
        assert!(!c.probe(b));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        let a = line_in_set(1, 0);
        let b = line_in_set(1, 1);
        let d = line_in_set(1, 2);
        c.access(a, true); // dirty
        c.access(b, false);
        let res = c.access(d, false); // evicts a (LRU), dirty
        assert_eq!(res.victim, Some((a, true)));
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn write_hit_sets_dirty() {
        let mut c = tiny();
        let a = line_in_set(0, 0);
        c.access(a, false);
        c.access(a, true);
        assert_eq!(c.invalidate(a), Some(true));
        assert_eq!(c.invalidate(a), None);
    }

    #[test]
    fn victim_line_reconstruction_round_trips() {
        let mut c = SetAssocCache::new(CacheConfig::new(8 * 1024, 2, 64));
        let sets = c.config().sets() as u64;
        let l1 = LineAddr(7);
        let l2 = LineAddr(7 + sets);
        let l3 = LineAddr(7 + 2 * sets);
        c.access(l1, true);
        c.access(l2, false);
        let res = c.access(l3, false);
        assert_eq!(res.victim, Some((l1, true)));
    }

    #[test]
    fn probe_does_not_perturb_state() {
        let mut c = tiny();
        let a = line_in_set(0, 0);
        c.access(a, false);
        let before = *c.stats();
        assert!(c.probe(a));
        assert!(!c.probe(line_in_set(0, 9)));
        assert_eq!(*c.stats(), before);
    }

    #[test]
    fn write_miss_allocates_dirty_without_fill() {
        // Write-validate: a store miss allocates the line dirty, so its
        // eventual eviction is a write-back even though it was never read.
        let mut c = tiny();
        let a = line_in_set(0, 0);
        let b = line_in_set(0, 1);
        let d = line_in_set(0, 2);
        assert!(!c.access(a, true).hit);
        c.access(b, false);
        c.access(b, false); // b MRU, a LRU
        let res = c.access(d, false);
        assert_eq!(
            res.victim,
            Some((a, true)),
            "write-validated line evicts dirty"
        );
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn valid_lines_reports_flush_set() {
        let mut c = tiny();
        let clean = line_in_set(0, 0);
        let dirty = line_in_set(1, 0);
        c.access(clean, false);
        c.access(dirty, true);
        let mut lines = c.valid_lines();
        lines.sort_by_key(|(l, _)| l.0);
        assert_eq!(lines, vec![(clean, false), (dirty, true)]);
        c.invalidate(dirty);
        assert_eq!(c.valid_lines(), vec![(clean, false)]);
    }

    #[test]
    fn probe_does_not_refresh_lru() {
        let mut c = tiny();
        let a = line_in_set(0, 0);
        let b = line_in_set(0, 1);
        let d = line_in_set(0, 2);
        c.access(a, false);
        c.access(b, false); // a is LRU
        assert!(c.probe(a)); // a probe must not promote a
        let res = c.access(d, false);
        assert_eq!(res.victim, Some((a, false)), "probe must not refresh LRU");
    }

    #[test]
    fn invalidated_way_reused_without_eviction() {
        let mut c = tiny();
        let a = line_in_set(0, 0);
        let b = line_in_set(0, 1);
        c.access(a, true);
        c.access(b, false);
        assert_eq!(c.invalidate(a), Some(true));
        // The set has a free (invalid) way again: no victim on the next miss.
        let res = c.access(line_in_set(0, 2), false);
        assert_eq!(res.victim, None);
        assert!(
            c.probe(b),
            "valid line must survive reuse of the invalid way"
        );
    }

    #[test]
    fn occupancy_tracks_valid_lines() {
        let mut c = tiny();
        assert_eq!(c.occupancy(), 0);
        c.access(LineAddr(0), false);
        c.access(LineAddr(1), false);
        assert_eq!(c.occupancy(), 2);
        c.invalidate(LineAddr(0));
        assert_eq!(c.occupancy(), 1);
    }
}
