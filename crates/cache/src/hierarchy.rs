//! The multicore cache hierarchy: private L1 data caches in front of a
//! shared L2, producing the filtered main-memory access stream.
//!
//! The paper filters its PinPlay traces through Moola so only main-memory
//! activity reaches Ramulator; this module plays the same role. The
//! hierarchy is non-inclusive, write-back and write-allocate with
//! write-validate (a store miss does not fetch the line from memory), so:
//!
//! * an L2 *read* miss emits one memory **fill read**;
//! * an L2 *dirty eviction* emits one memory **writeback write**;
//! * everything else stays on chip.

use ramp_sim::units::{AccessKind, LineAddr};

use crate::cache::{CacheConfig, CacheStats, SetAssocCache};
use crate::stream::L1Outcome;
use ramp_trace::MemEvent;

/// Configuration of the whole hierarchy (Table 1, scaled — see DESIGN.md).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Number of cores (private L1 slices).
    pub cores: usize,
    /// Per-core L1 data cache geometry.
    pub l1: CacheConfig,
    /// Shared L2 geometry.
    pub l2: CacheConfig,
}

impl HierarchyConfig {
    /// The paper's Table 1 hierarchy at 1/16 L2 scale: 16 cores, 16 KB
    /// 4-way private L1 D-caches, 1 MB 16-way shared L2.
    ///
    /// The L2 is scaled with the memory capacities so the cache:memory size
    /// ratio of the paper is preserved (DESIGN.md §2).
    pub fn table1_scaled() -> Self {
        HierarchyConfig {
            cores: 16,
            l1: CacheConfig::new(16 * 1024, 4, 64),
            l2: CacheConfig::new(1024 * 1024, 16, 64),
        }
    }
}

/// The multicore hierarchy.
///
/// ```
/// use ramp_cache::{Hierarchy, HierarchyConfig};
/// use ramp_sim::units::{AccessKind, LineAddr};
///
/// let mut h = Hierarchy::new(HierarchyConfig::table1_scaled());
/// let mut mem = Vec::new();
/// h.access(0, LineAddr(1234), AccessKind::Read, &mut mem);
/// assert_eq!(mem.len(), 1); // cold read miss -> one fill
/// mem.clear();
/// h.access(0, LineAddr(1234), AccessKind::Read, &mut mem);
/// assert!(mem.is_empty()); // now cached
/// ```
#[derive(Debug)]
pub struct Hierarchy {
    config: HierarchyConfig,
    l1: Vec<SetAssocCache>,
    l2: SetAssocCache,
}

impl Hierarchy {
    /// Creates an empty hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `config.cores == 0`.
    pub fn new(config: HierarchyConfig) -> Self {
        assert!(config.cores > 0, "need at least one core");
        Hierarchy {
            config,
            l1: (0..config.cores)
                .map(|_| SetAssocCache::new(config.l1))
                .collect(),
            l2: SetAssocCache::new(config.l2),
        }
    }

    /// The hierarchy configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Performs one CPU access for `core`, appending any main-memory
    /// events (fills and writebacks) to `mem_out`: the L1 half
    /// ([`Hierarchy::l1_access`]) then the L2 half
    /// ([`Hierarchy::l2_access`]).
    ///
    /// Returns `true` if the access hit in L1 (used by the core model for
    /// zero-latency hits).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(
        &mut self,
        core: usize,
        line: LineAddr,
        kind: AccessKind,
        mem_out: &mut Vec<MemEvent>,
    ) -> bool {
        let outcome = self.l1_access(core, line, kind);
        self.l2_access(core, &outcome, mem_out);
        outcome == L1Outcome::Hit
    }

    /// The private half of an access: `core`'s L1 alone. Its outcome is
    /// all the shared half needs, and depends on nothing but the core's
    /// own accesses.
    #[inline]
    pub fn l1_access(&mut self, core: usize, line: LineAddr, kind: AccessKind) -> L1Outcome {
        let write = kind.is_write();
        let r1 = self.l1[core].access(line, write);
        if r1.hit {
            return L1Outcome::Hit;
        }
        let victim = match r1.victim {
            Some((vline, true)) => Some(vline),
            _ => None,
        };
        L1Outcome::Miss {
            line,
            write,
            victim,
        }
    }

    /// The shared half of an access whose L1 outcome is known: an L1
    /// victim writeback into L2, then, for a read miss, the L2 lookup.
    /// A hit does nothing.
    #[inline]
    pub fn l2_access(&mut self, core: usize, outcome: &L1Outcome, mem_out: &mut Vec<MemEvent>) {
        let L1Outcome::Miss {
            line,
            write,
            victim,
        } = *outcome
        else {
            return;
        };
        // L1 victim writeback into L2 (write-validate: no fill on miss).
        if let Some(vline) = victim {
            let r2 = self.l2.access(vline, true);
            if let Some((l2v, true)) = r2.victim {
                mem_out.push(MemEvent::write(l2v, core));
            }
        }
        // Satisfy the L1 miss. A write miss is done: write-validate
        // already allocated the line dirty in L1, with no fill.
        if !write {
            let r2 = self.l2.access(line, false);
            if !r2.hit {
                mem_out.push(MemEvent::read(line, core));
                if let Some((l2v, true)) = r2.victim {
                    mem_out.push(MemEvent::write(l2v, core));
                }
            }
        }
    }

    /// Counts a replayed L1 outcome in `core`'s L1 statistics, so its
    /// telemetry equals the live run's although the L1 itself stays
    /// empty.
    #[inline]
    pub fn count_l1(&mut self, core: usize, outcome: &L1Outcome) {
        match outcome {
            L1Outcome::Hit => self.l1[core].count(true, false),
            L1Outcome::Miss { victim, .. } => self.l1[core].count(false, victim.is_some()),
        }
    }

    /// Statistics for `core`'s L1.
    pub fn l1_stats(&self, core: usize) -> &CacheStats {
        self.l1[core].stats()
    }

    /// Statistics for the shared L2.
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Exports per-level telemetry into `reg`: `{prefix}.l1.core{i:02}`
    /// per core plus the shared `{prefix}.l2`. MPKI needs the committed
    /// instruction count and is exported by the system model instead.
    pub fn export_telemetry(&self, reg: &mut ramp_sim::telemetry::StatRegistry, prefix: &str) {
        let export = |reg: &mut ramp_sim::telemetry::StatRegistry, scope: &str, st: &CacheStats| {
            reg.counter_add(scope, "hits", st.hits);
            reg.counter_add(scope, "misses", st.misses);
            reg.counter_add(scope, "writebacks", st.dirty_evictions);
            reg.ratio_add(scope, "miss_ratio", st.misses, st.accesses());
        };
        for (i, l1) in self.l1.iter().enumerate() {
            export(reg, &format!("{prefix}.l1.core{i:02}"), l1.stats());
        }
        export(reg, &format!("{prefix}.l2"), self.l2.stats());
    }

    /// Serializes every cache's dynamic state into `w` (geometry is
    /// rebuilt from the config on restore).
    pub fn save_state(&self, w: &mut ramp_sim::codec::ByteWriter) {
        w.u32(self.l1.len() as u32);
        for l1 in &self.l1 {
            l1.save_state(w);
        }
        self.l2.save_state(w);
    }

    /// Restores the state captured by [`Hierarchy::save_state`] into a
    /// hierarchy of identical configuration.
    pub fn restore_state(
        &mut self,
        r: &mut ramp_sim::codec::ByteReader,
    ) -> Result<(), ramp_sim::codec::CodecError> {
        let n = r.seq_len(1)?;
        if n != self.l1.len() {
            return Err(ramp_sim::codec::CodecError::Malformed(
                "L1 cache count mismatch",
            ));
        }
        for l1 in &mut self.l1 {
            l1.restore_state(r)?;
        }
        self.l2.restore_state(r)
    }

    /// Flushes every dirty line in the hierarchy, emitting writebacks.
    ///
    /// Called at end of simulation so writeback-only data is fully
    /// accounted; the paper's trace windows end the same way.
    pub fn flush(&mut self, mem_out: &mut Vec<MemEvent>) {
        // Drain L1s into L2, then L2 to memory. Walk by probing all valid
        // lines via occupancy-preserving invalidation.
        for core in 0..self.config.cores {
            let lines = self.l1[core].valid_lines();
            for (line, dirty) in lines {
                self.l1[core].invalidate(line);
                if dirty {
                    let r2 = self.l2.access(line, true);
                    if let Some((l2v, true)) = r2.victim {
                        mem_out.push(MemEvent::write(l2v, core));
                    }
                }
            }
        }
        for (line, dirty) in self.l2.valid_lines() {
            self.l2.invalidate(line);
            if dirty {
                mem_out.push(MemEvent::write(line, 0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Hierarchy {
        Hierarchy::new(HierarchyConfig {
            cores: 2,
            l1: CacheConfig::new(256, 2, 64),  // 4 lines
            l2: CacheConfig::new(1024, 2, 64), // 16 lines
        })
    }

    #[test]
    fn read_miss_produces_single_fill() {
        let mut h = small();
        let mut out = Vec::new();
        assert!(!h.access(0, LineAddr(100), AccessKind::Read, &mut out));
        assert_eq!(out, vec![MemEvent::read(LineAddr(100), 0)]);
    }

    #[test]
    fn write_miss_produces_no_memory_traffic() {
        let mut h = small();
        let mut out = Vec::new();
        h.access(0, LineAddr(100), AccessKind::Write, &mut out);
        assert!(out.is_empty(), "write-validate must not fill");
    }

    #[test]
    fn l1_hit_is_silent() {
        let mut h = small();
        let mut out = Vec::new();
        h.access(0, LineAddr(7), AccessKind::Read, &mut out);
        out.clear();
        assert!(h.access(0, LineAddr(7), AccessKind::Read, &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn dirty_data_eventually_written_back() {
        let mut h = small();
        let mut out = Vec::new();
        // Write a long stream: must overflow both L1 (4 lines) and L2
        // (16 lines) and produce writebacks.
        for i in 0..200 {
            h.access(0, LineAddr(i * 2), AccessKind::Write, &mut out);
        }
        let wbs = out.iter().filter(|e| e.kind == AccessKind::Write).count();
        assert!(wbs > 150, "expected many writebacks, got {wbs}");
        let fills = out.iter().filter(|e| e.kind == AccessKind::Read).count();
        assert_eq!(fills, 0, "write stream must not fill");
    }

    #[test]
    fn l2_shared_between_cores() {
        let mut h = small();
        let mut out = Vec::new();
        h.access(0, LineAddr(42), AccessKind::Read, &mut out);
        out.clear();
        // Core 1 misses its own L1 but should hit shared L2: no memory event.
        h.access(1, LineAddr(42), AccessKind::Read, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn flush_writes_back_all_dirty_lines() {
        let mut h = small();
        let mut out = Vec::new();
        h.access(0, LineAddr(1), AccessKind::Write, &mut out);
        h.access(0, LineAddr(2), AccessKind::Write, &mut out);
        assert!(out.is_empty());
        h.flush(&mut out);
        let wbs: Vec<_> = out
            .iter()
            .filter(|e| e.kind == AccessKind::Write)
            .map(|e| e.line)
            .collect();
        assert!(wbs.contains(&LineAddr(1)));
        assert!(wbs.contains(&LineAddr(2)));
    }

    #[test]
    fn stats_accumulate() {
        let mut h = small();
        let mut out = Vec::new();
        h.access(0, LineAddr(5), AccessKind::Read, &mut out);
        h.access(0, LineAddr(5), AccessKind::Read, &mut out);
        assert_eq!(h.l1_stats(0).hits, 1);
        assert_eq!(h.l1_stats(0).misses, 1);
        assert_eq!(h.l2_stats().misses, 1);
    }

    #[test]
    fn telemetry_export_covers_every_level() {
        let mut h = small();
        let mut out = Vec::new();
        h.access(0, LineAddr(5), AccessKind::Read, &mut out);
        h.access(0, LineAddr(5), AccessKind::Read, &mut out);
        h.access(1, LineAddr(9), AccessKind::Read, &mut out);
        let mut reg = ramp_sim::telemetry::StatRegistry::new();
        h.export_telemetry(&mut reg, "cache");
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("cache.l1.core00", "hits").unwrap().as_counter(),
            Some(1)
        );
        assert_eq!(
            snap.get("cache.l1.core01", "misses").unwrap().as_counter(),
            Some(1)
        );
        assert_eq!(
            snap.get("cache.l2", "misses").unwrap().as_counter(),
            Some(2)
        );
        assert_eq!(
            snap.get("cache.l2", "miss_ratio").unwrap().as_ratio(),
            Some(1.0)
        );
    }
}
