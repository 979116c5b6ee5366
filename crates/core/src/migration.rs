//! Dynamic migration mechanisms (Section 6).
//!
//! Three engines, all interval-based:
//!
//! * **Performance-focused Full Counters** ([`MigrationScheme::PerfFc`],
//!   Section 6.1, modeled on Meswani et al. HPCA'15): raw access counters
//!   per page; every FC interval, DDR pages hotter than the interval's mean
//!   hotness swap with the coldest HBM pages.
//! * **Reliability-aware Full Counters** ([`MigrationScheme::RelFc`],
//!   Section 6.2): the counters split into reads and writes; hot *and*
//!   low-risk (high Wr ratio) DDR pages swap in, cold *or* high-risk HBM
//!   pages swap out.
//! * **Cross Counters** ([`MigrationScheme::CrossCounter`], Section 6.4):
//!   a 32-entry MEA performance unit migrates globally hot pages into HBM
//!   every MEA interval; a 16-bit Full-Counter reliability unit tracks only
//!   HBM pages and flags high-risk residents for eviction every FC
//!   interval.

use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};

use ramp_dram::MemoryKind;
use ramp_sim::telemetry::{BinHistogram, StatRegistry};
use ramp_sim::units::{AccessKind, PageId, PAGE_SIZE};

use crate::counters::FullCounters;
use crate::mea::MeaTracker;

/// Which dynamic mechanism a run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MigrationScheme {
    /// Raw-access-count migration (the state-of-the-art baseline).
    PerfFc,
    /// Reliability-aware Full-Counter migration.
    RelFc,
    /// MEA + HBM-only risk counters (the low-cost mechanism).
    CrossCounter,
}

impl MigrationScheme {
    /// Display name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            MigrationScheme::PerfFc => "perf-fc",
            MigrationScheme::RelFc => "rel-fc",
            MigrationScheme::CrossCounter => "cross-counter",
        }
    }

    /// Parses a [`MigrationScheme::name`] back into the scheme (the
    /// inverse used by `ramp-serve` run requests and store keys).
    pub fn from_name(name: &str) -> Option<MigrationScheme> {
        match name {
            "perf-fc" => Some(MigrationScheme::PerfFc),
            "rel-fc" => Some(MigrationScheme::RelFc),
            "cross-counter" => Some(MigrationScheme::CrossCounter),
            _ => None,
        }
    }
}

impl std::fmt::Display for MigrationScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A single page-move directive produced at an interval boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Move {
    /// The page to move.
    pub page: PageId,
    /// Destination memory.
    pub to: MemoryKind,
}

/// Interval-driven migration state machine.
#[derive(Debug)]
pub struct MigrationEngine {
    scheme: MigrationScheme,
    /// FC activity counters: all pages for the FC schemes, HBM pages only
    /// for Cross Counters (the reliability unit).
    counters: FullCounters,
    mea: MeaTracker,
    /// HBM pages flagged high-risk, awaiting eviction (Cross Counters).
    pending_high_risk: Vec<PageId>,
    /// Total page moves directed so far.
    pub migrations: u64,
    /// FC interval boundaries processed.
    fc_intervals: u64,
    /// MEA interval boundaries processed (Cross Counters only).
    mea_intervals: u64,
    /// Moves that reversed a page's previous migration direction
    /// (HBM→DDR→HBM or vice versa): the ping-pong thrash metric.
    pingpongs: u64,
    /// Bytes of migration traffic (each move copies one page; a swap is
    /// two moves, so this is moves × PAGE_SIZE).
    bytes_copied: u64,
    /// Last migration destination per page, for ping-pong detection.
    last_dest: HashMap<PageId, MemoryKind>,
    /// Moves directed per FC interval.
    moves_per_fc_interval: BinHistogram,
}

/// Bin count of the per-interval move histogram: intervals directing
/// `MOVES_HIST_BINS - 1` or more moves land in the last bin.
const MOVES_HIST_BINS: usize = 65;

impl MigrationEngine {
    /// Creates an engine for `scheme`.
    pub fn new(scheme: MigrationScheme) -> Self {
        let counters = match scheme {
            MigrationScheme::CrossCounter => FullCounters::cc_16bit(),
            _ => FullCounters::fc_8bit(),
        };
        MigrationEngine {
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
            moves_per_fc_interval: BinHistogram::new(0.0, MOVES_HIST_BINS as f64, MOVES_HIST_BINS),
        }
    }

    /// Accounts a directive batch: totals, migration bandwidth and
    /// ping-pong detection (a page moving opposite to its last move).
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

    /// Exports migration telemetry into `scope` of `reg`.
    pub fn export_telemetry(&self, reg: &mut StatRegistry, scope: &str) {
        reg.counter_add(scope, "migrations", self.migrations);
        reg.counter_add(scope, "fc_intervals", self.fc_intervals);
        reg.counter_add(scope, "mea_intervals", self.mea_intervals);
        reg.counter_add(scope, "pingpongs", self.pingpongs);
        reg.counter_add(scope, "bytes_copied", self.bytes_copied);
        reg.ratio_add(
            scope,
            "moves_per_fc_interval_mean",
            self.migrations,
            self.fc_intervals + self.mea_intervals,
        );
        reg.observe_hist(scope, "moves_per_fc_interval", &self.moves_per_fc_interval);
    }

    /// The engine's scheme.
    pub fn scheme(&self) -> MigrationScheme {
        self.scheme
    }

    /// Records one demand memory access (migration traffic is excluded).
    pub fn on_mem_access(&mut self, page: PageId, kind: AccessKind, resident: MemoryKind) {
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

    /// Runs the MEA-interval logic (Cross Counters only; a no-op for the
    /// FC schemes). `hbm_pages` is the current HBM residency, ascending;
    /// `pinned` pages are immune to eviction.
    ///
    /// Cost: the MEA's hot pages and the pending list are filtered by
    /// binary search, O(entries × log HBM). Only when more pages come in
    /// than HBM has free frames does it key the unpinned HBM pages, one
    /// pass, and select the coldest few it must evict.
    pub fn on_mea_interval(
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
        let in_hbm = |p: &PageId| hbm_pages.binary_search(p).is_ok();
        let incoming: Vec<PageId> = hot
            .into_iter()
            .filter(|p| !in_hbm(p))
            .take(max_in)
            .collect();
        self.pending_high_risk.retain(in_hbm);
        // Victims, for the pages the free frames cannot take: pending
        // high-risk pages first, then the coldest HBM pages by the
        // reliability unit's counters.
        let needed = (incoming.len() as u64).saturating_sub(hbm_free) as usize;
        let mut victims = self.pending_high_risk.clone();
        if needed > victims.len() {
            let cold: Vec<(u32, PageId)> = hbm_pages
                .iter()
                .copied()
                .filter(|p| !pinned.contains(p) && !self.pending_high_risk.contains(p))
                .map(|p| (self.counters.hotness(p), p))
                .collect();
            let cold = smallest(cold, needed - victims.len());
            victims.extend(cold.into_iter().map(|(_, p)| p));
        }

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

    /// Runs the FC-interval logic. `hbm_pages` is the current HBM
    /// residency, ascending; `hbm_free` the free frame count; `pinned`
    /// pages are immune; `max_moves` bounds the directive list.
    ///
    /// Cost: one pass over the pages touched this interval, each tested
    /// for HBM residency by binary search, O(touched × log HBM), and a
    /// partial selection of the candidates the directive list can take.
    /// The FC schemes key the unpinned HBM pages, one pass, only when
    /// more candidates come in than HBM has free frames.
    pub fn on_fc_interval(
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
                // Only touched pages can be flagged, so walk the counters.
                let mean_share = self.counters.mean_write_share();
                let flagged: Vec<(u32, Reverse<u32>, PageId)> = self
                    .counters
                    .iter()
                    .filter(|&(p, r, w)| {
                        r + w > 0
                            && (w as f64 / (r + w) as f64) < mean_share
                            && !pinned.contains(&p)
                            && hbm_pages.binary_search(&p).is_ok()
                    })
                    // Most read-dominated (riskiest) first.
                    .map(|(p, r, w)| (w, Reverse(r), p))
                    .collect();
                let moves: Vec<Move> = smallest(flagged, max_moves)
                    .into_iter()
                    .map(|(_, _, page)| Move {
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

    /// Serializes the engine's dynamic state (the scheme itself is static
    /// and rebuilt on restore). Map-backed state is written sorted by page
    /// id; the MEA entry list and pending-eviction list keep their order,
    /// which their algorithms depend on.
    pub fn save_state(&self, w: &mut ramp_sim::codec::ByteWriter) {
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

    /// Restores the state captured by [`MigrationEngine::save_state`] into
    /// an engine of the same scheme.
    pub fn restore_state(
        &mut self,
        r: &mut ramp_sim::codec::ByteReader,
    ) -> Result<(), ramp_sim::codec::CodecError> {
        use ramp_sim::codec::CodecError;
        self.counters.restore_state(r)?;
        self.mea.restore_state(r)?;
        let n_pending = r.seq_len(8)?;
        self.pending_high_risk.clear();
        for _ in 0..n_pending {
            self.pending_high_risk.push(PageId(r.u64()?));
        }
        self.migrations = r.u64()?;
        self.fc_intervals = r.u64()?;
        self.mea_intervals = r.u64()?;
        self.pingpongs = r.u64()?;
        self.bytes_copied = r.u64()?;
        let n_dests = r.seq_len(9)?;
        let mut last_dest = HashMap::with_capacity(n_dests);
        for _ in 0..n_dests {
            let page = PageId(r.u64()?);
            let kind = match r.u8()? {
                0 => MemoryKind::Hbm,
                1 => MemoryKind::Ddr,
                _ => return Err(CodecError::Malformed("bad memory-kind tag")),
            };
            last_dest.insert(page, kind);
        }
        self.last_dest = last_dest;
        self.moves_per_fc_interval = BinHistogram::read_state(r)?;
        Ok(())
    }

    /// Shared FC swap generation: candidates in from DDR, victims out of
    /// HBM, paired.
    fn fc_swaps(
        &mut self,
        hbm_pages: &[PageId],
        hbm_free: u64,
        pinned: &HashSet<PageId>,
        max_moves: usize,
        reliability_aware: bool,
    ) -> Vec<Move> {
        let in_hbm = |p: &PageId| hbm_pages.binary_search(p).is_ok();
        // The paper's threshold: "all pages in slow memory above mean page
        // hotness" become candidates, so the candidate threshold is the
        // mean over slow-memory activity. Victim eligibility is pairwise,
        // not mean-based.
        let (mut ddr_sum, mut ddr_n) = (0u64, 0u64);
        for (p, r, w) in self.counters.iter() {
            if !in_hbm(&p) {
                ddr_sum += (r + w) as u64;
                ddr_n += 1;
            }
        }
        let mean_hot_ddr = ddr_sum as f64 / ddr_n.max(1) as f64;
        let mean_share = if reliability_aware {
            self.counters.mean_write_share()
        } else {
            0.0
        };

        // Incoming candidates: hot (and, if reliability-aware, low-risk)
        // pages currently in DDR, hottest first. The loop below takes at
        // most `2 * max_moves - 1` of them (one move each into free
        // frames).
        let incoming: Vec<(Reverse<u32>, PageId)> = self
            .counters
            .iter()
            .filter(|&(p, r, w)| {
                !in_hbm(&p)
                    && (r + w) as f64 > mean_hot_ddr
                    && (!reliability_aware || (w as f64 / (r + w) as f64) >= mean_share)
            })
            .map(|(p, r, w)| (Reverse(r + w), p))
            .collect();
        let incoming = smallest(incoming, max_moves.saturating_mul(2));

        // Victims: every non-pinned HBM page, riskiest first (reliability-
        // aware mode), then coldest. A swap is only performed when it is
        // strictly beneficial (the incoming page is hotter than the victim)
        // or the victim is high-risk — reliability wins ties. Each victim
        // pairs with a candidate the free frames cannot take, and a swap
        // is two moves, so at most that many and `max_moves` are needed.
        let needed = ((incoming.len() as u64).saturating_sub(hbm_free) as usize).min(max_moves);
        let victims: Vec<(bool, u32, PageId)> = if needed == 0 {
            Vec::new()
        } else {
            let keys = hbm_pages
                .iter()
                .copied()
                .filter(|p| !pinned.contains(p))
                .map(|p| {
                    let (r, w) = self.counters.get(p);
                    let high_risk = reliability_aware
                        && (r + w) > 0
                        && (w as f64 / (r + w) as f64) < mean_share;
                    (!high_risk, r + w, p)
                })
                .collect();
            smallest(keys, needed)
        };

        let mut moves = Vec::new();
        let mut victims = victims.into_iter();
        let mut free = hbm_free;
        for (Reverse(cand_hot), page) in incoming {
            // Stop once one more swap would pass `2 * max_moves` moves
            // (written so that no `max_moves` overflows).
            if moves.len().div_ceil(2) >= max_moves {
                break;
            }
            if free > 0 {
                free -= 1;
            } else {
                match victims.next() {
                    Some((low_risk, victim_hot, v)) => {
                        if low_risk && victim_hot >= cand_hot {
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

/// The `k` smallest of `keys`, ascending: the first `k` of a full sort,
/// found by partial selection. Every key ends in its page id, so no two
/// are equal and the unstable selection and sort are exact.
fn smallest<K: Ord>(mut keys: Vec<K>, k: usize) -> Vec<K> {
    if k < keys.len() {
        keys.select_nth_unstable(k);
        keys.truncate(k);
    }
    keys.sort_unstable();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: AccessKind = AccessKind::Read;
    const W: AccessKind = AccessKind::Write;

    fn record_n(e: &mut MigrationEngine, page: u64, kind: AccessKind, n: u32, res: MemoryKind) {
        for _ in 0..n {
            e.on_mem_access(PageId(page), kind, res);
        }
    }

    #[test]
    fn perf_fc_swaps_hot_for_cold() {
        let mut e = MigrationEngine::new(MigrationScheme::PerfFc);
        // Page 1 in HBM, cold. Page 2 in DDR, hot; page 3 in DDR, cold
        // (so the slow-memory mean threshold is meaningful).
        record_n(&mut e, 1, R, 1, MemoryKind::Hbm);
        record_n(&mut e, 2, R, 50, MemoryKind::Ddr);
        record_n(&mut e, 3, R, 2, MemoryKind::Ddr);
        let moves = e.on_fc_interval(&[PageId(1)], 0, &HashSet::new(), 100);
        assert_eq!(
            moves,
            vec![
                Move {
                    page: PageId(1),
                    to: MemoryKind::Ddr
                },
                Move {
                    page: PageId(2),
                    to: MemoryKind::Hbm
                },
            ]
        );
        assert_eq!(e.migrations, 2);
    }

    #[test]
    fn perf_fc_ignores_risk() {
        let mut e = MigrationEngine::new(MigrationScheme::PerfFc);
        // Hot read-dominated (high-risk) DDR page still swaps in.
        record_n(&mut e, 2, R, 60, MemoryKind::Ddr);
        record_n(&mut e, 3, R, 2, MemoryKind::Ddr);
        record_n(&mut e, 1, W, 1, MemoryKind::Hbm);
        let moves = e.on_fc_interval(&[PageId(1)], 0, &HashSet::new(), 10);
        assert!(moves
            .iter()
            .any(|m| m.page == PageId(2) && m.to == MemoryKind::Hbm));
    }

    #[test]
    fn rel_fc_rejects_hot_high_risk_candidates() {
        let mut e = MigrationEngine::new(MigrationScheme::RelFc);
        // DDR page 2: hot but read-only (high risk) -> must NOT swap in.
        record_n(&mut e, 2, R, 60, MemoryKind::Ddr);
        // DDR page 3: hot and write-dominated (low risk) -> swaps in.
        record_n(&mut e, 3, W, 50, MemoryKind::Ddr);
        record_n(&mut e, 3, R, 5, MemoryKind::Ddr);
        // DDR page 4: cold filler so the mean threshold is meaningful.
        record_n(&mut e, 4, R, 2, MemoryKind::Ddr);
        // HBM page 1: cold.
        record_n(&mut e, 1, R, 1, MemoryKind::Hbm);
        let moves = e.on_fc_interval(&[PageId(1)], 0, &HashSet::new(), 10);
        assert!(moves
            .iter()
            .any(|m| m.page == PageId(3) && m.to == MemoryKind::Hbm));
        assert!(!moves.iter().any(|m| m.page == PageId(2)));
    }

    #[test]
    fn rel_fc_evicts_high_risk_residents() {
        let mut e = MigrationEngine::new(MigrationScheme::RelFc);
        // HBM page 1: hot but read-dominated -> high risk, evictable.
        record_n(&mut e, 1, R, 40, MemoryKind::Hbm);
        // DDR page 2: hot and write-heavy; page 5: cold filler.
        record_n(&mut e, 2, W, 45, MemoryKind::Ddr);
        record_n(&mut e, 5, W, 2, MemoryKind::Ddr);
        let moves = e.on_fc_interval(&[PageId(1)], 0, &HashSet::new(), 10);
        assert!(moves.contains(&Move {
            page: PageId(1),
            to: MemoryKind::Ddr
        }));
    }

    #[test]
    fn pinned_pages_never_evicted() {
        let mut e = MigrationEngine::new(MigrationScheme::PerfFc);
        record_n(&mut e, 2, R, 50, MemoryKind::Ddr);
        let pinned = HashSet::from([PageId(1)]);
        let moves = e.on_fc_interval(&[PageId(1)], 0, &pinned, 10);
        assert!(!moves.iter().any(|m| m.page == PageId(1)));
    }

    #[test]
    fn cross_counter_mea_brings_hot_pages_in() {
        let mut e = MigrationEngine::new(MigrationScheme::CrossCounter);
        record_n(&mut e, 7, R, 40, MemoryKind::Ddr); // MEA-tracked
        let moves = e.on_mea_interval(&[], 8, &HashSet::new(), 32);
        assert_eq!(
            moves,
            vec![Move {
                page: PageId(7),
                to: MemoryKind::Hbm
            }]
        );
    }

    #[test]
    fn cross_counter_fc_flags_high_risk_hbm_pages() {
        let mut e = MigrationEngine::new(MigrationScheme::CrossCounter);
        // HBM page 1 read-dominated (risky), page 2 write-dominated (safe).
        record_n(&mut e, 1, R, 30, MemoryKind::Hbm);
        record_n(&mut e, 2, W, 30, MemoryKind::Hbm);
        let moves = e.on_fc_interval(&[PageId(1), PageId(2)], 0, &HashSet::new(), 10);
        assert_eq!(
            moves,
            vec![Move {
                page: PageId(1),
                to: MemoryKind::Ddr
            }]
        );
    }

    #[test]
    fn cross_counter_evicts_pending_first() {
        let mut e = MigrationEngine::new(MigrationScheme::CrossCounter);
        // Make page 9 pending-high-risk via direct state (white-box).
        e.pending_high_risk.push(PageId(9));
        record_n(&mut e, 5, R, 20, MemoryKind::Ddr);
        let moves = e.on_mea_interval(&[PageId(9)], 0, &HashSet::new(), 32);
        assert_eq!(moves[0].page, PageId(9));
        assert_eq!(moves[0].to, MemoryKind::Ddr);
        assert_eq!(moves[1].page, PageId(5));
    }

    #[test]
    fn fc_schemes_skip_mea_interval() {
        let mut e = MigrationEngine::new(MigrationScheme::PerfFc);
        record_n(&mut e, 2, R, 50, MemoryKind::Ddr);
        assert!(e.on_mea_interval(&[], 8, &HashSet::new(), 32).is_empty());
    }

    #[test]
    fn telemetry_counts_intervals_pingpongs_and_bandwidth() {
        let mut e = MigrationEngine::new(MigrationScheme::PerfFc);
        // Interval 1: page 2 swaps into HBM (page 1 out).
        record_n(&mut e, 1, R, 1, MemoryKind::Hbm);
        record_n(&mut e, 2, R, 50, MemoryKind::Ddr);
        record_n(&mut e, 3, R, 2, MemoryKind::Ddr);
        let m1 = e.on_fc_interval(&[PageId(1)], 0, &HashSet::new(), 100);
        assert_eq!(m1.len(), 2);
        // Interval 2: page 2 goes cold in HBM while page 3 heats up, so
        // page 2 swaps back out — a ping-pong.
        record_n(&mut e, 2, R, 1, MemoryKind::Hbm);
        record_n(&mut e, 3, R, 50, MemoryKind::Ddr);
        record_n(&mut e, 4, R, 2, MemoryKind::Ddr);
        let m2 = e.on_fc_interval(&[PageId(2)], 0, &HashSet::new(), 100);
        assert!(m2.contains(&Move {
            page: PageId(2),
            to: MemoryKind::Ddr
        }));

        let mut reg = StatRegistry::new();
        e.export_telemetry(&mut reg, "migration");
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("migration", "fc_intervals").unwrap().as_counter(),
            Some(2)
        );
        assert_eq!(
            snap.get("migration", "migrations").unwrap().as_counter(),
            Some(4)
        );
        assert_eq!(
            snap.get("migration", "pingpongs").unwrap().as_counter(),
            Some(1),
            "page 2 went DDR<-HBM after HBM<-DDR"
        );
        assert_eq!(
            snap.get("migration", "bytes_copied").unwrap().as_counter(),
            Some(4 * PAGE_SIZE as u64)
        );
        let h = snap
            .get("migration", "moves_per_fc_interval")
            .unwrap()
            .as_histogram()
            .unwrap();
        assert_eq!(h.total(), 2);
        assert_eq!(h.counts()[2], 2, "both intervals directed 2 moves");
    }

    #[test]
    fn huge_max_moves_takes_every_candidate() {
        // `max_swaps_per_interval` comes from sweep specs as any u64.
        let mut e = MigrationEngine::new(MigrationScheme::PerfFc);
        record_n(&mut e, 1, R, 1, MemoryKind::Hbm);
        for p in 10..14u64 {
            record_n(&mut e, p, R, 50, MemoryKind::Ddr);
        }
        record_n(&mut e, 20, R, 1, MemoryKind::Ddr);
        let moves = e.on_fc_interval(&[PageId(1)], 2, &HashSet::new(), usize::MAX);
        let ins = moves.iter().filter(|m| m.to == MemoryKind::Hbm).count();
        assert_eq!((moves.len(), ins), (4, 3), "{moves:?}");
    }

    #[test]
    fn max_moves_bounds_directives() {
        let mut e = MigrationEngine::new(MigrationScheme::PerfFc);
        for p in 0..100u64 {
            record_n(&mut e, 100 + p, R, 50, MemoryKind::Ddr);
        }
        let hbm: Vec<PageId> = (0..100).map(PageId).collect();
        let moves = e.on_fc_interval(&hbm, 0, &HashSet::new(), 5);
        assert!(moves.len() <= 10, "got {} moves", moves.len());
    }
}
