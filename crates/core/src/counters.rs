//! Per-page activity counters for the migration mechanisms (Section 6).
//!
//! The performance-focused HMA baseline keeps one raw access counter per
//! page; the reliability-aware Full-Counter mechanism splits it into
//! separate read and write counters so both hotness (R+W) and risk (Wr/Rd)
//! can be measured at run time. Counters are 8-bit *saturating* (the
//! paper's hardware-cost analysis assumes 8-bit counters that do not wrap;
//! Section 6.3); the Cross-Counter reliability unit uses 16-bit counters
//! for HBM pages only (Section 6.4.2).

use std::collections::HashMap;

use ramp_sim::units::{AccessKind, PageId};

/// Fraction bits of the fixed point [`FullCounters::mean_write_share`]
/// sums in: 2^57 shares of at most 1 still fit a `u128`.
const SHARE_FRAC_BITS: u32 = 70;

/// Per-interval read/write counters over an arbitrary page population.
#[derive(Clone, Debug)]
pub struct FullCounters {
    counts: HashMap<PageId, (u32, u32)>,
    saturation: u32,
}

impl FullCounters {
    /// Counters saturating at `saturation` (255 for the 8-bit FC design,
    /// 65535 for the 16-bit Cross-Counter reliability unit).
    pub fn new(saturation: u32) -> Self {
        assert!(saturation > 0);
        FullCounters {
            counts: HashMap::new(),
            saturation,
        }
    }

    /// The FC mechanism's 8-bit counters.
    pub fn fc_8bit() -> Self {
        Self::new(255)
    }

    /// The Cross-Counter reliability unit's 16-bit counters.
    pub fn cc_16bit() -> Self {
        Self::new(65_535)
    }

    /// Records one memory access to `page`.
    pub fn record(&mut self, page: PageId, kind: AccessKind) {
        let e = self.counts.entry(page).or_insert((0, 0));
        // saturating_add: `(x + 1).min(sat)` would overflow (and panic in
        // debug builds) if a counter ever sat at u32::MAX, e.g. with
        // `saturation == u32::MAX`.
        match kind {
            AccessKind::Read => e.0 = e.0.saturating_add(1).min(self.saturation),
            AccessKind::Write => e.1 = e.1.saturating_add(1).min(self.saturation),
        }
    }

    /// `(reads, writes)` for `page` this interval.
    pub fn get(&self, page: PageId) -> (u32, u32) {
        self.counts.get(&page).copied().unwrap_or((0, 0))
    }

    /// Total accesses (reads + writes) for `page`.
    pub fn hotness(&self, page: PageId) -> u32 {
        let (r, w) = self.get(page);
        r + w
    }

    /// Run-time Wr ratio of `page` (writes / reads, reads floored at 1).
    pub fn wr_ratio(&self, page: PageId) -> f64 {
        let (r, w) = self.get(page);
        w as f64 / r.max(1) as f64
    }

    /// Write share `w / (r + w)` of `page` (0 for untouched pages): the
    /// bounded form of the Wr-ratio risk proxy used for run-time
    /// thresholding, robust against the heavy tail of write-only pages.
    pub fn write_share(&self, page: PageId) -> f64 {
        let (r, w) = self.get(page);
        if r + w == 0 {
            0.0
        } else {
            w as f64 / (r + w) as f64
        }
    }

    /// Mean write share over pages accessed this interval (the run-time
    /// risk threshold of Section 6.2: pages below it are read-dominated,
    /// i.e. high-risk).
    ///
    /// The shares are summed exactly in `u128` fixed point at 2^-70 and
    /// rounded once, so the mean does not depend on the `HashMap`'s
    /// iteration order (which differs between processes). Every share of
    /// counters up to 16 bits is a multiple of 2^-70; a smaller share
    /// rounds to the nearest one, still independent of the order.
    pub fn mean_write_share(&self) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        const ONE: f64 = (1u128 << SHARE_FRAC_BITS) as f64;
        let sum: u128 = self
            .counts
            .values()
            .map(|&(r, w)| (w as f64 / (r + w).max(1) as f64 * ONE).round() as u128)
            .sum();
        sum as f64 / ONE / self.counts.len() as f64
    }

    /// Iterator over `(page, reads, writes)` for pages touched this
    /// interval.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, u32, u32)> + '_ {
        self.counts.iter().map(|(&p, &(r, w))| (p, r, w))
    }

    /// Number of pages with activity this interval.
    pub fn touched(&self) -> usize {
        self.counts.len()
    }

    /// Clears all counters for the next interval.
    pub fn reset(&mut self) {
        self.counts.clear();
    }

    /// Serializes the counters (sorted by page id so the byte stream is
    /// independent of `HashMap` iteration order). The saturation limit is
    /// static per scheme and rebuilt on restore.
    pub fn save_state(&self, w: &mut ramp_sim::codec::ByteWriter) {
        let mut entries: Vec<(PageId, (u32, u32))> =
            self.counts.iter().map(|(&p, &c)| (p, c)).collect();
        entries.sort_by_key(|(p, _)| *p);
        w.u32(entries.len() as u32);
        for (page, (r, wr)) in entries {
            w.u64(page.0);
            w.u32(r);
            w.u32(wr);
        }
    }

    /// Restores the state captured by [`FullCounters::save_state`].
    pub fn restore_state(
        &mut self,
        r: &mut ramp_sim::codec::ByteReader,
    ) -> Result<(), ramp_sim::codec::CodecError> {
        let n = r.seq_len(16)?;
        let mut counts = HashMap::with_capacity(n);
        for _ in 0..n {
            let page = PageId(r.u64()?);
            counts.insert(page, (r.u32()?, r.u32()?));
        }
        self.counts = counts;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_reads_and_writes() {
        let mut c = FullCounters::fc_8bit();
        c.record(PageId(1), AccessKind::Read);
        c.record(PageId(1), AccessKind::Read);
        c.record(PageId(1), AccessKind::Write);
        assert_eq!(c.get(PageId(1)), (2, 1));
        assert_eq!(c.hotness(PageId(1)), 3);
        assert_eq!(c.get(PageId(2)), (0, 0));
    }

    #[test]
    fn saturates_without_wrapping() {
        let mut c = FullCounters::new(3);
        for _ in 0..100 {
            c.record(PageId(1), AccessKind::Write);
        }
        assert_eq!(c.get(PageId(1)), (0, 3));
    }

    #[test]
    fn saturation_pinned_at_8bit_limit() {
        let mut c = FullCounters::fc_8bit();
        for _ in 0..300 {
            c.record(PageId(1), AccessKind::Read);
            c.record(PageId(1), AccessKind::Write);
        }
        assert_eq!(c.get(PageId(1)), (255, 255));
    }

    #[test]
    fn saturation_pinned_at_16bit_limit() {
        let mut c = FullCounters::cc_16bit();
        for _ in 0..66_000 {
            c.record(PageId(1), AccessKind::Read);
        }
        assert_eq!(c.get(PageId(1)), (65_535, 0));
    }

    #[test]
    fn record_never_overflows_at_u32_max_saturation() {
        // With the counter parked at u32::MAX, another record must stay
        // put instead of wrapping (or panicking in debug builds).
        let mut c = FullCounters::new(u32::MAX);
        c.counts.insert(PageId(1), (u32::MAX, u32::MAX - 1));
        c.record(PageId(1), AccessKind::Read);
        c.record(PageId(1), AccessKind::Write);
        assert_eq!(c.get(PageId(1)), (u32::MAX, u32::MAX));
    }

    #[test]
    fn threshold_is_the_mean_write_share() {
        let mut c = FullCounters::fc_8bit();
        for _ in 0..10 {
            c.record(PageId(1), AccessKind::Read);
        }
        for _ in 0..2 {
            c.record(PageId(2), AccessKind::Write);
        }
        // Page 1 share 0/10 -> 0; page 2 share 2/2 -> 1. Mean = 0.5.
        assert_eq!(c.mean_write_share(), 0.5);
        assert_eq!(FullCounters::fc_8bit().mean_write_share(), 0.0);
    }

    #[test]
    fn mean_write_share_ignores_insertion_order() {
        // Shares 1/10, 1/5 and 3/10 sum to different f64 values in
        // different orders; the fixed-point sum must not.
        let base: Vec<(u64, u32, u32)> = (0..60u64)
            .map(|i| match i % 3 {
                0 => (i, 9, 1),
                1 => (i, 4, 1),
                _ => (i, 7, 3),
            })
            .chain([(100, 3, 0), (101, 250, 5), (102, 1, 254)])
            .collect();
        let naive = |order: &[(u64, u32, u32)]| {
            order
                .iter()
                .map(|&(_, r, w)| w as f64 / (r + w) as f64)
                .sum::<f64>()
        };
        let mut reversed = base.clone();
        reversed.reverse();
        assert_ne!(naive(&base).to_bits(), naive(&reversed).to_bits());

        let mean_of = |order: &[(u64, u32, u32)]| {
            let mut c = FullCounters::fc_8bit();
            for &(p, r, w) in order {
                for _ in 0..r {
                    c.record(PageId(p), AccessKind::Read);
                }
                for _ in 0..w {
                    c.record(PageId(p), AccessKind::Write);
                }
            }
            c.mean_write_share().to_bits()
        };
        let want = mean_of(&base);
        let mut order = base.clone();
        for k in 0..base.len() {
            order.rotate_left(k % 7 + 1);
            order.swap(k, (k * 31) % base.len());
            assert_eq!(mean_of(&order), want, "permutation {k}");
        }
        assert_eq!(mean_of(&reversed), want);
    }

    #[test]
    fn reset_clears_interval() {
        let mut c = FullCounters::fc_8bit();
        c.record(PageId(9), AccessKind::Read);
        assert_eq!(c.touched(), 1);
        c.reset();
        assert_eq!(c.touched(), 0);
        assert_eq!(c.hotness(PageId(9)), 0);
    }

    #[test]
    fn wr_ratio_handles_zero_reads() {
        let mut c = FullCounters::fc_8bit();
        c.record(PageId(1), AccessKind::Write);
        c.record(PageId(1), AccessKind::Write);
        assert_eq!(c.wr_ratio(PageId(1)), 2.0);
    }
}
