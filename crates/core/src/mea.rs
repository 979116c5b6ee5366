//! The Majority Element Algorithm (MEA) hotness tracker of MemPod.
//!
//! A Misra-Gries frequent-elements summary with a fixed number of entries
//! (32 in the paper, Section 6.4.1): an access to a tracked page increments
//! its counter; an access to an untracked page either claims a free slot or
//! decrements every counter (evicting zeros). At the end of each
//! MEA-interval the surviving entries are the globally hot pages, and the
//! map is cleared.
//!
//! Guarantee exercised by the property tests: any page with more than
//! `accesses / (entries + 1)` occurrences in an interval is present at the
//! end of that interval.

use ramp_sim::units::PageId;

/// Number of MEA map entries used by the paper.
pub const MEA_ENTRIES: usize = 32;

/// A fixed-capacity Misra-Gries tracker.
#[derive(Clone, Debug)]
pub struct MeaTracker {
    entries: Vec<(PageId, u32)>,
    capacity: usize,
    accesses: u64,
}

impl MeaTracker {
    /// Creates a tracker with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MEA needs at least one entry");
        MeaTracker {
            entries: Vec::with_capacity(capacity),
            capacity,
            accesses: 0,
        }
    }

    /// The paper's 32-entry configuration.
    pub fn mempod() -> Self {
        Self::new(MEA_ENTRIES)
    }

    /// Records one access to `page`.
    pub fn record(&mut self, page: PageId) {
        self.accesses += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == page) {
            e.1 += 1;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push((page, 1));
            return;
        }
        // Decrement-all; drop entries that reach zero.
        for e in &mut self.entries {
            e.1 -= 1;
        }
        self.entries.retain(|e| e.1 > 0);
    }

    /// Accesses recorded since the last [`MeaTracker::drain`].
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Pages currently tracked, hottest (highest surviving count) first.
    pub fn hot_pages(&self) -> Vec<PageId> {
        let mut v = self.entries.clone();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.into_iter().map(|(p, _)| p).collect()
    }

    /// Returns the hot pages and resets the tracker for the next interval.
    pub fn drain(&mut self) -> Vec<PageId> {
        let hot = self.hot_pages();
        self.entries.clear();
        self.accesses = 0;
        hot
    }

    /// Serializes the tracker; entry order is preserved verbatim because
    /// the Misra-Gries update sequence depends on it.
    pub fn save_state(&self, w: &mut ramp_sim::codec::ByteWriter) {
        w.u64(self.accesses);
        w.u32(self.entries.len() as u32);
        for &(page, count) in &self.entries {
            w.u64(page.0);
            w.u32(count);
        }
    }

    /// Restores the state captured by [`MeaTracker::save_state`] into a
    /// tracker of identical capacity.
    pub fn restore_state(
        &mut self,
        r: &mut ramp_sim::codec::ByteReader,
    ) -> Result<(), ramp_sim::codec::CodecError> {
        self.accesses = r.u64()?;
        let n = r.seq_len(12)?;
        if n > self.capacity {
            return Err(ramp_sim::codec::CodecError::Malformed(
                "MEA entries over capacity",
            ));
        }
        self.entries.clear();
        for _ in 0..n {
            self.entries.push((PageId(r.u64()?), r.u32()?));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_simple_majorities() {
        let mut m = MeaTracker::new(2);
        for _ in 0..10 {
            m.record(PageId(1));
        }
        m.record(PageId(2));
        m.record(PageId(3)); // decrements everyone
        let hot = m.hot_pages();
        assert_eq!(hot[0], PageId(1));
    }

    #[test]
    fn frequent_element_guarantee() {
        // A page with > n/(k+1) occurrences must survive.
        let mut m = MeaTracker::new(4);
        let mut stream = Vec::new();
        // 40 accesses: page 7 appears 12 times (> 40/5 = 8), noise unique.
        for i in 0..28u64 {
            stream.push(PageId(1000 + i));
        }
        for _ in 0..12 {
            stream.push(PageId(7));
        }
        // Interleave deterministically.
        stream.sort_by_key(|p| p.0 % 13);
        for p in stream {
            m.record(p);
        }
        assert!(m.hot_pages().contains(&PageId(7)));
    }

    #[test]
    fn drain_resets() {
        let mut m = MeaTracker::mempod();
        m.record(PageId(5));
        assert_eq!(m.accesses(), 1);
        let hot = m.drain();
        assert_eq!(hot, vec![PageId(5)]);
        assert_eq!(m.accesses(), 0);
        assert!(m.hot_pages().is_empty());
    }

    #[test]
    fn capacity_bounds_entries() {
        let mut m = MeaTracker::new(8);
        for i in 0..1000u64 {
            m.record(PageId(i));
        }
        assert!(m.hot_pages().len() <= 8);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        MeaTracker::new(0);
    }
}
