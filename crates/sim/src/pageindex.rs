//! A dense two-level table keyed by page id.
//!
//! The trace layer bases each core's pages at `(core as u64) << 22`, so
//! the page ids of a run cluster into a handful of dense runs.
//! [`PageIndex`] exploits that: `page >> 22` selects a chunk, and each
//! chunk is a plain `Vec<T>` indexed by the low 22 bits. A lookup is two
//! bounds-checked loads and no hashing, and iteration comes out in
//! ascending page order with no sort. The page map and the AVF tracker
//! both index their pages through it.
//!
//! ```
//! use ramp_sim::pageindex::{PageIndex, CHUNK_BITS};
//! use ramp_sim::units::PageId;
//!
//! let mut ix = PageIndex::new(u32::MAX);
//! ix.set(PageId(1 << CHUNK_BITS), 7);
//! ix.set(PageId(3), 9);
//! assert_eq!(ix.get(PageId(3)), 9);
//! assert_eq!(ix.get(PageId(4)), u32::MAX);
//! let pages: Vec<_> = ix.iter().collect();
//! assert_eq!(pages, vec![(PageId(3), 9), (PageId(1 << CHUNK_BITS), 7)]);
//! ```

use crate::units::PageId;

/// Bits of page id covered by one chunk: the trace layer's per-core
/// base-page stride.
pub const CHUNK_BITS: u32 = 22;
/// Index capacity in chunks: page ids below `OUTER_CHUNKS << CHUNK_BITS`
/// (cores are 16 today; 4096 leaves room).
pub const OUTER_CHUNKS: usize = 4096;

/// Page id -> `T`, with a sentinel value for pages never set.
#[derive(Clone, Debug)]
pub struct PageIndex<T> {
    /// Chunk index -> entries by page offset (lazily grown).
    chunks: Vec<Vec<T>>,
    /// Value of every entry not set.
    empty: T,
}

/// Splits a page id into (chunk, offset) when it lies inside the index.
#[inline]
fn split(page: PageId) -> Option<(usize, usize)> {
    (page.0 >> CHUNK_BITS < OUTER_CHUNKS as u64).then_some((
        (page.0 >> CHUNK_BITS) as usize,
        (page.0 & ((1 << CHUNK_BITS) - 1)) as usize,
    ))
}

impl<T: Copy + PartialEq> PageIndex<T> {
    /// An empty index whose unset entries read as `empty`.
    pub fn new(empty: T) -> Self {
        PageIndex {
            chunks: Vec::new(),
            empty,
        }
    }

    /// Whether `page` lies inside the index (ids below
    /// `OUTER_CHUNKS << CHUNK_BITS`).
    #[inline]
    pub fn covers(&self, page: PageId) -> bool {
        split(page).is_some()
    }

    /// The entry of `page`: the sentinel if it was never set or lies
    /// outside the index.
    #[inline]
    pub fn get(&self, page: PageId) -> T {
        split(page)
            .and_then(|(c, off)| self.chunks.get(c)?.get(off).copied())
            .unwrap_or(self.empty)
    }

    /// Sets the entry of `page`, growing its chunk to the next power of
    /// two (at least 64 entries) as needed.
    ///
    /// # Panics
    ///
    /// Panics if `page` lies outside the index.
    pub fn set(&mut self, page: PageId, v: T) {
        let (c, off) = split(page).expect("page id beyond the page index");
        if c >= self.chunks.len() {
            self.chunks.resize_with(c + 1, Vec::new);
        }
        let inner = &mut self.chunks[c];
        if off >= inner.len() {
            inner.resize((off + 1).next_power_of_two().max(64), self.empty);
        }
        inner[off] = v;
    }

    /// Drops every entry and the memory behind it.
    pub fn clear(&mut self) {
        self.chunks.clear();
    }

    /// Every entry that is not the sentinel, in ascending page order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, T)> + '_ {
        let empty = self.empty;
        self.chunks.iter().enumerate().flat_map(move |(c, inner)| {
            inner.iter().enumerate().filter_map(move |(off, &v)| {
                (v != empty).then(|| (PageId(((c as u64) << CHUNK_BITS) | off as u64), v))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterates_in_page_order_across_chunks() {
        let mut ix = PageIndex::new(0u64);
        let pages = [
            PageId(((OUTER_CHUNKS as u64 - 1) << CHUNK_BITS) | ((1 << CHUNK_BITS) - 1)),
            PageId((3 << CHUNK_BITS) | 2),
            PageId(5),
            PageId(1 << CHUNK_BITS),
            PageId(0),
        ];
        for (i, &p) in pages.iter().enumerate() {
            ix.set(p, i as u64 + 1);
        }
        let mut expect: Vec<(PageId, u64)> = pages
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as u64 + 1))
            .collect();
        expect.sort();
        assert_eq!(ix.iter().collect::<Vec<_>>(), expect);
        // Setting the sentinel removes a page from the iteration.
        ix.set(PageId(5), 0);
        assert_eq!(ix.iter().count(), pages.len() - 1);
        ix.clear();
        assert_eq!(ix.get(PageId(0)), 0);
        assert_eq!(ix.iter().count(), 0);
    }

    #[test]
    fn pages_outside_the_index_read_empty_and_panic_on_set() {
        let far = PageId((OUTER_CHUNKS as u64) << CHUNK_BITS);
        let mut ix = PageIndex::new(u32::MAX);
        assert!(!ix.covers(far));
        assert!(ix.covers(PageId(far.0 - 1)));
        assert_eq!(ix.get(far), u32::MAX);
        assert_eq!(ix.get(PageId(u64::MAX)), u32::MAX);
        let set = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ix.set(far, 1)));
        assert!(set.is_err());
    }
}
