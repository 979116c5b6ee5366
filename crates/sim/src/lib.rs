//! Shared simulation infrastructure for the RAMP workspace.
//!
//! This crate holds the small, dependency-free building blocks every other
//! RAMP crate uses:
//!
//! * [`units`] — strongly-typed addresses, pages, cache lines and cycle
//!   counts, plus the geometry constants (page size, line size) the whole
//!   simulator agrees on.
//! * [`stats`] — online statistics, Pearson correlation, histograms and
//!   geometric means used by the experiment harness.
//! * [`event`] — a deterministic discrete-event queue.
//! * [`rng`] — seeded random-number plumbing (every random decision in RAMP
//!   flows from a single root seed) and a Zipf sampler for skewed page
//!   popularity. Implemented in-tree (xoshiro256++/SplitMix64): the whole
//!   workspace builds with zero external dependencies.
//! * [`exec`] — a std-only work-stealing parallel executor that shards
//!   independent simulation runs across cores with deterministic,
//!   input-ordered results, plus stage timing and progress metrics.
//! * [`check`] — a deterministic property-testing mini-harness (the
//!   in-tree `proptest` replacement used by `tests/properties.rs`).
//! * [`codec`] — a hand-rolled little-endian binary codec (versioned
//!   framing, length-prefixed fields, FNV-1a checksums) backing the
//!   `ramp-serve` persistent run store.
//! * [`telemetry`] — a hierarchical stat registry (counters, gauges,
//!   histograms, ratios) with deterministic JSON/table serialization,
//!   shared by every simulator component for observability and
//!   golden-snapshot regression testing.
//! * [`pageindex`] — a dense two-level table keyed by page id, behind
//!   the page map and the AVF tracker.
//! * [`chaos`] — a seeded software fault-injection registry
//!   (`RAMP_CHAOS=<seed>:<spec>`) threaded through the executor, run
//!   store, server and client for deterministic resilience testing.
//!
//! # Example
//!
//! ```
//! use ramp_sim::units::{Addr, PAGE_SIZE};
//! use ramp_sim::stats::pearson;
//!
//! let a = Addr(0x1234_5678);
//! assert_eq!(a.page().index() * PAGE_SIZE as u64, a.page_base().0);
//!
//! let r = pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]).unwrap();
//! assert!((r - 1.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod check;
pub mod codec;
pub mod event;
pub mod exec;
pub mod pageindex;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod units;

pub use event::EventQueue;
pub use rng::SimRng;
pub use units::{Addr, Cycle, LineAddr, PageId};
