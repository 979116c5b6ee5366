//! Multicore cache-hierarchy simulation for RAMP (Moola substitute).
//!
//! The paper filters PinPlay CPU traces through the Moola cache simulator so
//! that only main-memory activity reaches the DRAM model; this crate is that
//! filter. It provides a single set-associative write-back cache
//! ([`SetAssocCache`]) and a 16-core private-L1 / shared-L2 [`Hierarchy`]
//! whose output stream of [`ramp_trace::MemEvent`]s feeds the DRAM
//! controllers and the AVF tracker. [`stream`] records what each core's
//! private L1 passes down, so later runs replay only the shared L2.
//!
//! # Example
//!
//! ```
//! use ramp_cache::{Hierarchy, HierarchyConfig};
//! use ramp_sim::units::{AccessKind, LineAddr};
//!
//! let mut h = Hierarchy::new(HierarchyConfig::table1_scaled());
//! let mut mem = Vec::new();
//! h.access(3, LineAddr(99), AccessKind::Read, &mut mem);
//! assert_eq!(mem.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod hierarchy;
pub mod stream;

pub use cache::{AccessResult, CacheConfig, CacheStats, SetAssocCache};
pub use hierarchy::{Hierarchy, HierarchyConfig};
pub use stream::{L1Event, L1Outcome, StreamError, StreamReader, StreamWriter};
