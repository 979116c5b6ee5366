//! Synthetic workload and memory-trace generation for RAMP.
//!
//! The paper drives its simulator with PinPlay/SimPoint traces of SPEC
//! CPU2006 and DoE proxy applications. Those traces are not redistributable,
//! so this crate provides deterministic synthetic stand-ins (see DESIGN.md's
//! substitution table): each benchmark is modeled as a set of named
//! data-structure [`region::RegionSpec`]s whose access patterns reproduce the
//! page-level hotness, write-ratio and AVF characteristics the paper reports.
//!
//! # Example
//!
//! ```
//! use ramp_trace::{Workload, MixId};
//!
//! let wl = Workload::Mix(MixId::Mix1);
//! let mut cores = wl.build_cores(42, 1_000_000);
//! assert_eq!(cores.len(), 16);
//! let record = cores[0].next().unwrap();
//! assert!(record.instructions() >= 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gen;
pub mod mix;
pub mod profile;
pub mod record;
pub mod region;

pub use gen::InstanceGen;
pub use mix::{MixId, Workload, CORES};
pub use profile::{BenchProfile, Benchmark};
pub use record::{MemEvent, TraceRecord};
pub use region::{Pattern, Phase, RegionSpec};
