//! Cycle-level DRAM timing simulation for RAMP (Ramulator substitute).
//!
//! Models the two memories of the paper's Heterogeneous Memory Architecture
//! (Table 1): off-package DDR3-1600 and on-package HBM, each with
//! bank-state-machine timing, FR-FCFS scheduling, an open-page row-buffer
//! policy, posted writes with drain watermarks, refresh, and line-
//! interleaved address mapping. All timing is expressed in CPU cycles at the
//! paper's 3.2 GHz core clock.
//!
//! The crate is deliberately trace-agnostic: it consumes
//! [`request::MemRequest`]s and produces [`request::Completion`]s; the HMA
//! layer in `ramp-core` decides which memory each page's traffic targets.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod controller;
pub mod mapping;
pub mod memory;
pub mod request;
pub mod timing;

pub use controller::{ChannelController, ChannelStats};
pub use mapping::{AddressMapping, DramCoord};
pub use memory::{MemoryKind, MemorySystem};
pub use request::{Completion, MemRequest, QueueFull};
pub use timing::{Organization, TimingParams};
