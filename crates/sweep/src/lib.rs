//! Deterministic design-space sweeps with Pareto-frontier search.
//!
//! The paper's central artifact is a perf×reliability trade-off
//! frontier across placement policies. This crate makes that frontier a
//! first-class, declarative workload instead of a hand-written binary:
//!
//! 1. **[`spec`]** — a TOML-subset sweep specification: axes over
//!    workload, policy, and numeric [`ramp_core::config::SystemConfig`]
//!    knobs, expanded into a canonical cartesian grid, a seeded random
//!    subsample, or an adaptive successive-halving schedule.
//! 2. **[`engine`]** — executes the points through
//!    [`ramp_serve::spec::resolve`], the one store-first execution path
//!    the bench harness and the server use too, on the
//!    `ramp_sim::exec` work-stealing executor. Every point is keyed into
//!    the content-addressed run store, so a repeated or overlapping
//!    sweep re-simulates nothing and a chaos-killed sweep resumes by
//!    re-running only the missing points. Remote mode fans the same
//!    points out to a running `ramp-served` through batch submit.
//! 3. **[`pareto`]** — non-dominated sorting over (IPC ↑, FIT ↓):
//!    dominance ranks and the frontier, a pure function of the metric
//!    multiset.
//! 4. **[`artifact`]** — the schema-versioned flat-JSON sweep artifact
//!    (`ramp-sweep-v1`), byte-identical at any thread count, written
//!    atomically under the `sweep.artifact` chaos site.
//!
//! The `ramp-sweep` binary wraps all of it:
//! `ramp-sweep run examples/sweep_frontier.toml`.
//!
//! Zero external dependencies, like the rest of the workspace.

#![warn(missing_docs)]

pub mod artifact;
pub mod engine;
pub mod pareto;
pub mod spec;

pub use engine::{run_local, run_remote, PointRow, SweepRun};
pub use pareto::{dominates, frontier, ranks, Objective};
pub use spec::{Strategy, SweepSpec};
