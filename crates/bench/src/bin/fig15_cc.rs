//! Figure 15: Cross-Counter reliability-aware migration.
//!
//! Paper: SER reduced 1.5x at 4.9 % performance loss vs performance-
//! focused migration, with only 676 KB of tracking hardware.

use ramp_bench::{migration_vs_perf, print_relative, specs, workloads, Harness};
use ramp_core::migration::MigrationScheme;
use ramp_serve::spec::RunAction;

fn main() {
    let mut h = Harness::new();
    let all = workloads();
    h.prewarm(&specs(
        &all,
        &[MigrationScheme::CrossCounter, MigrationScheme::PerfFc].map(RunAction::Migration),
    ));
    let wls = h.workloads_by_mpki(&all);
    let rows = migration_vs_perf(&mut h, &wls, MigrationScheme::CrossCounter);
    print_relative(
        "Figure 15: reliability-aware migration (Cross Counters)",
        &rows,
        "4.9%",
        "1.5x",
    );
    ramp_bench::finish(&h);
}
