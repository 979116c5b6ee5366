//! Figure 14: reliability-aware Full-Counter migration.
//!
//! Paper: SER reduced 1.8x at 6 % performance loss vs performance-focused
//! migration; milc even speeds up slightly (fewer migrations).

use ramp_bench::{migration_vs_perf, print_relative, specs, workloads, Harness};
use ramp_core::migration::MigrationScheme;
use ramp_serve::spec::RunAction;

fn main() {
    let mut h = Harness::new();
    let all = workloads();
    h.prewarm(&specs(
        &all,
        &[MigrationScheme::RelFc, MigrationScheme::PerfFc].map(RunAction::Migration),
    ));
    let wls = h.workloads_by_mpki(&all);
    let rows = migration_vs_perf(&mut h, &wls, MigrationScheme::RelFc);
    print_relative(
        "Figure 14: reliability-aware migration (Full Counters)",
        &rows,
        "6%",
        "1.8x",
    );
    ramp_bench::finish(&h);
}
