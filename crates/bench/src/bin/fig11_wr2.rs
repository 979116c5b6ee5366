//! Figure 11: top-Wr²-ratio heuristic placement.
//!
//! Paper: SER reduced 1.6x at only 1 % performance loss vs perf-focused —
//! the headline static result.

use ramp_bench::{print_relative, specs, static_vs_perf, workloads, Harness};
use ramp_core::placement::PlacementPolicy;
use ramp_serve::spec::RunAction;

fn main() {
    let mut h = Harness::new();
    let all = workloads();
    h.prewarm(&specs(
        &all,
        &[PlacementPolicy::Wr2Ratio, PlacementPolicy::PerfFocused].map(RunAction::Static),
    ));
    let wls = h.workloads_by_mpki(&all);
    let rows = static_vs_perf(&mut h, &wls, PlacementPolicy::Wr2Ratio);
    print_relative("Figure 11: Wr2-ratio placement", &rows, "1%", "1.6x");
    ramp_bench::finish(&h);
}
