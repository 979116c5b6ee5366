//! Figure 10: top-Wr-ratio heuristic placement.
//!
//! Paper: SER reduced 1.8x at 8.1 % performance loss vs perf-focused.

use ramp_bench::{print_relative, specs, static_vs_perf, workloads, Harness};
use ramp_core::placement::PlacementPolicy;
use ramp_serve::spec::RunAction;

fn main() {
    let mut h = Harness::new();
    let all = workloads();
    h.prewarm(&specs(
        &all,
        &[PlacementPolicy::WrRatio, PlacementPolicy::PerfFocused].map(RunAction::Static),
    ));
    let wls = h.workloads_by_mpki(&all);
    let rows = static_vs_perf(&mut h, &wls, PlacementPolicy::WrRatio);
    print_relative("Figure 10: Wr-ratio placement", &rows, "8.1%", "1.8x");
    ramp_bench::finish(&h);
}
