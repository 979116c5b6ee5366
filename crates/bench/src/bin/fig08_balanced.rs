//! Figure 8: balanced static placement (hot & low-risk quadrant only).
//!
//! Paper: SER reduced 3x at 14 % performance loss vs performance-focused.

use ramp_bench::{print_relative, specs, static_vs_perf, workloads, Harness};
use ramp_core::placement::PlacementPolicy;
use ramp_serve::spec::RunAction;

fn main() {
    let mut h = Harness::new();
    let all = workloads();
    h.prewarm(&specs(
        &all,
        &[PlacementPolicy::Balanced, PlacementPolicy::PerfFocused].map(RunAction::Static),
    ));
    let wls = h.workloads_by_mpki(&all);
    let rows = static_vs_perf(&mut h, &wls, PlacementPolicy::Balanced);
    print_relative(
        "Figure 8: balanced static placement (ordered by MPKI desc)",
        &rows,
        "14%",
        "3.0x",
    );
    ramp_bench::finish(&h);
}
