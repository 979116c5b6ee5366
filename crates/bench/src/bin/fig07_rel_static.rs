//! Figure 7: naive reliability-focused static placement.
//!
//! Paper: SER reduced 5x, performance loses 17 % relative to the
//! performance-focused placement; bandwidth-intensive workloads (left,
//! high MPKI) lose the most; lbm and milc are outliers (-6 %, -1 %).

use ramp_bench::{print_relative, specs, static_vs_perf, workloads, Harness};
use ramp_core::placement::PlacementPolicy;
use ramp_serve::spec::RunAction;

fn main() {
    let mut h = Harness::new();
    let all = workloads();
    h.prewarm(&specs(
        &all,
        &[PlacementPolicy::RelFocused, PlacementPolicy::PerfFocused].map(RunAction::Static),
    ));
    let wls = h.workloads_by_mpki(&all);
    let rows = static_vs_perf(&mut h, &wls, PlacementPolicy::RelFocused);
    print_relative(
        "Figure 7: reliability-focused static placement (ordered by MPKI desc)",
        &rows,
        "17%",
        "5.0x",
    );
    ramp_bench::finish(&h);
}
