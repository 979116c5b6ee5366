//! Figure 4: hotness-AVF quadrant decomposition of each workload's
//! footprint.
//!
//! Paper: every workload has pages in all four quadrants; hot & low-risk
//! pages are 9 %-39 % of the footprint (mix1: 29.4 %); lbm is the outlier
//! with almost none.

use ramp_avf::{Quadrant, QuadrantAnalysis};
use ramp_bench::{fmt_pct, print_table, specs, workloads, Harness};
use ramp_serve::spec::RunAction;

fn main() {
    let mut h = Harness::new();
    let wls = workloads();
    h.prewarm(&specs(&wls, &[RunAction::Profile]));
    let mut rows = Vec::new();
    for wl in wls {
        let r = h.profile(&wl);
        let q = QuadrantAnalysis::new(&r.table);
        rows.push(vec![
            wl.name().to_string(),
            fmt_pct(q.fraction(Quadrant::HotLowRisk)),
            fmt_pct(q.fraction(Quadrant::HotHighRisk)),
            fmt_pct(q.fraction(Quadrant::ColdLowRisk)),
            fmt_pct(q.fraction(Quadrant::ColdHighRisk)),
            format!("{}", q.total()),
        ]);
    }
    print_table(
        "Figure 4: footprint share per hotness-risk quadrant",
        &[
            "workload",
            "hot&low",
            "hot&high",
            "cold&low",
            "cold&high",
            "pages",
        ],
        &rows,
    );
    println!("\npaper: hot & low-risk spans 9%-39% of the footprint; lbm is the outlier with few.");
    ramp_bench::finish(&h);
}
