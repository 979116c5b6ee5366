//! Figure 2: mean memory AVF per workload on a DDR-only system.
//!
//! Paper: AVF varies from 1.7 % (astar) to 22.5 % (milc), motivating
//! AVF-aware application-specific placement.

use ramp_bench::{print_table, specs, workloads, Harness};
use ramp_serve::spec::RunAction;

fn main() {
    let mut h = Harness::new();
    let wls = workloads();
    h.prewarm(&specs(&wls, &[RunAction::Profile]));
    let mut rows: Vec<(f64, String)> = wls
        .iter()
        .map(|wl| {
            let r = h.profile(wl);
            (r.table.mean_avf(), wl.name().to_string())
        })
        .collect();
    rows.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|(avf, name)| vec![name.clone(), format!("{:.2}%", avf * 100.0)])
        .collect();
    print_table(
        "Figure 2: mean memory AVF (DDR-only), increasing order",
        &["workload", "mean AVF"],
        &data,
    );
    println!(
        "\nspan: {:.2}% .. {:.2}% (paper: 1.7% astar .. 22.5% milc)",
        rows.first().map(|r| r.0 * 100.0).unwrap_or(0.0),
        rows.last().map(|r| r.0 * 100.0).unwrap_or(0.0)
    );
    ramp_bench::finish(&h);
}
