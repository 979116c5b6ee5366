//! Figure 17: number of annotated program structures per workload.
//!
//! Paper: one annotation suffices for most workloads (average ~8), with
//! cactusADM (39) and mix1 (45) as outliers.

use ramp_bench::{print_table, specs, workloads, Harness};
use ramp_core::annotate::select_annotations;
use ramp_serve::spec::RunAction;

fn main() {
    let mut h = Harness::new();
    let wls = workloads();
    h.prewarm(&specs(&wls, &[RunAction::Profile]));
    let mut rows = Vec::new();
    let mut counts = Vec::new();
    for wl in wls {
        let profile = h.profile(&wl);
        let set = select_annotations(
            &wl,
            &profile.table,
            h.cfg.hbm_capacity_pages as usize,
            h.cfg.seed,
        );
        counts.push(set.count() as f64);
        rows.push(vec![
            wl.name().to_string(),
            set.count().to_string(),
            set.pinned.len().to_string(),
        ]);
    }
    print_table(
        "Figure 17: annotated structures per workload",
        &["workload", "structures", "pinned pages"],
        &rows,
    );
    let mean = counts.iter().sum::<f64>() / counts.len().max(1) as f64;
    println!("\nmean annotations: {mean:.1} (paper: ~8, with cactusADM=39 and mix1=45 outliers)");
    ramp_bench::finish(&h);
}
