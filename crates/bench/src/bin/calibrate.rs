//! Calibration diagnostics: per-workload memory AVF, MPKI, footprint,
//! quadrant fractions and correlations — the knobs DESIGN.md's profile
//! tuning targets (Figures 2, 4, 6 and 9).

use ramp_avf::{
    hotness_avf_correlation, hottest_pages, writeratio_avf_correlation, Quadrant, QuadrantAnalysis,
};
use ramp_bench::{print_table, specs, workloads, Harness};
use ramp_serve::spec::RunAction;

fn main() {
    let mut h = Harness::new();
    let wls = workloads();
    h.prewarm(&specs(&wls, &[RunAction::Profile]));
    let mut rows = Vec::new();
    for wl in wls {
        let r = h.profile(&wl);
        let q = QuadrantAnalysis::new(&r.table);
        let rho_hot = hotness_avf_correlation(&r.table).unwrap_or(f64::NAN);
        let rho_wr = writeratio_avf_correlation(&r.table, 1000).unwrap_or(f64::NAN);
        // AVF mass captured by the 4096 hottest pages (what a perf-focused
        // placement would move to HBM): the paper's 287x implies ~0.3.
        let hot = hottest_pages(&r.table);
        let total_mass: f64 = r.table.pages().iter().map(|s| s.avf).sum();
        let hot_mass: f64 = hot.iter().take(4096).map(|s| s.avf).sum();
        let share = if total_mass > 0.0 {
            hot_mass / total_mass
        } else {
            0.0
        };
        rows.push(vec![
            wl.name().to_string(),
            format!("{:.2}", r.ipc),
            format!("{:.1}", r.mpki),
            format!("{}", r.table.pages().len()),
            format!("{:.2}%", r.table.mean_avf() * 100.0),
            format!("{:.1}%", q.fraction(Quadrant::HotLowRisk) * 100.0),
            format!("{:.1}%", q.fraction(Quadrant::HotHighRisk) * 100.0),
            format!("{:.1}%", q.fraction(Quadrant::ColdHighRisk) * 100.0),
            format!("{:.2}", rho_hot),
            format!("{:.2}", rho_wr),
            format!("{:.2}", share),
        ]);
    }
    print_table(
        "Calibration (DDR-only profiling runs)",
        &[
            "workload",
            "IPC",
            "MPKI",
            "pages",
            "meanAVF",
            "hot&low",
            "hot&high",
            "cold&high",
            "rho(hot,avf)",
            "rho(wr,avf)",
            "hot4096 avf share",
        ],
        &rows,
    );
    ramp_bench::finish(&h);
}
