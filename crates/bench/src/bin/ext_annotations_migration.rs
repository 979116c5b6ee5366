//! Extension experiment (Section 7, closing remark): "Supplementing such an
//! annotation-driven static data placement scheme with a reliability-aware
//! migration mechanism could potentially further improve the overall
//! reliability of the system." We measure exactly that: annotations alone
//! vs annotations + Cross-Counter migration of the unpinned capacity.

use ramp_bench::{fmt_x, geomean_or_one, print_table, specs, workloads, Harness};
use ramp_core::migration::MigrationScheme;
use ramp_core::placement::PlacementPolicy;
use ramp_core::runner::run_annotated_with_migration;
use ramp_serve::spec::RunAction;
use ramp_sim::exec::{parallel_map, StageTimer};

fn main() {
    let mut h = Harness::new();
    let wls = workloads();
    h.prewarm(&specs(
        &wls,
        &[PlacementPolicy::PerfFocused].map(RunAction::Static),
    ));
    h.prewarm(&specs(&wls, &[RunAction::Annotated]));
    let profiles: Vec<_> = wls.iter().map(|wl| h.profile(wl)).collect();
    let timer = StageTimer::new(format!(
        "annotated+CC x{} (threads={})",
        wls.len(),
        h.threads
    ));
    let boths = {
        let cfg = &h.cfg;
        parallel_map(h.threads, wls.clone(), |i, wl| {
            run_annotated_with_migration(cfg, wl, MigrationScheme::CrossCounter, &profiles[i].table)
                .0
        })
    };
    timer.finish();
    let mut rows = Vec::new();
    let mut ann_sers = Vec::new();
    let mut both_sers = Vec::new();
    for (i, wl) in wls.iter().enumerate() {
        let base = h.static_run(wl, PlacementPolicy::PerfFocused);
        let (ann, _) = h.annotated_run(wl);
        let both = &boths[i];
        let ann_red = base.ser_fit / ann.ser_fit.max(f64::MIN_POSITIVE);
        let both_red = base.ser_fit / both.ser_fit.max(f64::MIN_POSITIVE);
        ann_sers.push(ann_red);
        both_sers.push(both_red);
        rows.push(vec![
            wl.name().to_string(),
            format!("{:.3} / {}", ann.ipc / base.ipc, fmt_x(ann_red)),
            format!("{:.3} / {}", both.ipc / base.ipc, fmt_x(both_red)),
        ]);
    }
    let mut out = String::new();
    print_table(
        &mut out,
        "Extension: annotations alone vs annotations + Cross-Counter migration (IPC rel / SER reduction vs perf-static)",
        &["workload", "annotations", "annotations + CC"],
        &rows,
    );
    print!("{out}");
    println!(
        "\nmean SER reduction: annotations {} -> with CC {} (paper: 'could potentially further improve')",
        fmt_x(geomean_or_one(&ann_sers)),
        fmt_x(geomean_or_one(&both_sers))
    );
    ramp_bench::finish(&h);
}
