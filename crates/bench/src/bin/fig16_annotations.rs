//! Figure 16: program-annotation-based placement.
//!
//! Paper: SER reduced 1.3x at 1.1 % performance cost vs the perf-focused
//! static oracular placement, with no hardware overhead.

use ramp_bench::{fmt_x, geomean_or_one, print_table, specs, workloads, Harness};
use ramp_core::placement::PlacementPolicy;
use ramp_serve::spec::RunAction;

fn main() {
    let mut h = Harness::new();
    let wls = workloads();
    h.prewarm(&specs(
        &wls,
        &[PlacementPolicy::PerfFocused].map(RunAction::Static),
    ));
    h.prewarm(&specs(&wls, &[RunAction::Annotated]));
    let mut rows = Vec::new();
    let mut ipcs = Vec::new();
    let mut sers = Vec::new();
    for wl in wls {
        let base = h.static_run(&wl, PlacementPolicy::PerfFocused);
        let (run, set) = h.annotated_run(&wl);
        let ipc_rel = run.ipc / base.ipc;
        let ser_red = base.ser_fit / run.ser_fit.max(f64::MIN_POSITIVE);
        ipcs.push(ipc_rel);
        sers.push(ser_red);
        rows.push(vec![
            wl.name().to_string(),
            format!("{:.3}", ipc_rel),
            fmt_x(ser_red),
            set.count().to_string(),
        ]);
    }
    print_table(
        "Figure 16: annotation-based placement vs perf-focused static",
        &["workload", "IPC vs perf", "SER reduction", "annotations"],
        &rows,
    );
    println!(
        "\nmean: IPC loss {:.1}% (paper: 1.1%), SER reduction {} (paper: 1.3x)",
        (1.0 - geomean_or_one(&ipcs)) * 100.0,
        fmt_x(geomean_or_one(&sers))
    );
    ramp_bench::finish(&h);
}
