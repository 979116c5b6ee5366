//! Figure 5: performance-focused static placement vs DDR-only.
//!
//! Paper: 1.6x IPC boost and 287x SER increase relative to DDR-only.

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
    let mut rows = Vec::new();
    let mut ipcs = Vec::new();
    let mut sers = Vec::new();
    for wl in &wls {
        let ddr = h.profile(wl);
        let perf = h.static_run(wl, PlacementPolicy::PerfFocused);
        let ipc_x = perf.ipc / ddr.ipc;
        let ser_x = perf.ser_vs_ddr_only();
        ipcs.push(ipc_x);
        sers.push(ser_x);
        rows.push(vec![
            wl.name().to_string(),
            format!("{:.3}", ddr.ipc),
            format!("{:.3}", perf.ipc),
            fmt_x(ipc_x),
            fmt_x(ser_x),
        ]);
    }
    print_table(
        "Figure 5: performance-focused static placement",
        &[
            "workload",
            "IPC (DDR-only)",
            "IPC (perf-static)",
            "IPC boost",
            "SER vs DDR-only",
        ],
        &rows,
    );
    println!(
        "\nmean: IPC {} (paper: 1.6x), SER {} (paper: 287x)",
        fmt_x(geomean_or_one(&ipcs)),
        fmt_x(geomean_or_one(&sers))
    );
    ramp_bench::finish(&h);
}
