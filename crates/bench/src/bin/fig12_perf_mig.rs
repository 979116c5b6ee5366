//! Figure 12: performance-focused dynamic migration vs DDR-only.
//!
//! Paper: 1.52x IPC (vs 1.6x static) and 268x SER relative to DDR-only;
//! ~47k migrations per 100 ms interval at full scale.

use ramp_bench::{fmt_x, geomean_or_one, print_table, specs, workloads, Harness};
use ramp_core::migration::MigrationScheme;
use ramp_serve::spec::RunAction;

fn main() {
    let mut h = Harness::new();
    let wls = workloads();
    h.prewarm(&specs(
        &wls,
        &[MigrationScheme::PerfFc].map(RunAction::Migration),
    ));
    let mut rows = Vec::new();
    let mut ipcs = Vec::new();
    let mut sers = Vec::new();
    for wl in wls {
        let ddr = h.profile(&wl);
        let mig = h.migration_run(&wl, MigrationScheme::PerfFc);
        let ipc_x = mig.ipc / ddr.ipc;
        let ser_x = mig.ser_vs_ddr_only();
        ipcs.push(ipc_x);
        sers.push(ser_x);
        rows.push(vec![
            wl.name().to_string(),
            fmt_x(ipc_x),
            fmt_x(ser_x),
            mig.migrations.to_string(),
        ]);
    }
    print_table(
        "Figure 12: performance-focused migration vs DDR-only",
        &["workload", "IPC boost", "SER vs DDR-only", "migrations"],
        &rows,
    );
    println!(
        "\nmean: IPC {} (paper: 1.52x), SER {} (paper: 268x)",
        fmt_x(geomean_or_one(&ipcs)),
        fmt_x(geomean_or_one(&sers))
    );
    ramp_bench::finish(&h);
}
