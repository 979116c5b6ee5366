//! Table 3: summary of every scheme, normalized to its performance-focused
//! counterpart (static schemes vs perf-static, dynamic vs perf-migration).

use ramp_bench::{
    fmt_x, geomean_or_one, migration_vs_perf, print_table, specs, static_vs_perf, workloads,
    Harness,
};
use ramp_core::migration::MigrationScheme;
use ramp_core::placement::PlacementPolicy;
use ramp_serve::spec::RunAction;

fn main() {
    let mut h = Harness::new();
    let wls = workloads();
    h.prewarm(&specs(
        &wls,
        &[
            PlacementPolicy::PerfFocused,
            PlacementPolicy::RelFocused,
            PlacementPolicy::Balanced,
            PlacementPolicy::WrRatio,
            PlacementPolicy::Wr2Ratio,
        ]
        .map(RunAction::Static),
    ));
    h.prewarm(&specs(
        &wls,
        &[
            MigrationScheme::PerfFc,
            MigrationScheme::RelFc,
            MigrationScheme::CrossCounter,
        ]
        .map(RunAction::Migration),
    ));
    h.prewarm(&specs(&wls, &[RunAction::Annotated]));
    let mut rows = Vec::new();

    let statics = [
        (
            "Reliability-focused [5.1]",
            PlacementPolicy::RelFocused,
            "17%",
            "5.0x",
        ),
        ("Balanced [5.2]", PlacementPolicy::Balanced, "14%", "3.0x"),
        ("Wr ratio [5.4.1]", PlacementPolicy::WrRatio, "8.1%", "1.8x"),
        ("Wr2 ratio [5.4.2]", PlacementPolicy::Wr2Ratio, "1%", "1.6x"),
    ];
    for (name, policy, p_ipc, p_ser) in statics {
        let r = static_vs_perf(&mut h, &wls, policy);
        let ipc = geomean_or_one(&r.iter().map(|x| x.ipc_rel).collect::<Vec<_>>());
        let ser = geomean_or_one(&r.iter().map(|x| x.ser_reduction).collect::<Vec<_>>());
        rows.push(vec![
            name.to_string(),
            format!("{:.1}% (paper {p_ipc})", (1.0 - ipc) * 100.0),
            format!("{} (paper {p_ser})", fmt_x(ser)),
        ]);
    }
    let dynamics = [
        (
            "Reliability-aware FC [6.2]",
            MigrationScheme::RelFc,
            "6%",
            "1.8x",
        ),
        (
            "Cross Counters [6.4]",
            MigrationScheme::CrossCounter,
            "4.9%",
            "1.5x",
        ),
    ];
    for (name, scheme, p_ipc, p_ser) in dynamics {
        let r = migration_vs_perf(&mut h, &wls, scheme);
        let ipc = geomean_or_one(&r.iter().map(|x| x.ipc_rel).collect::<Vec<_>>());
        let ser = geomean_or_one(&r.iter().map(|x| x.ser_reduction).collect::<Vec<_>>());
        rows.push(vec![
            name.to_string(),
            format!("{:.1}% (paper {p_ipc})", (1.0 - ipc) * 100.0),
            format!("{} (paper {p_ser})", fmt_x(ser)),
        ]);
    }
    // Annotations vs perf-static.
    {
        let mut ipcs = Vec::new();
        let mut sers = Vec::new();
        for wl in &wls {
            let base = h.static_run(wl, PlacementPolicy::PerfFocused);
            let (run, _) = h.annotated_run(wl);
            ipcs.push(run.ipc / base.ipc);
            sers.push(base.ser_fit / run.ser_fit.max(f64::MIN_POSITIVE));
        }
        rows.push(vec![
            "Program annotations [7]".to_string(),
            format!("{:.1}% (paper 1.1%)", (1.0 - geomean_or_one(&ipcs)) * 100.0),
            format!("{} (paper 1.3x)", fmt_x(geomean_or_one(&sers))),
        ]);
    }
    print_table(
        "Table 3: IPC degradation and SER improvement vs the respective performance-focused scheme",
        &["scheme", "IPC degradation", "SER improvement"],
        &rows,
    );
    ramp_bench::finish(&h);
}
