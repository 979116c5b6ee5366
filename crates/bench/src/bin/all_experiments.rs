//! Runs the complete experiment suite — every table and figure — in a
//! single process so profiling passes and baseline runs are shared via
//! [`ramp_bench::Harness`]. Output is markdown; EXPERIMENTS.md is the
//! curated record of one full run.
//!
//! The experiment matrix is sharded across cores (`-j N`, `--threads N`
//! or `RAMP_THREADS`; default all cores): one `Harness::prewarm` call
//! resolves the whole matrix, and every figure is then formatted from
//! the harness memo, so stdout is byte-identical at any thread count.

use ramp_avf::{
    hotness_avf_correlation, hottest_pages, writeratio_avf_correlation, Quadrant, QuadrantAnalysis,
};
use ramp_bench::{
    fc_interval_sweep, fmt_pct, fmt_x, geomean_or_one, migration_vs_perf, print_relative,
    print_table, specs, static_vs_perf, workloads, Harness,
};
use ramp_core::annotate::select_annotations;
use ramp_core::hwcost;
use ramp_core::migration::MigrationScheme;
use ramp_core::placement::PlacementPolicy;
use ramp_faultsim::{run_monte_carlo, RasConfig};
use ramp_serve::spec::RunAction;
use ramp_sim::exec::{parallel_map, StageTimer};
use ramp_sim::stats::Histogram;
use ramp_sim::SimRng;
use ramp_trace::{Benchmark, MixId, Workload};

const FRONTIER_WLS: [Workload; 3] = [
    Workload::Homogeneous(Benchmark::Astar),
    Workload::Homogeneous(Benchmark::CactusADM),
    Workload::Mix(MixId::Mix1),
];

const SWEEP_WLS: [Workload; 3] = [
    Workload::Homogeneous(Benchmark::Astar),
    Workload::Mix(MixId::Mix1),
    Workload::Homogeneous(Benchmark::Lbm),
];

const SWEEP_INTERVALS: [u64; 4] = [100_000, 200_000, 400_000, 1_600_000];

/// Shards every simulation of the suite across the worker pool; after
/// this, the figure sections below only read the harness memo.
fn prewarm(h: &mut Harness, wls: &[Workload]) {
    eprintln!("sharding experiment matrix over {} threads", h.threads);
    let total = StageTimer::new("prewarm total");
    let mut jobs = specs(wls, &[RunAction::Profile]);
    jobs.extend(specs(
        wls,
        &[
            PlacementPolicy::PerfFocused,
            PlacementPolicy::RelFocused,
            PlacementPolicy::Balanced,
            PlacementPolicy::WrRatio,
            PlacementPolicy::Wr2Ratio,
        ]
        .map(RunAction::Static),
    ));
    jobs.extend(specs(
        &FRONTIER_WLS,
        &[0.0f64, 0.25, 0.5, 0.75, 1.0].map(|f| RunAction::Static(PlacementPolicy::FracHottest(f))),
    ));
    jobs.extend(specs(
        wls,
        &[
            MigrationScheme::PerfFc,
            MigrationScheme::RelFc,
            MigrationScheme::CrossCounter,
        ]
        .map(RunAction::Migration),
    ));
    jobs.extend(specs(wls, &[RunAction::Annotated]));
    h.prewarm(&jobs);
    total.finish();
}

fn main() {
    let mut h = Harness::new();
    let wls = workloads();
    prewarm(&mut h, &wls);

    // ---- FaultSim calibration (Section 3.2) -------------------------
    // The two Monte Carlos are independent tasks on decorrelated child
    // streams of the root seed.
    println!("\n\n## FaultSim calibration (Section 3.2)\n");
    let root = SimRng::from_seed(2018);
    let mc = parallel_map(
        h.threads.min(2),
        vec![
            ("hbm", RasConfig::hbm_secded()),
            ("ddr", RasConfig::ddr_chipkill()),
        ],
        |_, (label, ras)| run_monte_carlo(ras, 500_000, &mut root.child(label)),
    );
    let (hbm, ddr) = (&mc[0], &mc[1]);
    print_table(
        "FaultSim Monte Carlo",
        &[
            "memory",
            "faults",
            "corrected",
            "DUE",
            "SDC",
            "uncorrected FIT/GB",
        ],
        &[
            vec![
                "HBM / SEC-DED".into(),
                hbm.faults.to_string(),
                hbm.corrected.to_string(),
                hbm.detected_ue.to_string(),
                hbm.silent_ue.to_string(),
                format!("{:.3}", hbm.fit_uncorrected_per_gb()),
            ],
            vec![
                "DDR / ChipKill".into(),
                ddr.faults.to_string(),
                ddr.corrected.to_string(),
                ddr.detected_ue.to_string(),
                ddr.silent_ue.to_string(),
                format!("{:.5}", ddr.fit_uncorrected_per_gb()),
            ],
        ],
    );

    // ---- Hardware cost (Sections 6.3/6.4.2) -------------------------
    println!("\n\n## Hardware cost (Sections 6.3/6.4.2)\n");
    print_table(
        "Tracking storage at full scale",
        &["mechanism", "measured", "paper"],
        &[
            vec![
                "rel-aware FC total".into(),
                hwcost::human_bytes(hwcost::reliability_fc_bytes()),
                "8.5 MB".into(),
            ],
            vec![
                "rel-aware FC extra".into(),
                hwcost::human_bytes(hwcost::reliability_fc_extra_bytes()),
                "4.25 MB".into(),
            ],
            vec![
                "CC risk counters".into(),
                hwcost::human_bytes(hwcost::cc_risk_counter_bytes()),
                "512 KB".into(),
            ],
            vec![
                "CC total".into(),
                hwcost::human_bytes(hwcost::cross_counter_total_bytes()),
                "676 KB".into(),
            ],
        ],
    );

    // ---- Figure 2 ----------------------------------------------------
    println!("\n\n## Figure 2: mean memory AVF (DDR-only)\n");
    let mut avf_rows: Vec<(f64, String)> = wls
        .iter()
        .map(|wl| (h.profile(wl).table.mean_avf(), wl.name().to_string()))
        .collect();
    avf_rows.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    print_table(
        "Figure 2 (increasing order; paper: 1.7% astar .. 22.5% milc)",
        &["workload", "mean AVF"],
        &avf_rows
            .iter()
            .map(|(a, n)| vec![n.clone(), format!("{:.2}%", a * 100.0)])
            .collect::<Vec<_>>(),
    );

    // ---- Figure 4 ----------------------------------------------------
    println!("\n\n## Figure 4: hotness-risk quadrants\n");
    let rows: Vec<Vec<String>> = wls
        .iter()
        .map(|wl| {
            let r = h.profile(wl);
            let q = QuadrantAnalysis::new(&r.table);
            vec![
                wl.name().to_string(),
                fmt_pct(q.fraction(Quadrant::HotLowRisk)),
                fmt_pct(q.fraction(Quadrant::HotHighRisk)),
                fmt_pct(q.fraction(Quadrant::ColdLowRisk)),
                fmt_pct(q.fraction(Quadrant::ColdHighRisk)),
            ]
        })
        .collect();
    print_table(
        "Figure 4 (paper: hot&low spans 9%-39%; lbm the outlier)",
        &["workload", "hot&low", "hot&high", "cold&low", "cold&high"],
        &rows,
    );

    // ---- Figures 6 and 9 (mix1 correlations) -------------------------
    println!("\n\n## Figures 6 and 9: mix1 correlations\n");
    {
        let wl = Workload::Mix(MixId::Mix1);
        let r = h.profile(&wl);
        let hot = hottest_pages(&r.table);
        let take = hot.len().min(1000);
        let lo = hot[..take].iter().map(|s| s.avf).fold(f64::MAX, f64::min);
        let hi = hot[..take].iter().map(|s| s.avf).fold(0.0f64, f64::max);
        println!(
            "top-1000 hot pages AVF range: {:.1}%..{:.1}% (paper: ~5%..~90%)",
            lo * 100.0,
            hi * 100.0
        );
        println!(
            "hotness-AVF correlation: {:.3} (paper: 0.08)",
            hotness_avf_correlation(&r.table).unwrap_or(f64::NAN)
        );
        println!(
            "write-ratio-AVF correlation (top 1000): {:.2} (paper: -0.32)",
            writeratio_avf_correlation(&r.table, 1000).unwrap_or(f64::NAN)
        );
        let mut hist = Histogram::new(0.0, 1.0, 5);
        for s in r.table.pages() {
            if s.hotness() > 0 {
                hist.push(s.writes as f64 / s.hotness() as f64);
            }
        }
        print_table(
            "Figure 9b: pages per write-share bin (mix1, touched pages)",
            &["write share", "pages"],
            &hist
                .iter()
                .map(|(lo, hi, c)| {
                    vec![
                        format!("{:.0}%-{:.0}%", lo * 100.0, hi * 100.0),
                        c.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }

    // ---- Figure 5 ----------------------------------------------------
    println!("\n\n## Figure 5: performance-focused static placement\n");
    let mut f5 = Vec::new();
    let mut ipcs = Vec::new();
    let mut sers = Vec::new();
    for wl in &wls {
        let ddr = h.profile(wl);
        let perf = h.static_run(wl, PlacementPolicy::PerfFocused);
        let (ix, sx) = (perf.ipc / ddr.ipc, perf.ser_vs_ddr_only());
        ipcs.push(ix);
        sers.push(sx);
        f5.push(vec![
            wl.name().to_string(),
            format!("{:.3}", ddr.ipc),
            format!("{:.3}", perf.ipc),
            fmt_x(ix),
            fmt_x(sx),
        ]);
    }
    print_table(
        "Figure 5",
        &[
            "workload",
            "IPC (DDR-only)",
            "IPC (perf)",
            "IPC boost",
            "SER vs DDR-only",
        ],
        &f5,
    );
    println!(
        "\nmean: IPC {} (paper: 1.6x), SER {} (paper: 287x)",
        fmt_x(geomean_or_one(&ipcs)),
        fmt_x(geomean_or_one(&sers))
    );

    // ---- Figure 1 ----------------------------------------------------
    println!("\n\n## Figure 1: frontier (astar+cactusADM+mix1)\n");
    let mut f1 = Vec::new();
    for frac in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
        let mut i = Vec::new();
        let mut s = Vec::new();
        for wl in &FRONTIER_WLS {
            let ddr = h.profile(wl);
            let r = h.static_run(wl, PlacementPolicy::FracHottest(frac));
            i.push(r.ipc / ddr.ipc);
            s.push(r.ser_vs_ddr_only());
        }
        f1.push(vec![
            format!("{:.0}% of HBM", frac * 100.0),
            fmt_x(geomean_or_one(&i)),
            fmt_x(geomean_or_one(&s)),
        ]);
    }
    for policy in [PlacementPolicy::Wr2Ratio, PlacementPolicy::Balanced] {
        let mut i = Vec::new();
        let mut s = Vec::new();
        for wl in &FRONTIER_WLS {
            let ddr = h.profile(wl);
            let r = h.static_run(wl, policy);
            i.push(r.ipc / ddr.ipc);
            s.push(r.ser_vs_ddr_only());
        }
        f1.push(vec![
            policy.name(),
            fmt_x(geomean_or_one(&i)),
            fmt_x(geomean_or_one(&s)),
        ]);
    }
    print_table(
        "Figure 1",
        &["placement", "IPC vs DDR-only", "SER vs DDR-only"],
        &f1,
    );

    // ---- Figures 7, 8, 10, 11 (static policies vs perf) --------------
    let by_mpki = h.workloads_by_mpki(&wls);
    for (title, policy, p_ipc, p_ser) in [
        (
            "Figure 7: reliability-focused static",
            PlacementPolicy::RelFocused,
            "17%",
            "5.0x",
        ),
        (
            "Figure 8: balanced static",
            PlacementPolicy::Balanced,
            "14%",
            "3.0x",
        ),
        (
            "Figure 10: Wr-ratio static",
            PlacementPolicy::WrRatio,
            "8.1%",
            "1.8x",
        ),
        (
            "Figure 11: Wr2-ratio static",
            PlacementPolicy::Wr2Ratio,
            "1%",
            "1.6x",
        ),
    ] {
        println!("\n\n## {title}\n");
        let rows = static_vs_perf(&mut h, &by_mpki, policy);
        print_relative(title, &rows, p_ipc, p_ser);
    }

    // ---- Figure 12 ----------------------------------------------------
    println!("\n\n## Figure 12: performance-focused migration\n");
    let mut f12 = Vec::new();
    let mut i12 = Vec::new();
    let mut s12 = Vec::new();
    for wl in &wls {
        let ddr = h.profile(wl);
        let mig = h.migration_run(wl, MigrationScheme::PerfFc);
        let (ix, sx) = (mig.ipc / ddr.ipc, mig.ser_vs_ddr_only());
        i12.push(ix);
        s12.push(sx);
        f12.push(vec![
            wl.name().to_string(),
            fmt_x(ix),
            fmt_x(sx),
            mig.migrations.to_string(),
        ]);
    }
    print_table(
        "Figure 12",
        &["workload", "IPC boost", "SER vs DDR-only", "migrations"],
        &f12,
    );
    println!(
        "\nmean: IPC {} (paper: 1.52x), SER {} (paper: 268x)",
        fmt_x(geomean_or_one(&i12)),
        fmt_x(geomean_or_one(&s12))
    );

    // ---- Figure 13 ----------------------------------------------------
    // The interval sweep gives each point its own config; the points
    // resolve together (memo, store, then parallel simulation) but stay
    // out of the telemetry document.
    println!("\n\n## Figure 13: FC-interval sweep\n");
    let sweep_ipc = fc_interval_sweep(&mut h, &SWEEP_WLS, &SWEEP_INTERVALS);
    let f13: Vec<Vec<String>> = SWEEP_WLS
        .iter()
        .zip(sweep_ipc.chunks(SWEEP_INTERVALS.len()))
        .map(|(wl, ipcs)| [&[wl.name().to_string()], ipcs].concat())
        .collect();
    print_table(
        "Figure 13 (IPC per FC interval; paper: 100 ms = our 400k-cycle default is best)",
        &["workload", "100k", "200k", "400k (default)", "1.6M"],
        &f13,
    );

    // ---- Figures 14, 15 ------------------------------------------------
    for (title, scheme, p_ipc, p_ser) in [
        (
            "Figure 14: reliability-aware FC migration",
            MigrationScheme::RelFc,
            "6%",
            "1.8x",
        ),
        (
            "Figure 15: Cross-Counter migration",
            MigrationScheme::CrossCounter,
            "4.9%",
            "1.5x",
        ),
    ] {
        println!("\n\n## {title}\n");
        let rows = migration_vs_perf(&mut h, &by_mpki, scheme);
        print_relative(title, &rows, p_ipc, p_ser);
    }

    // ---- Figures 16, 17 ------------------------------------------------
    println!("\n\n## Figures 16 and 17: program annotations\n");
    let mut f16 = Vec::new();
    let mut i16 = Vec::new();
    let mut s16 = Vec::new();
    let mut counts = Vec::new();
    for wl in &wls {
        let base = h.static_run(wl, PlacementPolicy::PerfFocused);
        let (run, set) = h.annotated_run(wl);
        let ipc_rel = run.ipc / base.ipc;
        let ser_red = base.ser_fit / run.ser_fit.max(f64::MIN_POSITIVE);
        i16.push(ipc_rel);
        s16.push(ser_red);
        counts.push(set.count() as f64);
        f16.push(vec![
            wl.name().to_string(),
            format!("{:.3}", ipc_rel),
            fmt_x(ser_red),
            set.count().to_string(),
            set.pinned.len().to_string(),
        ]);
    }
    print_table(
        "Figures 16/17 (vs perf-focused static)",
        &[
            "workload",
            "IPC vs perf",
            "SER reduction",
            "annotations",
            "pinned pages",
        ],
        &f16,
    );
    println!(
        "\nmean: IPC loss {:.1}% (paper: 1.1%), SER reduction {} (paper: 1.3x), annotations {:.1} (paper: ~8)",
        (1.0 - geomean_or_one(&i16)) * 100.0,
        fmt_x(geomean_or_one(&s16)),
        counts.iter().sum::<f64>() / counts.len().max(1) as f64
    );

    // ---- Table 3 summary ------------------------------------------------
    println!("\n\n## Table 3: summary\n");
    let mut t3 = Vec::new();
    for (name, policy, p_ipc, p_ser) in [
        (
            "Reliability-focused [5.1]",
            PlacementPolicy::RelFocused,
            "17%",
            "5.0x",
        ),
        ("Balanced [5.2]", PlacementPolicy::Balanced, "14%", "3.0x"),
        ("Wr ratio [5.4.1]", PlacementPolicy::WrRatio, "8.1%", "1.8x"),
        ("Wr2 ratio [5.4.2]", PlacementPolicy::Wr2Ratio, "1%", "1.6x"),
    ] {
        let r = static_vs_perf(&mut h, &wls, policy);
        let ipc = geomean_or_one(&r.iter().map(|x| x.ipc_rel).collect::<Vec<_>>());
        let ser = geomean_or_one(&r.iter().map(|x| x.ser_reduction).collect::<Vec<_>>());
        t3.push(vec![
            name.to_string(),
            format!("{:.1}% (paper {p_ipc})", (1.0 - ipc) * 100.0),
            format!("{} (paper {p_ser})", fmt_x(ser)),
        ]);
    }
    for (name, scheme, p_ipc, p_ser) in [
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
    ] {
        let r = migration_vs_perf(&mut h, &wls, scheme);
        let ipc = geomean_or_one(&r.iter().map(|x| x.ipc_rel).collect::<Vec<_>>());
        let ser = geomean_or_one(&r.iter().map(|x| x.ser_reduction).collect::<Vec<_>>());
        t3.push(vec![
            name.to_string(),
            format!("{:.1}% (paper {p_ipc})", (1.0 - ipc) * 100.0),
            format!("{} (paper {p_ser})", fmt_x(ser)),
        ]);
    }
    t3.push(vec![
        "Program annotations [7]".to_string(),
        format!("{:.1}% (paper 1.1%)", (1.0 - geomean_or_one(&i16)) * 100.0),
        format!("{} (paper 1.3x)", fmt_x(geomean_or_one(&s16))),
    ]);
    print_table(
        "Table 3: vs the respective performance-focused scheme",
        &["scheme", "IPC degradation", "SER improvement"],
        &t3,
    );

    // ---- Annotation selection detail (Figure 17 support) --------------
    println!("\n\n## Annotation detail (Figure 17 support)\n");
    let mut f17 = Vec::new();
    for wl in &wls {
        let profile = h.profile(wl);
        let set = select_annotations(
            wl,
            &profile.table,
            h.cfg.hbm_capacity_pages as usize,
            h.cfg.seed,
        );
        let names: Vec<String> = set
            .structures
            .iter()
            .take(4)
            .map(|(b, n)| format!("{b}::{n}"))
            .collect();
        f17.push(vec![
            wl.name().to_string(),
            set.count().to_string(),
            names.join(", "),
        ]);
    }
    print_table(
        "Selected structures (first four)",
        &["workload", "count", "structures"],
        &f17,
    );
    ramp_bench::finish(&h);
}
