//! The paper's evaluation as one ordered registry: one [`Section`] per
//! section of `all_experiments`' output, which is the only definition of
//! each table and figure.
//!
//! `all_experiments` renders every section; each single-figure binary
//! (`fig05_perf_static`, `table3_summary`, ...) renders the sections that
//! cover its figure, so its stdout is exactly its slice of the suite's.
//! Either way the pipeline is [`render`]: one [`Harness::prewarm`] over
//! the union of the sections' jobs, then each section formatted from the
//! harness memo in order, so stdout is byte-identical at any thread
//! count. Sections share no state: each reads the runs it needs itself.

use std::fmt::Write as _;

use ramp_avf::{
    hotness_avf_correlation, hottest_pages, writeratio_avf_correlation, Quadrant, QuadrantAnalysis,
};
use ramp_core::annotate::select_annotations;
use ramp_core::config::SystemConfig;
use ramp_core::hwcost;
use ramp_core::migration::MigrationScheme;
use ramp_core::placement::PlacementPolicy;
use ramp_faultsim::{run_monte_carlo, RasConfig};
use ramp_serve::spec::{Job, RunAction, RunSpec};
use ramp_sim::exec::{parallel_map, TaskOptions};
use ramp_sim::stats::Histogram;
use ramp_sim::SimRng;
use ramp_trace::{Benchmark, MixId, Workload};

use crate::{finish, fmt_pct, fmt_x, geomean_or_one, print_table, specs, workloads, Harness};

/// One section of the suite's output.
pub struct Section {
    /// Stable identifier (`fig07`, `table3`, ...).
    pub id: &'static str,
    /// The figures and tables the section covers: a single-figure binary
    /// renders every section whose list holds its tag.
    pub figures: &'static [&'static str],
    /// The section's `##` heading.
    pub heading: &'static str,
    /// Every typed run the section reads, resolved ahead of rendering.
    pub jobs: fn(&[Workload]) -> Vec<RunSpec>,
    /// Appends the section's body (everything after its heading).
    pub render: fn(&mut Harness, &[Workload], &mut String),
}

const MIX1: Workload = Workload::Mix(MixId::Mix1);

/// Figure 1's workloads, whose geomean traces the frontier.
const FRONTIER_WLS: [Workload; 3] = [
    Workload::Homogeneous(Benchmark::Astar),
    Workload::Homogeneous(Benchmark::CactusADM),
    MIX1,
];

/// Figure 1's placements: the frac-hottest sweep, then the
/// reliability-aware reference points.
const FRONTIER_POLICIES: [PlacementPolicy; 7] = [
    PlacementPolicy::FracHottest(0.0),
    PlacementPolicy::FracHottest(0.25),
    PlacementPolicy::FracHottest(0.5),
    PlacementPolicy::FracHottest(0.75),
    PlacementPolicy::FracHottest(1.0),
    PlacementPolicy::Wr2Ratio,
    PlacementPolicy::Balanced,
];

/// Figure 13's workloads: low, medium and high memory intensity.
const SWEEP_WLS: [Workload; 3] = [
    Workload::Homogeneous(Benchmark::Astar),
    MIX1,
    Workload::Homogeneous(Benchmark::Lbm),
];

const SWEEP_INTERVALS: [u64; 4] = [100_000, 200_000, 400_000, 1_600_000];

/// Each scheme against its performance-focused baseline, in Table 3's
/// order: the title of the figure's table, the Table 3 row, the scheme,
/// and the paper's mean IPC loss and SER reduction.
const VERSUS: [(&str, &str, RunAction, &str, &str); 7] = [
    (
        "Figure 7: reliability-focused static",
        "Reliability-focused [5.1]",
        RunAction::Static(PlacementPolicy::RelFocused),
        "17%",
        "5.0x",
    ),
    (
        "Figure 8: balanced static",
        "Balanced [5.2]",
        RunAction::Static(PlacementPolicy::Balanced),
        "14%",
        "3.0x",
    ),
    (
        "Figure 10: Wr-ratio static",
        "Wr ratio [5.4.1]",
        RunAction::Static(PlacementPolicy::WrRatio),
        "8.1%",
        "1.8x",
    ),
    (
        "Figure 11: Wr2-ratio static",
        "Wr2 ratio [5.4.2]",
        RunAction::Static(PlacementPolicy::Wr2Ratio),
        "1%",
        "1.6x",
    ),
    (
        "Figure 14: reliability-aware FC migration",
        "Reliability-aware FC [6.2]",
        RunAction::Migration(MigrationScheme::RelFc),
        "6%",
        "1.8x",
    ),
    (
        "Figure 15: Cross-Counter migration",
        "Cross Counters [6.4]",
        RunAction::Migration(MigrationScheme::CrossCounter),
        "4.9%",
        "1.5x",
    ),
    (
        "Figures 16/17 (vs perf-focused static)",
        "Program annotations [7]",
        RunAction::Annotated,
        "1.1%",
        "1.3x",
    ),
];

/// The section of the figure that plots `VERSUS[$i]`, its x-axis ordered
/// by MPKI.
macro_rules! versus_section {
    ($id:literal, $i:literal) => {
        Section {
            id: $id,
            figures: &[$id],
            heading: VERSUS[$i].0,
            jobs: |wls| [profiles(wls), versus_jobs(wls, $i)].concat(),
            render: |h, wls, out| versus_figure(h, wls, out, $i),
        }
    };
}

/// Every section, in the suite's output order.
pub static SECTIONS: &[Section] = &[
    Section {
        id: "faultsim",
        figures: &["faultsim"],
        heading: "FaultSim calibration (Section 3.2)",
        jobs: |_| Vec::new(),
        render: faultsim,
    },
    Section {
        id: "hwcost",
        figures: &["hwcost"],
        heading: "Hardware cost (Sections 6.3/6.4.2)",
        jobs: |_| Vec::new(),
        render: hw_cost,
    },
    Section {
        id: "fig02",
        figures: &["fig02"],
        heading: "Figure 2: mean memory AVF (DDR-only)",
        jobs: profiles,
        render: fig02,
    },
    Section {
        id: "fig04",
        figures: &["fig04"],
        heading: "Figure 4: hotness-risk quadrants",
        jobs: profiles,
        render: fig04,
    },
    Section {
        id: "fig06+09",
        figures: &["fig06", "fig09"],
        heading: "Figures 6 and 9: mix1 correlations",
        jobs: |_| profiles(&[MIX1]),
        render: fig06_09,
    },
    Section {
        id: "fig05",
        figures: &["fig05"],
        heading: "Figure 5: performance-focused static placement",
        jobs: |wls| {
            specs(
                wls,
                &[
                    RunAction::Profile,
                    RunAction::Static(PlacementPolicy::PerfFocused),
                ],
            )
        },
        render: fig05,
    },
    Section {
        id: "fig01",
        figures: &["fig01"],
        heading: "Figure 1: frontier (astar+cactusADM+mix1)",
        jobs: |_| {
            let static_runs = specs(&FRONTIER_WLS, &FRONTIER_POLICIES.map(RunAction::Static));
            [profiles(&FRONTIER_WLS), static_runs].concat()
        },
        render: fig01,
    },
    versus_section!("fig07", 0),
    versus_section!("fig08", 1),
    versus_section!("fig10", 2),
    versus_section!("fig11", 3),
    Section {
        id: "fig12",
        figures: &["fig12"],
        heading: "Figure 12: performance-focused migration",
        jobs: |wls| {
            specs(
                wls,
                &[
                    RunAction::Profile,
                    RunAction::Migration(MigrationScheme::PerfFc),
                ],
            )
        },
        render: fig12,
    },
    Section {
        id: "fig13",
        figures: &["fig13"],
        heading: "Figure 13: FC-interval sweep",
        jobs: |_| profiles(&SWEEP_WLS),
        render: fig13,
    },
    versus_section!("fig14", 4),
    versus_section!("fig15", 5),
    Section {
        id: "fig16+17",
        figures: &["fig16", "fig17"],
        heading: "Figures 16 and 17: program annotations",
        jobs: |wls| versus_jobs(wls, 6),
        render: fig16_17,
    },
    Section {
        id: "table3",
        figures: &["table3"],
        heading: "Table 3: summary",
        jobs: |wls| {
            (0..VERSUS.len())
                .flat_map(|i| versus_jobs(wls, i))
                .collect()
        },
        render: table3,
    },
    Section {
        id: "annotations",
        figures: &["fig17"],
        heading: "Annotation detail (Figure 17 support)",
        jobs: profiles,
        render: annotation_detail,
    },
];

/// The `main` of `all_experiments` (`figure` = `None`) and of every
/// single-figure binary: renders the sections covering `figure` to
/// stdout, then the [`finish`] epilogue.
pub fn run(figure: Option<&str>) {
    let mut h = Harness::new();
    let sections: Vec<&Section> = SECTIONS
        .iter()
        .filter(|s| figure.is_none_or(|f| s.figures.contains(&f)))
        .collect();
    assert!(!sections.is_empty(), "no section covers {figure:?}");
    render(&mut h, &workloads(), &sections, |text| print!("{text}"));
    finish(&h);
}

/// Resolves the jobs of all `sections` in one [`Harness::prewarm`], then
/// renders the sections in order, handing each one's text (heading
/// included) to `emit`.
pub fn render(
    h: &mut Harness,
    wls: &[Workload],
    sections: &[&Section],
    mut emit: impl FnMut(&str),
) {
    let mut jobs: Vec<RunSpec> = Vec::new();
    for spec in sections.iter().flat_map(|s| (s.jobs)(wls)) {
        if !jobs.contains(&spec) {
            jobs.push(spec);
        }
    }
    h.prewarm(&jobs);
    for section in sections {
        let mut out = format!("\n\n## {}\n\n", section.heading);
        (section.render)(h, wls, &mut out);
        emit(&out);
    }
}

fn profiles(wls: &[Workload]) -> Vec<RunSpec> {
    specs(wls, &[RunAction::Profile])
}

/// A comparison row: IPC and SER relative to the performance-focused
/// scheme of the same kind (how Figures 7-11 and 14-16 are normalized).
struct RelativeRow {
    /// Workload name.
    workload: String,
    /// IPC of the scheme divided by perf-focused IPC.
    ipc_rel: f64,
    /// SER reduction factor: perf-focused SER divided by the scheme's SER.
    ser_reduction: f64,
}

/// Appends relative rows plus their means to `out`, paper-style.
fn print_relative(
    out: &mut String,
    title: &str,
    rows: &[RelativeRow],
    paper_ipc_loss: &str,
    paper_ser: &str,
) {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                format!("{:.3}", r.ipc_rel),
                fmt_x(r.ser_reduction),
            ]
        })
        .collect();
    print_table(
        out,
        title,
        &["workload", "IPC vs perf-focused", "SER reduction"],
        &data,
    );
    let (ipc_mean, ser_mean) = means(rows);
    let _ = writeln!(
        out,
        "\nmean: IPC loss {:.1}% (paper: {paper_ipc_loss}), SER reduction {} (paper: {paper_ser})",
        (1.0 - ipc_mean) * 100.0,
        fmt_x(ser_mean),
    );
}

/// The performance-focused scheme `action` is normalized to: perf-FC
/// migration for a migration run, perf-focused static placement for any
/// other.
fn perf_baseline(action: RunAction) -> RunAction {
    match action {
        RunAction::Migration(_) => RunAction::Migration(MigrationScheme::PerfFc),
        _ => RunAction::Static(PlacementPolicy::PerfFocused),
    }
}

/// Runs `action` against its performance-focused baseline over `wls`.
fn versus_perf(h: &mut Harness, wls: &[Workload], action: RunAction) -> Vec<RelativeRow> {
    wls.iter()
        .map(|&wl| {
            let base = &h.get(wl, perf_baseline(action)).run;
            let (ipc, ser_fit) = (base.ipc, base.ser_fit);
            let run = &h.get(wl, action).run;
            RelativeRow {
                workload: wl.name().to_string(),
                ipc_rel: run.ipc / ipc,
                ser_reduction: ser_fit / run.ser_fit.max(f64::MIN_POSITIVE),
            }
        })
        .collect()
}

/// The geomean IPC ratio and SER reduction of `rows`.
fn means(rows: &[RelativeRow]) -> (f64, f64) {
    let (ipc, ser): (Vec<f64>, Vec<f64>) =
        rows.iter().map(|r| (r.ipc_rel, r.ser_reduction)).unzip();
    (geomean_or_one(&ipc), geomean_or_one(&ser))
}

/// The runs `VERSUS[i]` compares: its scheme and that scheme's baseline.
fn versus_jobs(wls: &[Workload], i: usize) -> Vec<RunSpec> {
    let action = VERSUS[i].2;
    specs(wls, &[perf_baseline(action), action])
}

/// FaultSim's two Monte Carlos: independent tasks on decorrelated child
/// streams of the root seed.
fn faultsim(h: &mut Harness, _: &[Workload], out: &mut String) {
    let root = SimRng::from_seed(2018);
    let mc = parallel_map(
        h.threads.min(2),
        vec![
            ("hbm", RasConfig::hbm_secded()),
            ("ddr", RasConfig::ddr_chipkill()),
        ],
        |_, (label, ras)| run_monte_carlo(ras, 500_000, &mut root.child(label)),
    );
    let rows: Vec<Vec<String>> = [("HBM / SEC-DED", 3), ("DDR / ChipKill", 5)]
        .iter()
        .zip(&mc)
        .map(|(&(memory, digits), o)| {
            vec![
                memory.into(),
                o.faults.to_string(),
                o.corrected.to_string(),
                o.detected_ue.to_string(),
                o.silent_ue.to_string(),
                format!("{:.digits$}", o.fit_uncorrected_per_gb()),
            ]
        })
        .collect();
    print_table(
        out,
        "FaultSim Monte Carlo",
        &[
            "memory",
            "faults",
            "corrected",
            "DUE",
            "SDC",
            "uncorrected FIT/GB",
        ],
        &rows,
    );
}

fn hw_cost(_: &mut Harness, _: &[Workload], out: &mut String) {
    let rows = [
        (
            "rel-aware FC total",
            hwcost::reliability_fc_bytes(),
            "8.5 MB",
        ),
        (
            "rel-aware FC extra",
            hwcost::reliability_fc_extra_bytes(),
            "4.25 MB",
        ),
        (
            "CC risk counters",
            hwcost::cc_risk_counter_bytes(),
            "512 KB",
        ),
        ("CC total", hwcost::cross_counter_total_bytes(), "676 KB"),
    ];
    print_table(
        out,
        "Tracking storage at full scale",
        &["mechanism", "measured", "paper"],
        &rows.map(|(name, bytes, paper)| {
            vec![name.into(), hwcost::human_bytes(bytes), paper.into()]
        }),
    );
}

fn fig02(h: &mut Harness, wls: &[Workload], out: &mut String) {
    let mut avf_rows: Vec<(f64, String)> = wls
        .iter()
        .map(|wl| (h.profile(wl).table.mean_avf(), wl.name().to_string()))
        .collect();
    avf_rows.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    print_table(
        out,
        "Figure 2 (increasing order; paper: 1.7% astar .. 22.5% milc)",
        &["workload", "mean AVF"],
        &avf_rows
            .iter()
            .map(|(a, n)| vec![n.clone(), format!("{:.2}%", a * 100.0)])
            .collect::<Vec<_>>(),
    );
}

fn fig04(h: &mut Harness, wls: &[Workload], out: &mut String) {
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
        out,
        "Figure 4 (paper: hot&low spans 9%-39%; lbm the outlier)",
        &["workload", "hot&low", "hot&high", "cold&low", "cold&high"],
        &rows,
    );
}

fn fig06_09(h: &mut Harness, _: &[Workload], out: &mut String) {
    let r = h.profile(&MIX1);
    let hot = hottest_pages(&r.table);
    let take = hot.len().min(1000);
    let lo = hot[..take].iter().map(|s| s.avf).fold(f64::MAX, f64::min);
    let hi = hot[..take].iter().map(|s| s.avf).fold(0.0f64, f64::max);
    let _ = writeln!(
        out,
        "top-1000 hot pages AVF range: {:.1}%..{:.1}% (paper: ~5%..~90%)",
        lo * 100.0,
        hi * 100.0
    );
    let _ = writeln!(
        out,
        "hotness-AVF correlation: {:.3} (paper: 0.08)",
        hotness_avf_correlation(&r.table).unwrap_or(f64::NAN)
    );
    let _ = writeln!(
        out,
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
        out,
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

fn fig05(h: &mut Harness, wls: &[Workload], out: &mut String) {
    let mut f5 = Vec::new();
    let mut ipcs = Vec::new();
    let mut sers = Vec::new();
    for wl in wls {
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
        out,
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
    let _ = writeln!(
        out,
        "\nmean: IPC {} (paper: 1.6x), SER {} (paper: 287x)",
        fmt_x(geomean_or_one(&ipcs)),
        fmt_x(geomean_or_one(&sers))
    );
}

fn fig01(h: &mut Harness, _: &[Workload], out: &mut String) {
    let mut f1 = Vec::new();
    for policy in FRONTIER_POLICIES {
        let mut i = Vec::new();
        let mut s = Vec::new();
        for wl in &FRONTIER_WLS {
            let ddr = h.profile(wl);
            let r = h.static_run(wl, policy);
            i.push(r.ipc / ddr.ipc);
            s.push(r.ser_vs_ddr_only());
        }
        let label = match policy {
            PlacementPolicy::FracHottest(frac) => format!("{:.0}% of HBM", frac * 100.0),
            other => other.name(),
        };
        f1.push(vec![
            label,
            fmt_x(geomean_or_one(&i)),
            fmt_x(geomean_or_one(&s)),
        ]);
    }
    print_table(
        out,
        "Figure 1",
        &["placement", "IPC vs DDR-only", "SER vs DDR-only"],
        &f1,
    );
}

/// `VERSUS[i]`'s figure, its x-axis ordered by decreasing MPKI.
fn versus_figure(h: &mut Harness, wls: &[Workload], out: &mut String, i: usize) {
    let (title, _, action, p_ipc, p_ser) = VERSUS[i];
    let by_mpki = h.workloads_by_mpki(wls);
    print_relative(out, title, &versus_perf(h, &by_mpki, action), p_ipc, p_ser);
}

fn fig12(h: &mut Harness, wls: &[Workload], out: &mut String) {
    let mut f12 = Vec::new();
    let mut i12 = Vec::new();
    let mut s12 = Vec::new();
    for wl in wls {
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
        out,
        "Figure 12",
        &["workload", "IPC boost", "SER vs DDR-only", "migrations"],
        &f12,
    );
    let _ = writeln!(
        out,
        "\nmean: IPC {} (paper: 1.52x), SER {} (paper: 268x)",
        fmt_x(geomean_or_one(&i12)),
        fmt_x(geomean_or_one(&s12))
    );
}

/// The perf-FC migration IPC of each of [`SWEEP_WLS`] at each of
/// [`SWEEP_INTERVALS`]. Each point is a job under its own config: the
/// points resolve in one call through the memo and the store, without
/// retries or injected faults like the single-run getters, and stay out
/// of the telemetry document; a point that cannot be produced panics.
fn fig13(h: &mut Harness, _: &[Workload], out: &mut String) {
    let cfgs: Vec<SystemConfig> = SWEEP_INTERVALS
        .iter()
        .map(|&fc_interval_cycles| SystemConfig {
            fc_interval_cycles,
            ..h.cfg.clone()
        })
        .collect();
    let action = RunAction::Migration(MigrationScheme::PerfFc);
    let jobs: Vec<Job<'_>> = SWEEP_WLS
        .iter()
        .flat_map(|&workload| {
            cfgs.iter()
                .map(move |cfg| (cfg, RunSpec { workload, action }))
        })
        .collect();
    let ipcs: Vec<String> = h
        .resolve(&jobs, TaskOptions::none())
        .into_iter()
        .map(|key| match key {
            Some(k) => format!("{:.3}", h.memo[&k].run.ipc),
            None => panic!("{}", h.failures.last().cloned().unwrap_or_default()),
        })
        .collect();
    let f13: Vec<Vec<String>> = SWEEP_WLS
        .iter()
        .zip(ipcs.chunks(SWEEP_INTERVALS.len()))
        .map(|(wl, ipcs)| [&[wl.name().to_string()], ipcs].concat())
        .collect();
    print_table(
        out,
        "Figure 13 (IPC per FC interval; paper: 100 ms = our 400k-cycle default is best)",
        &["workload", "100k", "200k", "400k (default)", "1.6M"],
        &f13,
    );
}

fn fig16_17(h: &mut Harness, wls: &[Workload], out: &mut String) {
    let rows = versus_perf(h, wls, RunAction::Annotated);
    let mut f16 = Vec::new();
    let mut counts = Vec::new();
    for (wl, row) in wls.iter().zip(&rows) {
        let (_, set) = h.annotated_run(wl);
        counts.push(set.count() as f64);
        f16.push(vec![
            wl.name().to_string(),
            format!("{:.3}", row.ipc_rel),
            fmt_x(row.ser_reduction),
            set.count().to_string(),
            set.pinned.len().to_string(),
        ]);
    }
    print_table(
        out,
        VERSUS[6].0,
        &[
            "workload",
            "IPC vs perf",
            "SER reduction",
            "annotations",
            "pinned pages",
        ],
        &f16,
    );
    let (ipc, ser) = means(&rows);
    let _ = writeln!(
        out,
        "\nmean: IPC loss {:.1}% (paper: 1.1%), SER reduction {} (paper: 1.3x), annotations {:.1} (paper: ~8)",
        (1.0 - ipc) * 100.0,
        fmt_x(ser),
        counts.iter().sum::<f64>() / counts.len().max(1) as f64
    );
}

fn table3(h: &mut Harness, wls: &[Workload], out: &mut String) {
    let t3: Vec<Vec<String>> = VERSUS
        .iter()
        .map(|&(_, name, action, p_ipc, p_ser)| {
            let (ipc, ser) = means(&versus_perf(h, wls, action));
            vec![
                name.to_string(),
                format!("{:.1}% (paper {p_ipc})", (1.0 - ipc) * 100.0),
                format!("{} (paper {p_ser})", fmt_x(ser)),
            ]
        })
        .collect();
    print_table(
        out,
        "Table 3: vs the respective performance-focused scheme",
        &["scheme", "IPC degradation", "SER improvement"],
        &t3,
    );
}

fn annotation_detail(h: &mut Harness, wls: &[Workload], out: &mut String) {
    let mut f17 = Vec::new();
    for wl in wls {
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
        out,
        "Selected structures (first four)",
        &["workload", "count", "structures"],
        &f17,
    );
}
