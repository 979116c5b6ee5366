//! Golden digests of the whole run matrix at smoke config.
//!
//! Every action — the DDR-only profile, the 8 static placements, the 3
//! migration schemes and the annotated run — is resolved on three
//! workloads (a high-MPKI, a migration-heavy and a mixed one), and the
//! FNV-1a digest of each result's `encode_run` bytes is compared with
//! the committed `tests/golden/run_matrix.txt`. `encode_run` covers the
//! headline figures, the full telemetry snapshot and every per-page
//! table row, so a change to any layer that moves a single statistic of
//! a single run fails here with the run's name.
//!
//! Regenerating the golden file after an intentional change to the
//! simulated results:
//!
//! ```text
//! RAMP_BLESS=1 cargo test --test golden_runs
//! ```

use ramp::core::config::SystemConfig;
use ramp::core::migration::MigrationScheme;
use ramp::core::placement::PlacementPolicy;
use ramp::serve::spec::{resolve, Job, Resolver, RunAction, RunSpec};
use ramp::serve::wire::encode_run;
use ramp::sim::codec::fnv1a64;
use ramp::sim::exec::default_threads;
use ramp::trace::{Benchmark, MixId, Workload};

const GOLDEN_PATH: &str = "tests/golden/run_matrix.txt";

const WORKLOADS: [Workload; 3] = [
    Workload::Homogeneous(Benchmark::Mcf),
    Workload::Homogeneous(Benchmark::Libquantum),
    Workload::Mix(MixId::Mix1),
];

fn actions() -> Vec<RunAction> {
    let statics = [
        PlacementPolicy::DdrOnly,
        PlacementPolicy::PerfFocused,
        PlacementPolicy::RelFocused,
        PlacementPolicy::Balanced,
        PlacementPolicy::WrRatio,
        PlacementPolicy::Wr2Ratio,
        PlacementPolicy::FracHottest(0.25),
        PlacementPolicy::FracHottest(0.5),
    ];
    let schemes = [
        MigrationScheme::PerfFc,
        MigrationScheme::RelFc,
        MigrationScheme::CrossCounter,
    ];
    std::iter::once(RunAction::Profile)
        .chain(statics.into_iter().map(RunAction::Static))
        .chain(schemes.into_iter().map(RunAction::Migration))
        .chain(std::iter::once(RunAction::Annotated))
        .collect()
}

/// One `<kind>/<workload>/<policy> <digest>` line per run, in matrix
/// order.
fn render_digests() -> String {
    let cfg = SystemConfig::smoke_test();
    let specs: Vec<RunSpec> = WORKLOADS
        .iter()
        .flat_map(|&workload| {
            actions()
                .into_iter()
                .map(move |action| RunSpec { workload, action })
        })
        .collect();
    let jobs: Vec<Job<'_>> = specs.iter().map(|&spec| (&cfg, spec)).collect();
    let how = Resolver {
        threads: default_threads(),
        ..Resolver::new(None)
    };
    let resolution = resolve(&jobs, &how, None, |_, _, f| fnv1a64(&encode_run(&f.run)));
    let mut out = String::new();
    for (spec, r) in specs.iter().zip(resolution.jobs) {
        let digest = r.expect("smoke run failed").value;
        let kind = match spec.action {
            RunAction::Profile => "profile",
            RunAction::Static(_) => "static",
            RunAction::Migration(_) => "migration",
            RunAction::Annotated => "annotated",
        };
        out.push_str(&format!(
            "{kind}/{}/{} {digest:016x}\n",
            spec.workload.name(),
            spec.policy_label()
        ));
    }
    out
}

#[test]
fn run_matrix_digests_match_committed_golden() {
    let rendered = render_digests();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var("RAMP_BLESS").is_ok() {
        std::fs::write(&path, &rendered).expect("write golden file");
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with RAMP_BLESS=1 cargo test --test golden_runs",
            path.display()
        )
    });
    for (got, want) in rendered.lines().zip(golden.lines()) {
        assert_eq!(got, want, "a run's encode_run bytes changed");
    }
    assert_eq!(
        rendered.lines().count(),
        golden.lines().count(),
        "run matrix size changed"
    );
}
