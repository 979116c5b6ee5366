//! High-level experiment orchestration: profiling passes, static
//! placements, dynamic migration runs and annotation runs.
//!
//! Every run but the profile is two steps. A placement step reads the
//! DDR-only profile's page statistics and reduces them to a small
//! [`Placement`]: the pages that start in HBM, plus the annotation set of
//! an annotated run. [`build_sim`] then builds the simulator from that
//! placement alone. Every paper experiment is some composition of these
//! functions; the `ramp-bench` binaries only choose workloads, policies
//! and formatting.

use std::collections::HashSet;

use ramp_avf::StatsTable;
use ramp_sim::units::PageId;
use ramp_trace::Workload;

use crate::annotate::{select_annotations, AnnotationSet};
use crate::config::SystemConfig;
use crate::migration::{MigrationEngine, MigrationScheme};
use crate::placement::PlacementPolicy;
use crate::system::{RunResult, SystemSim};

/// What a run reads of its profile: where its pages start.
#[derive(Clone, Debug, Default)]
pub struct Placement {
    /// The pages that start in HBM, ascending. There are at most
    /// `hbm_capacity_pages` of them, unless annotations pin more (the
    /// simulator then places them in order until HBM is full).
    pub hbm: Vec<PageId>,
    /// The annotation set of an annotated run, whose pages are pinned.
    pub annotations: Option<AnnotationSet>,
}

/// The placement of a static run under `policy`.
pub fn static_placement(
    cfg: &SystemConfig,
    policy: PlacementPolicy,
    profile: &StatsTable,
) -> Placement {
    Placement {
        hbm: ascending(policy.select(profile, cfg.hbm_capacity_pages as usize)),
        annotations: None,
    }
}

/// The placement a migration run starts from.
///
/// Cold-start is eliminated as in the paper (Sections 6.1/6.2): the run
/// starts from the matching static oracular placement — top-hot for the
/// performance-focused scheme, hot-and-low-risk for the reliability-aware
/// ones.
pub fn migration_placement(
    cfg: &SystemConfig,
    scheme: MigrationScheme,
    profile: &StatsTable,
) -> Placement {
    let capacity = cfg.hbm_capacity_pages as usize;
    let hbm = match scheme {
        MigrationScheme::PerfFc => {
            ascending(PlacementPolicy::PerfFocused.select(profile, capacity))
        }
        // "Top hot and low-risk pages from our static oracular placement"
        // (Section 6.2); spare capacity is topped up with the next-best
        // Wr2-ranked pages so HBM does not start idle.
        MigrationScheme::RelFc | MigrationScheme::CrossCounter => top_up(
            PlacementPolicy::Balanced.select(profile, capacity),
            capacity,
            || PlacementPolicy::Wr2Ratio.select(profile, capacity),
        ),
    };
    Placement {
        hbm,
        annotations: None,
    }
}

/// The placement of the annotation-based runs of Section 7:
/// profile-selected structures are pinned in HBM, and the remaining
/// capacity is filled with the hottest non-pinned pages, or, when a
/// migration `scheme` manages the rest, with hot-and-low-risk ones.
pub fn annotated_placement(
    cfg: &SystemConfig,
    workload: &Workload,
    profile: &StatsTable,
    scheme: Option<MigrationScheme>,
) -> Placement {
    let capacity = cfg.hbm_capacity_pages as usize;
    let annotations = select_annotations(workload, profile, capacity, cfg.seed);
    let fill = match scheme {
        None => PlacementPolicy::PerfFocused,
        Some(_) => PlacementPolicy::Balanced,
    };
    Placement {
        hbm: top_up(annotations.pinned.clone(), capacity, || {
            fill.select(profile, capacity)
        }),
        annotations: Some(annotations),
    }
}

/// `base` plus, while it holds fewer than `capacity` pages, the pages of
/// `ranking()` it lacks, lowest id first; ascending.
fn top_up(
    mut base: HashSet<PageId>,
    capacity: usize,
    ranking: impl FnOnce() -> HashSet<PageId>,
) -> Vec<PageId> {
    if base.len() < capacity {
        let mut extra: Vec<PageId> = ranking().difference(&base).copied().collect();
        extra.sort_unstable();
        extra.truncate(capacity - base.len());
        base.extend(extra);
    }
    ascending(base)
}

fn ascending(pages: HashSet<PageId>) -> Vec<PageId> {
    let mut pages: Vec<PageId> = pages.into_iter().collect();
    pages.sort_unstable();
    pages
}

/// Builds the simulator of a run labelled `label` that starts from
/// `placement`, without running it.
///
/// The builders are deterministic in their arguments, so a simulator
/// built twice from the same inputs is identical — which is what lets a
/// checkpoint ([`SystemSim::save_state`]) restore into a freshly built
/// instance and resume.
pub fn build_sim(
    cfg: &SystemConfig,
    workload: &Workload,
    label: impl Into<String>,
    placement: &Placement,
    engine: Option<MigrationEngine>,
) -> SystemSim {
    let pinned = placement
        .annotations
        .as_ref()
        .map_or_else(HashSet::new, |set| set.pinned.clone());
    SystemSim::new(cfg.clone(), workload, label, &placement.hbm, pinned, engine)
}

/// Builds the DDR-only profiling simulator without running it: nothing
/// starts in HBM.
pub fn build_profile_sim(cfg: &SystemConfig, workload: &Workload) -> SystemSim {
    let label = PlacementPolicy::DdrOnly.name();
    build_sim(cfg, workload, label, &Placement::default(), None)
}

/// Runs the workload on a DDR-only system and returns its page statistics
/// (the profiling pass that feeds every oracular placement — the paper's
/// Section 4.2 methodology).
pub fn profile_workload(cfg: &SystemConfig, workload: &Workload) -> RunResult {
    build_profile_sim(cfg, workload).run()
}

/// Builds the static-placement simulator without running it.
pub fn build_static_sim(
    cfg: &SystemConfig,
    workload: &Workload,
    policy: PlacementPolicy,
    profile: &StatsTable,
) -> SystemSim {
    let placement = static_placement(cfg, policy, profile);
    build_sim(cfg, workload, policy.name(), &placement, None)
}

/// Runs a static placement chosen by `policy` from profiling statistics.
pub fn run_static(
    cfg: &SystemConfig,
    workload: &Workload,
    policy: PlacementPolicy,
    profile: &StatsTable,
) -> RunResult {
    build_static_sim(cfg, workload, policy, profile).run()
}

/// Builds the dynamic-migration simulator without running it; it starts
/// from [`migration_placement`].
pub fn build_migration_sim(
    cfg: &SystemConfig,
    workload: &Workload,
    scheme: MigrationScheme,
    profile: &StatsTable,
) -> SystemSim {
    let placement = migration_placement(cfg, scheme, profile);
    let engine = Some(MigrationEngine::new(scheme));
    build_sim(cfg, workload, scheme.name(), &placement, engine)
}

/// Runs a dynamic migration scheme from [`migration_placement`].
pub fn run_migration(
    cfg: &SystemConfig,
    workload: &Workload,
    scheme: MigrationScheme,
    profile: &StatsTable,
) -> RunResult {
    build_migration_sim(cfg, workload, scheme, profile).run()
}

/// Runs the annotation-based placement of Section 7 with no migration.
///
/// Returns the run result together with the annotation set (whose
/// [`AnnotationSet::count`] is the Figure 17 metric).
pub fn run_annotated(
    cfg: &SystemConfig,
    workload: &Workload,
    profile: &StatsTable,
) -> (RunResult, AnnotationSet) {
    let placement = annotated_placement(cfg, workload, profile, None);
    let run = build_sim(cfg, workload, "annotations", &placement, None).run();
    (
        run,
        placement.annotations.expect("annotated placements pin"),
    )
}

/// The paper's Section 7 closing suggestion, implemented as an extension:
/// annotation-pinned structures *plus* a reliability-aware migration
/// mechanism managing the remaining capacity. Pinned pages are immune to
/// migration (the ELF loader marks them), while the engine adapts the rest.
pub fn run_annotated_with_migration(
    cfg: &SystemConfig,
    workload: &Workload,
    scheme: MigrationScheme,
    profile: &StatsTable,
) -> (RunResult, AnnotationSet) {
    let placement = annotated_placement(cfg, workload, profile, Some(scheme));
    let label = format!("annotations+{}", scheme.name());
    let engine = Some(MigrationEngine::new(scheme));
    let run = build_sim(cfg, workload, label, &placement, engine).run();
    (
        run,
        placement.annotations.expect("annotated placements pin"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramp_trace::Benchmark;

    #[test]
    fn full_pipeline_smoke() {
        let cfg = SystemConfig::smoke_test();
        let wl = Workload::Homogeneous(Benchmark::Libquantum);
        let profile = profile_workload(&cfg, &wl);
        assert!(profile.table.pages().len() > 100);

        let perf = run_static(&cfg, &wl, PlacementPolicy::PerfFocused, &profile.table);
        assert!(
            perf.ipc > profile.ipc,
            "HBM placement should beat DDR-only ({} vs {})",
            perf.ipc,
            profile.ipc
        );
        assert!(perf.ser_fit >= profile.ser_fit);

        let (ann, set) = run_annotated(&cfg, &wl, &profile.table);
        assert!(set.count() >= 1);
        assert!(ann.ipc > 0.0);
    }

    #[test]
    fn annotations_plus_migration_extension_runs() {
        let cfg = SystemConfig::smoke_test();
        let wl = Workload::Homogeneous(Benchmark::CactusADM);
        let profile = profile_workload(&cfg, &wl);
        let (run, set) =
            run_annotated_with_migration(&cfg, &wl, MigrationScheme::CrossCounter, &profile.table);
        assert!(run.ipc > 0.0);
        // Pinned pages must still be in HBM-heavy use and immune: at least
        // the annotations were applied.
        assert!(set.count() >= 1);
        assert!(run.policy.contains("annotations+cross-counter"));
    }
}
