//! Sweep execution: local (parallel, store-deduped) and remote
//! (fanned out through a running `ramp-served`).
//!
//! A local sweep hands all its points to [`resolve`] as one batch of
//! jobs — the one execution path the bench harness and the server use
//! too — so each point is keyed into the content-addressed run store, a
//! repeated or overlapping sweep re-simulates nothing, and each
//! missing DDR-only profile the points read is simulated once per
//! batch, with or without a store. A killed sweep resumes the same way:
//! completed points are already persisted, so re-running the sweep
//! re-executes only the missing ones and the final artifact bytes are
//! identical to an uninterrupted run.
//!
//! Chaos site `sweep.point` fires per simulation task (injected delays
//! and panics, under the executor's retry budget); results are collected
//! in point-enumeration order, so output is byte-identical at any thread
//! count.

use std::collections::BTreeMap;
use std::sync::Arc;

use ramp_core::config::SystemConfig;
use ramp_core::system::RunResult;
use ramp_serve::client::Client;
use ramp_serve::spec::{resolve, Job, Resolver, RunAction, RunSpec, Tier};
use ramp_serve::store::RunStore;
use ramp_sim::chaos::{self, Chaos};
use ramp_sim::exec::TaskOptions;

use crate::pareto::{self, Objective};
use crate::spec::{Strategy, SweepPoint, SweepSpec};

/// Chaos site rolled once per executed point task.
pub const SITE_POINT: &str = "sweep.point";

/// One evaluated sweep point: identity plus the metrics the artifact
/// records. Everything here is deterministic simulation output.
#[derive(Clone, Debug)]
pub struct PointRow {
    /// Workload name.
    pub workload: String,
    /// Policy/scheme label.
    pub policy: String,
    /// Run kind label (`profile`/`static`/`migration`/`annotated`).
    pub kind: String,
    /// Content-addressed store key.
    pub key: String,
    /// Knob-axis values of this point, in axis order.
    pub knobs: Vec<(&'static str, u64)>,
    /// Aggregate instructions per cycle.
    pub ipc: f64,
    /// Soft-error FIT rate of this placement (the AVF-weighted SER).
    pub ser_fit: f64,
    /// SER normalized to the DDR-only baseline.
    pub ser_vs_ddr_only: f64,
    /// L2 misses per kilo-instruction.
    pub mpki: f64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Demand accesses served by HBM.
    pub hbm_accesses: u64,
    /// Demand accesses served by DDR.
    pub ddr_accesses: u64,
    /// Pages migrated.
    pub migrations: u64,
}

impl PointRow {
    fn from_run(point: &SweepPoint, key: String, run: &RunResult) -> PointRow {
        PointRow {
            workload: run.workload.clone(),
            policy: run.policy.clone(),
            kind: point.spec.kind().label().to_string(),
            key,
            knobs: point.knobs.clone(),
            ipc: run.ipc,
            ser_fit: run.ser_fit,
            ser_vs_ddr_only: run.ser_vs_ddr_only(),
            mpki: run.mpki,
            cycles: run.cycles,
            instructions: run.instructions,
            hbm_accesses: run.hbm_accesses,
            ddr_accesses: run.ddr_accesses,
            migrations: run.migrations,
        }
    }

    /// Builds a row from the flat fields of a server run summary.
    fn from_fields(
        point: &SweepPoint,
        fields: &BTreeMap<String, String>,
    ) -> Result<PointRow, String> {
        let get = |k: &str| -> Result<&str, String> {
            fields
                .get(k)
                .map(String::as_str)
                .ok_or_else(|| format!("server summary missing field '{k}'"))
        };
        let f = |k: &str| -> Result<f64, String> {
            get(k)?
                .parse()
                .map_err(|_| format!("server summary field '{k}' not a number"))
        };
        let u = |k: &str| -> Result<u64, String> {
            get(k)?
                .parse()
                .map_err(|_| format!("server summary field '{k}' not an integer"))
        };
        Ok(PointRow {
            workload: get("workload")?.to_string(),
            policy: get("policy")?.to_string(),
            kind: point.spec.kind().label().to_string(),
            key: get("key")?.to_string(),
            knobs: point.knobs.clone(),
            ipc: f("ipc")?,
            ser_fit: f("ser_fit")?,
            ser_vs_ddr_only: f("ser_vs_ddr_only")?,
            mpki: f("mpki")?,
            cycles: u("cycles")?,
            instructions: u("instructions")?,
            hbm_accesses: u("hbm_accesses")?,
            ddr_accesses: u("ddr_accesses")?,
            migrations: u("migrations")?,
        })
    }

    /// Migration copy traffic normalized to runtime: pages migrated per
    /// million cycles (0 for static/profile runs).
    pub fn mig_pages_per_mcycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.migrations as f64 * 1.0e6 / self.cycles as f64
    }

    /// This row's position in objective space.
    pub fn objective(&self) -> Objective {
        Objective {
            ipc: self.ipc,
            ser_fit: self.ser_fit,
        }
    }
}

/// Volatile execution counters of one sweep run.
///
/// These distinguish warm from cold sweeps, so they go to the summary
/// line on stdout — never into the artifact, which must be
/// byte-identical across cold/warm/resumed runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepCounters {
    /// Points served straight from the run store.
    pub cached: u64,
    /// Points that had to be simulated (any rung).
    pub simulated: u64,
    /// DDR-only profiles simulated only because points read them.
    pub profile_sims: u64,
}

/// Per-rung statistics of a successive-halving sweep (deterministic:
/// pruning decisions depend only on simulation results).
#[derive(Clone, Copy, Debug)]
pub struct RungStat {
    /// Instruction-budget divisor of this rung (1 = full budget).
    pub divisor: u64,
    /// Points entering the rung.
    pub entered: usize,
    /// Non-dominated points surviving into the next rung.
    pub survivors: usize,
}

/// A completed sweep: evaluated rows, their dominance ranks, and the
/// volatile execution counters.
#[derive(Clone, Debug)]
pub struct SweepRun {
    /// Final evaluated points, in enumeration order.
    pub rows: Vec<PointRow>,
    /// Dominance rank of each row (0 = Pareto frontier).
    pub ranks: Vec<u32>,
    /// Rung statistics (empty unless the strategy was halving).
    pub rungs: Vec<RungStat>,
    /// Volatile cold/warm counters.
    pub counters: SweepCounters,
}

impl SweepRun {
    /// Indices of the frontier rows.
    pub fn frontier(&self) -> Vec<usize> {
        self.ranks
            .iter()
            .enumerate()
            .filter(|(_, r)| **r == 0)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Runs the sweep locally on `threads` workers, chaos-armed from the
/// process-wide `RAMP_CHAOS` registry.
pub fn run_local(
    spec: &SweepSpec,
    store: Option<&RunStore>,
    threads: usize,
) -> Result<SweepRun, String> {
    run_local_with(spec, store, threads, chaos::global())
}

/// [`run_local`] with an explicit chaos registry (tests inject faults
/// here without touching process environment).
pub fn run_local_with(
    spec: &SweepSpec,
    store: Option<&RunStore>,
    threads: usize,
    chaos: Option<Arc<Chaos>>,
) -> Result<SweepRun, String> {
    let mut points = spec.points()?;
    let mut counters = SweepCounters::default();
    let mut rungs = Vec::new();
    if spec.strategy == Strategy::Halving {
        for rung in 0..spec.rungs.saturating_sub(1) {
            let divisor = 1u64 << (spec.rungs - 1 - rung);
            let scaled: Vec<SweepPoint> = points
                .iter()
                .map(|p| {
                    let mut q = p.clone();
                    q.cfg.insts_per_core = (q.cfg.insts_per_core / divisor).max(1);
                    q
                })
                .collect();
            let rows = execute_points(&scaled, store, threads, chaos.clone(), &mut counters)?;
            let objectives: Vec<Objective> = rows.iter().map(|r| r.objective()).collect();
            let ranks = pareto::ranks(&objectives);
            let survivors: Vec<SweepPoint> = points
                .iter()
                .zip(ranks.iter())
                .filter(|(_, r)| **r == 0)
                .map(|(p, _)| p.clone())
                .collect();
            rungs.push(RungStat {
                divisor,
                entered: points.len(),
                survivors: survivors.len(),
            });
            points = survivors;
        }
    }
    let rows = execute_points(&points, store, threads, chaos, &mut counters)?;
    if spec.strategy == Strategy::Halving {
        rungs.push(RungStat {
            divisor: 1,
            entered: rows.len(),
            survivors: rows.len(),
        });
    }
    let objectives: Vec<Objective> = rows.iter().map(|r| r.objective()).collect();
    let ranks = pareto::ranks(&objectives);
    Ok(SweepRun {
        rows,
        ranks,
        rungs,
        counters,
    })
}

/// Executes one batch of points through [`resolve`]; returns rows in
/// point order or the joined failure messages (completed points stay
/// persisted, so a re-run resumes).
fn execute_points(
    points: &[SweepPoint],
    store: Option<&RunStore>,
    threads: usize,
    chaos: Option<Arc<Chaos>>,
    counters: &mut SweepCounters,
) -> Result<Vec<PointRow>, String> {
    let roll = |_: &SystemConfig, _: RunSpec| {
        if let Some(c) = &chaos {
            c.maybe_slow(SITE_POINT);
            c.maybe_panic(SITE_POINT);
        }
    };
    let resolver = Resolver {
        threads,
        opts: TaskOptions {
            retries: chaos.as_ref().map_or(0, |c| c.retries()),
            chaos: None, // the sweep rolls its own site
        },
        on_simulate: Some(&roll),
        ..Resolver::new(store)
    };
    let jobs: Vec<Job<'_>> = points.iter().map(|p| (&p.cfg, p.spec)).collect();
    // Each worker turns a run into its row before taking the next point.
    let resolution = resolve(&jobs, &resolver, None, |i, key, f| {
        PointRow::from_run(&points[i], key.to_string(), &f.run)
    });
    counters.profile_sims += resolution.profile_sims;
    let mut rows = Vec::with_capacity(points.len());
    let mut failures = Vec::new();
    for (point, outcome) in points.iter().zip(resolution.jobs) {
        match outcome {
            Ok(done) => {
                match done.tier {
                    Tier::Memo | Tier::Store => counters.cached += 1,
                    Tier::Simulated | Tier::Resumed => counters.simulated += 1,
                }
                rows.push(done.value);
            }
            Err(e) => failures.push(format!("{}: {e}", point.label())),
        }
    }
    if !failures.is_empty() {
        return Err(format!(
            "{} of {} point(s) failed (completed points are persisted; re-run the sweep to \
             resume): {}",
            failures.len(),
            points.len(),
            failures.join("; ")
        ));
    }
    Ok(rows)
}

/// Fans the sweep out to a running `ramp-served` through the batch
/// submit endpoint, `batch` specs per request.
///
/// Remote sweeps walk the policy×workload plane only: the server owns
/// its simulation config, so config-knob axes and the halving strategy
/// (which rescales budgets per rung) are rejected here. Metrics come
/// back through the same flat-JSON summaries the server persists, so a
/// remote sweep of a server sharing this process's config produces the
/// identical artifact.
pub fn run_remote(
    spec: &SweepSpec,
    client: &Client,
    batch: usize,
    timeout_ms: u64,
) -> Result<SweepRun, String> {
    if !spec.knobs.is_empty() {
        return Err(
            "remote sweeps cannot vary config knobs (the server owns its config); \
             drop the knob axes or run locally"
                .into(),
        );
    }
    if spec.strategy == Strategy::Halving {
        return Err(
            "the halving strategy rescales instruction budgets per rung; run locally".into(),
        );
    }
    let points = spec.points()?;
    let mut counters = SweepCounters::default();
    let mut rows: Vec<Option<PointRow>> = vec![None; points.len()];
    let mut failures = Vec::new();
    let batch = batch.max(1);
    for (chunk_idx, chunk) in points.chunks(batch).enumerate() {
        let specs: Vec<(String, String, String)> = chunk
            .iter()
            .map(|p| {
                let policy = match p.spec.action {
                    RunAction::Profile | RunAction::Annotated => String::new(),
                    _ => p.spec.policy_label(),
                };
                (
                    p.spec.workload.name().to_string(),
                    p.spec.kind().label().to_string(),
                    policy,
                )
            })
            .collect();
        let submits = client
            .submit_batch(&specs)
            .map_err(|e| format!("batch submit failed: {e}"))?;
        if submits.len() != chunk.len() {
            return Err(format!(
                "batch submit answered {} specs for {} submitted",
                submits.len(),
                chunk.len()
            ));
        }
        for (j, item) in submits.into_iter().enumerate() {
            let i = chunk_idx * batch + j;
            let point = &points[i];
            match item.state.as_str() {
                "done" => {
                    counters.cached += 1;
                    rows[i] = Some(PointRow::from_fields(point, &item.fields)?);
                }
                "queued" => {
                    let job = item
                        .job
                        .ok_or_else(|| format!("{}: queued without a job id", point.label()))?;
                    let response = client
                        .wait_done(job, timeout_ms)
                        .map_err(|e| format!("{}: {e}", point.label()))?;
                    match response.state() {
                        Some("done") => {
                            counters.simulated += 1;
                            rows[i] = Some(PointRow::from_fields(point, &response.fields)?);
                        }
                        other => failures.push(format!(
                            "{}: job {job} ended {}",
                            point.label(),
                            other.unwrap_or("unknown")
                        )),
                    }
                }
                other => failures.push(format!(
                    "{}: {}",
                    point.label(),
                    item.error.unwrap_or_else(|| format!("state '{other}'"))
                )),
            }
        }
    }
    if !failures.is_empty() {
        return Err(format!(
            "{} of {} point(s) failed remotely (the server keeps completed runs; re-run to \
             resume): {}",
            failures.len(),
            points.len(),
            failures.join("; ")
        ));
    }
    let rows: Vec<PointRow> = rows.into_iter().map(|r| r.expect("all filled")).collect();
    let objectives: Vec<Objective> = rows.iter().map(|r| r.objective()).collect();
    let ranks = pareto::ranks(&objectives);
    Ok(SweepRun {
        rows,
        ranks,
        rungs: Vec::new(),
        counters,
    })
}

/// The volatile one-line execution summary printed to stdout after a
/// sweep: point/cache/simulation counters plus the store handle's
/// hit/miss/write counters, so "a warm re-sweep performed zero
/// simulations" is assertable by grepping `simulated=0 profile_sims=0`.
pub fn summary_line(run: &SweepRun, store: Option<&RunStore>) -> String {
    let c = run.counters;
    let mut line = format!(
        "[sweep] points={} frontier={} cached={} simulated={} profile_sims={}",
        run.rows.len(),
        run.frontier().len(),
        c.cached,
        c.simulated,
        c.profile_sims,
    );
    if let Some(s) = store {
        use std::sync::atomic::Ordering;
        let m = s.metrics();
        line.push_str(&format!(
            " store_hits={} store_misses={} store_writes={}",
            m.hits.load(Ordering::Relaxed),
            m.misses.load(Ordering::Relaxed),
            m.writes.load(Ordering::Relaxed),
        ));
    }
    line
}
