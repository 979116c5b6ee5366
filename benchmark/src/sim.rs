//! `sim_static` and `sim_migrate`: cold sweeps through the simulator.
//!
//! Set-up opens a fresh run store and simulates the DDR-only profiles the
//! placements are chosen from (the profiling pass of the paper's
//! methodology). The timed phase then runs one `ramp-sweep run` worth of
//! work per operation — parse the spec, `engine::run_local` over the
//! store, render and write the artifact — on a two-point sweep (one
//! workload pair under one policy), cycling through the whole grid until
//! the time is up and the cycle is complete. Operations differ in cost by
//! up to 3x, so measuring whole cycles keeps every run's mix the same
//! wherever the time runs out. Every point is cold: each cycle goes to a
//! fresh store seeded with the set-up profiles.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use ramp_core::runner;
use ramp_core::system::{RunHooks, RunResult, SystemSim};
use ramp_serve::spec::{ckpt_epochs_from_env, RunAction, RunSpec, ENV_CKPT_EPOCHS};
use ramp_serve::store::{RunStore, ENV_STORE_DIR};
use ramp_sim::exec::parallel_map;
use ramp_sweep::artifact;
use ramp_sweep::engine::{run_local, PointRow, SweepCounters, SweepRun};
use ramp_sweep::pareto;
use ramp_sweep::spec::{SweepPoint, SweepSpec};

use crate::layers::{self, LayerTimes};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::median;
use crate::{digest48, Args, THREADS};

/// Instructions per core of every simulated point (scaled Table 1 system).
pub const INSTS: u64 = 1_000_000;
/// High- and low-MPKI workloads, footprints above and below the modelled
/// caches and HBM, in the pairs one operation sweeps.
pub const PAIRS: [[&str; 2]; 4] = [
    ["mcf", "lbm"],
    ["libquantum", "milc"],
    ["omnetpp", "gcc"],
    ["mix1", "mix3"],
];
/// Static placement columns. `static:ddr-only` stands in for the
/// profile column, which set-up has already simulated.
pub const STATIC_POLICIES: [&str; 8] = [
    "static:ddr-only",
    "perf-focused",
    "rel-focused",
    "balanced",
    "wr-ratio",
    "wr2-ratio",
    "frac-hottest-0.25",
    "frac-hottest-0.50",
];
/// Migration scheme columns.
pub const MIGRATION_POLICIES: [&str; 3] = [
    "migration:perf-fc",
    "migration:rel-fc",
    "migration:cross-counter",
];
/// Set-ups per run; the median is reported.
const SETUPS: usize = 3;

/// Which of the two simulation workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Static placements: no migration, no checkpoints.
    Static,
    /// Migration schemes with a checkpoint every epoch.
    Migrate,
}

impl Kind {
    fn policies(self) -> &'static [&'static str] {
        match self {
            Kind::Static => &STATIC_POLICIES,
            Kind::Migrate => &MIGRATION_POLICIES,
        }
    }

    /// The two `(workload, policy)` specs whose layers the traced pass
    /// replays: a high-MPKI and a low-MPKI workload.
    fn replayed(self) -> [(&'static str, &'static str); 2] {
        match self {
            Kind::Static => [("mcf", "perf-focused"), ("libquantum", "wr2-ratio")],
            Kind::Migrate => [
                ("mcf", "migration:rel-fc"),
                ("milc", "migration:cross-counter"),
            ],
        }
    }
}

/// The sweep spec of `workloads` under one policy; the seed is a config
/// axis, so it reaches `SystemConfig.seed` and the artifact records it.
fn spec_text(kind: Kind, seed: u64, workloads: &[&str], policy: &str) -> String {
    let list = |v: &[&str]| {
        v.iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let knobs = match kind {
        Kind::Static => "",
        Kind::Migrate => "fc_interval_cycles = [100000]\nmea_interval_cycles = [12500]\n",
    };
    format!(
        "[sweep]\nname = \"bench-{}\"\nbase = \"table1\"\ninsts = {INSTS}\n\n[axes]\n\
         workload = [{}]\npolicy = [\"{policy}\"]\nseed = [{seed}]\n{knobs}",
        match kind {
            Kind::Static => "static",
            Kind::Migrate => "migrate",
        },
        list(workloads),
    )
}

fn parse(kind: Kind, seed: u64, workloads: &[&str], policy: &str) -> Result<SweepSpec, String> {
    SweepSpec::parse(&spec_text(kind, seed, workloads, policy))
}

fn all_workloads() -> Vec<&'static str> {
    PAIRS.iter().flatten().copied().collect()
}

/// Opens the store at `dir` the way every RAMP binary does: through the
/// environment, naming only the directory.
fn open_store(dir: &Path) -> Result<RunStore, String> {
    std::env::set_var(ENV_STORE_DIR, dir);
    RunStore::from_env().ok_or_else(|| format!("cannot open a run store at {}", dir.display()))
}

/// Stores of one run: index 0 holds the set-up profiles; later ones are
/// fresh stores seeded with them.
struct Stores {
    work: PathBuf,
    list: Vec<RunStore>,
    profile_keys: Vec<String>,
}

impl Stores {
    fn fresh(&mut self) -> Result<usize, String> {
        let dir = self.work.join(format!("store-{}", self.list.len()));
        let store = open_store(&dir)?;
        for key in &self.profile_keys {
            let run = self.list[0]
                .load_run(key)
                .ok_or_else(|| format!("set-up profile {key} missing"))?;
            if !store.store_run(key, &run) {
                return Err(format!("copying profile {key} failed"));
            }
        }
        self.list.push(store);
        Ok(self.list.len() - 1)
    }
}

/// Builds the simulator of a static or migration point (the runner's
/// constructors, as `RunSpec::execute` calls them).
fn build_sim(point: &SweepPoint, profile: &RunResult) -> SystemSim {
    let (cfg, wl) = (&point.cfg, &point.spec.workload);
    match point.spec.action {
        RunAction::Static(p) => runner::build_static_sim(cfg, wl, p, &profile.table),
        RunAction::Migration(s) => runner::build_migration_sim(cfg, wl, s, &profile.table),
        _ => unreachable!("sweep operations are static or migration runs"),
    }
}

/// One timed operation: a cold two-point sweep.
struct Batch {
    label: String,
    spec: SweepSpec,
    store: usize,
    doc: String,
    secs: f64,
    points: usize,
    insts: u64,
}

/// Timings the traced pass collects around checkpoint and store calls.
#[derive(Default)]
struct CallTimes {
    ckpt_save_us: Vec<f64>,
    ckpt_write_us: Vec<f64>,
    run_write_ms: Vec<f64>,
}

/// Runs two-point sweeps in whole cycles of the grid until `seconds` of
/// them have run; starts on a fresh store. Traced, each point goes
/// through [`execute_traced`] instead of `run_local`.
fn timed_pass(
    kind: Kind,
    seed: u64,
    seconds: f64,
    stores: &mut Stores,
    out: &Path,
    traced: Option<(&Tracer, &Mutex<CallTimes>)>,
) -> Result<Vec<Batch>, String> {
    let policies = kind.policies();
    let cycle = policies.len() * PAIRS.len();
    let mut batches: Vec<Batch> = Vec::new();
    let mut store = stores.list.len() - 1;
    let mut elapsed = 0.0;
    let mut j = 0;
    while elapsed < seconds || j % cycle != 0 {
        if j > 0 && j % cycle == 0 {
            store = stores.fresh()?;
        }
        let (policy, pair) = (policies[j % cycle / PAIRS.len()], &PAIRS[j % PAIRS.len()]);
        let label = format!("{}+{} {policy}", pair[0], pair[1]);
        let start = Instant::now();
        let spec = parse(kind, seed, pair, policy)?;
        let run = match traced {
            None => run_local(&spec, Some(&stores.list[store]), THREADS)?,
            Some((tracer, calls)) => {
                let op = tracer.span("sweep.run", 0, j as u64);
                traced_sweep(&spec, &stores.list[store], tracer, op.id(), j as u64, calls)?
            }
        };
        let doc = artifact::render(&spec, &run);
        artifact::write_atomic(&out.join("artifact.json"), &doc, None)?;
        let secs = start.elapsed().as_secs_f64();
        elapsed += secs;
        eprintln!(
            "[bench] {} sweep {j} ({label}): {secs:.3} s, simulated {}",
            if traced.is_some() { "traced" } else { "timed" },
            run.counters.simulated
        );
        batches.push(Batch {
            label,
            store,
            points: run.rows.len(),
            insts: run.rows.iter().map(|r| r.instructions).sum(),
            doc,
            secs,
            spec,
        });
        j += 1;
    }
    Ok(batches)
}

/// The sweep engine's per-point work (`RunSpec::execute`: store lookup,
/// profile, build, run with checkpoints, store write), spelled out by
/// the benchmark so each call can carry a span.
fn execute_traced(
    point: &SweepPoint,
    store: &RunStore,
    tracer: &Tracer,
    parent: u64,
    req: u64,
    calls: &Mutex<CallTimes>,
) -> RunResult {
    let key = point.key();
    let cfg = &point.cfg;
    let wl = point.spec.workload;
    let hit = {
        let _s = tracer.span("serve.store.load_run", parent, req);
        store.load_run(&key)
    };
    if let Some(run) = hit {
        return run;
    }
    let profile_spec = RunSpec {
        workload: wl,
        action: RunAction::Profile,
    };
    let profile = {
        let _s = tracer.span("serve.store.load_profile", parent, req);
        store.load_run(&profile_spec.key(cfg))
    }
    .unwrap_or_else(|| {
        let _s = tracer.span("core.runner.profile", parent, req);
        profile_spec.execute(cfg, Some(store))
    });
    let every = ckpt_epochs_from_env();
    if every > 0 {
        let _s = tracer.span("serve.store.ckpt_probe", parent, req);
        std::hint::black_box(store.load_latest_checkpoint(&key));
    }
    let sim = {
        let _s = tracer.span("core.runner.build", parent, req);
        build_sim(point, &profile)
    };
    let run_span = tracer.span("core.system.run", parent, req);
    let epoch_at = Cell::new(Instant::now());
    let mut on_epoch = |_epoch: u64| epoch_at.set(Instant::now());
    let mut on_checkpoint = |epoch: u64, blob: Vec<u8>| {
        let saved = Instant::now();
        tracer.record(
            "core.system.ckpt_save",
            run_span.id(),
            req,
            epoch_at.get(),
            saved,
        );
        let s = tracer.span("serve.store.ckpt_write", run_span.id(), req);
        store.store_checkpoint(&key, epoch, &blob);
        drop(s);
        let mut c = calls.lock().expect("call times poisoned");
        c.ckpt_save_us
            .push((saved - epoch_at.get()).as_secs_f64() * 1e6);
        c.ckpt_write_us.push(saved.elapsed().as_secs_f64() * 1e6);
    };
    let run = sim.run_with_hooks(RunHooks {
        checkpoint_every: every,
        on_epoch: Some(&mut on_epoch),
        on_checkpoint: Some(&mut on_checkpoint),
    });
    drop(run_span);
    if every > 0 {
        let _s = tracer.span("serve.store.ckpt_remove", parent, req);
        store.remove_checkpoints(&key);
    }
    let start = Instant::now();
    {
        let _s = tracer.span("serve.store.run_write", parent, req);
        store.store_run(&key, &run);
    }
    calls
        .lock()
        .expect("call times poisoned")
        .run_write_ms
        .push(start.elapsed().as_secs_f64() * 1e3);
    run
}

/// One sweep of `spec` through [`execute_traced`] on the benchmark's own
/// two workers, with the engine's ranking and row layout.
fn traced_sweep(
    spec: &SweepSpec,
    store: &RunStore,
    tracer: &Tracer,
    parent: u64,
    req: u64,
    calls: &Mutex<CallTimes>,
) -> Result<SweepRun, String> {
    let points = {
        let _s = tracer.span("sweep.spec.points", parent, req);
        spec.points()?
    };
    let runs = parallel_map(THREADS, points.clone(), |_, p| {
        let s = tracer.span("sweep.point", parent, req);
        execute_traced(p, store, tracer, s.id(), req, calls)
    });
    let rows: Vec<PointRow> = points
        .iter()
        .zip(&runs)
        .map(|(p, run)| PointRow {
            workload: run.workload.clone(),
            policy: run.policy.clone(),
            kind: p.spec.kind().label().to_string(),
            key: p.key(),
            knobs: p.knobs.clone(),
            ipc: run.ipc,
            ser_fit: run.ser_fit,
            ser_vs_ddr_only: run.ser_vs_ddr_only(),
            mpki: run.mpki,
            cycles: run.cycles,
            instructions: run.instructions,
            hbm_accesses: run.hbm_accesses,
            ddr_accesses: run.ddr_accesses,
            migrations: run.migrations,
        })
        .collect();
    let ranks = {
        let _s = tracer.span("sweep.pareto.ranks", parent, req);
        let objectives: Vec<_> = rows.iter().map(|r| r.objective()).collect();
        pareto::ranks(&objectives)
    };
    Ok(SweepRun {
        counters: SweepCounters {
            cached: 0,
            simulated: rows.len() as u64,
            profile_sims: 0,
        },
        rows,
        ranks,
        rungs: Vec::new(),
    })
}

/// Runs `sim_static` or `sim_migrate` into `report`.
pub fn run(kind: Kind, args: &Args, report: &mut Report, tracer: &Tracer) -> Result<(), String> {
    let work = crate::sys::WorkDir::new(match kind {
        Kind::Static => "sim_static",
        Kind::Migrate => "sim_migrate",
    })
    .map_err(|e| format!("work dir: {e}"))?;
    let out = work.path().to_path_buf();

    // Set-up: a fresh store and the DDR-only profiles, several times.
    let workloads = all_workloads();
    let profile_spec = parse(kind, args.seed, &workloads, "profile")?;
    let profile_keys: Vec<String> = profile_spec.points()?.iter().map(|p| p.key()).collect();
    let mut setup_secs = Vec::new();
    let mut setup_store = None;
    for k in 0..SETUPS {
        let start = Instant::now();
        let store = open_store(&out.join(format!("setup-{k}")))?;
        let spec = parse(kind, args.seed, &workloads, "profile")?;
        let run = run_local(&spec, Some(&store), THREADS)?;
        setup_secs.push(start.elapsed().as_secs_f64());
        report.check(run.counters.simulated == workloads.len() as u64, || {
            format!("set-up simulated {} profiles", run.counters.simulated)
        });
        if setup_store.replace(store).is_some() {
            let _ = std::fs::remove_dir_all(out.join(format!("setup-{}", k - 1)));
        }
    }
    let mut stores = Stores {
        work: out.clone(),
        list: vec![setup_store.expect("at least one set-up")],
        profile_keys,
    };
    eprintln!("[bench] set-up: {setup_secs:.3?} s");
    report.set("setup_s", median(&setup_secs));

    if kind == Kind::Migrate {
        // Checkpoint every epoch, in this process only.
        std::env::set_var(ENV_CKPT_EPOCHS, "1");
    }
    stores.fresh()?;
    let batches = timed_pass(kind, args.seed, args.seconds, &mut stores, &out, None)?;
    let secs: f64 = batches.iter().map(|b| b.secs).sum();
    let points: usize = batches.iter().map(|b| b.points).sum();
    let insts: u64 = batches.iter().map(|b| b.insts).sum();
    let batch_ms: Vec<f64> = batches.iter().map(|b| b.secs * 1e3).collect();
    report.set("latency_ms_mean", secs * 1e3 / batches.len() as f64);
    report.set("peak_rss_mb", crate::sys::peak_rss_mb(None));
    report.set("sim_minst_per_s", insts as f64 / secs / 1e6);
    report.set("points_per_s", points as f64 / secs);
    report.set("sweep_s_p50", median(&batch_ms) / 1e3);
    report.set("sweep.count", batches.len() as f64);
    report.set(
        "sim.out_digest",
        digest48(batches.first().map_or("", |b| b.doc.as_str())),
    );

    // Check: a warm re-sweep of every column reproduces its artifact
    // byte-for-byte without simulating.
    for b in &batches {
        let warm = run_local(&b.spec, Some(&stores.list[b.store]), THREADS)?;
        let doc = artifact::render(&b.spec, &warm);
        report.check(
            warm.counters.simulated == 0 && warm.counters.profile_sims == 0 && doc == b.doc,
            || {
                format!(
                    "warm re-sweep of {} simulated {} (artifact identical: {})",
                    b.label,
                    warm.counters.simulated,
                    doc == b.doc
                )
            },
        );
    }

    if tracer.on() {
        let calls = Mutex::new(CallTimes::default());
        let start = Instant::now();
        stores.fresh()?;
        let traced = timed_pass(
            kind,
            args.seed,
            args.seconds,
            &mut stores,
            &out,
            Some((tracer, &calls)),
        )?;
        let wall = start.elapsed();
        if let Err(e) = tracer.check_self_times(wall.as_nanos() as u64) {
            report.check(false, || e);
        }
        let tsecs: f64 = traced.iter().map(|b| b.secs).sum();
        let tpoints: usize = traced.iter().map(|b| b.points).sum();
        report.set(
            "trace.overhead_frac",
            (points as f64 / secs) / (tpoints as f64 / tsecs) - 1.0,
        );
        for (t, b) in traced.iter().zip(&batches) {
            report.check(t.doc == b.doc, || {
                format!(
                    "traced sweep {} artifact differs from the untraced one",
                    t.label
                )
            });
        }
        let calls = calls.into_inner().expect("call times poisoned");
        report.set("core.system.ckpt_save_us", median(&calls.ckpt_save_us));
        report.set("serve.store.ckpt_write_us", median(&calls.ckpt_write_us));
        report.set("serve.store.run_write_ms", median(&calls.run_write_ms));
        replay_layers(kind, args.seed, &stores.list[0], report, tracer)?;
    }
    Ok(())
}

/// Integrated runs and layer replays of the two fixed specs: the
/// simulator's per-layer costs and the simulated statistics.
fn replay_layers(
    kind: Kind,
    seed: u64,
    store: &RunStore,
    report: &mut Report,
    tracer: &Tracer,
) -> Result<(), String> {
    let mut layers = LayerTimes::default();
    let mut run_ns = 0u64;
    let (mut insts, mut cycles) = (0u64, 0u64);
    let (mut mpki, mut hbm_rh, mut ddr_rh) = (0.0, 0.0, 0.0);
    let (mut migrations, mut pingpongs, mut intervals) = (0u64, 0u64, 0u64);
    let (mut ckpts, mut ckpt_bytes) = (0u64, 0u64);
    let mut restore_us = Vec::new();
    let every = ckpt_epochs_from_env();
    let specs = kind.replayed();
    for (wl_name, policy) in specs {
        let pair = PAIRS
            .iter()
            .find(|p| p.contains(&wl_name))
            .ok_or_else(|| format!("{wl_name} is not a benchmark workload"))?;
        let spec = parse(kind, seed, pair, policy)?;
        let point = spec
            .points()?
            .into_iter()
            .find(|p| p.spec.workload.name() == wl_name)
            .ok_or_else(|| format!("{wl_name} missing from its {policy} sweep"))?;
        let profile_key = RunSpec {
            workload: point.spec.workload,
            action: RunAction::Profile,
        }
        .key(&point.cfg);
        let profile = store
            .load_run(&profile_key)
            .ok_or_else(|| format!("profile of {wl_name} missing"))?;
        let op = tracer.span("core.replay.spec", 0, 0);
        let mut blobs: Vec<Vec<u8>> = Vec::new();
        let mut keep = |_epoch: u64, blob: Vec<u8>| blobs.push(blob);
        let sim = build_sim(&point, &profile);
        let start = Instant::now();
        let run = {
            let _s = tracer.span("core.system.run", op.id(), 0);
            sim.run_with_hooks(RunHooks {
                checkpoint_every: every,
                on_checkpoint: Some(&mut keep),
                ..RunHooks::default()
            })
        };
        run_ns += start.elapsed().as_nanos() as u64;
        layers::replay(
            &point.cfg,
            &point.spec.workload,
            point.spec.action,
            &profile.table,
            &run,
            &mut layers,
            tracer,
            op.id(),
        );
        for blob in blobs.iter().step_by((blobs.len() / 4).max(1)).take(4) {
            let mut fresh = build_sim(&point, &profile);
            let start = Instant::now();
            let restored = {
                let _s = tracer.span("core.system.restore", op.id(), 0);
                fresh.restore_state(blob)
            };
            restore_us.push(start.elapsed().as_secs_f64() * 1e6);
            report.check(restored.is_ok(), || {
                format!("checkpoint of {wl_name}/{policy} failed to restore")
            });
        }
        ckpts += blobs.len() as u64;
        ckpt_bytes += blobs.iter().map(|b| b.len() as u64).sum::<u64>();

        let t = &run.telemetry;
        let counter =
            |scope: &str, name: &str| t.get(scope, name).and_then(|s| s.as_counter()).unwrap_or(0);
        let ratio = |scope: &str, name: &str| {
            t.get(scope, name)
                .and_then(|s| s.as_ratio().or_else(|| s.as_gauge()))
                .unwrap_or(0.0)
        };
        insts += run.instructions;
        cycles += run.cycles;
        mpki += ratio("cache.l2", "mpki") / specs.len() as f64;
        hbm_rh += ratio("dram.hbm", "row_hit_ratio") / specs.len() as f64;
        ddr_rh += ratio("dram.ddr", "row_hit_ratio") / specs.len() as f64;
        migrations += counter("migration", "migrations");
        pingpongs += counter("migration", "pingpongs");
        intervals += counter("migration", "fc_intervals") + counter("migration", "mea_intervals");
    }
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    report.set("trace.records", layers.records as f64);
    report.set("trace.ns_per_record", per(layers.trace_ns, layers.records));
    report.set("cache.accesses", layers.cache_accesses as f64);
    report.set(
        "cache.ns_per_access",
        per(layers.cache_ns, layers.cache_accesses),
    );
    report.set(
        "core.pagemap.ns_per_lookup",
        per(layers.pagemap_ns, layers.lookups),
    );
    report.set("dram.requests", layers.dram_requests as f64);
    report.set(
        "dram.ns_per_request",
        per(layers.dram_ns, layers.dram_requests),
    );
    report.set("avf.ns_per_access", per(layers.avf_ns, layers.avf_accesses));
    report.set("avf.finish_ms", layers.avf_finish_ns as f64 / 1e6);
    report.set("core.system.run_s", run_ns as f64 / 1e9);
    report.set(
        "core.system.unattributed_share",
        1.0 - layers.total_ns() as f64 / run_ns as f64,
    );
    report.set("sim.instructions", insts as f64);
    report.set("sim.cycles", cycles as f64);
    report.set("cache.l2_mpki", mpki);
    report.set("dram.hbm.row_hit_ratio", hbm_rh);
    report.set("dram.ddr.row_hit_ratio", ddr_rh);
    report.set(
        "core.migration.ns_per_access",
        per(layers.mig_access_ns, layers.mig_accesses),
    );
    report.set("core.migration.intervals", intervals as f64);
    report.set(
        "core.migration.ms_per_interval",
        per(layers.mig_interval_ns, layers.mig_intervals) / 1e6,
    );
    report.set("core.migration.pages", migrations as f64);
    report.set(
        "core.migration.pingpong_ratio",
        if migrations == 0 {
            0.0
        } else {
            (migrations - pingpongs) as f64 / migrations as f64
        },
    );
    report.set("core.system.ckpt_count", ckpts as f64);
    report.set(
        "core.system.ckpt_bytes",
        if ckpts == 0 {
            0.0
        } else {
            ckpt_bytes as f64 / ckpts as f64
        },
    );
    report.set("core.system.ckpt_restore_us", median(&restore_us));
    Ok(())
}
