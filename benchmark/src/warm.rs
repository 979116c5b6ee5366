//! `warm_sweep`: repeated sweeps answered entirely from the run store.
//!
//! Set-up runs a 288-point grid cold into a fresh store. The timed phase
//! repeats the work of one `ramp-sweep run` invocation over that grid —
//! parse the spec, open the store, `engine::run_local` (zero
//! simulations), render and write the artifact — so its time is store
//! reads, wire decoding, Pareto ranking and artifact rendering.

use std::time::Instant;

use ramp_serve::store::{RunKind, RunStore, ENV_STORE_DIR};
use ramp_serve::wire;
use ramp_sweep::artifact;
use ramp_sweep::engine::run_local;
use ramp_sweep::pareto;
use ramp_sweep::spec::SweepSpec;

use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::median;
use crate::{digest48, Args, THREADS};

/// Instructions per core of every grid point (smoke base: 4 cores).
pub const INSTS: u64 = 20_000;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 3;

/// The warm grid: 12 workloads × 12 policies (every static family, the
/// three migration schemes, annotated) × 2 FC intervals.
fn spec_text(seed: u64) -> String {
    format!(
        "[sweep]\nname = \"bench-warm\"\nbase = \"smoke\"\ninsts = {INSTS}\n\n[axes]\n\
         workload = [\"mcf\", \"lbm\", \"libquantum\", \"milc\", \"omnetpp\", \"gcc\", \"mix1\", \
         \"mix3\", \"astar\", \"soplex\", \"sphinx\", \"mix2\"]\n\
         policy = [\"profile\", \"perf-focused\", \"rel-focused\", \"balanced\", \"wr-ratio\", \
         \"wr2-ratio\", \"frac-hottest-0.25\", \"frac-hottest-0.50\", \"migration:perf-fc\", \
         \"migration:rel-fc\", \"migration:cross-counter\", \"annotated\"]\n\
         seed = [{seed}]\nfc_interval_cycles = [60000, 30000]\n"
    )
}

fn open_store() -> Result<RunStore, String> {
    RunStore::from_env().ok_or_else(|| "cannot open the run store".to_string())
}

/// Runs `warm_sweep` into `report`.
pub fn run(args: &Args, report: &mut Report, tracer: &Tracer) -> Result<(), String> {
    let work = crate::sys::WorkDir::new("warm_sweep").map_err(|e| format!("work dir: {e}"))?;
    let text = spec_text(args.seed);
    let out = work.path().join("SWEEP_bench-warm.json");

    let mut setup_secs = Vec::new();
    let mut reference = String::new();
    for k in 0..SETUPS {
        let dir = work.path().join(format!("store-{k}"));
        std::env::set_var(ENV_STORE_DIR, &dir);
        let start = Instant::now();
        let spec = SweepSpec::parse(&text)?;
        let store = open_store()?;
        let run = run_local(&spec, Some(&store), THREADS)?;
        let doc = artifact::render(&spec, &run);
        artifact::write_atomic(&out, &doc, None)?;
        setup_secs.push(start.elapsed().as_secs_f64());
        report.check(run.counters.cached == 0, || {
            format!("cold set-up found {} points cached", run.counters.cached)
        });
        if k > 0 {
            report.check(doc == reference, || {
                "set-ups of one seed rendered different artifacts".into()
            });
            let _ = std::fs::remove_dir_all(work.path().join(format!("store-{}", k - 1)));
        }
        reference = doc;
    }
    eprintln!("[bench] set-up: {setup_secs:.3?} s");
    report.set("setup_s", median(&setup_secs));

    let sweep = |tracer: &Tracer, report: &mut Report| -> Result<Vec<f64>, String> {
        let mut secs = Vec::new();
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < args.seconds {
            let req = secs.len() as u64;
            let op = tracer.span("sweep.run", 0, req);
            let parent = op.id();
            let start = Instant::now();
            let spec = {
                let _s = tracer.span("sweep.spec.parse", parent, req);
                SweepSpec::parse(&text)?
            };
            let store = {
                let _s = tracer.span("serve.store.open", parent, req);
                open_store()?
            };
            let run = {
                let _s = tracer.span("sweep.engine.run_local", parent, req);
                run_local(&spec, Some(&store), THREADS)?
            };
            let doc = {
                let _s = tracer.span("sweep.artifact.render", parent, req);
                artifact::render(&spec, &run)
            };
            {
                let _s = tracer.span("sweep.artifact.write", parent, req);
                artifact::write_atomic(&out, &doc, None)?;
            }
            secs.push(start.elapsed().as_secs_f64());
            drop(op);
            report.check(
                run.counters.simulated == 0 && run.counters.profile_sims == 0 && doc == reference,
                || {
                    format!(
                        "warm sweep {req} simulated {} (artifact identical: {})",
                        run.counters.simulated,
                        doc == reference
                    )
                },
            );
        }
        Ok(secs)
    };

    let secs = sweep(&Tracer::new(false), report)?;
    let total: f64 = secs.iter().sum();
    let points = SweepSpec::parse(&text)?.points()?.len();
    eprintln!(
        "[bench] {} warm sweeps of {points} points, median {:.3} s",
        secs.len(),
        median(&secs)
    );
    report.set("latency_ms_mean", total * 1e3 / secs.len() as f64);
    report.set("peak_rss_mb", crate::sys::peak_rss_mb(None));
    report.set("points_per_s", (secs.len() * points) as f64 / total);
    report.set("sweep_s_p50", median(&secs));
    report.set("sweep.count", secs.len() as f64);
    report.set("sim.out_digest", digest48(&reference));

    if tracer.on() {
        let start = Instant::now();
        let traced = sweep(tracer, report)?;
        if let Err(e) = tracer.check_self_times(start.elapsed().as_nanos() as u64) {
            report.check(false, || e);
        }
        report.set("trace.overhead_frac", median(&traced) / median(&secs) - 1.0);
        let p50 = |name: &str| median(&tracer.durations_ms(name));
        report.set("serve.store.open_ms", p50("serve.store.open"));
        report.set("sweep.artifact.render_ms", p50("sweep.artifact.render"));
        report.set("sweep.artifact.write_ms", p50("sweep.artifact.write"));
        probe_store(&text, report, tracer)?;
    }
    Ok(())
}

/// One sweep's store and engine work, call by call: enumerate points,
/// load every entry (and, file-backed, read and decode its bytes
/// separately), rank.
fn probe_store(text: &str, report: &mut Report, tracer: &Tracer) -> Result<(), String> {
    let op = tracer.span("sweep.probe", 0, 0);
    let spec = SweepSpec::parse(text)?;
    let start = Instant::now();
    let points = {
        let _s = tracer.span("sweep.spec.points", op.id(), 0);
        spec.points()?
    };
    report.set("sweep.spec.points_ms", start.elapsed().as_secs_f64() * 1e3);
    let store = open_store()?;
    let (mut load_us, mut read_us, mut decode_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes = 0u64;
    let mut rows = Vec::new();
    for p in &points {
        let key = p.key();
        let annotated = p.spec.kind() == RunKind::Annotated;
        let start = Instant::now();
        let run = {
            let _s = tracer.span("serve.store.load_run", op.id(), 0);
            if annotated {
                store.load_annotated(&key).map(|(r, _)| r)
            } else {
                store.load_run(&key)
            }
        }
        .ok_or_else(|| format!("warm point {key} missing from the store"))?;
        load_us.push(start.elapsed().as_secs_f64() * 1e6);
        rows.push(ramp_sweep::pareto::Objective {
            ipc: run.ipc,
            ser_fit: run.ser_fit,
        });
        let file = store
            .dir()
            .join(format!("{key}.{}", if annotated { "ann" } else { "run" }));
        let start = Instant::now();
        let raw = {
            let _s = tracer.span("serve.store.read", op.id(), 0);
            std::fs::read(&file).ok()
        };
        if let Some(raw) = raw {
            read_us.push(start.elapsed().as_secs_f64() * 1e6);
            bytes += raw.len() as u64;
            let start = Instant::now();
            let ok = {
                let _s = tracer.span("serve.wire.decode", op.id(), 0);
                if annotated {
                    wire::decode_annotated(&raw).is_ok()
                } else {
                    wire::decode_run(&raw).is_ok()
                }
            };
            decode_us.push(start.elapsed().as_secs_f64() * 1e6);
            report.check(ok, || format!("entry {key} does not decode"));
        }
    }
    let start = Instant::now();
    let ranks = {
        let _s = tracer.span("sweep.pareto.ranks", op.id(), 0);
        pareto::ranks(&rows)
    };
    report.set("sweep.pareto.ranks_ms", start.elapsed().as_secs_f64() * 1e3);
    report.set(
        "sweep.pareto.layers",
        ranks.iter().max().map_or(0.0, |r| f64::from(*r) + 1.0),
    );
    let m = store.metrics();
    let hits = m.hits.load(std::sync::atomic::Ordering::Relaxed);
    let misses = m.misses.load(std::sync::atomic::Ordering::Relaxed);
    report.set("serve.store.loads", points.len() as f64);
    report.set("serve.store.load_us_p50", median(&load_us));
    report.set("serve.store.read_us_p50", median(&read_us));
    report.set("serve.wire.decode_us_p50", median(&decode_us));
    report.set(
        "serve.store.bytes_per_entry",
        if read_us.is_empty() {
            0.0
        } else {
            bytes as f64 / read_us.len() as f64
        },
    );
    report.set(
        "serve.store.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    Ok(())
}
