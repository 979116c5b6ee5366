//! `ramp-sweep` — declarative design-space sweeps with Pareto search.
//!
//! ```text
//! ramp-sweep run SPEC.toml [--out FILE] [--threads N]
//!                          [--remote HOST:PORT ...] [--batch N] [--timeout-ms MS]
//! ramp-sweep points SPEC.toml
//! ramp-sweep frontier ARTIFACT.json
//! ```
//!
//! `run` parses the sweep spec, executes every point — locally on the
//! work-stealing executor (store-deduped through `RAMP_STORE_DIR`,
//! thread count from `--threads` or `RAMP_THREADS`),
//! or fanned out to a running `ramp-served` or `ramp-router` with
//! `--remote` (repeatable: the first endpoint is the primary, the rest
//! are fallbacks the client rotates to when it is dead) — and
//! writes the schema-versioned artifact (default `SWEEP_<name>.json`).
//! Stdout gets the deterministic frontier table followed by one
//! volatile `[sweep] ...` summary line with the cache/simulation
//! counters; the artifact itself never contains volatile data, so a
//! warm or resumed re-run reproduces it byte-for-byte.
//!
//! `points` is the dry run: it lists every enumerated point with its
//! store key and exits without simulating. `frontier` re-reads a
//! written artifact and prints its frontier table, so inspecting an old
//! sweep costs no simulation either.

use std::path::PathBuf;

use ramp_serve::json::parse_flat;
use ramp_serve::store::RunStore;
use ramp_sweep::artifact;
use ramp_sweep::engine::{self, SweepRun};
use ramp_sweep::spec::SweepSpec;

fn usage() -> ! {
    eprintln!(
        "usage: ramp-sweep run SPEC.toml [--out FILE] [--threads N] [--remote HOST:PORT ...] \
         [--batch N] [--timeout-ms MS]"
    );
    eprintln!("       ramp-sweep points SPEC.toml");
    eprintln!("       ramp-sweep frontier ARTIFACT.json");
    std::process::exit(2);
}

fn fail(err: impl std::fmt::Display) -> ! {
    eprintln!("ramp-sweep: {err}");
    std::process::exit(1);
}

fn load_spec(path: &str) -> SweepSpec {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("reading {path}: {e}")));
    SweepSpec::parse(&text).unwrap_or_else(|e| fail(format!("{path}: {e}")))
}

/// The deterministic frontier table: one line per frontier point, in
/// point order, knobs inlined.
fn frontier_table(run: &SweepRun) -> String {
    let mut out = String::new();
    out.push_str("frontier (rank 0, IPC max / FIT min):\n");
    out.push_str("  idx  workload     policy                 ipc        ser_fit\n");
    for i in run.frontier() {
        let row = &run.rows[i];
        let mut label = row.policy.clone();
        for (knob, value) in &row.knobs {
            label.push_str(&format!(" {knob}={value}"));
        }
        out.push_str(&format!(
            "  {i:<4} {:<12} {label:<22} {:<10.4} {:.6}\n",
            row.workload, row.ipc, row.ser_fit
        ));
    }
    out
}

fn cmd_run(args: &[String]) {
    let mut spec_path: Option<&str> = None;
    let mut out_path: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut remote: Vec<String> = Vec::new();
    let mut batch: usize = 32;
    let mut timeout_ms: u64 = 300_000;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_path = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--threads" => threads = it.next().and_then(|v| v.parse().ok()).or_else(|| usage()),
            "--remote" => remote.push(it.next().cloned().unwrap_or_else(|| usage())),
            "--batch" => {
                batch = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--timeout-ms" => {
                timeout_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            path if spec_path.is_none() && !path.starts_with('-') => {
                spec_path = Some(path);
            }
            _ => usage(),
        }
    }
    let Some(spec_path) = spec_path else { usage() };
    let spec = load_spec(spec_path);
    let out = PathBuf::from(out_path.unwrap_or_else(|| format!("SWEEP_{}.json", spec.name)));

    let (run, store) = if !remote.is_empty() {
        let mut remote = remote;
        let client = ramp_serve::client::Client::new(remote.remove(0)).with_fallbacks(remote);
        let run = engine::run_remote(&spec, &client, batch, timeout_ms).unwrap_or_else(|e| fail(e));
        (run, None)
    } else {
        let store = RunStore::from_env();
        let threads = threads.unwrap_or_else(ramp_sim::exec::default_threads);
        let run = engine::run_local(&spec, store.as_ref(), threads).unwrap_or_else(|e| fail(e));
        (run, store)
    };

    let doc = artifact::render(&spec, &run);
    artifact::write_atomic(&out, &doc, ramp_sim::chaos::global().as_ref())
        .unwrap_or_else(|e| fail(e));
    print!("{}", frontier_table(&run));
    println!("artifact: {} ({} bytes)", out.display(), doc.len());
    println!("{}", engine::summary_line(&run, store.as_ref()));
}

fn cmd_points(args: &[String]) {
    let [spec_path] = args else { usage() };
    let spec = load_spec(spec_path);
    let points = spec.points().unwrap_or_else(|e| fail(e));
    for (i, point) in points.iter().enumerate() {
        let mut line = format!("{i} {} key={}", point.label(), point.key());
        for (knob, value) in &point.knobs {
            line.push_str(&format!(" {knob}={value}"));
        }
        println!("{line}");
    }
    println!(
        "[points] spec={} strategy={} grid={} selected={}",
        spec.name,
        spec.strategy.label(),
        spec.grid_len(),
        points.len()
    );
}

fn cmd_frontier(args: &[String]) {
    let [artifact_path] = args else { usage() };
    let text = std::fs::read_to_string(artifact_path)
        .unwrap_or_else(|e| fail(format!("reading {artifact_path}: {e}")));
    let fields =
        parse_flat(text.trim_end()).unwrap_or_else(|e| fail(format!("{artifact_path}: {e}")));
    let get = |k: &str| -> &str { fields.get(k).map(String::as_str).unwrap_or("") };
    if get("schema") != artifact::SCHEMA {
        fail(format!(
            "{artifact_path}: schema {:?} (expected {:?})",
            get("schema"),
            artifact::SCHEMA
        ));
    }
    println!(
        "sweep {} strategy={} points={}",
        get("sweep.name"),
        get("sweep.strategy"),
        get("sweep.points")
    );
    println!("frontier (rank 0, IPC max / FIT min):");
    println!("  idx  workload     policy                 ipc        ser_fit");
    for idx in get("frontier.points").split(',').filter(|s| !s.is_empty()) {
        let p = format!("point.{idx}.");
        let pf = |k: &str| get(&format!("{p}{k}")).to_string();
        let ipc: f64 = pf("ipc").parse().unwrap_or(f64::NAN);
        let fit: f64 = pf("ser_fit").parse().unwrap_or(f64::NAN);
        println!(
            "  {idx:<4} {:<12} {:<22} {ipc:<10.4} {fit:.6}",
            pf("workload"),
            pf("policy")
        );
    }
    println!("frontier.size={}", get("frontier.size"));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    match cmd.as_str() {
        "run" => cmd_run(&args[1..]),
        "points" => cmd_points(&args[1..]),
        "frontier" => cmd_frontier(&args[1..]),
        _ => usage(),
    }
}
