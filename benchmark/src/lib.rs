//! The RAMP benchmark: four workloads that stress different layers of the
//! system, each measured end to end with tracing off and, in a separate
//! traced pass, per layer.
//!
//! | workload      | what one operation is                                         |
//! |---------------|---------------------------------------------------------------|
//! | `sim_static`  | a cold two-point sweep under a static placement ([`sim`])     |
//! | `sim_migrate` | the same under a migration scheme, checkpointing every epoch  |
//! | `warm_sweep`  | a 288-point sweep answered entirely from the store ([`warm`]) |
//! | `fleet_mixed` | one HTTP request through the router ([`fleet`])               |
//!
//! The seed is the only input: the simulation workloads use it as
//! `SystemConfig.seed`, the fleet for its arrival schedule, request mix
//! and key choice. See `README.md` for the metrics and how to read them.

pub mod compare;
pub mod fleet;
pub mod json;
pub mod layers;
pub mod report;
pub mod sim;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod warm;

use std::path::PathBuf;

use report::Report;
use spans::Tracer;

/// Executor threads every workload uses (the benchmark machine has two
/// vCPUs; the fleet's two shards run one worker each).
pub const THREADS: usize = 2;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["sim_static", "sim_migrate", "warm_sweep", "fleet_mixed"];

/// Parsed command-line arguments of one run.
#[derive(Clone, Debug)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// The only input: seeds every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced pass: print the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Append the result line, labelled, to this JSONL file.
    pub record: Option<PathBuf>,
}

/// The low 48 bits of the FNV-1a hash of `s` — exact as a JSON number.
pub fn digest48(s: &str) -> f64 {
    (ramp_sim::codec::fnv1a64(s.as_bytes()) & ((1u64 << 48) - 1)) as f64
}

/// Runs one workload; an `Err` means it could not be measured at all.
pub fn run(args: &Args) -> Result<Report, String> {
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}' (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    // Built before anything is timed, by every run, so that the first run
    // in a fresh checkout is the one that pays for the build.
    let bins = sys::build_fleet_binaries()?;
    let tracer = Tracer::new(args.trace);
    let mut report = Report::default();
    match args.workload.as_str() {
        "sim_static" => sim::run(sim::Kind::Static, args, &mut report, &tracer)?,
        "sim_migrate" => sim::run(sim::Kind::Migrate, args, &mut report, &tracer)?,
        "warm_sweep" => warm::run(args, &mut report, &tracer)?,
        _ => fleet::run(args, &mut report, &tracer, &bins)?,
    }
    report.set(
        "fail_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    if args.trace {
        let path = sys::out_dir().join(format!("trace-{}.json", args.workload));
        tracer
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "[bench] {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    Ok(report)
}
