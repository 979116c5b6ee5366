//! `ramp-benchmark` — run one workload of the RAMP benchmark, or compare
//! two recorded sets of runs.
//!
//! ```text
//! ramp-benchmark --workload W --seed N [--seconds S] [--trace 0|1] [--record FILE]
//! ramp-benchmark run W --seed N [--seconds S] [--record FILE]     (= --trace 0)
//! ramp-benchmark trace W --seed N [--seconds S] [--record FILE]   (= --trace 1)
//! ramp-benchmark compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! A run prints every metric as `name value unit`, then one JSON line
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` as the last
//! line of stdout; it exits 1 when a correctness check failed and 2 when
//! the workload could not be measured at all. Progress goes to stderr.

use std::io::Write as _;
use std::path::PathBuf;

use ramp_benchmark::{compare, json, run, sys, Args};

fn usage() -> ! {
    eprintln!(
        "usage: ramp-benchmark --workload W --seed N [--seconds S] [--trace 0|1] [--record FILE]\n       \
         ramp-benchmark run|trace W --seed N [--seconds S] [--record FILE]\n       \
         ramp-benchmark compare PARENT.jsonl CHANGE.jsonl"
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("ramp-benchmark: {msg}");
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        record: None,
    };
    let mut seed = None;
    let mut it = argv.iter();
    match argv.first().map(String::as_str) {
        Some("run") | Some("trace") => {
            args.trace = argv[0] == "trace";
            it.next();
            args.workload = it.next().cloned().unwrap_or_else(|| usage());
        }
        _ => {}
    }
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => seed = Some(value().parse().unwrap_or_else(|_| usage())),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage());
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    fail("--seconds must lie in (0, 600]");
                }
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--record" => args.record = Some(PathBuf::from(value())),
            _ => usage(),
        }
    }
    if args.workload.is_empty() {
        usage();
    }
    args.seed = seed.unwrap_or_else(|| usage());
    args
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, parent, change] = argv.as_slice() else {
            usage()
        };
        let path = sys::repo_root().join("BENCHMARK.json");
        let doc = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(format!("{}: {e}", path.display())));
        match compare::compare(parent.as_ref(), change.as_ref(), &doc) {
            Ok(table) => print!("{table}"),
            Err(e) => fail(e),
        }
        return;
    }
    let args = parse_args(&argv);
    sys::clear_ramp_env();
    let report = run(&args).unwrap_or_else(|e| fail(e));
    let out = report.render(args.trace);
    print!("{out}");
    if let Some(path) = &args.record {
        let result = out.lines().last().unwrap_or_default();
        let line = format!(
            "{{\"workload\":{},\"seed\":{},\"trace\":{},\"result\":{result}}}\n",
            json::quote(&args.workload),
            args.seed,
            args.trace
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = appended {
            fail(format!("{}: {e}", path.display()));
        }
    }
    if !report.correct() {
        std::process::exit(1);
    }
}
