//! Performance-scorecard CLI (see DESIGN.md §10).
//!
//! ```text
//! scorecard run                      measure, print the JSON document
//! scorecard update BENCH_0028.json   measure, rewrite the file keeping
//!                                    its baseline.probe.* section
//! scorecard check BENCH_0028.json [--tol X]
//!                                    measure, diff against the file;
//!                                    exit 1 on regression/schema drift
//! ```

use std::path::Path;
use std::process::ExitCode;

use ramp_bench::scorecard;

fn usage() -> ExitCode {
    eprintln!("usage: scorecard run | update <file> | check <file> [--tol X]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => scorecard::measure().map(|card| {
            print!("{}", card.render(&Default::default()));
        }),
        Some("update") => match args.get(1) {
            Some(path) => scorecard::update(Path::new(path)),
            None => return usage(),
        },
        Some("check") => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let mut tol = scorecard::TOLERANCE;
            if let Some(i) = args.iter().position(|a| a == "--tol") {
                match args.get(i + 1).and_then(|v| v.parse::<f64>().ok()) {
                    Some(t) if t >= 1.0 => tol = t,
                    _ => return usage(),
                }
            }
            match scorecard::check(Path::new(path), tol) {
                Ok(violations) if violations.is_empty() => {
                    eprintln!("scorecard OK (tolerance {tol}x vs {path})");
                    Ok(())
                }
                Ok(violations) => {
                    for v in &violations {
                        eprintln!("scorecard FAIL: {}", v.0);
                    }
                    return ExitCode::FAILURE;
                }
                Err(e) => Err(e),
            }
        }
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("scorecard: {e}");
            ExitCode::FAILURE
        }
    }
}
