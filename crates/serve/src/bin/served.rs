//! `ramp-served` — the experiment server daemon.
//!
//! ```text
//! ramp-served [--addr HOST:PORT] [--workers N] [--queue N]
//!             [--deadline-ms MS] [--http-threads N]
//!             [--port-file PATH] [--smoke]
//! ```
//!
//! Binds the address (default `127.0.0.1:7177`; port `0` picks an
//! ephemeral port), optionally writes the bound address to `--port-file`
//! for scripts, and serves until a client POSTs `/shutdown`.
//! `--workers N` spawns N supervised worker threads — each owns a slice
//! of the `--queue` capacity and jobs are consistent-hash routed by run
//! key, so every key has one writer; a crashed worker is restarted with
//! bounded backoff and its in-flight job retried once (see DESIGN.md
//! §11). `--smoke` switches to the small `SystemConfig::smoke_test`
//! system so CI runs finish in seconds; `RAMP_INSTS` overrides the
//! per-core instruction budget either way, and
//! `RAMP_STORE`/`RAMP_STORE_DIR` configure the result store exactly as
//! for the experiment binaries. `--deadline-ms` caps how long
//! a queued job may wait before it is expired unrun (default 60000),
//! `--http-threads` sizes the keep-alive connection pool's handler
//! thread count (default 4), and `RAMP_CHAOS` arms fault injection
//! across the executor, store, workers and connection handling
//! (see DESIGN.md §8).

use std::time::Duration;

use ramp_serve::server::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: ramp-served [--addr HOST:PORT] [--workers N] [--queue N] \
         [--deadline-ms MS] [--http-threads N] [--port-file PATH] [--smoke]"
    );
    std::process::exit(2);
}

/// Parses the value of option or variable `name` as a count; an error
/// names the bad token.
fn parse_count<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{name}: `{value}` is not a number"))
}

/// The parsed value, or the error on stderr and exit status 2.
fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

fn main() {
    let mut addr = "127.0.0.1:7177".to_string();
    let mut workers: Option<usize> = None;
    let mut queue: Option<usize> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut http_threads: Option<usize> = None;
    let mut port_file: Option<String> = None;
    let mut smoke = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage();
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--workers" => workers = Some(or_exit(parse_count("--workers", &value("--workers")))),
            "--queue" => queue = Some(or_exit(parse_count("--queue", &value("--queue")))),
            "--deadline-ms" => {
                deadline_ms = Some(or_exit(parse_count(
                    "--deadline-ms",
                    &value("--deadline-ms"),
                )))
            }
            "--http-threads" => {
                http_threads = Some(or_exit(parse_count(
                    "--http-threads",
                    &value("--http-threads"),
                )))
            }
            "--port-file" => port_file = Some(value("--port-file")),
            "--smoke" => smoke = true,
            _ => usage(),
        }
    }

    let mut sim = if smoke {
        ramp_core::config::SystemConfig::smoke_test()
    } else {
        ramp_core::config::SystemConfig::table1_scaled()
    };
    if let Ok(v) = std::env::var("RAMP_INSTS") {
        let n: u64 = or_exit(parse_count("RAMP_INSTS", v.trim()));
        sim.insts_per_core = n.max(10_000);
    }

    let mut cfg = ServerConfig::new(sim);
    if let Some(w) = workers {
        cfg.workers = w.max(1);
    }
    if let Some(q) = queue {
        cfg.queue_capacity = q.max(1);
    }
    if let Some(ms) = deadline_ms {
        cfg.deadline = Duration::from_millis(ms.max(1));
    }
    if let Some(n) = http_threads {
        cfg.http.threads = n.max(1);
    }

    let server = match Server::bind(&addr, cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    let bound = server.local_addr();
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, bound.to_string()) {
            eprintln!("write {path}: {e}");
            std::process::exit(1);
        }
    }
    eprintln!("ramp-served listening on {bound}");
    server.run();
    eprintln!("ramp-served drained and exited");
}

#[cfg(test)]
mod tests {
    use super::parse_count;

    #[test]
    fn counts_parse_or_name_the_bad_token() {
        assert_eq!(parse_count::<usize>("--workers", "4"), Ok(4));
        assert_eq!(parse_count::<u64>("RAMP_INSTS", "20000"), Ok(20_000));
        for (name, value) in [
            ("--workers", "four"),
            ("--queue", "-1"),
            ("--deadline-ms", "1.5"),
            ("--http-threads", ""),
            ("RAMP_INSTS", "abc"),
        ] {
            let err = parse_count::<u64>(name, value).unwrap_err();
            assert_eq!(err, format!("{name}: `{value}` is not a number"));
        }
    }
}
