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
            "--workers" => workers = value("--workers").parse().ok(),
            "--queue" => queue = value("--queue").parse().ok(),
            "--deadline-ms" => deadline_ms = value("--deadline-ms").parse().ok(),
            "--http-threads" => http_threads = value("--http-threads").parse().ok(),
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
        if let Ok(n) = v.trim().parse::<u64>() {
            sim.insts_per_core = n.max(10_000);
        }
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
