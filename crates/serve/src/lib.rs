//! The RAMP serving stack: a persistent run store and a std-only
//! experiment server.
//!
//! Every `ramp-bench` binary used to rebuild its simulation caches
//! in-process and discard them on exit. This crate converts the repro
//! into a long-lived serving system (the ROADMAP's north star) in two
//! layers:
//!
//! 1. **[`store`]** — a persistent, content-addressed run store. Results
//!    are encoded with a hand-rolled binary codec ([`wire`], built on
//!    `ramp_sim::codec`: versioned header, length-prefixed fields,
//!    checksum) and keyed by a hash of *(workload, policy/scheme, config,
//!    code-version salt)*. Writes are atomic (write-to-temp + rename)
//!    under `target/ramp-store/`, so concurrent processes can share one
//!    store. `ramp_bench::Harness` consults the store before simulating
//!    and persists misses — a second invocation of any experiment binary
//!    is served entirely from disk. Every entry is its own file, written
//!    once and read back before it counts; undecodable entries are
//!    quarantined, and checkpoint trails live next to the runs they
//!    resume.
//! 2. **[`server`]** — an HTTP/1.1 experiment server over
//!    `std::net::TcpListener` with flat-JSON request bodies, executed by
//!    a supervised pool of worker threads: run keys are consistent-hash
//!    routed so each key has exactly one writer, every worker owns a
//!    bounded job queue with explicit backpressure (HTTP 429 when full),
//!    and a supervisor restarts crashed workers with bounded backoff.
//!    Endpoints cover submitting runs, polling job status, fetching
//!    cached results, dumping the telemetry document, and a graceful
//!    shutdown that drains in-flight jobs before exiting. Both listener
//!    and client keep connections alive through a bounded pool
//!    ([`http::serve_pooled`]). [`client`] is the matching scriptable
//!    client (also shipped as the `ramp-client` binary, with a
//!    multi-endpoint fallback list). [`router`] (the `ramp-router`
//!    binary) scales the server out: a reverse proxy that
//!    consistent-hash shards run keys over a fleet of `ramp-served`
//!    processes with replication, health-checked failover and hinted
//!    handoff, so a killed shard degrades capacity, never correctness.
//!
//! Zero external dependencies, like the rest of the workspace.
//!
//! ```no_run
//! use ramp_core::config::SystemConfig;
//! use ramp_serve::client::Client;
//! use ramp_serve::server::{Server, ServerConfig};
//!
//! let server = Server::bind(
//!     "127.0.0.1:0",
//!     ServerConfig::new(SystemConfig::smoke_test()),
//! )
//! .unwrap();
//! let addr = server.local_addr();
//! std::thread::spawn(move || server.run());
//!
//! let client = Client::new(addr.to_string());
//! let submit = client.submit("lbm", "static", "perf-focused").unwrap();
//! let done = client.wait_done(submit.job.unwrap(), 60_000).unwrap();
//! println!("IPC {}", done.fields["ipc"]);
//! client.shutdown().unwrap();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod json;
pub mod queue;
pub mod router;
pub mod server;
pub mod spec;
pub mod store;
pub mod wire;

pub use client::Client;
pub use router::{Router, RouterConfig};
pub use server::{render_job_status, JobState, Server, ServerConfig};
pub use spec::{RunProgress, RunSpec};
pub use store::{RunKind, RunStore};
