//! End-to-end resilience matrix: the full serving stack (executor,
//! store, HTTP server, retrying client) driven under seeded fault
//! injection. For every `(seed, spec)` cell the invariant is the same:
//!
//! * every submitted run either completes with results **byte-identical**
//!   to the fault-free reference, or fails *classified* — a `failed` job
//!   carries a `simulation panicked: ...` message, an `expired` job a
//!   deadline message, a transport failure a typed [`ClientError`];
//! * no panic ever escapes a server thread (the join at the end proves
//!   it) and the server never answers 500 for an injected fault;
//! * the armed fault kinds actually fired (their roll counters moved).
//!
//! Chaos handles are built explicitly ([`Chaos::from_spec`]) rather than
//! through `RAMP_CHAOS`, so parallel tests never race on the
//! process-global registry.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ramp_core::config::SystemConfig;
use ramp_serve::client::Client;
use ramp_serve::http::PoolPolicy;
use ramp_serve::server::{Server, ServerConfig};
use ramp_serve::store::RunStore;
use ramp_sim::chaos::{Chaos, FaultKind};

/// Small enough that a debug-mode job takes well under a second.
fn tiny_sim() -> SystemConfig {
    SystemConfig {
        insts_per_core: 20_000,
        ..SystemConfig::smoke_test()
    }
}

fn scratch_store(tag: &str) -> RunStore {
    let dir = std::env::temp_dir().join(format!("ramp-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    RunStore::open(dir).unwrap()
}

/// Starts a server whose connection handling, job execution *and* store
/// share one chaos registry.
fn start(tag: &str, chaos: Option<Arc<Chaos>>) -> (SocketAddr, JoinHandle<()>) {
    let store = scratch_store(tag).with_chaos(chaos.clone());
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            sim: tiny_sim(),
            workers: 2,
            queue_capacity: 16,
            request_timeout: Duration::from_secs(10),
            deadline: Duration::from_secs(60),
            restart_limit: 6,
            restart_backoff: Duration::from_millis(5),
            http: PoolPolicy::default(),
            store: Some(store),
            chaos,
        },
    )
    .unwrap();
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

/// A patient client: generous transport budget, fast jittered backoff,
/// 429s retried (the matrix is about faults, not backpressure).
fn patient(addr: SocketAddr) -> Client {
    Client::new(addr.to_string())
        .with_retries(12)
        .with_backoff(Duration::from_millis(2))
        .with_retry_429(true)
}

/// One run of every kind, exercising profile reuse across kinds.
const COMBOS: &[(&str, &str, &str)] = &[
    ("lbm", "profile", ""),
    ("mcf", "static", "perf-focused"),
    ("milc", "migration", "perf-fc"),
    ("astar", "annotated", ""),
];

/// `(ipc, key)` per combo, as served — the byte-identity reference.
fn run_combos(client: &Client) -> Vec<Result<(String, String), String>> {
    COMBOS
        .iter()
        .map(|(wl, kind, policy)| {
            let submit = client
                .submit(wl, kind, policy)
                .map_err(|e| format!("submit {wl}/{kind}: {e}"))?;
            match (submit.status, submit.cached) {
                (202, _) => {
                    let job = submit.job.expect("202 carries a job id");
                    let done = client
                        .wait_done(job, 120_000)
                        .map_err(|e| format!("wait {wl}/{kind}: {e}"))?;
                    match done.state() {
                        Some("done") => {
                            Ok((done.fields["ipc"].clone(), done.fields["key"].clone()))
                        }
                        Some(state) => Err(format!(
                            "{wl}/{kind} ended {state}: {}",
                            done.fields.get("error").cloned().unwrap_or_default()
                        )),
                        None => panic!("terminal job without a state: {}", done.body),
                    }
                }
                (200, true) => Ok((
                    submit.response.fields["ipc"].clone(),
                    submit.key.clone().expect("cached response carries a key"),
                )),
                (status, _) => panic!("submit {wl}/{kind} returned {status}"),
            }
        })
        .collect()
}

#[test]
fn seeded_fault_matrix_completes_identically_or_fails_classified() {
    // Fault-free reference first.
    let (addr, handle) = start("reference", None);
    let client = patient(addr);
    let reference: Vec<(String, String)> = run_combos(&client)
        .into_iter()
        .map(|r| r.expect("fault-free run succeeds"))
        .collect();
    client.shutdown().unwrap();
    handle.join().unwrap();

    // The matrix: each cell arms a different mix against its own seed.
    let matrix: &[(u64, &str)] = &[
        (11, "net=0.25,slow=1ms"),
        (12, "io=0.4"),
        (13, "panic=0.4,retries=1"),
        (14, "io=0.25,net=0.15,panic=0.15,slow=1ms"),
    ];
    let mut total_injected = 0u64;
    for (cell, (seed, spec)) in matrix.iter().enumerate() {
        let chaos = Arc::new(Chaos::from_spec(*seed, spec).unwrap());
        let (addr, handle) = start(&format!("cell{cell}"), Some(Arc::clone(&chaos)));
        let client = patient(addr);

        let mut done = 0usize;
        let mut classified = 0usize;
        for (i, outcome) in run_combos(&client).into_iter().enumerate() {
            match outcome {
                Ok((ipc, key)) => {
                    // Whatever survived the faults must be byte-identical
                    // to the reference — a wrong-but-plausible payload is
                    // the one unacceptable outcome.
                    assert_eq!(
                        (ipc, key),
                        reference[i].clone(),
                        "cell {cell} ({spec}) combo {:?}",
                        COMBOS[i]
                    );
                    done += 1;
                }
                Err(msg) => {
                    // Failures must be classified, not mysterious: an
                    // injected panic surfaced through the job state, a
                    // deadline expiry, or a typed client error.
                    assert!(
                        msg.contains("simulation panicked")
                            || msg.contains("deadline")
                            || msg.contains("after")
                            || msg.contains("attempt"),
                        "cell {cell} ({spec}): unclassified failure: {msg}"
                    );
                    classified += 1;
                }
            }
        }
        assert_eq!(done + classified, COMBOS.len(), "every combo accounted for");

        // /stats must still be serveable mid-chaos, and shutdown must
        // drain cleanly (it is exempt from injected resets).
        let stats = client.stats().unwrap_or_default();
        assert!(
            stats.is_empty() || stats.contains("server.jobs"),
            "stats document lost its job counters: {stats}"
        );
        client.shutdown().expect("shutdown drains despite chaos");
        handle.join().expect("no panic may escape a server thread");

        // The armed kinds really ran through their injection sites.
        for kind in [
            FaultKind::Io,
            FaultKind::Panic,
            FaultKind::Net,
            FaultKind::Slow,
        ] {
            if chaos.rate(kind) > 0.0 {
                assert!(
                    chaos.rolls(kind) > 0,
                    "cell {cell} ({spec}): {} armed but never rolled",
                    kind.label()
                );
                total_injected += chaos.injected(kind);
            }
        }
    }
    assert!(
        total_injected > 0,
        "the whole matrix injected nothing — chaos is wired to nothing"
    );
}

#[test]
fn heavy_resets_classify_without_budget_and_recover_with_one() {
    let chaos = Arc::new(Chaos::from_spec(21, "net=0.6").unwrap());
    let (addr, handle) = start("resets", Some(Arc::clone(&chaos)));

    // Zero retry budget: some of these must surface as typed transport
    // errors (never a panic, never a hang).
    let impatient = Client::new(addr.to_string()).with_retries(0);
    let failures = (0..6).filter(|_| impatient.health().is_err()).count();
    assert!(failures > 0, "60% resets never surfaced in six attempts");

    // A real budget rides the same fault rate out.
    let client = patient(addr);
    assert_eq!(client.health().expect("retries recover").status, 200);
    assert!(chaos.injected(FaultKind::Net) > 0);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn stale_queued_jobs_expire_with_a_classified_state() {
    // One worker and a 1 ms deadline: whatever queues behind the first
    // job sits past its deadline and must expire unrun — a classified
    // state, not a hang and not a wrong result.
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            sim: tiny_sim(),
            workers: 1,
            queue_capacity: 8,
            request_timeout: Duration::from_secs(10),
            deadline: Duration::from_millis(1),
            restart_limit: 3,
            restart_backoff: Duration::from_millis(10),
            http: PoolPolicy::default(),
            store: Some(scratch_store("expire")),
            chaos: None,
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let client = patient(addr);

    // One batch enqueues all four jobs back to back, so three of them
    // queue behind the first at any build profile. Four single submits
    // would race the worker: an optimized build can finish each job
    // before the next `POST /runs` arrives, leaving nothing to expire.
    let specs: Vec<(String, String, String)> = ["lbm", "mcf", "milc", "astar"]
        .iter()
        .map(|wl| (wl.to_string(), "profile".to_string(), String::new()))
        .collect();
    let jobs: Vec<u64> = client
        .submit_batch(&specs)
        .unwrap()
        .into_iter()
        .map(|submit| {
            assert_eq!(submit.state, "queued", "{:?}", submit.fields);
            submit.job.unwrap()
        })
        .collect();
    let mut expired = 0usize;
    let mut completed = 0usize;
    for job in jobs {
        let terminal = client.wait_done(job, 120_000).unwrap();
        match terminal.state() {
            Some("done") => completed += 1,
            Some("expired") => {
                assert!(
                    terminal.fields["error"].contains("deadline"),
                    "{}",
                    terminal.body
                );
                expired += 1;
            }
            state => panic!("job {job} ended {state:?}: {}", terminal.body),
        }
    }
    assert!(
        expired > 0,
        "a 1 ms deadline behind a busy worker must expire"
    );
    assert_eq!(expired + completed, 4);

    // The drain must account for expired jobs, or shutdown would hang.
    let drained = client.shutdown().unwrap();
    assert_eq!(
        drained.fields["accepted"].parse::<usize>().unwrap(),
        expired + completed
    );
    assert_eq!(drained.fields["expired"].parse::<usize>().unwrap(), expired);
    handle.join().unwrap();
}
