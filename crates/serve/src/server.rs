//! The experiment server: HTTP front end, consistent-hash job routing,
//! and a supervised pool of worker threads.
//!
//! Request handling never simulates anything inline. `POST /runs` either
//! answers straight from the [`RunStore`] (a warm result costs one disk
//! read) or routes the job to a worker and returns `202` with a job id.
//! Routing is a jump consistent hash of the run key over the worker
//! slots, so every key has exactly **one** writer, and duplicate
//! submissions of the same run land on the same worker instead of
//! racing. Each worker owns a bounded queue; when a worker's
//! queue is full the server sheds load with `429` (carrying
//! `retry-after: 1`) instead of buffering without bound, and
//! `POST /shutdown` closes every queue, drains every accepted job,
//! reports the final counts, and lets [`Server::run`] return.
//!
//! Every worker thread runs under a **supervisor**: a panic that escapes
//! the per-job isolation (or is injected at the `server.worker` chaos
//! site) kills only that worker, never the server. The supervisor
//! requeues the in-flight job exactly once (a second death fails it
//! classified), then restarts the worker with doubling backoff up to
//! [`ServerConfig::restart_limit`] restarts; past the budget the slot
//! goes dark — its backlog is failed (so drain terminates) and new
//! submissions routed to it get `503`.
//!
//! Failure handling: jobs carry a submission deadline — entries that sat
//! queued past it expire (state `expired`) instead of running; a worker
//! panic inside a job is caught with its message captured into the job
//! state (and the `chaos.panics_caught` counter in `/stats`); a failed
//! store write degrades to serving the in-memory result with a warning,
//! never a 500. Under `RAMP_CHAOS` (see [`ramp_sim::chaos`]) the server
//! additionally injects slow reads, queue stalls, whole-worker kills and
//! mid-response socket resets so the entire retry/supervision machinery
//! is testable deterministically.
//!
//! | Endpoint          | Meaning                                         |
//! |-------------------|-------------------------------------------------|
//! | `GET /health`     | liveness + configured worker/queue geometry     |
//! | `POST /runs`      | submit `{"workload","kind","policy"}`           |
//! | `POST /submit-batch` | submit N specs at once (indexed flat fields) |
//! | `GET /jobs/{id}`  | poll a submitted job                            |
//! | `GET /runs/{key}` | fetch a stored result by content key            |
//! | `GET /stats`      | full telemetry document (store, queues, workers)|
//! | `POST /shutdown`  | drain in-flight jobs, then exit                 |

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ramp_core::config::SystemConfig;
use ramp_core::system::RunResult;
use ramp_sim::chaos::{self, Chaos, FaultKind};
use ramp_sim::telemetry::StatRegistry;

use crate::http::{serve_pooled, PoolPolicy, Reply, Request};
use crate::json::{error_body, parse_flat, ObjWriter};
use crate::queue::{BoundedQueue, PushError};
use crate::router::route_shard;
use crate::spec::{resolve, Resolver, RunProgress, RunSpec, Tier};
use crate::store::RunStore;

/// Server tuning knobs plus the simulated system configuration.
#[derive(Debug)]
pub struct ServerConfig {
    /// The system every run simulates (also part of every store key).
    pub sim: SystemConfig,
    /// Worker threads; each owns a queue and a supervisor.
    pub workers: usize,
    /// Total queue capacity, split evenly across workers (each slot gets
    /// at least 1). Pushes beyond a slot's share get HTTP 429.
    pub queue_capacity: usize,
    /// Per-connection socket read/write timeout.
    pub request_timeout: Duration,
    /// Per-job deadline: a job still waiting past this after submission
    /// expires (state `expired`) instead of running.
    pub deadline: Duration,
    /// How many times the supervisor restarts one worker before the
    /// slot goes dark and its backlog is failed.
    pub restart_limit: u32,
    /// Backoff before the first worker restart; doubles per restart,
    /// capped at 2 s.
    pub restart_backoff: Duration,
    /// Result store; `None` disables persistence (every run simulates).
    pub store: Option<RunStore>,
    /// Fault-injection registry; defaults to the `RAMP_CHAOS` global.
    pub chaos: Option<Arc<Chaos>>,
    /// Keep-alive listener tuning (handler threads, accept backlog,
    /// idle reaping, per-connection request cap). `io_timeout` is
    /// overridden by [`ServerConfig::request_timeout`] at bind time.
    pub http: PoolPolicy,
}

impl ServerConfig {
    /// Defaults: `RAMP_THREADS`-derived workers, a 32-deep total queue,
    /// 10 s socket timeouts, a 60 s job deadline, 3 restarts per worker
    /// starting at 50 ms backoff, the environment-configured store, and
    /// the environment-configured chaos registry.
    pub fn new(sim: SystemConfig) -> Self {
        ServerConfig {
            sim,
            workers: ramp_sim::exec::default_threads(),
            queue_capacity: 32,
            request_timeout: Duration::from_secs(10),
            deadline: Duration::from_secs(60),
            restart_limit: 3,
            restart_backoff: Duration::from_millis(50),
            store: RunStore::from_env(),
            chaos: chaos::global(),
            http: PoolPolicy::default(),
        }
    }
}

/// A small, flat-JSON-friendly view of one finished run.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Content-addressed store key.
    pub key: String,
    /// Workload name.
    pub workload: String,
    /// Policy/scheme label.
    pub policy: String,
    /// Aggregate instructions per cycle.
    pub ipc: f64,
    /// Soft-error FIT rate of this placement.
    pub ser_fit: f64,
    /// SER normalized to the DDR-only baseline.
    pub ser_vs_ddr_only: f64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// L2 misses per kilo-instruction.
    pub mpki: f64,
    /// Demand accesses served by HBM.
    pub hbm_accesses: u64,
    /// Demand accesses served by DDR.
    pub ddr_accesses: u64,
    /// Pages migrated.
    pub migrations: u64,
}

impl RunSummary {
    fn from_run(key: &str, run: &RunResult) -> Self {
        RunSummary {
            key: key.to_string(),
            workload: run.workload.clone(),
            policy: run.policy.clone(),
            ipc: run.ipc,
            ser_fit: run.ser_fit,
            ser_vs_ddr_only: run.ser_vs_ddr_only(),
            cycles: run.cycles,
            instructions: run.instructions,
            mpki: run.mpki,
            hbm_accesses: run.hbm_accesses,
            ddr_accesses: run.ddr_accesses,
            migrations: run.migrations,
        }
    }

    fn write_fields(&self, w: &mut ObjWriter) {
        self.write_fields_prefixed(w, "");
    }

    /// Writes the summary fields under `prefix` (batch responses index
    /// fields as `0.ipc`, `1.ipc`, … — the protocol stays flat).
    fn write_fields_prefixed(&self, w: &mut ObjWriter, prefix: &str) {
        w.str(&format!("{prefix}key"), &self.key)
            .str(&format!("{prefix}workload"), &self.workload)
            .str(&format!("{prefix}policy"), &self.policy)
            .f64(&format!("{prefix}ipc"), self.ipc)
            .f64(&format!("{prefix}ser_fit"), self.ser_fit)
            .f64(&format!("{prefix}ser_vs_ddr_only"), self.ser_vs_ddr_only)
            .u64(&format!("{prefix}cycles"), self.cycles)
            .u64(&format!("{prefix}instructions"), self.instructions)
            .f64(&format!("{prefix}mpki"), self.mpki)
            .u64(&format!("{prefix}hbm_accesses"), self.hbm_accesses)
            .u64(&format!("{prefix}ddr_accesses"), self.ddr_accesses)
            .u64(&format!("{prefix}migrations"), self.migrations);
    }
}

/// Lifecycle of one submitted job, as rendered by `GET /jobs/{id}`.
#[derive(Clone, Debug)]
pub enum JobState {
    /// Accepted, waiting for a dispatch slot.
    Queued,
    /// Executing; carries the live progress the worker updates.
    Running(Arc<RunProgress>),
    /// Finished, with its result summary.
    Done(RunSummary),
    /// The worker panicked; the message is captured.
    Failed(String),
    /// Sat queued past its deadline and was never run.
    Expired,
}

#[derive(Clone)]
struct Job {
    id: u64,
    spec: RunSpec,
    submitted: Instant,
    /// Set when a supervisor already requeued this job after a worker
    /// death; a second death fails it instead of retrying forever.
    requeued: bool,
}

/// One worker's routing target plus its health ledger. The supervisor
/// reads `current` after a crash to recover the in-flight job.
struct WorkerSlot {
    queue: BoundedQueue<Job>,
    current: Mutex<Option<Job>>,
    processed: AtomicU64,
    deaths: AtomicU64,
    restarts: AtomicU64,
    alive: AtomicBool,
}

impl WorkerSlot {
    fn new(capacity: usize) -> Self {
        WorkerSlot {
            queue: BoundedQueue::new(capacity),
            current: Mutex::new(None),
            processed: AtomicU64::new(0),
            deaths: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            alive: AtomicBool::new(true),
        }
    }
}

struct Shared {
    sim: SystemConfig,
    store: Option<RunStore>,
    chaos: Option<Arc<Chaos>>,
    deadline: Duration,
    restart_limit: u32,
    restart_backoff: Duration,
    slots: Vec<WorkerSlot>,
    jobs: Mutex<HashMap<u64, JobState>>,
    next_job: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    expired: AtomicU64,
    degraded: AtomicU64,
    panics_caught: AtomicU64,
    resumed: AtomicU64,
    restarted: AtomicU64,
    worker_deaths: AtomicU64,
    requeued: AtomicU64,
    shutdown: AtomicBool,
}

impl Shared {
    fn set_state(&self, id: u64, state: JobState) {
        self.jobs.lock().unwrap().insert(id, state);
    }

    fn fail_job(&self, id: u64, msg: String) {
        self.set_state(id, JobState::Failed(msg));
        self.failed.fetch_add(1, Ordering::SeqCst);
    }

    fn chaos_slow(&self, site: &str) {
        if let Some(c) = self.chaos.as_ref() {
            c.maybe_slow(site);
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    http: PoolPolicy,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind(addr: &str, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let workers = cfg.workers.max(1);
        let per_slot = (cfg.queue_capacity / workers).max(1);
        let mut http = cfg.http;
        http.io_timeout = cfg.request_timeout;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                sim: cfg.sim,
                store: cfg.store,
                chaos: cfg.chaos,
                deadline: cfg.deadline,
                restart_limit: cfg.restart_limit,
                restart_backoff: cfg.restart_backoff.max(Duration::from_millis(1)),
                slots: (0..workers).map(|_| WorkerSlot::new(per_slot)).collect(),
                jobs: Mutex::new(HashMap::new()),
                next_job: AtomicU64::new(1),
                accepted: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                failed: AtomicU64::new(0),
                expired: AtomicU64::new(0),
                degraded: AtomicU64::new(0),
                panics_caught: AtomicU64::new(0),
                resumed: AtomicU64::new(0),
                restarted: AtomicU64::new(0),
                worker_deaths: AtomicU64::new(0),
                requeued: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
            }),
            http,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("listener has an address")
    }

    /// Serves requests until a `POST /shutdown` drains the queues.
    ///
    /// Blocks the calling thread; each worker runs on its own supervised
    /// thread and all of them are joined before this returns, so when
    /// `run` exits every accepted job has completed (or failed, or
    /// expired) and its result — if a store is configured — is on disk.
    pub fn run(self) {
        let supervisors: Vec<_> = (0..self.shared.slots.len())
            .map(|slot| {
                let shared = Arc::clone(&self.shared);
                std::thread::spawn(move || supervisor_loop(&shared, slot))
            })
            .collect();

        let shared = Arc::clone(&self.shared);
        serve_pooled(self.listener, self.http, move |req: &Request| {
            handle_request(&shared, req)
        });

        for slot in &self.shared.slots {
            slot.queue.close();
        }
        for sup in supervisors {
            let _ = sup.join();
        }
    }
}

/// Owns one worker slot for the lifetime of the server: runs the worker
/// loop, catches its deaths, requeues the in-flight job once, and
/// restarts with doubling backoff until the restart budget is spent.
fn supervisor_loop(shared: &Shared, slot_idx: usize) {
    let slot = &shared.slots[slot_idx];
    let mut restarts_used = 0u32;
    let mut backoff = shared.restart_backoff;
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_loop(shared, slot_idx))) {
            Ok(()) => break, // queue closed and fully drained
            Err(payload) => {
                let msg = chaos::panic_message(payload.as_ref());
                slot.deaths.fetch_add(1, Ordering::SeqCst);
                shared.worker_deaths.fetch_add(1, Ordering::SeqCst);

                // The job the worker died holding gets exactly one more
                // attempt; a second death fails it classified.
                if let Some(mut job) = slot.current.lock().unwrap().take() {
                    if job.requeued {
                        shared.fail_job(
                            job.id,
                            format!(
                                "worker {slot_idx} crashed on both attempts to run this job \
                                 ({msg})"
                            ),
                        );
                    } else {
                        job.requeued = true;
                        let id = job.id;
                        match slot.queue.try_push(job) {
                            Ok(()) => {
                                shared.requeued.fetch_add(1, Ordering::SeqCst);
                                shared.set_state(id, JobState::Queued);
                            }
                            Err(_) => shared.fail_job(
                                id,
                                format!(
                                    "worker {slot_idx} crashed and its queue refused the retry \
                                     attempt ({msg})"
                                ),
                            ),
                        }
                    }
                }

                if restarts_used >= shared.restart_limit {
                    // Budget spent: the slot goes dark. Fail whatever is
                    // still queued so drain terminates, and let routing
                    // answer 503 for this slot from now on.
                    slot.alive.store(false, Ordering::SeqCst);
                    slot.queue.close();
                    while let Some(batch) = slot.queue.pop_batch(usize::MAX) {
                        for job in batch {
                            shared.fail_job(
                                job.id,
                                format!(
                                    "worker {slot_idx} exhausted its restart budget after \
                                     {} attempts",
                                    restarts_used + 1
                                ),
                            );
                        }
                    }
                    eprintln!(
                        "[served] worker {slot_idx} exhausted its restart budget \
                         ({} deaths); slot disabled",
                        slot.deaths.load(Ordering::SeqCst)
                    );
                    break;
                }
                restarts_used += 1;
                slot.restarts.fetch_add(1, Ordering::SeqCst);
                eprintln!(
                    "[served] worker {slot_idx} died ({msg}); restart {restarts_used}/{} after \
                     {backoff:?}",
                    shared.restart_limit
                );
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(2));
            }
        }
    }
}

/// Pops and executes jobs until the slot's queue is closed and empty.
/// Returns normally only on clean shutdown; any panic (a job-isolation
/// escape or the injected `server.worker` kill) unwinds to the
/// supervisor with the in-flight job still recorded in `slot.current`.
fn worker_loop(shared: &Shared, slot_idx: usize) {
    let slot = &shared.slots[slot_idx];
    while let Some(batch) = slot.queue.pop_batch(1) {
        for job in batch {
            *slot.current.lock().unwrap() = Some(job.clone());
            run_one(shared, job);
            *slot.current.lock().unwrap() = None;
            slot.processed.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Executes one job to a terminal state (done / failed / expired).
fn run_one(shared: &Shared, job: Job) {
    // Jobs that sat past their deadline expire instead of running: under
    // backlog the server sheds stale work deterministically rather than
    // simulating results nobody is waiting for.
    if job.submitted.elapsed() >= shared.deadline {
        shared.set_state(job.id, JobState::Expired);
        shared.expired.fetch_add(1, Ordering::SeqCst);
        return;
    }
    // Whole-worker kill site: this panic deliberately escapes the
    // per-job isolation below, so it exercises the supervisor's
    // requeue-and-restart path rather than the in-job retry.
    if let Some(c) = shared.chaos.as_ref() {
        c.maybe_panic("server.worker");
    }
    let spec = job.spec;
    let key = spec.key(&shared.sim);
    let progress = Arc::new(RunProgress::default());
    shared.set_state(job.id, JobState::Running(Arc::clone(&progress)));
    let resolver = Resolver {
        progress: Some(&progress),
        ..Resolver::new(shared.store.as_ref())
    };
    let attempt = || {
        catch_unwind(AssertUnwindSafe(|| {
            if let Some(c) = shared.chaos.as_ref() {
                c.maybe_slow("server.job");
                c.maybe_panic("server.job");
            }
            progress
                .epochs_total
                .store(shared.sim.epochs_estimate(), Ordering::Relaxed);
            let jobs = [(&shared.sim, spec)];
            let resolution = resolve(&jobs, &resolver, None, |_, key, f| {
                RunSummary::from_run(key, &f.run)
            });
            resolution
                .jobs
                .into_iter()
                .next()
                .expect("one job in, one report out")
        }))
        .map_err(|payload| chaos::panic_message(payload.as_ref()))
        .and_then(|r| r)
    };
    let mut result = attempt();
    if result.is_err() {
        shared.panics_caught.fetch_add(1, Ordering::SeqCst);
        // An interrupted job that left a checkpoint trail is
        // restartable: one retry resumes from the newest valid
        // checkpoint instead of surfacing the crash.
        let has_trail = shared
            .store
            .as_ref()
            .is_some_and(|s| !s.list_checkpoints(&key).is_empty());
        if has_trail {
            shared.restarted.fetch_add(1, Ordering::SeqCst);
            eprintln!(
                "[served] job {} ({key}) died mid-run; restarting from checkpoint",
                job.id
            );
            result = attempt();
        }
    }
    match result {
        Ok(done) => {
            if !done.persisted {
                // Degraded mode: the simulation succeeded but the store
                // write didn't — serve the in-memory result and warn,
                // never 500.
                shared.degraded.fetch_add(1, Ordering::SeqCst);
                eprintln!(
                    "[served] warn: job {} ({key}) could not be persisted; serving from memory",
                    job.id
                );
            }
            if done.tier == Tier::Resumed {
                shared.resumed.fetch_add(1, Ordering::SeqCst);
            }
            shared.set_state(job.id, JobState::Done(done.value));
            shared.completed.fetch_add(1, Ordering::SeqCst);
        }
        Err(msg) => shared.fail_job(job.id, format!("simulation panicked: {msg}")),
    }
}

/// Handles one parsed request; parse errors and connection lifecycle
/// live in [`serve_pooled`].
fn handle_request(shared: &Shared, req: &Request) -> Reply {
    shared.chaos_slow("server.read");
    let (status, body, stop) = route(shared, req);
    let mut reply = Reply::json(status, body);
    reply.stop = stop;
    if status == 429 {
        // Back-pressured clients get an explicit retry hint.
        reply
            .headers
            .push(("retry-after".to_string(), "1".to_string()));
    }
    // Injected mid-response reset: write a torn head and hang up, so the
    // client exercises its transport-retry path. `POST /shutdown` — the
    // one non-idempotent endpoint — is exempt: resetting it would retry
    // a drain that already happened.
    let resettable = !(req.method == "POST" && req.path == "/shutdown");
    reply.reset = resettable
        && shared
            .chaos
            .as_ref()
            .is_some_and(|c| c.roll(FaultKind::Net, "server.response"));
    reply
}

fn route(shared: &Shared, req: &Request) -> (u16, String, bool) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => (200, health_body(shared), false),
        ("POST", "/runs") => {
            let (status, body) = submit(shared, &req.body);
            (status, body, false)
        }
        ("POST", "/submit-batch") => {
            let (status, body) = submit_batch(shared, &req.body);
            (status, body, false)
        }
        ("GET", path) if path.starts_with("/jobs/") => {
            let (status, body) = job_status(shared, &path["/jobs/".len()..]);
            (status, body, false)
        }
        ("GET", path) if path.starts_with("/runs/") => {
            let (status, body) = stored_run(shared, &path["/runs/".len()..]);
            (status, body, false)
        }
        ("GET", "/stats") => (200, stats_body(shared), false),
        ("POST", "/shutdown") => {
            let body = drain(shared);
            (200, body, true)
        }
        ("GET", _) | ("POST", _) => (404, error_body("no such endpoint"), false),
        _ => (405, error_body("method not allowed"), false),
    }
}

fn queue_depth(shared: &Shared) -> usize {
    shared.slots.iter().map(|s| s.queue.len()).sum()
}

fn queue_capacity(shared: &Shared) -> usize {
    shared.slots.iter().map(|s| s.queue.capacity()).sum()
}

fn health_body(shared: &Shared) -> String {
    ObjWriter::new()
        .bool("ok", true)
        .u64("workers", shared.slots.len() as u64)
        .u64("queue_capacity", queue_capacity(shared) as u64)
        .u64("queue_depth", queue_depth(shared) as u64)
        .finish()
}

/// Outcome of submitting one run spec, shared by the single and batch
/// submit endpoints so both have identical warm-path/queue semantics.
enum SubmitOutcome {
    /// The spec didn't parse.
    Invalid(String),
    /// Served warm from the store.
    Cached { key: String, run: Box<RunResult> },
    /// Routed to a worker queue.
    Queued { id: u64, key: String },
    /// The routed worker's queue is full (load shed).
    QueueFull,
    /// The routed worker's queue is closed.
    Closed { alive: bool },
}

fn submit_one(shared: &Shared, workload: &str, kind: &str, policy: &str) -> SubmitOutcome {
    let spec = match RunSpec::parse(workload, kind, policy) {
        Ok(spec) => spec,
        Err(msg) => return SubmitOutcome::Invalid(msg),
    };
    let key = spec.key(&shared.sim);

    // Warm path: answer immediately from the store, no queue slot used.
    if let Some(run) = shared.store.as_ref().and_then(|s| match spec.kind() {
        crate::store::RunKind::Annotated => s.load_annotated(&key).map(|(run, _)| run),
        _ => s.load_run(&key),
    }) {
        return SubmitOutcome::Cached {
            key,
            run: Box::new(run),
        };
    }

    shared.chaos_slow("server.queue");
    let slot = &shared.slots[route_shard(&key, shared.slots.len())];
    let id = shared.next_job.fetch_add(1, Ordering::SeqCst);
    match slot.queue.try_push(Job {
        id,
        spec,
        submitted: Instant::now(),
        requeued: false,
    }) {
        Ok(()) => {
            shared.set_state(id, JobState::Queued);
            shared.accepted.fetch_add(1, Ordering::SeqCst);
            SubmitOutcome::Queued { id, key }
        }
        Err(PushError::Full) => {
            shared.rejected.fetch_add(1, Ordering::SeqCst);
            SubmitOutcome::QueueFull
        }
        Err(PushError::Closed) => SubmitOutcome::Closed {
            alive: slot.alive.load(Ordering::SeqCst),
        },
    }
}

fn submit(shared: &Shared, body: &str) -> (u16, String) {
    if shared.shutdown.load(Ordering::SeqCst) {
        return (503, error_body("shutting down"));
    }
    let fields = match parse_flat(body) {
        Ok(f) => f,
        Err(msg) => return (400, error_body(&msg)),
    };
    let get = |k: &str| fields.get(k).map(String::as_str).unwrap_or("");
    match submit_one(shared, get("workload"), get("kind"), get("policy")) {
        SubmitOutcome::Invalid(msg) => (400, error_body(&msg)),
        SubmitOutcome::Cached { key, run } => {
            let mut w = ObjWriter::new();
            w.str("state", "done").bool("cached", true);
            RunSummary::from_run(&key, &run).write_fields(&mut w);
            (200, w.finish())
        }
        SubmitOutcome::Queued { id, key } => {
            let body = ObjWriter::new()
                .u64("job", id)
                .str("state", "queued")
                .str("key", &key)
                .finish();
            (202, body)
        }
        SubmitOutcome::QueueFull => (429, error_body("queue_full")),
        SubmitOutcome::Closed { alive: true } => (503, error_body("shutting down")),
        SubmitOutcome::Closed { alive: false } => (503, error_body("worker unavailable")),
    }
}

/// Hard cap on specs per `POST /submit-batch` request (keeps one batch
/// response within the client's read buffer and one request's work
/// bounded).
pub const MAX_BATCH: usize = 256;

/// `POST /submit-batch`: N specs in one request, indexed flat fields
/// (`count`, then `0.workload`/`0.kind`/`0.policy`, `1.…`). Each spec
/// gets the exact single-submit treatment — warm store answer, queue, or
/// shed — reported per index as `i.state` = `done`/`queued`/`rejected`
/// plus the matching fields (`i.key` always present on done/queued, so
/// a remote sweep learns every run key in one round trip).
fn submit_batch(shared: &Shared, body: &str) -> (u16, String) {
    if shared.shutdown.load(Ordering::SeqCst) {
        return (503, error_body("shutting down"));
    }
    let fields = match parse_flat(body) {
        Ok(f) => f,
        Err(msg) => return (400, error_body(&msg)),
    };
    let Some(count) = fields.get("count").and_then(|c| c.parse::<usize>().ok()) else {
        return (400, error_body("count is required"));
    };
    if count == 0 || count > MAX_BATCH {
        return (400, error_body(&format!("count must be 1..={MAX_BATCH}")));
    }
    let mut w = ObjWriter::new();
    w.u64("count", count as u64);
    for i in 0..count {
        let get = |k: &str| {
            fields
                .get(&format!("{i}.{k}"))
                .map(String::as_str)
                .unwrap_or("")
        };
        let p = format!("{i}.");
        match submit_one(shared, get("workload"), get("kind"), get("policy")) {
            SubmitOutcome::Invalid(msg) => {
                w.str(&format!("{p}state"), "rejected")
                    .str(&format!("{p}error"), &msg);
            }
            SubmitOutcome::Cached { key, run } => {
                w.str(&format!("{p}state"), "done")
                    .bool(&format!("{p}cached"), true);
                RunSummary::from_run(&key, &run).write_fields_prefixed(&mut w, &p);
            }
            SubmitOutcome::Queued { id, key } => {
                w.str(&format!("{p}state"), "queued")
                    .u64(&format!("{p}job"), id)
                    .str(&format!("{p}key"), &key);
            }
            SubmitOutcome::QueueFull => {
                w.str(&format!("{p}state"), "rejected")
                    .str(&format!("{p}error"), "queue_full");
            }
            SubmitOutcome::Closed { alive } => {
                w.str(&format!("{p}state"), "rejected").str(
                    &format!("{p}error"),
                    if alive {
                        "shutting down"
                    } else {
                        "worker unavailable"
                    },
                );
            }
        }
    }
    (200, w.finish())
}

fn job_status(shared: &Shared, id_str: &str) -> (u16, String) {
    let Ok(id) = id_str.parse::<u64>() else {
        return (400, error_body("job id must be an integer"));
    };
    let state = shared.jobs.lock().unwrap().get(&id).cloned();
    let Some(state) = state else {
        return (404, error_body("no such job"));
    };
    (200, render_job_status(id, &state))
}

/// Renders the `GET /jobs/{id}` response body for one job state.
///
/// Public so the golden-snapshot tests can pin the poll wire format
/// (field names, order, progress semantics) without a live server.
/// Running jobs report `epochs_done` / `epochs_total` (the total is the
/// [`SystemConfig::epochs_estimate`] lower bound, so `done > total`
/// means "still running"), the last durable checkpoint epoch, and
/// whether the run resumed from a checkpoint.
pub fn render_job_status(id: u64, state: &JobState) -> String {
    let mut w = ObjWriter::new();
    w.u64("job", id);
    match state {
        JobState::Queued => {
            w.str("state", "queued");
        }
        JobState::Running(progress) => {
            w.str("state", "running")
                .u64("epochs_done", progress.epochs_done.load(Ordering::Relaxed))
                .u64(
                    "epochs_total",
                    progress.epochs_total.load(Ordering::Relaxed),
                )
                .u64("ckpt_epoch", progress.ckpt_epoch.load(Ordering::Relaxed))
                .bool("resumed", progress.resumed.load(Ordering::Relaxed));
        }
        JobState::Done(summary) => {
            w.str("state", "done");
            summary.write_fields(&mut w);
        }
        JobState::Failed(msg) => {
            w.str("state", "failed").str("error", msg);
        }
        JobState::Expired => {
            w.str("state", "expired")
                .str("error", "job deadline exceeded before execution");
        }
    }
    w.finish()
}

fn stored_run(shared: &Shared, key: &str) -> (u16, String) {
    if key.len() != 32 || !key.bytes().all(|b| b.is_ascii_hexdigit()) {
        return (400, error_body("key must be 32 hex digits"));
    }
    let Some(store) = shared.store.as_ref() else {
        return (404, error_body("no store configured"));
    };
    let run = store
        .load_run(key)
        .or_else(|| store.load_annotated(key).map(|(run, _)| run));
    match run {
        Some(run) => {
            let mut w = ObjWriter::new();
            w.str("state", "done").bool("cached", true);
            RunSummary::from_run(key, &run).write_fields(&mut w);
            (200, w.finish())
        }
        None => (404, error_body("no stored run under that key")),
    }
}

fn stats_body(shared: &Shared) -> String {
    let mut reg = StatRegistry::new();
    if let Some(store) = shared.store.as_ref() {
        store.export_telemetry(&mut reg, "store");
    }
    reg.gauge_set("server.queue", "depth", queue_depth(shared) as f64);
    reg.gauge_set("server.queue", "capacity", queue_capacity(shared) as f64);
    reg.counter_add(
        "server.jobs",
        "accepted",
        shared.accepted.load(Ordering::SeqCst),
    );
    reg.counter_add(
        "server.jobs",
        "rejected",
        shared.rejected.load(Ordering::SeqCst),
    );
    reg.counter_add(
        "server.jobs",
        "completed",
        shared.completed.load(Ordering::SeqCst),
    );
    reg.counter_add(
        "server.jobs",
        "failed",
        shared.failed.load(Ordering::SeqCst),
    );
    reg.counter_add(
        "server.jobs",
        "expired",
        shared.expired.load(Ordering::SeqCst),
    );
    reg.counter_add(
        "server.jobs",
        "degraded",
        shared.degraded.load(Ordering::SeqCst),
    );
    reg.counter_add(
        "server.jobs",
        "resumed",
        shared.resumed.load(Ordering::SeqCst),
    );
    reg.counter_add(
        "server.jobs",
        "restarted",
        shared.restarted.load(Ordering::SeqCst),
    );
    reg.counter_add(
        "server.jobs",
        "worker_deaths",
        shared.worker_deaths.load(Ordering::SeqCst),
    );
    reg.counter_add(
        "server.jobs",
        "requeued",
        shared.requeued.load(Ordering::SeqCst),
    );
    reg.counter_add(
        "chaos",
        "panics_caught",
        shared.panics_caught.load(Ordering::SeqCst),
    );
    if let Some(c) = shared.chaos.as_ref() {
        c.export_telemetry(&mut reg, "chaos");
    }
    for (i, slot) in shared.slots.iter().enumerate() {
        let scope = format!("server.worker{i}");
        reg.counter_add(&scope, "processed", slot.processed.load(Ordering::SeqCst));
        reg.counter_add(&scope, "deaths", slot.deaths.load(Ordering::SeqCst));
        reg.counter_add(&scope, "restarts", slot.restarts.load(Ordering::SeqCst));
        reg.gauge_set(
            &scope,
            "alive",
            if slot.alive.load(Ordering::SeqCst) {
                1.0
            } else {
                0.0
            },
        );
        reg.gauge_set(&scope, "queue_depth", slot.queue.len() as f64);
    }
    reg.snapshot_full().to_json()
}

/// Closes every worker queue and blocks until every accepted job has
/// completed, failed or expired; returns the final-count response body.
fn drain(shared: &Shared) -> String {
    shared.shutdown.store(true, Ordering::SeqCst);
    for slot in &shared.slots {
        slot.queue.close();
    }
    loop {
        let done = shared.completed.load(Ordering::SeqCst)
            + shared.failed.load(Ordering::SeqCst)
            + shared.expired.load(Ordering::SeqCst);
        if done >= shared.accepted.load(Ordering::SeqCst) {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    ObjWriter::new()
        .bool("drained", true)
        .u64("accepted", shared.accepted.load(Ordering::SeqCst))
        .u64("rejected", shared.rejected.load(Ordering::SeqCst))
        .u64("completed", shared.completed.load(Ordering::SeqCst))
        .u64("failed", shared.failed.load(Ordering::SeqCst))
        .u64("expired", shared.expired.load(Ordering::SeqCst))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::MAX_RESPONSE_BODY_BYTES;

    /// The largest legitimate reply a client or the router reads: a
    /// `/submit-batch` answer of `MAX_BATCH` cached summaries, at
    /// pessimistic field widths (32-character names, `u64::MAX` counts,
    /// floats needing 17 significant digits after leading zeros).
    #[test]
    fn worst_case_batch_reply_fits_the_response_bound() {
        let summary = RunSummary {
            key: "f".repeat(32),
            workload: "w".repeat(32),
            policy: "p".repeat(32),
            ipc: 1.0 / 3.0,
            ser_fit: 1.0e-5 / 3.0,
            ser_vs_ddr_only: 1.0e-5 / 3.0,
            cycles: u64::MAX,
            instructions: u64::MAX,
            mpki: 1.0e-5 / 3.0,
            hbm_accesses: u64::MAX,
            ddr_accesses: u64::MAX,
            migrations: u64::MAX,
        };
        let mut w = ObjWriter::new();
        w.u64("count", MAX_BATCH as u64);
        for i in 0..MAX_BATCH {
            let p = format!("{i}.");
            w.str(&format!("{p}state"), "done")
                .bool(&format!("{p}cached"), true);
            summary.write_fields_prefixed(&mut w, &p);
        }
        let len = w.finish().len();
        eprintln!("worst-case batch reply: {len} bytes");
        assert!(
            4 * len < MAX_RESPONSE_BODY_BYTES,
            "{len}-byte batch reply leaves under 4x headroom"
        );
    }
}
