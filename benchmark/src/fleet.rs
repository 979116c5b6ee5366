//! `fleet_mixed`: open-loop mixed traffic through `ramp-router` and two
//! `ramp-served` shards.
//!
//! Set-up boots the fleet from the repository's release binaries (two
//! shards with one worker each, fresh stores, `--replicas 2`), prewarms a
//! 64-point grid through the router, waits until hinted handoff and every
//! shard queue have drained, and records each warm key's `GET /runs`
//! body. The timed phase is an open loop: requests due at [`RATE_PER_S`]
//! with seeded jitter, sent on [`CONNECTIONS`] keep-alive connections
//! (`ramp_serve::client::Client`, retries off) whether or not earlier
//! requests have finished. Each request is timed from when it was due.
//!
//! Arrivals are evenly spaced rather than Poisson. Under Poisson arrivals
//! the servers' 40 ms delayed-ACK stall on reused connections hit a share
//! of requests that depended on how many gaps happened to be short, and
//! the median jumped between the ~4 ms and ~44 ms modes from one seed to
//! the next. Even spacing keeps every connection's gaps alike; the stall
//! still shows in batch and cold-submit latency, in the tail, and in the
//! traced pass's keep-alive probe.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ramp_serve::client::Client;
use ramp_serve::router::route_shard;
use ramp_sim::SimRng;

use crate::json;
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{median, tail};
use crate::sys::{peak_rss_mb, ChildGuard};
use crate::Args;

/// Request rate of the open loop, per second. Two connections carry
/// about 24 requests/s of this mix while batch and cold-submit requests
/// stall on delayed ACKs; 10/s keeps the generator from queueing.
pub const RATE_PER_S: f64 = 10.0;
/// Largest shift of a request from its slot, as a share of the slot.
pub const JITTER: f64 = 0.25;
/// Keep-alive connections the generator sends on.
pub const CONNECTIONS: usize = 2;
/// Instructions per core of every simulated point (smoke base).
pub const INSTS: u64 = 20_000;
/// Share of `GET /runs/{key}` requests.
pub const GET_SHARE: f64 = 0.70;
/// Share of `POST /submit-batch` requests (the rest are `POST /runs`).
pub const BATCH_SHARE: f64 = 0.20;
/// Warm specs per batch request.
pub const BATCH_SPECS: usize = 8;
/// Zipf exponent of the key popularity.
pub const ZIPF_S: f64 = 0.8;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 3;

/// Workloads of the warm grid (the fleet example's).
pub const GRID_WORKLOADS: [&str; 8] = [
    "mcf", "milc", "omnetpp", "astar", "sphinx", "soplex", "gcc", "lbm",
];
/// `(kind, policy)` columns of the warm grid.
pub const GRID_POLICIES: [(&str, &str); 8] = [
    ("profile", ""),
    ("static", "perf-focused"),
    ("static", "rel-focused"),
    ("static", "balanced"),
    ("static", "wr-ratio"),
    ("static", "wr2-ratio"),
    ("static", "frac-hottest-0.50"),
    ("migration", "perf-fc"),
];

/// The 64 warm `(workload, kind, policy)` specs, workload outermost.
fn warm_specs() -> Vec<(String, String, String)> {
    GRID_WORKLOADS
        .iter()
        .flat_map(|w| {
            GRID_POLICIES
                .iter()
                .map(|(k, p)| (w.to_string(), k.to_string(), p.to_string()))
        })
        .collect()
}

/// One planned request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `GET /runs/{key}` of warm spec `i`.
    Get(usize),
    /// `POST /submit-batch` of these warm specs.
    Batch(Vec<usize>),
    /// `POST /runs` of `static frac-hottest-0.<pct>` on grid workload
    /// `workload` — a spec no store holds yet.
    Submit {
        /// Index into [`GRID_WORKLOADS`].
        workload: usize,
        /// Hundredths of the hottest fraction (never 25 or 50).
        pct: u32,
    },
}

/// A request and when it is due, in µs from the start of the window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Planned {
    /// Due time.
    pub due_us: u64,
    /// What to send.
    pub op: Op,
}

/// The seeded request schedule of a `seconds`-long window over `warm`
/// keys: `RATE_PER_S × seconds` requests, each due in its own slot shifted
/// by up to [`JITTER`] of a slot; exactly the [`GET_SHARE`] /
/// [`BATCH_SHARE`] / rest mix in a seeded order; Zipf key draws over a
/// fixed popularity ranking (so the hot keys, and their entry sizes, are
/// the same for every seed); and cold specs drawn without repetition.
/// Arrivals, mix and keys use independent streams.
pub fn plan(seed: u64, seconds: f64, warm: usize) -> Vec<Planned> {
    let root = SimRng::from_seed(seed);
    let mut arrivals = root.child("fleet.arrivals");
    let mut mix = root.child("fleet.mix");
    let mut keys = root.child("fleet.keys");
    let n = (RATE_PER_S * seconds).round() as usize;
    let slot_us = 1e6 / RATE_PER_S;
    let due: Vec<u64> = (0..n)
        .map(|i| {
            let shift = (arrivals.unit() * 2.0 - 1.0) * JITTER;
            ((i as f64 + 0.5 + shift) * slot_us) as u64
        })
        .collect();
    let gets = (n as f64 * GET_SHARE).round() as usize;
    let batches = (n as f64 * BATCH_SHARE).round() as usize;
    let mut kinds: Vec<u8> = (0..n)
        .map(|i| match i {
            i if i < gets => 0,
            i if i < gets + batches => 1,
            _ => 2,
        })
        .collect();
    shuffle(&mut kinds, &mut mix);

    // Popularity rank r is warm spec 37·r mod warm: hot keys spread over
    // the grid's workloads and policies.
    assert!(
        !warm.is_multiple_of(37),
        "the popularity stride must be coprime with the key count"
    );
    let order: Vec<usize> = (0..warm).map(|r| r * 37 % warm).collect();
    let mut cdf = Vec::with_capacity(warm);
    let mut acc = 0.0;
    for r in 0..warm {
        acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
        cdf.push(acc);
    }
    let mut cold: Vec<(usize, u32)> = (0..GRID_WORKLOADS.len())
        .flat_map(|w| {
            (1..100)
                .filter(|p| *p != 25 && *p != 50)
                .map(move |p| (w, p))
        })
        .collect();
    shuffle(&mut cold, &mut keys);
    let mut cold = cold.into_iter().cycle();

    due.into_iter()
        .zip(kinds)
        .map(|(due_us, kind)| {
            let op = if kind == 0 {
                let x = keys.unit() * acc;
                let r = cdf.partition_point(|&c| c < x).min(warm - 1);
                Op::Get(order[r])
            } else if kind == 1 {
                let mut idx: Vec<usize> = (0..warm).collect();
                for i in 0..BATCH_SPECS.min(warm) {
                    let j = i + keys.below((warm - i) as u64) as usize;
                    idx.swap(i, j);
                }
                idx.truncate(BATCH_SPECS);
                Op::Batch(idx)
            } else {
                let (workload, pct) = cold.next().expect("the cold pool is never empty");
                Op::Submit { workload, pct }
            };
            Planned { due_us, op }
        })
        .collect()
}

fn shuffle<T>(v: &mut [T], rng: &mut SimRng) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// A client on a fresh connection (dropped after one use), retries off.
fn fresh(addr: &str) -> Client {
    Client::new(addr.to_string())
        .with_retries(0)
        .with_timeout(Duration::from_secs(30))
}

/// `scope.name` of a `/stats` telemetry document (0 when absent).
fn stat(doc: &json::Value, scope: &str, name: &str) -> f64 {
    doc.get(scope)
        .and_then(|s| s.get(name))
        .and_then(|v| v.get("value"))
        .and_then(json::Value::num)
        .unwrap_or(0.0)
}

fn stats(addr: &str) -> Result<json::Value, String> {
    let doc = fresh(addr)
        .stats()
        .map_err(|e| format!("stats of {addr}: {e}"))?;
    json::parse(&doc).map_err(|e| format!("stats of {addr}: {e}"))
}

/// A running fleet.
struct Fleet {
    shards: Vec<ChildGuard>,
    shard_addrs: Vec<String>,
    router: ChildGuard,
    addr: String,
}

fn wait_port(file: &Path, who: &mut ChildGuard) -> Result<String, String> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(s) = std::fs::read_to_string(file) {
            if !s.trim().is_empty() {
                return Ok(s.trim().to_string());
            }
        }
        if Instant::now() > deadline {
            who.wait_exit(Duration::ZERO);
            return Err(format!("{} never wrote its port file", who.label));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn boot(bins: &Path, dir: &Path) -> Result<Fleet, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let log = |name: &str| -> Result<Stdio, String> {
        std::fs::File::create(dir.join(name))
            .map(Stdio::from)
            .map_err(|e| format!("log file {name}: {e}"))
    };
    let mut shards = Vec::new();
    let mut shard_addrs = Vec::new();
    for i in 0..2 {
        let port = dir.join(format!("shard{i}.port"));
        let mut cmd = Command::new(bins.join("ramp-served"));
        cmd.args(["--smoke", "--workers", "1", "--queue", "256"])
            .args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port)
            .env("RAMP_STORE_DIR", dir.join(format!("shard{i}-store")))
            .env("RAMP_INSTS", INSTS.to_string())
            .stdout(Stdio::null())
            .stderr(log(&format!("shard{i}.err"))?);
        let mut child = ChildGuard::spawn(cmd, &format!("shard {i}"))?;
        shard_addrs.push(wait_port(&port, &mut child)?);
        shards.push(child);
    }
    let port = dir.join("router.port");
    let mut cmd = Command::new(bins.join("ramp-router"));
    cmd.args(["--addr", "127.0.0.1:0", "--replicas", "2"]);
    for a in &shard_addrs {
        cmd.args(["--shard", a]);
    }
    cmd.arg("--port-file")
        .arg(&port)
        .stdout(Stdio::null())
        .stderr(log("router.err")?);
    let mut router = ChildGuard::spawn(cmd, "router")?;
    let addr = wait_port(&port, &mut router)?;
    Ok(Fleet {
        shards,
        shard_addrs,
        router,
        addr,
    })
}

impl Fleet {
    /// Waits until the router holds no undelivered hints and every shard
    /// has finished every job it accepted, three polls in a row.
    fn settle(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut stable = 0;
        let mut last = Vec::new();
        while stable < 3 {
            if Instant::now() > deadline {
                return Err("fleet never drained its handoff and job queues".into());
            }
            std::thread::sleep(Duration::from_millis(10));
            let pending = stat(&stats(&self.addr)?, "router", "handoff_pending");
            let mut counts = Vec::new();
            let mut idle = pending == 0.0;
            for a in &self.shard_addrs {
                let s = stats(a)?;
                let accepted = stat(&s, "server.jobs", "accepted");
                let finished = stat(&s, "server.jobs", "completed")
                    + stat(&s, "server.jobs", "failed")
                    + stat(&s, "server.jobs", "expired");
                idle &= accepted == finished;
                counts.push(accepted);
            }
            stable = if idle && counts == last {
                stable + 1
            } else {
                0
            };
            last = counts;
        }
        Ok(())
    }

    /// Router and shard counters the benchmark reports deltas of.
    fn counters(&self) -> Result<BTreeMap<&'static str, f64>, String> {
        let r = stats(&self.addr)?;
        let mut c = BTreeMap::new();
        c.insert("serve.router.proxied", stat(&r, "router", "proxied"));
        c.insert("serve.router.failover", stat(&r, "router", "failover"));
        let handoff: f64 = (0..self.shard_addrs.len())
            .map(|i| stat(&r, &format!("router.shard{i}"), "hints_delivered"))
            .sum();
        c.insert("serve.router.handoff", handoff);
        for a in &self.shard_addrs {
            let s = stats(a)?;
            for (name, scope, field) in [
                ("serve.server.completed", "server.jobs", "completed"),
                ("serve.server.rejected", "server.jobs", "rejected"),
                ("serve.server.failed", "server.jobs", "failed"),
                ("serve.server.expired", "server.jobs", "expired"),
                ("serve.store.hits", "store", "hits"),
                ("serve.store.misses", "store", "misses"),
                ("serve.store.writes", "store", "writes"),
            ] {
                *c.entry(name).or_insert(0.0) += stat(&s, scope, field);
            }
        }
        Ok(c)
    }

    /// The shard the router asks first for `key`.
    fn owner(&self, key: &str) -> &str {
        &self.shard_addrs[route_shard(key, self.shard_addrs.len())]
    }

    /// Summed peak resident memory of the router and shards, in MB.
    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(Some(self.router.pid()))
            + self
                .shards
                .iter()
                .map(|s| peak_rss_mb(Some(s.pid())))
                .sum::<f64>()
    }

    /// Graceful shutdown: router first, then the shards; `true` when all
    /// three drained and exited cleanly.
    fn shutdown(mut self) -> bool {
        let mut ok = fresh(&self.addr).shutdown().is_ok();
        ok &= self.router.wait_exit(Duration::from_secs(10));
        for (a, s) in self.shard_addrs.iter().zip(self.shards.iter_mut()) {
            ok &= fresh(a).shutdown().is_ok();
            ok &= s.wait_exit(Duration::from_secs(10));
        }
        ok
    }
}

/// The warm state set-up leaves behind.
struct Warm {
    specs: Vec<(String, String, String)>,
    keys: Vec<String>,
    bodies: Vec<String>,
}

/// Boots a fleet, prewarms the grid through the router and records the
/// warm bodies. The router relays a shard's body verbatim, so they are
/// read from each key's owning shard on fresh connections, which keeps
/// this part of set-up independent of keep-alive behaviour.
fn set_up(bins: &Path, dir: &Path) -> Result<(Fleet, Warm), String> {
    let fleet = boot(bins, dir)?;
    let specs = warm_specs();
    let items = fresh(&fleet.addr)
        .submit_batch(&specs)
        .map_err(|e| format!("prewarm batch: {e}"))?;
    let keys = items
        .iter()
        .map(|it| {
            it.key.clone().ok_or_else(|| {
                format!(
                    "prewarm item {} without a key ({})",
                    it.state,
                    it.error.as_deref().unwrap_or("")
                )
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    fleet.settle()?;
    let mut bodies = Vec::with_capacity(keys.len());
    for key in &keys {
        let r = fresh(fleet.owner(key))
            .run_summary(key)
            .map_err(|e| format!("GET {key}: {e}"))?;
        if r.status != 200 {
            return Err(format!("GET {key} after prewarm answered {}", r.status));
        }
        bodies.push(r.body);
    }
    Ok((
        fleet,
        Warm {
            specs,
            keys,
            bodies,
        },
    ))
}

/// What happened to one request.
#[derive(Clone, Debug)]
struct Outcome {
    kind: &'static str,
    /// Seconds from the window start.
    due: f64,
    sent: f64,
    done: f64,
    ok: bool,
    job: Option<u64>,
    why: String,
}

fn send(client: &Client, op: &Op, warm: &Warm) -> (bool, Option<u64>, String) {
    match op {
        Op::Get(k) => match client.run_summary(&warm.keys[*k]) {
            Ok(r) if r.status == 200 && r.body == warm.bodies[*k] => (true, None, String::new()),
            Ok(r) => (
                false,
                None,
                format!(
                    "GET {} answered {} with a different body",
                    warm.keys[*k], r.status
                ),
            ),
            Err(e) => (false, None, format!("GET {}: {e}", warm.keys[*k])),
        },
        Op::Batch(idx) => {
            let specs: Vec<_> = idx.iter().map(|&i| warm.specs[i].clone()).collect();
            match client.submit_batch(&specs) {
                Ok(items) if items.iter().all(|it| it.state == "done") => {
                    (true, None, String::new())
                }
                Ok(items) => (
                    false,
                    None,
                    format!(
                        "batch items not answered inline: {:?}",
                        items.iter().map(|it| it.state.as_str()).collect::<Vec<_>>()
                    ),
                ),
                Err(e) => (false, None, format!("submit-batch: {e}")),
            }
        }
        Op::Submit { workload, pct } => {
            let policy = format!("frac-hottest-0.{pct:02}");
            match client.submit(GRID_WORKLOADS[*workload], "static", &policy) {
                Ok(s) if s.status == 202 && s.job.is_some() => (true, s.job, String::new()),
                Ok(s) => (
                    false,
                    None,
                    format!("POST /runs {policy} answered {} (not queued)", s.status),
                ),
                Err(e) => (false, None, format!("POST /runs {policy}: {e}")),
            }
        }
    }
}

/// Sends `plan` open-loop on [`CONNECTIONS`] keep-alive connections.
fn window(addr: &str, plan: &[Planned], warm: &Warm, tracer: &Tracer) -> Vec<Outcome> {
    let root = tracer.span("gen.window", 0, 0);
    let next = AtomicUsize::new(0);
    let outcomes = Mutex::new(Vec::with_capacity(plan.len()));
    let t0 = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| {
                let client = Client::new(addr.to_string())
                    .with_retries(0)
                    .with_timeout(Duration::from_secs(30));
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(p) = plan.get(i) else { break };
                    let due = t0 + Duration::from_micros(p.due_us);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let kind = match p.op {
                        Op::Get(_) => "http.get_run",
                        Op::Batch(_) => "http.submit_batch",
                        Op::Submit { .. } => "http.submit",
                    };
                    let sent = Instant::now();
                    let (ok, job, why) = {
                        let _s = tracer.span(kind, root.id(), i as u64);
                        send(&client, &p.op, warm)
                    };
                    let done = Instant::now();
                    let at = |t: Instant| t.saturating_duration_since(t0).as_secs_f64();
                    outcomes.lock().expect("outcomes poisoned").push(Outcome {
                        kind,
                        due: p.due_us as f64 / 1e6,
                        sent: at(sent),
                        done: at(done),
                        ok,
                        job,
                        why,
                    });
                }
            });
        }
    });
    outcomes.into_inner().expect("outcomes poisoned")
}

/// Polls every cold job to a terminal state (fresh connections); returns
/// one failure message per job that did not end `done`.
fn drain_jobs(addr: &str, outcomes: &[Outcome]) -> Vec<String> {
    let mut failures = Vec::new();
    for job in outcomes.iter().filter_map(|o| o.job) {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match fresh(addr).job_status(job) {
                Ok(r) if r.state() == Some("done") => break,
                Ok(r) if matches!(r.state(), Some("failed") | Some("expired")) => {
                    failures.push(format!("cold job {job} ended {}", r.state().unwrap_or("")));
                    break;
                }
                Err(e) => {
                    failures.push(format!("polling cold job {job}: {e}"));
                    break;
                }
                Ok(_) if Instant::now() > deadline => {
                    failures.push(format!("cold job {job} still running after 60 s"));
                    break;
                }
                Ok(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
    failures
}

/// p50 (ms) of `n` sequential `GET`s of `key`: on one pooled connection
/// (after one unmeasured request that opens it), or on a fresh
/// connection each.
fn probe_get(addr: &str, key: &str, pooled: bool, n: usize) -> Result<f64, String> {
    let client = fresh(addr);
    if pooled {
        client
            .run_summary(key)
            .map_err(|e| format!("GET {key}: {e}"))?;
    }
    let mut ms = Vec::with_capacity(n);
    for _ in 0..n {
        let c = if pooled { client.clone() } else { fresh(addr) };
        let start = Instant::now();
        let r = c.run_summary(key).map_err(|e| format!("GET {key}: {e}"))?;
        ms.push(start.elapsed().as_secs_f64() * 1e3);
        if r.status != 200 {
            return Err(format!("probe GET {key} answered {}", r.status));
        }
    }
    Ok(median(&ms))
}

fn latencies_ms(outcomes: &[Outcome], kind: Option<&str>, from_due: bool) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| kind.is_none_or(|k| o.kind == k))
        .map(|o| (o.done - if from_due { o.due } else { o.sent }) * 1e3)
        .collect()
}

/// Runs `fleet_mixed` into `report`.
pub fn run(args: &Args, report: &mut Report, tracer: &Tracer, bins: &Path) -> Result<(), String> {
    let work = crate::sys::WorkDir::new("fleet_mixed").map_err(|e| format!("work dir: {e}"))?;
    let mut setup_secs = Vec::new();
    let mut current: Option<(Fleet, Warm)> = None;
    for k in 0..SETUPS {
        let dir: PathBuf = work.path().join(format!("fleet-{k}"));
        let start = Instant::now();
        let up = set_up(bins, &dir)?;
        setup_secs.push(start.elapsed().as_secs_f64());
        if let Some((old, _)) = current.replace(up) {
            report.check(old.shutdown(), || {
                "a set-up fleet did not shut down cleanly".into()
            });
            let _ = std::fs::remove_dir_all(work.path().join(format!("fleet-{}", k - 1)));
        }
    }
    eprintln!("[bench] set-up: {setup_secs:.3?} s");
    report.set("setup_s", median(&setup_secs));
    let (fleet, warm) = current.expect("at least one set-up");

    // Trace runs send a second, traced window right after the first; both
    // halves come from one plan so every cold spec stays fresh.
    let windows = if tracer.on() { 2.0 } else { 1.0 };
    let full = plan(args.seed, args.seconds * windows, warm.keys.len());
    let split = full
        .iter()
        .position(|p| p.due_us as f64 >= args.seconds * 1e6)
        .unwrap_or(full.len());
    let (first, second) = full.split_at(split);
    let second: Vec<Planned> = second
        .iter()
        .map(|p| Planned {
            due_us: p.due_us - (args.seconds * 1e6) as u64,
            op: p.op.clone(),
        })
        .collect();

    let before = fleet.counters()?;
    let outcomes = window(&fleet.addr, first, &warm, &Tracer::new(false));
    for o in &outcomes {
        report.check(o.ok, || o.why.clone());
    }
    for f in drain_jobs(&fleet.addr, &outcomes) {
        report.check(false, || f);
    }
    fleet.settle()?;
    let after = fleet.counters()?;
    for bad in ["serve.server.failed", "serve.server.expired"] {
        let d = after[bad] - before[bad];
        report.check(d == 0.0, || format!("{d} shard jobs counted under {bad}"));
    }

    let lat = latencies_ms(&outcomes, None, true);
    report.set(
        "latency_ms_mean",
        lat.iter().sum::<f64>() / lat.len().max(1) as f64,
    );
    report.set("peak_rss_mb", fleet.peak_rss_mb());
    let t = tail(&lat);
    report.set("req_ms_p50", median(&lat));
    report.set("req_ms_tail", t.value);
    report.set("req.tail_pct", t.pct);
    report.set("req.samples", t.samples as f64);
    for (kind, p50, tl) in [
        (
            "http.get_run",
            "http.get_run_ms_p50",
            "http.get_run_ms_tail",
        ),
        (
            "http.submit_batch",
            "http.submit_batch_ms_p50",
            "http.submit_batch_ms_tail",
        ),
        ("http.submit", "http.submit_ms_p50", "http.submit_ms_tail"),
    ] {
        let v = latencies_ms(&outcomes, Some(kind), false);
        report.set(p50, median(&v));
        report.set(tl, tail(&v).value);
    }
    let late: Vec<f64> = outcomes.iter().map(|o| (o.sent - o.due) * 1e3).collect();
    report.set("gen.late_ms_tail", tail(&late).value);
    report.set("gen.sent", outcomes.len() as f64);
    for name in [
        "serve.router.proxied",
        "serve.router.failover",
        "serve.router.handoff",
        "serve.server.completed",
        "serve.server.rejected",
        "serve.store.hits",
        "serve.store.misses",
        "serve.store.writes",
    ] {
        report.set(name, after[name] - before[name]);
    }

    if tracer.on() {
        let start = Instant::now();
        let traced = window(&fleet.addr, &second, &warm, tracer);
        let wall = start.elapsed();
        for o in &traced {
            report.check(o.ok, || o.why.clone());
        }
        for f in drain_jobs(&fleet.addr, &traced) {
            report.check(false, || f);
        }
        if let Err(e) = tracer.check_self_times(wall.as_nanos() as u64) {
            report.check(false, || e);
        }
        report.set(
            "trace.overhead_frac",
            median(&latencies_ms(&traced, None, true)) / median(&lat) - 1.0,
        );
        // One warm GET sent straight to its owning shard on a pooled and
        // on a fresh connection, and through the router on a pooled one.
        let key = &warm.keys[0];
        let keepalive = probe_get(fleet.owner(key), key, true, 20)?;
        let fresh_conn = probe_get(fleet.owner(key), key, false, 20)?;
        let routed = probe_get(&fleet.addr, key, true, 20)?;
        report.set("http.keepalive_ms_p50", keepalive);
        report.set("http.fresh_conn_ms_p50", fresh_conn);
        report.set("serve.router.hop_ms_p50", routed - keepalive);
    }

    report.check(fleet.shutdown(), || {
        "the measured fleet did not shut down cleanly".into()
    });
    Ok(())
}
