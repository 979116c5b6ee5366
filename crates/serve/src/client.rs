//! A scriptable client for the experiment server and the shard router.
//!
//! Requests ride HTTP/1.1 keep-alive: the client holds one pooled
//! connection (request-capped, shared across clones) and reuses it
//! while the server advertises `Connection: keep-alive`; a stale pooled
//! connection gets one silent fresh-dial retry, so reuse never costs a
//! retry-budget attempt. Typed helpers wrap each endpoint and return
//! the response's flat JSON object as a string→string field map;
//! [`smoke`] drives the full serving choreography (warm-cache replay,
//! backpressure, graceful drain) and is what `scripts/ci.sh` runs.
//!
//! The client owns an ordered **endpoint list** ([`Client::new`] plus
//! [`Client::with_fallbacks`]): transport failures rotate to the next
//! endpoint, and the first endpoint that answers stays sticky — the CLI
//! survives a dead front end as long as any fallback is alive.
//! Transport faults (connect refused, reset mid-response) are retried
//! with exponential backoff and decorrelated jitter up to a configurable
//! budget; `429` responses honor the server's `retry-after` hint when
//! [`Client::with_retry_429`] opts in. Retrying a `POST /runs` is safe —
//! runs are idempotent by construction, keyed by the content-addressed
//! run key, so a resubmit either hits the warm store or re-enqueues the
//! byte-identical computation. Failures surface as classified
//! [`ClientError`] values, never bare strings or panics.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ramp_sim::codec::fnv1a64;
use ramp_sim::rng::mix64;

use crate::http::{read_response_full, write_request, HttpResponse};
use crate::json::{parse_flat, ObjWriter};

/// Default per-request socket timeout.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);
/// Default transport retry budget (attempts = 1 + retries).
pub const DEFAULT_RETRIES: u32 = 3;
/// Default base backoff between retried attempts.
pub const DEFAULT_BACKOFF: Duration = Duration::from_millis(50);
/// Default backoff ceiling.
pub const DEFAULT_BACKOFF_CAP: Duration = Duration::from_secs(2);
/// Requests sent per pooled connection before it is retired.
const CLIENT_MAX_REQUESTS: u32 = 128;

/// A classified client-side failure.
#[derive(Clone, Debug)]
pub enum ClientError {
    /// TCP connect failed on every attempt.
    Connect {
        /// Server address dialed.
        addr: String,
        /// Attempts made.
        attempts: u32,
        /// Last OS error text.
        last: String,
    },
    /// The request or response failed in flight on every attempt.
    Transport {
        /// What failed (send/read detail).
        what: String,
        /// Attempts made.
        attempts: u32,
    },
    /// A job did not reach a terminal state within the wait budget.
    Timeout {
        /// Job id being polled.
        job: u64,
        /// Milliseconds waited.
        waited_ms: u64,
        /// Last observed job state.
        last_state: String,
    },
    /// The server answered, but not in a way the caller can use.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect {
                addr,
                attempts,
                last,
            } => write!(
                f,
                "connect {addr} failed after {attempts} attempt(s): {last}"
            ),
            ClientError::Transport { what, attempts } => {
                write!(f, "transport failed after {attempts} attempt(s): {what}")
            }
            ClientError::Timeout {
                job,
                waited_ms,
                last_state,
            } => write!(
                f,
                "job {job} not terminal after {waited_ms} ms (last state: {last_state})"
            ),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ClientError> for String {
    fn from(e: ClientError) -> String {
        e.to_string()
    }
}

/// One parsed server response.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Flat JSON fields of the body (empty when the body wasn't flat
    /// JSON, e.g. the nested `/stats` document).
    pub fields: BTreeMap<String, String>,
    /// Raw body text.
    pub body: String,
    /// The `retry-after` header in whole seconds, when sent (429s).
    pub retry_after: Option<u64>,
}

impl Response {
    fn parse(status: u16, body: String, retry_after: Option<u64>) -> Response {
        let fields = parse_flat(&body).unwrap_or_default();
        Response {
            status,
            fields,
            body,
            retry_after,
        }
    }

    /// The job state field, if present.
    pub fn state(&self) -> Option<&str> {
        self.fields.get("state").map(String::as_str)
    }
}

/// Outcome of a `POST /runs`.
#[derive(Clone, Debug)]
pub struct Submit {
    /// HTTP status (200 cached, 202 queued, 429 shed, 400 invalid).
    pub status: u16,
    /// Job id when the run was queued.
    pub job: Option<u64>,
    /// Content-addressed result key, when known.
    pub key: Option<String>,
    /// True when the response carried a cached result.
    pub cached: bool,
    /// The full response.
    pub response: Response,
}

/// Outcome of one spec inside a `POST /submit-batch` response.
#[derive(Clone, Debug)]
pub struct BatchSubmit {
    /// Per-spec state: `done` (served warm), `queued`, or `rejected`.
    pub state: String,
    /// Job id when the spec was queued.
    pub job: Option<u64>,
    /// Content-addressed run key, when known.
    pub key: Option<String>,
    /// True when the spec was answered from the store.
    pub cached: bool,
    /// Rejection reason (`queue_full`, a parse error, …).
    pub error: Option<String>,
    /// All fields of this spec's slice of the response, index prefix
    /// stripped (cached entries carry the full run summary).
    pub fields: BTreeMap<String, String>,
}

/// One kept-alive connection, pooled between requests.
#[derive(Debug)]
struct PooledConn {
    addr: String,
    stream: TcpStream,
    served: u32,
}

/// A client bound to an ordered list of server endpoints (the primary
/// plus fallbacks). Clones share the endpoint stickiness and the pooled
/// connection.
#[derive(Clone, Debug)]
pub struct Client {
    endpoints: Vec<String>,
    /// Index of the endpoint that last answered; requests start here.
    active: Arc<AtomicUsize>,
    /// At most one kept-alive connection, reused across requests.
    pool: Arc<Mutex<Option<PooledConn>>>,
    timeout: Duration,
    retries: u32,
    backoff: Duration,
    backoff_cap: Duration,
    retry_429: bool,
}

impl Client {
    /// Creates a client for `addr` (e.g. `"127.0.0.1:7177"`).
    pub fn new(addr: String) -> Client {
        Client {
            endpoints: vec![addr],
            active: Arc::new(AtomicUsize::new(0)),
            pool: Arc::new(Mutex::new(None)),
            timeout: DEFAULT_TIMEOUT,
            retries: DEFAULT_RETRIES,
            backoff: DEFAULT_BACKOFF,
            backoff_cap: DEFAULT_BACKOFF_CAP,
            retry_429: false,
        }
    }

    /// Appends fallback endpoints tried (in order) when the active one
    /// fails; the first endpoint that answers becomes sticky.
    pub fn with_fallbacks(mut self, fallbacks: Vec<String>) -> Client {
        self.endpoints.extend(fallbacks);
        self
    }

    /// Overrides the per-request socket timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    /// Overrides the transport retry budget (`0` fails fast).
    pub fn with_retries(mut self, retries: u32) -> Client {
        self.retries = retries;
        self
    }

    /// Overrides the base backoff (the cap scales to `40×` base, at
    /// least the default cap).
    pub fn with_backoff(mut self, backoff: Duration) -> Client {
        self.backoff = backoff;
        self.backoff_cap = DEFAULT_BACKOFF_CAP.max(backoff * 40);
        self
    }

    /// Also retry `429` responses (honoring `retry-after`). Off by
    /// default: shed load is a meaningful answer for load probes like
    /// the smoke choreography's backpressure burst.
    pub fn with_retry_429(mut self, retry: bool) -> Client {
        self.retry_429 = retry;
        self
    }

    /// The server address this client currently talks to (the endpoint
    /// that last answered, or the primary before any request).
    pub fn addr(&self) -> &str {
        &self.endpoints[self.active.load(Ordering::Relaxed) % self.endpoints.len()]
    }

    /// The deterministic decorrelated-jitter delay before retry
    /// `attempt`: `base + unit * (3·prev − base)`, capped. The jitter
    /// unit is hashed from `(primary addr, path, attempt)`, so a replay
    /// backs off identically while distinct callers decorrelate.
    fn backoff_delay(&self, path: &str, attempt: u32, prev: Duration) -> Duration {
        let seed = fnv1a64(self.endpoints[0].as_bytes()) ^ fnv1a64(path.as_bytes()).rotate_left(17);
        let h = mix64(seed ^ mix64(attempt as u64 + 1));
        let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let base = self.backoff.as_secs_f64();
        let spread = (prev.as_secs_f64() * 3.0 - base).max(0.0);
        Duration::from_secs_f64((base + unit * spread).min(self.backoff_cap.as_secs_f64()))
    }

    fn request(&self, method: &str, path: &str, body: &str) -> Result<Response, ClientError> {
        // Enough attempts to retry the retry budget *and* to visit
        // every fallback endpoint at least once.
        let budget = (self.retries + 1).max(self.endpoints.len() as u32);
        let start = self.active.load(Ordering::Relaxed);
        let mut prev_delay = self.backoff;
        let mut attempt: u32 = 0;
        loop {
            let idx = (start + attempt as usize) % self.endpoints.len();
            let addr = &self.endpoints[idx];
            attempt += 1;
            match self.request_once(addr, method, path, body) {
                Ok(resp) => {
                    // This endpoint answered: stick to it.
                    self.active.store(idx, Ordering::Relaxed);
                    if resp.status == 429 && self.retry_429 && attempt <= self.retries {
                        // Honor the server's hint, floor it at our own
                        // jittered backoff so tight hints still spread.
                        let hinted = Duration::from_secs(resp.retry_after.unwrap_or(0));
                        let delay = self.backoff_delay(path, attempt, prev_delay).max(hinted);
                        std::thread::sleep(delay);
                        prev_delay = delay;
                        continue;
                    }
                    return Ok(resp);
                }
                Err(_) if attempt < budget => {
                    let delay = self.backoff_delay(path, attempt, prev_delay);
                    std::thread::sleep(delay);
                    prev_delay = delay;
                }
                Err((connect_phase, last)) => {
                    return Err(if connect_phase {
                        ClientError::Connect {
                            addr: addr.clone(),
                            attempts: attempt,
                            last,
                        }
                    } else {
                        ClientError::Transport {
                            what: last,
                            attempts: attempt,
                        }
                    });
                }
            }
        }
    }

    /// One keep-alive exchange against `addr`; the error side carries
    /// whether the failure was in the connect phase. A pooled
    /// connection that fails gets one silent fresh-dial retry — the
    /// server may simply have reaped it — so reuse never consumes a
    /// retry-budget attempt.
    fn request_once(
        &self,
        addr: &str,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<Response, (bool, String)> {
        let pooled = {
            let mut slot = self.pool.lock().unwrap();
            slot.take().filter(|p| p.addr == addr)
        };
        if let Some(mut p) = pooled {
            if let Ok(resp) = Self::exchange(&mut p.stream, addr, method, path, body) {
                self.repool(p.stream, addr, p.served + 1, &resp);
                let retry_after = resp.retry_after_secs();
                return Ok(Response::parse(resp.status, resp.body, retry_after));
            }
            // Stale: fall through to a fresh connection.
        }
        let mut stream =
            TcpStream::connect(addr).map_err(|e| (true, format!("connect {addr}: {e}")))?;
        let _ = stream.set_read_timeout(Some(self.timeout));
        let _ = stream.set_write_timeout(Some(self.timeout));
        let _ = stream.set_nodelay(true);
        let resp = Self::exchange(&mut stream, addr, method, path, body).map_err(|e| (false, e))?;
        self.repool(stream, addr, 1, &resp);
        let retry_after = resp.retry_after_secs();
        Ok(Response::parse(resp.status, resp.body, retry_after))
    }

    /// Sends one request (advertising keep-alive) and reads the reply.
    fn exchange(
        stream: &mut TcpStream,
        addr: &str,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<HttpResponse, String> {
        write_request(stream, addr, method, path, body)
            .map_err(|e| format!("send request: {e}"))?;
        read_response_full(stream).map_err(|e| e.to_string())
    }

    /// Keeps the connection for the next request if the server left it
    /// open and the per-connection request cap allows.
    fn repool(&self, stream: TcpStream, addr: &str, served: u32, resp: &HttpResponse) {
        if resp.keep_alive() && served < CLIENT_MAX_REQUESTS {
            *self.pool.lock().unwrap() = Some(PooledConn {
                addr: addr.to_string(),
                stream,
                served,
            });
        }
    }

    /// `GET /health`.
    pub fn health(&self) -> Result<Response, ClientError> {
        self.request("GET", "/health", "")
    }

    /// `POST /runs` with the given triple; `policy` may be empty for
    /// `profile`/`annotated` runs.
    ///
    /// Safe to retry (and retried automatically on transport faults):
    /// the run is identified by its content-addressed key, so a
    /// resubmit after a torn response is idempotent — it is served warm
    /// from the store or re-enqueues the identical computation.
    pub fn submit(&self, workload: &str, kind: &str, policy: &str) -> Result<Submit, ClientError> {
        let mut w = ObjWriter::new();
        w.str("workload", workload).str("kind", kind);
        if !policy.is_empty() {
            w.str("policy", policy);
        }
        let response = self.request("POST", "/runs", &w.finish())?;
        let job = response.fields.get("job").and_then(|j| j.parse().ok());
        let key = response.fields.get("key").cloned();
        let cached = response.fields.get("cached").map(String::as_str) == Some("true");
        Ok(Submit {
            status: response.status,
            job,
            key,
            cached,
            response,
        })
    }

    /// `POST /submit-batch` with `(workload, kind, policy)` triples;
    /// `policy` may be empty for `profile`/`annotated` runs.
    ///
    /// One request submits every spec and returns one [`BatchSubmit`]
    /// per spec, in order — the round-trip saver the sweep engine's
    /// remote fan-out uses. Like [`Client::submit`], safe to retry:
    /// every spec is idempotent under its content-addressed key.
    pub fn submit_batch(
        &self,
        specs: &[(String, String, String)],
    ) -> Result<Vec<BatchSubmit>, ClientError> {
        let mut w = ObjWriter::new();
        w.u64("count", specs.len() as u64);
        for (i, (workload, kind, policy)) in specs.iter().enumerate() {
            w.str(&format!("{i}.workload"), workload)
                .str(&format!("{i}.kind"), kind);
            if !policy.is_empty() {
                w.str(&format!("{i}.policy"), policy);
            }
        }
        let response = self.request("POST", "/submit-batch", &w.finish())?;
        if response.status != 200 {
            return Err(ClientError::Protocol(format!(
                "submit-batch returned {}: {}",
                response.status, response.body
            )));
        }
        let count: usize = response
            .fields
            .get("count")
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| ClientError::Protocol("submit-batch response without count".into()))?;
        if count != specs.len() {
            return Err(ClientError::Protocol(format!(
                "submit-batch answered {count} specs for {} submitted",
                specs.len()
            )));
        }
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let prefix = format!("{i}.");
            let fields: BTreeMap<String, String> = response
                .fields
                .iter()
                .filter_map(|(k, v)| {
                    k.strip_prefix(&prefix)
                        .map(|rest| (rest.to_string(), v.clone()))
                })
                .collect();
            let state = fields
                .get("state")
                .cloned()
                .ok_or_else(|| ClientError::Protocol(format!("spec {i} without a state")))?;
            out.push(BatchSubmit {
                state,
                job: fields.get("job").and_then(|j| j.parse().ok()),
                key: fields.get("key").cloned(),
                cached: fields.get("cached").map(String::as_str) == Some("true"),
                error: fields.get("error").cloned(),
                fields,
            });
        }
        Ok(out)
    }

    /// `GET /jobs/{id}`.
    pub fn job_status(&self, id: u64) -> Result<Response, ClientError> {
        self.request("GET", &format!("/jobs/{id}"), "")
    }

    /// Polls `GET /jobs/{id}` until the job leaves the queue/run states.
    ///
    /// Returns the terminal response (`state` is `done`, `failed` or
    /// `expired`) or [`ClientError::Timeout`] after `timeout_ms`
    /// milliseconds. Polling sleeps between attempts with a growing
    /// interval (10 ms doubling to 500 ms), so a slow job — or a server
    /// that refuses connections while restarting — is never busy-spun.
    pub fn wait_done(&self, id: u64, timeout_ms: u64) -> Result<Response, ClientError> {
        let started = Instant::now();
        let deadline = started + Duration::from_millis(timeout_ms);
        let mut interval = Duration::from_millis(10);
        loop {
            let response = self.job_status(id)?;
            match response.state() {
                Some("done") | Some("failed") | Some("expired") => return Ok(response),
                state => {
                    if Instant::now() >= deadline {
                        return Err(ClientError::Timeout {
                            job: id,
                            waited_ms: started.elapsed().as_millis() as u64,
                            last_state: state.unwrap_or("unknown").to_string(),
                        });
                    }
                    std::thread::sleep(
                        interval.min(deadline.saturating_duration_since(Instant::now())),
                    );
                    interval = (interval * 2).min(Duration::from_millis(500));
                }
            }
        }
    }

    /// `GET /runs/{key}` — fetch a stored result by content key.
    pub fn run_summary(&self, key: &str) -> Result<Response, ClientError> {
        self.request("GET", &format!("/runs/{key}"), "")
    }

    /// `GET /stats` — the raw telemetry JSON document.
    pub fn stats(&self) -> Result<String, ClientError> {
        let response = self.request("GET", "/stats", "")?;
        if response.status != 200 {
            return Err(ClientError::Protocol(format!(
                "stats returned {}",
                response.status
            )));
        }
        Ok(response.body)
    }

    /// `POST /shutdown` — drains the server and returns the final counts.
    ///
    /// The one non-idempotent endpoint: it is still transport-retried
    /// (the server exempts it from injected resets, and a repeat drain
    /// of a drained server is a no-op answered after the first).
    pub fn shutdown(&self) -> Result<Response, ClientError> {
        self.request("POST", "/shutdown", "")
    }
}

/// Extracts the first counter named `name` from a (possibly nested)
/// JSON document: either the bare form `"name":7` or the telemetry
/// snapshot form `"name":{"type":"counter","value":7}`.
///
/// Good enough for picking single counters out of the `/stats` snapshot
/// without a JSON tree parser.
pub fn scan_counter(doc: &str, name: &str) -> Option<u64> {
    let needle = format!("\"{name}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let digits = if let Some(obj) = rest.strip_prefix('{') {
        // Typed-stat form: read the "value" field of this object only.
        let end = obj.find('}')?;
        let inner = &obj[..end];
        let v = inner.find("\"value\":")? + "\"value\":".len();
        inner[v..].trim_start()
    } else {
        rest
    };
    let digits: String = digits.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Drives the full serving choreography against a live server; used by
/// the CI smoke stage (`ramp-client smoke`) and the integration tests.
///
/// Expects a server with **workers = 1, queue_capacity = 1** so that
/// backpressure is provokable, and a configured store. Verifies:
///
/// 1. liveness (`/health`),
/// 2. submit → poll → done → fetch-by-key round trip,
/// 3. a resubmit of the same run is served from the store (`cached`),
///    and `/stats` shows `store.hits > 0`,
/// 4. a burst of concurrent submits on distinct workloads gets at least
///    one `202` *and* at least one `429` (bounded queue sheds load),
/// 5. `POST /shutdown` drains: accepted == completed + failed + expired,
///    and the server really exits (subsequent connects fail).
///
/// Returns a human-readable transcript of what was checked.
pub fn smoke(addr: &str) -> Result<String, String> {
    smoke_with(&Client::new(addr.to_string()))
}

/// [`smoke`] with a caller-configured client — the chaos CI stage passes
/// one with a larger retry budget so the choreography stays green under
/// injected socket resets. The backpressure burst still requires raw
/// `429`s, so the client must not have [`Client::with_retry_429`] set.
pub fn smoke_with(client: &Client) -> Result<String, String> {
    let client = client.clone();
    let addr = client.addr().to_string();
    let addr = addr.as_str();
    let mut transcript = String::new();
    let mut note = |line: String| {
        transcript.push_str(&line);
        transcript.push('\n');
    };

    let health = client.health()?;
    if health.status != 200 {
        return Err(format!("health returned {}", health.status));
    }
    note(format!("health ok: {}", health.body));

    // Round trip one run.
    let submit = client.submit("lbm", "static", "perf-focused")?;
    let key = match (submit.status, submit.cached) {
        (202, _) => {
            let job = submit.job.ok_or("202 without job id")?;
            let done = client.wait_done(job, 120_000)?;
            if done.state() != Some("done") {
                return Err(format!("job {job} ended as {:?}", done.state()));
            }
            note(format!("job {job} done: ipc={}", done.fields["ipc"]));
            done.fields["key"].clone()
        }
        (200, true) => submit.key.clone().ok_or("cached response without key")?,
        (status, _) => return Err(format!("submit returned {status}")),
    };
    let fetched = client.run_summary(&key)?;
    if fetched.status != 200 {
        return Err(format!("fetch by key returned {}", fetched.status));
    }
    note(format!("fetched {key}: ipc={}", fetched.fields["ipc"]));

    // Resubmit: must be served from the store, no new job.
    let resubmit = client.submit("lbm", "static", "perf-focused")?;
    if !(resubmit.status == 200 && resubmit.cached) {
        return Err(format!(
            "resubmit was not cached (status {})",
            resubmit.status
        ));
    }
    let stats = client.stats()?;
    let hits = scan_counter(&stats, "hits").unwrap_or(0);
    if hits == 0 {
        return Err("store.hits is 0 after a cached resubmit".into());
    }
    note(format!("warm resubmit served from store (hits={hits})"));

    // Backpressure: burst concurrent submits of *distinct* uncached runs.
    let workloads = [
        "mcf", "milc", "omnetpp", "astar", "sphinx", "soplex", "gcc", "lbm",
    ];
    let burst: Vec<_> = workloads
        .iter()
        .map(|wl| {
            let client = client.clone();
            let wl = wl.to_string();
            std::thread::spawn(move || client.submit(&wl, "profile", ""))
        })
        .collect();
    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    let mut cached = 0u64;
    for handle in burst {
        let submit = handle.join().map_err(|_| "burst thread panicked")??;
        match submit.status {
            202 => accepted.push(submit.job.ok_or("202 without job id")?),
            429 => rejected += 1,
            200 if submit.cached => cached += 1,
            status => return Err(format!("burst submit returned {status}")),
        }
    }
    if accepted.is_empty() {
        return Err("burst: nothing accepted".into());
    }
    if rejected == 0 {
        return Err("burst: no 429 — backpressure never engaged".into());
    }
    note(format!(
        "burst of {}: {} accepted, {rejected} rejected (429), {cached} cached",
        workloads.len(),
        accepted.len()
    ));

    // Graceful shutdown: all accepted jobs drain before the reply.
    let drained = client.shutdown()?;
    if drained.status != 200 {
        return Err(format!("shutdown returned {}", drained.status));
    }
    let count = |k: &str| -> u64 {
        drained
            .fields
            .get(k)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    if count("completed") + count("failed") + count("expired") < count("accepted") {
        return Err(format!("shutdown did not drain: {}", drained.body));
    }
    note(format!("graceful shutdown: {}", drained.body));

    // The server must actually be gone.
    std::thread::sleep(Duration::from_millis(50));
    if TcpStream::connect(addr).is_ok() {
        return Err("server still accepting connections after shutdown".into());
    }
    note("server exited".into());
    Ok(transcript)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_counter_reads_nested_docs() {
        let doc = "{\"store\":{\"hits\":7,\"misses\":2},\"x\":{\"hits\":9}}";
        assert_eq!(scan_counter(doc, "hits"), Some(7));
        assert_eq!(scan_counter(doc, "misses"), Some(2));
        assert_eq!(scan_counter(doc, "absent"), None);
    }

    #[test]
    fn scan_counter_reads_typed_stats() {
        let doc = "{\"store\":{\"hits\":{\"type\":\"counter\",\"value\":4},\
                    \"misses\":{\"type\":\"counter\",\"value\":0}}}";
        assert_eq!(scan_counter(doc, "hits"), Some(4));
        assert_eq!(scan_counter(doc, "misses"), Some(0));
    }

    #[test]
    fn backoff_is_deterministic_jittered_and_capped() {
        let client = Client::new("127.0.0.1:7177".to_string());
        let mut prev = DEFAULT_BACKOFF;
        let mut delays = Vec::new();
        for attempt in 1..12 {
            let d = client.backoff_delay("/runs", attempt, prev);
            assert!(d >= DEFAULT_BACKOFF, "never below base: {d:?}");
            assert!(d <= DEFAULT_BACKOFF_CAP, "never above cap: {d:?}");
            delays.push(d);
            prev = d;
        }
        // Bit-identical on replay.
        let replay = Client::new("127.0.0.1:7177".to_string());
        let mut prev = DEFAULT_BACKOFF;
        for (attempt, d) in delays.iter().enumerate() {
            let r = replay.backoff_delay("/runs", attempt as u32 + 1, prev);
            assert_eq!(&r, d);
            prev = r;
        }
        // A different path draws a different jitter stream.
        let other = client.backoff_delay("/jobs/1", 3, DEFAULT_BACKOFF);
        assert_ne!(other, delays[2]);
    }

    #[test]
    fn fallback_endpoint_survives_a_dead_primary() {
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let live = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let req = crate::http::read_request(&mut s).unwrap();
            assert_eq!(req.path, "/health");
            crate::http::write_response_keep(&mut s, 200, &[], "{\"ok\":true}", false).unwrap();
        });
        let client = Client::new(dead)
            .with_fallbacks(vec![live.clone()])
            .with_retries(0)
            .with_backoff(Duration::from_millis(1));
        let resp = client.health().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(client.addr(), live, "the answering fallback is sticky");
        server.join().unwrap();
    }

    #[test]
    fn client_reuses_a_kept_alive_connection() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // Exactly ONE accepted connection serves both requests; a
            // client that re-dialed would leave the second read timing
            // out on the idle first connection.
            let (mut s, _) = listener.accept().unwrap();
            let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
            for _ in 0..2 {
                let req = crate::http::read_request(&mut s).expect("request on pooled conn");
                assert_eq!(req.path, "/health");
                crate::http::write_response_keep(&mut s, 200, &[], "{\"ok\":true}", true).unwrap();
            }
        });
        let client = Client::new(addr);
        assert_eq!(client.health().unwrap().status, 200);
        assert_eq!(client.health().unwrap().status, 200);
        server.join().unwrap();
    }

    #[test]
    fn connect_refusal_classifies_after_the_retry_budget() {
        // Bind then drop a listener: the port is very likely refused.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let client = Client::new(addr.clone())
            .with_retries(1)
            .with_backoff(Duration::from_millis(1));
        match client.health() {
            Err(ClientError::Connect { attempts, .. }) => assert_eq!(attempts, 2),
            other => panic!("expected classified connect failure, got {other:?}"),
        }
    }

    #[test]
    fn client_error_display_is_informative() {
        let e = ClientError::Timeout {
            job: 4,
            waited_ms: 1500,
            last_state: "running".into(),
        };
        assert_eq!(
            e.to_string(),
            "job 4 not terminal after 1500 ms (last state: running)"
        );
        let s: String = ClientError::Protocol("bad".into()).into();
        assert_eq!(s, "protocol: bad");
    }
}
