//! A minimal HTTP/1.1 request/response layer over `std::net`.
//!
//! Just enough protocol for the experiment server and the shard router:
//! request line + headers + `Content-Length`-delimited bodies, hard
//! size limits on every dimension a peer controls (header bytes, header
//! count, line length, body bytes — oversized input is rejected with a
//! typed [`RequestError`] instead of allocated, and a server answers it
//! `431`/`400`), HTTP/1.1 keep-alive with an explicit `Connection:`
//! header on every response, and a small table of status codes. The
//! same bounds hold in both directions: the router reads its shards'
//! replies with [`read_response_full`], so a broken or hostile shard
//! costs a failover, never an unbounded allocation.
//!
//! **One write per message, `TCP_NODELAY` on every socket.** Each
//! message leaves in a single `write_all` ([`write_request`],
//! [`write_response_keep`]), and every accepted and dialled stream has
//! Nagle's algorithm turned off. Both matter on a reused keep-alive
//! connection. Written as two segments, head then body, Nagle holds
//! the body until the head is acknowledged, and the peer — which has
//! nothing to send back until it has the whole message — delays that
//! ACK (40 ms on Linux), so every exchange after a connection's first
//! stalls for the delayed-ACK timer. A fresh connection hides the
//! stall because its receiver acknowledges at once while in quick-ACK
//! mode. One write fixes every message that fits in one segment;
//! `TCP_NODELAY` also covers bodies that span several (a large
//! `/stats` or batch reply), whose last partial segment Nagle would
//! otherwise hold the same way.
//!
//! [`serve_pooled`] is the shared listener front end: a bounded queue of
//! accepted connections drained by a fixed pool of handler threads, each
//! serving many requests per connection (persistent connections with a
//! per-connection request cap and idle reaping) instead of the old
//! thread-per-connection / one-request-per-connection discipline.
//! Per-request socket read/write timeouts are set on the `TcpStream`
//! before parsing, so a stalled peer can never wedge a handler thread
//! for longer than the idle timeout.
//!
//! The layer does not implement pipelining: both our client and the
//! router send request N+1 only after reading response N, which is what
//! makes a fresh `BufReader` per exchange safe on a reused connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::json::error_body;
use crate::queue::BoundedQueue;

/// Maximum bytes of a start line + headers, in either direction.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;
/// Maximum bytes of request body.
pub const MAX_BODY_BYTES: usize = 64 * 1024;
/// Maximum bytes of response body. The largest legitimate reply is a
/// `/submit-batch` answer of [`crate::server::MAX_BATCH`] cached run
/// summaries: 132,361 bytes at pessimistic field widths, and a server
/// unit test keeps it under a quarter of this bound. A `/stats` reply
/// is about 1 KiB plus 0.5 KiB per shard behind a router.
pub const MAX_RESPONSE_BODY_BYTES: usize = 1024 * 1024;
/// Maximum number of headers, in either direction.
pub const MAX_HEADER_COUNT: usize = 64;
/// Read buffer per message. A fixed size, so no peer can size it; a
/// body larger than the buffer is read straight into its own buffer.
const READ_BUF_BYTES: usize = 4 * 1024;

/// A parsed request: method, path, body, and connection disposition.
#[derive(Debug)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), upper-cased as received.
    pub method: String,
    /// Request path including any query string, e.g. `/jobs/17`.
    pub path: String,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: String,
    /// Whether the peer is willing to keep the connection open
    /// (HTTP/1.1 default unless `Connection: close` was sent).
    pub keep_alive: bool,
}

/// Why a message could not be read. A server answers a request with
/// [`RequestError::status`] (or drops the connection silently, e.g. on
/// a clean EOF between keep-alive requests); a client or the router
/// treats any variant from [`read_response_full`] as a failed exchange.
#[derive(Debug)]
pub enum RequestError {
    /// The peer closed the connection, timed out, or vanished
    /// mid-message; there is nobody to answer.
    Closed(String),
    /// The message is malformed — answer `400`.
    Malformed(String),
    /// The start line or header section exceeds a hard bound, or a
    /// response body exceeds [`MAX_RESPONSE_BODY_BYTES`] — answer `431`
    /// without having allocated the oversized input.
    TooLarge(String),
}

impl RequestError {
    /// The HTTP status to answer with, if the peer is still there.
    pub fn status(&self) -> Option<u16> {
        match self {
            RequestError::Closed(_) => None,
            RequestError::Malformed(_) => Some(400),
            RequestError::TooLarge(_) => Some(431),
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Closed(msg)
            | RequestError::Malformed(msg)
            | RequestError::TooLarge(msg) => write!(f, "{msg}"),
        }
    }
}

/// Reads one line of at most `cap` bytes. The read is bounded *before*
/// buffering (`Take`), so a hostile peer streaming an endless line costs
/// at most `cap + 1` bytes of allocation, not unbounded growth.
fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    cap: usize,
    what: &str,
) -> Result<String, RequestError> {
    let mut buf = Vec::new();
    reader
        .by_ref()
        .take(cap as u64 + 1)
        .read_until(b'\n', &mut buf)
        .map_err(|e| RequestError::Closed(format!("read {what}: {e}")))?;
    if buf.len() > cap {
        return Err(RequestError::TooLarge(format!(
            "{what} exceeds {cap} bytes"
        )));
    }
    String::from_utf8(buf).map_err(|_| RequestError::Malformed(format!("{what} is not UTF-8")))
}

/// Reads a message head: the start line and the headers (names
/// lower-cased, values trimmed, in wire order), within
/// [`MAX_HEADER_BYTES`] and [`MAX_HEADER_COUNT`]. An empty start line
/// means the peer closed.
fn read_head<R: BufRead>(
    reader: &mut R,
    what: &str,
) -> Result<(String, Vec<(String, String)>), RequestError> {
    let line = read_line_bounded(reader, MAX_HEADER_BYTES, what)?;
    if line.is_empty() {
        return Err(RequestError::Closed(format!("closed before the {what}")));
    }
    let mut headers = Vec::new();
    let mut header_bytes = line.len();
    let mut header_count = 0usize;
    loop {
        let header = read_line_bounded(reader, MAX_HEADER_BYTES, "header")?;
        header_bytes += header.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(RequestError::TooLarge(format!(
                "headers exceed {MAX_HEADER_BYTES} bytes"
            )));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        header_count += 1;
        if header_count > MAX_HEADER_COUNT {
            return Err(RequestError::TooLarge(format!(
                "more than {MAX_HEADER_COUNT} headers"
            )));
        }
        if let Some((name, value)) = header.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    Ok((line, headers))
}

/// The last `content-length` header, if any, parsed as a byte count.
fn content_length(headers: &[(String, String)]) -> Result<Option<usize>, RequestError> {
    match headers.iter().rev().find(|(n, _)| n == "content-length") {
        None => Ok(None),
        Some((_, v)) => v
            .parse::<usize>()
            .map(Some)
            .map_err(|_| RequestError::Malformed("bad content-length".into())),
    }
}

/// Reads a body of exactly `len` bytes, or up to EOF when `len` is
/// `None`; never more than `cap` bytes. The buffer grows with the bytes
/// that actually arrive, so a length claim sizes no allocation.
fn read_body<R: BufRead>(
    reader: &mut R,
    len: Option<usize>,
    cap: usize,
) -> Result<String, RequestError> {
    let mut buf = Vec::new();
    reader
        .by_ref()
        .take(len.unwrap_or(cap + 1) as u64)
        .read_to_end(&mut buf)
        .map_err(|e| RequestError::Closed(format!("read body: {e}")))?;
    match len {
        Some(n) if buf.len() < n => {
            return Err(RequestError::Closed(format!(
                "body cut off at {} of {n} bytes",
                buf.len()
            )))
        }
        None if buf.len() > cap => {
            return Err(RequestError::TooLarge(format!("body exceeds {cap} bytes")))
        }
        _ => {}
    }
    String::from_utf8(buf).map_err(|_| RequestError::Malformed("body is not UTF-8".into()))
}

/// Reads one HTTP/1.1 request, enforcing every size bound.
pub fn read_request<R: Read>(stream: &mut R) -> Result<Request, RequestError> {
    let mut reader = BufReader::with_capacity(READ_BUF_BYTES, stream);
    let (line, headers) = read_head(&mut reader, "request line")?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("missing method".into()))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("missing path".into()))?
        .to_string();
    let version = parts.next().unwrap_or("HTTP/1.1").to_ascii_uppercase();

    let len = content_length(&headers)?.unwrap_or(0);
    if len > MAX_BODY_BYTES {
        return Err(RequestError::Malformed("body too large".into()));
    }
    let mut keep_alive = version != "HTTP/1.0";
    for (_, value) in headers.iter().filter(|(n, _)| n == "connection") {
        if value.eq_ignore_ascii_case("close") {
            keep_alive = false;
        } else if value.eq_ignore_ascii_case("keep-alive") {
            keep_alive = true;
        }
    }
    let body = read_body(&mut reader, Some(len), MAX_BODY_BYTES)?;
    Ok(Request {
        method,
        path,
        body,
        keep_alive,
    })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes one request (advertising keep-alive) in a single write and
/// flushes. `host` is the `host:` header value.
pub fn write_request<W: Write>(
    stream: &mut W,
    host: &str,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<()> {
    let mut msg = format!(
        "{method} {path} HTTP/1.1\r\nhost: {host}\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n",
        body.len()
    );
    msg.push_str(body);
    stream.write_all(msg.as_bytes())?;
    stream.flush()
}

/// Writes one response in a single write, advertising whether the
/// connection stays open, and flushes.
pub fn write_response_keep<W: Write>(
    stream: &mut W,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut msg = format!("HTTP/1.1 {} {}\r\n", status, reason(status));
    for (name, value) in extra_headers {
        msg.push_str(&format!("{name}: {value}\r\n"));
    }
    msg.push_str(&format!(
        "content-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    ));
    msg.push_str(body);
    stream.write_all(msg.as_bytes())?;
    stream.flush()
}

/// A parsed response: status, headers (names lower-cased), body.
#[derive(Debug)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response headers with lower-cased names, in wire order.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// First header value under `name` (lower-case), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The `retry-after` header parsed as whole seconds, if present.
    pub fn retry_after_secs(&self) -> Option<u64> {
        self.header("retry-after")?.trim().parse().ok()
    }

    /// Whether the sender left the connection open for reuse.
    pub fn keep_alive(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
    }
}

/// Reads one full response (status + headers + body) off a client
/// connection, within the same head bounds as [`read_request`] and at
/// most [`MAX_RESPONSE_BODY_BYTES`] of body. Safe on a reused
/// keep-alive connection: the body is `Content-Length`-delimited and
/// fully consumed, so nothing of the next exchange is buffered away.
pub fn read_response_full<R: Read>(stream: &mut R) -> Result<HttpResponse, RequestError> {
    let mut reader = BufReader::with_capacity(READ_BUF_BYTES, stream);
    let (line, headers) = read_head(&mut reader, "status line")?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            let shown: String = line.trim_end().chars().take(32).collect();
            RequestError::Malformed(format!("bad status line {shown:?}"))
        })?;
    let len = content_length(&headers)?;
    if len.is_some_and(|n| n > MAX_RESPONSE_BODY_BYTES) {
        return Err(RequestError::TooLarge(format!(
            "response body exceeds {MAX_RESPONSE_BODY_BYTES} bytes"
        )));
    }
    let body = read_body(&mut reader, len, MAX_RESPONSE_BODY_BYTES)?;
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// Tuning for the pooled-connection listener.
#[derive(Clone, Copy, Debug)]
pub struct PoolPolicy {
    /// Handler threads draining the accepted-connection queue.
    pub threads: usize,
    /// Accepted connections queued beyond the handler pool; further
    /// arrivals are shed with `503`.
    pub backlog: usize,
    /// How long a kept-alive connection may sit idle between requests
    /// before it is reaped.
    pub idle_timeout: Duration,
    /// Requests served per connection before it is closed (bounds how
    /// long one peer can monopolize a handler thread).
    pub max_requests: u32,
    /// Socket write timeout (and the bound on one request's read once
    /// bytes are flowing).
    pub io_timeout: Duration,
}

impl Default for PoolPolicy {
    fn default() -> Self {
        PoolPolicy {
            threads: 4,
            backlog: 64,
            idle_timeout: Duration::from_secs(2),
            max_requests: 128,
            io_timeout: Duration::from_secs(10),
        }
    }
}

/// What a [`serve_pooled`] handler answers for one request.
#[derive(Debug)]
pub struct Reply {
    /// Response status.
    pub status: u16,
    /// Extra response headers (lower-case names).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
    /// Force-close this connection after the response.
    pub close: bool,
    /// Stop the whole listener after the response is written (graceful
    /// shutdown).
    pub stop: bool,
    /// Write a torn response head and hang up instead (chaos
    /// injection: exercises client transport retries).
    pub reset: bool,
}

impl Reply {
    /// A plain JSON reply with no special disposition.
    pub fn json(status: u16, body: String) -> Reply {
        Reply {
            status,
            headers: Vec::new(),
            body,
            close: false,
            stop: false,
            reset: false,
        }
    }
}

/// Serves `listener` with a bounded keep-alive connection pool until a
/// handler returns [`Reply::stop`].
///
/// The accept thread (the caller) pushes connections onto a bounded
/// queue drained by `policy.threads` handler threads. Each connection
/// is served up to `policy.max_requests` requests; between requests the
/// socket read timeout is the idle timeout, so an abandoned keep-alive
/// connection is reaped instead of pinning its handler. Under
/// contention (connections waiting in the queue) responses advertise
/// `Connection: close`, shedding persistence so waiting peers are
/// served promptly. Oversized or malformed requests are answered
/// `431`/`400` and the connection dropped.
///
/// Blocks until the listener stops and every handler thread has
/// finished; all accepted connections are served or closed by then.
pub fn serve_pooled<H>(listener: TcpListener, policy: PoolPolicy, handler: H)
where
    H: Fn(&Request) -> Reply + Send + Sync + 'static,
{
    let local = listener.local_addr().ok();
    let stop = Arc::new(AtomicBool::new(false));
    let conns: Arc<BoundedQueue<TcpStream>> = Arc::new(BoundedQueue::new(policy.backlog.max(1)));
    let handler = Arc::new(handler);
    let handlers: Vec<_> = (0..policy.threads.max(1))
        .map(|_| {
            let conns = Arc::clone(&conns);
            let stop = Arc::clone(&stop);
            let handler = Arc::clone(&handler);
            std::thread::spawn(move || {
                while let Some(batch) = conns.pop_batch(1) {
                    for mut stream in batch {
                        serve_connection(&mut stream, &policy, &stop, &conns, &*handler, local);
                    }
                }
            })
        })
        .collect();

    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        if conns.len() >= policy.backlog {
            // Shed: answering 503 here keeps overload visible instead of
            // letting the accept backlog grow without bound.
            let _ = stream.set_write_timeout(Some(policy.io_timeout));
            let _ = write_response_keep(
                &mut stream,
                503,
                &[("retry-after", "1")],
                &error_body("connection backlog full"),
                false,
            );
            continue;
        }
        // A race past the depth check just drops the connection; the
        // client's transport retry covers it.
        let _ = conns.try_push(stream);
    }

    conns.close();
    for h in handlers {
        let _ = h.join();
    }
}

/// Serves one connection until close, error, request cap, or stop.
fn serve_connection<H>(
    stream: &mut TcpStream,
    policy: &PoolPolicy,
    stop: &AtomicBool,
    conns: &BoundedQueue<TcpStream>,
    handler: &H,
    local: Option<std::net::SocketAddr>,
) where
    H: Fn(&Request) -> Reply,
{
    let _ = stream.set_write_timeout(Some(policy.io_timeout));
    let _ = stream.set_read_timeout(Some(policy.idle_timeout));
    let _ = stream.set_nodelay(true);
    let mut served = 0u32;
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let req = match read_request(stream) {
            Ok(req) => req,
            Err(err) => {
                if let Some(status) = err.status() {
                    let _ = write_response_keep(
                        stream,
                        status,
                        &[],
                        &error_body(&err.to_string()),
                        false,
                    );
                }
                break;
            }
        };
        served += 1;
        let reply = handler(&req);
        if reply.reset {
            let _ = stream.write_all(b"HTTP/1.1 ");
            let _ = stream.flush();
            break;
        }
        // Keep the connection only while nothing else is waiting: under
        // contention persistence is shed so queued peers get a thread.
        let keep = req.keep_alive
            && !reply.close
            && !reply.stop
            && served < policy.max_requests
            && !stop.load(Ordering::SeqCst)
            && conns.is_empty();
        let headers: Vec<(&str, &str)> = reply
            .headers
            .iter()
            .map(|(n, v)| (n.as_str(), v.as_str()))
            .collect();
        let _ = write_response_keep(stream, reply.status, &headers, &reply.body, keep);
        if reply.stop {
            stop.store(true, Ordering::SeqCst);
            conns.close();
            // Wake the accept loop so it observes the stop flag.
            if let Some(addr) = local {
                let _ = TcpStream::connect(addr);
            }
            break;
        }
        if !keep {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pump(request: &str, status: u16, body: &str) -> (Request, (u16, String)) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let request = request.to_string();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(request.as_bytes()).unwrap();
            let resp = read_response_full(&mut s).unwrap();
            (resp.status, resp.body)
        });
        let (mut server_side, _) = listener.accept().unwrap();
        let req = read_request(&mut server_side).unwrap();
        write_response_keep(&mut server_side, status, &[], body, false).unwrap();
        drop(server_side);
        (req, client.join().unwrap())
    }

    /// Parses `request` server-side and returns the outcome.
    fn parse(request: &[u8]) -> Result<Request, RequestError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let request = request.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let _ = s.write_all(&request);
            // FIN the write side so a server waiting for bytes that will
            // never come (e.g. the empty request) sees EOF, not a hang.
            let _ = s.shutdown(std::net::Shutdown::Write);
            s
        });
        let (mut server_side, _) = listener.accept().unwrap();
        let result = read_request(&mut server_side);
        drop(client.join().unwrap());
        result
    }

    #[test]
    fn request_and_response_round_trip() {
        let (req, (status, body)) = pump(
            "POST /runs HTTP/1.1\r\ncontent-length: 17\r\n\r\n{\"workload\":\"x\"}!",
            202,
            "{\"job\":1}",
        );
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/runs");
        assert_eq!(req.body, "{\"workload\":\"x\"}!");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(status, 202);
        assert_eq!(body, "{\"job\":1}");
    }

    #[test]
    fn get_without_body() {
        let (req, (status, _)) = pump("GET /health HTTP/1.1\r\n\r\n", 200, "{\"ok\":true}");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/health");
        assert!(req.body.is_empty());
        assert_eq!(status, 200);
    }

    #[test]
    fn connection_close_is_honored() {
        let (req, _) = pump(
            "GET /health HTTP/1.1\r\nconnection: close\r\n\r\n",
            200,
            "{}",
        );
        assert!(!req.keep_alive);
        let (req, _) = pump(
            "GET /health HTTP/1.0\r\nconnection: keep-alive\r\n\r\n",
            200,
            "{}",
        );
        assert!(req.keep_alive, "explicit keep-alive upgrades HTTP/1.0");
    }

    #[test]
    fn extra_headers_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"POST /runs HTTP/1.1\r\n\r\n").unwrap();
            read_response_full(&mut s).unwrap()
        });
        let (mut server_side, _) = listener.accept().unwrap();
        let _ = read_request(&mut server_side).unwrap();
        write_response_keep(
            &mut server_side,
            429,
            &[("retry-after", "1")],
            "{\"error\":\"queue_full\"}",
            false,
        )
        .unwrap();
        drop(server_side);
        let resp = client.join().unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.retry_after_secs(), Some(1));
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert!(!resp.keep_alive());
        assert_eq!(resp.body, "{\"error\":\"queue_full\"}");
    }

    #[test]
    fn oversized_bodies_are_rejected() {
        let req = format!("POST /runs HTTP/1.1\r\ncontent-length: {}\r\n\r\n", 1 << 30);
        match parse(req.as_bytes()) {
            Err(e @ RequestError::Malformed(_)) => assert_eq!(e.status(), Some(400)),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn endless_request_line_is_bounded() {
        // A request line streamed without a newline must be cut off at
        // the bound, not buffered until memory runs out.
        let mut req = b"GET /".to_vec();
        req.extend(std::iter::repeat_n(b'a', 2 * MAX_HEADER_BYTES));
        match parse(&req) {
            Err(e @ RequestError::TooLarge(_)) => assert_eq!(e.status(), Some(431)),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn oversized_header_section_is_bounded() {
        let mut req = b"GET /health HTTP/1.1\r\n".to_vec();
        for i in 0..200 {
            req.extend(format!("x-filler-{i}: {}\r\n", "y".repeat(100)).into_bytes());
        }
        req.extend(b"\r\n");
        match parse(&req) {
            Err(e @ RequestError::TooLarge(_)) => assert_eq!(e.status(), Some(431)),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn too_many_headers_are_rejected() {
        // Many tiny headers stay under the byte bound but blow the
        // header-count bound.
        let mut req = b"GET /health HTTP/1.1\r\n".to_vec();
        for i in 0..(MAX_HEADER_COUNT + 10) {
            req.extend(format!("h{i}: v\r\n").into_bytes());
        }
        req.extend(b"\r\n");
        match parse(&req) {
            Err(e @ RequestError::TooLarge(_)) => assert_eq!(e.status(), Some(431)),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn bad_content_length_is_malformed() {
        match parse(b"POST /runs HTTP/1.1\r\ncontent-length: banana\r\n\r\n") {
            Err(e @ RequestError::Malformed(_)) => assert_eq!(e.status(), Some(400)),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn empty_connection_is_closed_not_answered() {
        match parse(b"") {
            Err(e @ RequestError::Closed(_)) => assert_eq!(e.status(), None),
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    /// A writer that records every `write` call, so a test can check
    /// both the bytes and that they left in one piece.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Runs one writer and returns its single write.
    fn one_write(write: impl FnOnce(&mut Writes) -> std::io::Result<()>) -> String {
        let mut w = Writes::default();
        write(&mut w).unwrap();
        assert_eq!(w.0.len(), 1, "a message must leave in one write");
        String::from_utf8(w.0.remove(0)).unwrap()
    }

    #[test]
    fn response_wire_bytes_are_pinned() {
        assert_eq!(
            one_write(|w| write_response_keep(
                w,
                429,
                &[("retry-after", "1")],
                "{\"error\":\"queue_full\"}",
                false
            )),
            "HTTP/1.1 429 Too Many Requests\r\nretry-after: 1\r\n\
             content-type: application/json\r\ncontent-length: 22\r\n\
             connection: close\r\n\r\n{\"error\":\"queue_full\"}"
        );
        assert_eq!(
            one_write(|w| write_response_keep(w, 200, &[], "{\"ok\":true}", true)),
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
             content-length: 11\r\nconnection: keep-alive\r\n\r\n{\"ok\":true}"
        );
        assert_eq!(
            one_write(|w| write_response_keep(w, 202, &[], "", false)),
            "HTTP/1.1 202 Accepted\r\ncontent-type: application/json\r\n\
             content-length: 0\r\nconnection: close\r\n\r\n"
        );
    }

    #[test]
    fn request_wire_bytes_are_pinned() {
        assert_eq!(
            one_write(|w| write_request(w, "shard", "GET", "/health", "")),
            "GET /health HTTP/1.1\r\nhost: shard\r\ncontent-length: 0\r\n\
             connection: keep-alive\r\n\r\n"
        );
        assert_eq!(
            one_write(|w| write_request(
                w,
                "127.0.0.1:7177",
                "POST",
                "/runs",
                "{\"workload\":\"lbm\"}"
            )),
            "POST /runs HTTP/1.1\r\nhost: 127.0.0.1:7177\r\ncontent-length: 18\r\n\
             connection: keep-alive\r\n\r\n{\"workload\":\"lbm\"}"
        );
    }

    #[test]
    fn written_messages_parse_back() {
        let mut wire = Vec::new();
        write_request(&mut wire, "shard", "POST", "/runs", "{\"a\":1}").unwrap();
        let req = read_request(&mut wire.as_slice()).unwrap();
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/runs"));
        assert_eq!(req.body, "{\"a\":1}");
        assert!(req.keep_alive);

        let mut wire = Vec::new();
        write_response_keep(&mut wire, 503, &[("retry-after", "2")], "{}", true).unwrap();
        let resp = read_response_full(&mut wire.as_slice()).unwrap();
        assert_eq!((resp.status, resp.body.as_str()), (503, "{}"));
        assert_eq!(resp.retry_after_secs(), Some(2));
        assert!(resp.keep_alive());
    }

    #[test]
    fn cut_off_responses_are_closed_and_unframed_ones_run_to_eof() {
        for bytes in [
            b"".as_slice(),
            b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\n{}",
        ] {
            match read_response_full(&mut &bytes[..]) {
                Err(RequestError::Closed(_)) => {}
                other => panic!("expected Closed, got {other:?}"),
            }
        }
        let mut unframed = b"HTTP/1.1 200 OK\r\n\r\n{\"ok\":true}".as_slice();
        let resp = read_response_full(&mut unframed).unwrap();
        assert_eq!(resp.body, "{\"ok\":true}");
    }

    #[test]
    fn serve_pooled_keeps_connections_alive() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            serve_pooled(listener, PoolPolicy::default(), |req: &Request| {
                let mut reply = Reply::json(200, format!("{{\"path\":\"{}\"}}", req.path));
                reply.stop = req.path == "/stop";
                reply
            });
        });

        // Three requests over ONE connection, then a stop request.
        let mut s = TcpStream::connect(addr).unwrap();
        for i in 0..3 {
            let head = format!("GET /r{i} HTTP/1.1\r\ncontent-length: 0\r\n\r\n");
            s.write_all(head.as_bytes()).unwrap();
            let resp = read_response_full(&mut s).unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body, format!("{{\"path\":\"/r{i}\"}}"));
            assert!(resp.keep_alive(), "request {i} should keep the connection");
        }
        s.write_all(b"GET /stop HTTP/1.1\r\ncontent-length: 0\r\n\r\n")
            .unwrap();
        let resp = read_response_full(&mut s).unwrap();
        assert!(!resp.keep_alive(), "stop reply must close");
        server.join().unwrap();
    }

    #[test]
    fn serve_pooled_answers_431_for_hostile_input() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            serve_pooled(listener, PoolPolicy::default(), |req: &Request| {
                let mut reply = Reply::json(200, "{}".into());
                reply.stop = req.path == "/stop";
                reply
            });
        });

        let mut s = TcpStream::connect(addr).unwrap();
        let mut hostile = b"GET /".to_vec();
        hostile.extend(std::iter::repeat_n(b'a', 2 * MAX_HEADER_BYTES));
        s.write_all(&hostile).unwrap();
        let resp = read_response_full(&mut s).unwrap();
        assert_eq!(resp.status, 431);

        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /stop HTTP/1.1\r\ncontent-length: 0\r\n\r\n")
            .unwrap();
        assert_eq!(read_response_full(&mut s).unwrap().status, 200);
        server.join().unwrap();
    }
}
