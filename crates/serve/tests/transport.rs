//! Transport regressions for the HTTP layer, over real sockets:
//!
//! * sequential keep-alive exchanges stay clear of the delayed-ACK
//!   stall — 20 exchanges with non-empty bodies on one reused
//!   connection take well under 20 × 40 ms, both `Client` →
//!   `serve_pooled` and `Client` → router → shard;
//! * a hostile reply (a huge or unparsable `content-length`, an endless
//!   status or header line, too many headers, an endless unframed body)
//!   is a typed parse error, and a shard that sends one costs the router
//!   one failed upstream attempt, after which the next replica answers.
//!
//! Connection reuse is counted, not assumed: a relay in front of each
//! listener counts the connections it accepts, and the fake shards
//! count the connections that carry proxied requests.

use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ramp_serve::client::{scan_counter, Client};
use ramp_serve::http::{
    read_request, read_response_full, serve_pooled, write_response_keep, PoolPolicy, Reply,
    Request, RequestError, MAX_HEADER_BYTES, MAX_HEADER_COUNT, MAX_RESPONSE_BODY_BYTES,
};
use ramp_serve::router::{replica_set, Router, RouterConfig};

/// Sequential exchanges per stall test.
const EXCHANGES: usize = 20;
/// Their total budget: half of one 40 ms delayed-ACK stall per exchange.
const BUDGET: Duration = Duration::from_millis(400);

/// Copies `from` into `to` until EOF, then half-closes `to`.
fn pipe(mut from: TcpStream, mut to: TcpStream) {
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut from, &mut to);
        let _ = to.shutdown(Shutdown::Write);
    });
}

/// Listens on a fresh port and forwards every accepted connection to
/// `target`, counting accepted connections. The relay's own sockets
/// have Nagle off and forward each read as it arrives, so a message
/// written in two pieces still meets the peer's delayed ACK on the
/// first hop.
fn counting_relay(target: SocketAddr) -> (SocketAddr, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accepted = Arc::new(AtomicUsize::new(0));
    let count = Arc::clone(&accepted);
    std::thread::spawn(move || {
        for inbound in listener.incoming() {
            let Ok(inbound) = inbound else { continue };
            count.fetch_add(1, Ordering::SeqCst);
            let Ok(outbound) = TcpStream::connect(target) else {
                continue;
            };
            let _ = inbound.set_nodelay(true);
            let _ = outbound.set_nodelay(true);
            pipe(inbound.try_clone().unwrap(), outbound.try_clone().unwrap());
            pipe(outbound, inbound);
        }
    });
    (addr, accepted)
}

/// Submits `EXCHANGES` specs one after another and returns the time
/// taken. Each request and each reply carries a non-empty body.
fn timed_submits(client: &Client) -> Duration {
    let started = Instant::now();
    for _ in 0..EXCHANGES {
        let submit = client.submit("astar", "profile", "").unwrap();
        assert_eq!(submit.status, 200, "{}", submit.response.body);
        assert!(submit.cached);
    }
    started.elapsed()
}

/// A cached-submit answer, as a warm shard would give it.
fn cached_body() -> String {
    format!(
        "{{\"state\":\"done\",\"cached\":true,\"key\":\"{}\"}}",
        "a".repeat(32)
    )
}

#[test]
fn keep_alive_exchanges_to_serve_pooled_do_not_stall() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let target = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        serve_pooled(listener, PoolPolicy::default(), |req: &Request| {
            let mut reply = Reply::json(200, cached_body());
            reply.stop = req.path == "/shutdown";
            reply
        });
    });
    let (addr, accepted) = counting_relay(target);
    let client = Client::new(addr.to_string());

    let took = timed_submits(&client);
    assert_eq!(
        accepted.load(Ordering::SeqCst),
        1,
        "all {EXCHANGES} exchanges must share one connection"
    );
    assert!(
        took < BUDGET,
        "{EXCHANGES} keep-alive exchanges took {took:?} (budget {BUDGET:?})"
    );

    client.shutdown().unwrap();
    server.join().unwrap();
}

/// A hand-rolled shard: one thread per accepted connection, `/health`
/// answered `200`, every other request answered by `answer`. Records,
/// per connection, how many non-health requests it carried.
fn fake_shard<F>(answer: F) -> (SocketAddr, Arc<Mutex<Vec<usize>>>)
where
    F: Fn(&mut TcpStream) -> std::io::Result<()> + Send + Sync + 'static,
{
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let per_conn = Arc::new(Mutex::new(Vec::new()));
    let ledger = Arc::clone(&per_conn);
    let answer = Arc::new(answer);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let ledger = Arc::clone(&ledger);
            let answer = Arc::clone(&answer);
            std::thread::spawn(move || {
                let slot = {
                    let mut l = ledger.lock().unwrap();
                    l.push(0);
                    l.len() - 1
                };
                while let Ok(req) = read_request(&mut stream) {
                    if req.path == "/health" {
                        let _ = write_response_keep(&mut stream, 200, &[], "{\"ok\":true}", true);
                        continue;
                    }
                    ledger.lock().unwrap()[slot] += 1;
                    if answer(&mut stream).is_err() {
                        break;
                    }
                }
            });
        }
    });
    (addr, per_conn)
}

/// An in-process router over `shards`, replication factor 2.
fn start_router(shards: &[SocketAddr]) -> (SocketAddr, JoinHandle<()>) {
    let mut cfg = RouterConfig::new(shards.iter().map(SocketAddr::to_string).collect());
    cfg.chaos = None;
    let router = Router::bind("127.0.0.1:0", cfg).unwrap();
    let addr = router.local_addr();
    (addr, std::thread::spawn(move || router.run()))
}

#[test]
fn keep_alive_exchanges_through_the_router_do_not_stall() {
    let (shard, per_conn) = fake_shard(|s| write_response_keep(s, 200, &[], &cached_body(), true));
    let (router, handle) = start_router(&[shard]);
    let (addr, accepted) = counting_relay(router);
    let client = Client::new(addr.to_string());

    let took = timed_submits(&client);
    assert_eq!(
        accepted.load(Ordering::SeqCst),
        1,
        "client → router: all {EXCHANGES} exchanges must share one connection"
    );
    let carrying: Vec<usize> = per_conn
        .lock()
        .unwrap()
        .iter()
        .copied()
        .filter(|&n| n > 0)
        .collect();
    assert_eq!(
        carrying,
        vec![EXCHANGES],
        "router → shard: all {EXCHANGES} exchanges must share one connection"
    );
    assert!(
        took < BUDGET,
        "{EXCHANGES} keep-alive exchanges through the router took {took:?} (budget {BUDGET:?})"
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Replies no shard may get away with, each with the error the parser
/// must classify it as (`true`: `TooLarge`, `false`: `Malformed`). Each
/// must fail the upstream attempt instead of sizing an allocation or
/// wedging a handler thread.
fn hostile_replies() -> Vec<(&'static str, Vec<u8>, bool)> {
    let head =
        |len: &str| format!("HTTP/1.1 200 OK\r\ncontent-length: {len}\r\n\r\n{{}}").into_bytes();
    vec![
        (
            "u64::MAX content-length",
            head("18446744073709551615"),
            true,
        ),
        ("4 GiB content-length", head("4294967296"), true),
        (
            "content-length past the bound",
            head(&(MAX_RESPONSE_BODY_BYTES + 1).to_string()),
            true,
        ),
        (
            "overflowing content-length",
            head("18446744073709551616"),
            false,
        ),
        ("unparsable content-length", head("banana"), false),
        (
            "endless status line",
            [
                b"HTTP/1.1 200 ".as_slice(),
                &vec![b'x'; 2 * MAX_HEADER_BYTES],
            ]
            .concat(),
            true,
        ),
        (
            "endless header line",
            [
                b"HTTP/1.1 200 OK\r\nx-filler: ".as_slice(),
                &vec![b'y'; 2 * MAX_HEADER_BYTES],
            ]
            .concat(),
            true,
        ),
        (
            "too many headers",
            (0..=MAX_HEADER_COUNT)
                .fold(String::from("HTTP/1.1 200 OK\r\n"), |s, i| {
                    s + &format!("h{i}: v\r\n")
                })
                .into_bytes(),
            true,
        ),
        (
            "endless unframed body",
            [
                b"HTTP/1.1 200 OK\r\n\r\n".as_slice(),
                &vec![b'z'; MAX_RESPONSE_BODY_BYTES + 1],
            ]
            .concat(),
            true,
        ),
        ("garbage status line", b"garbage\r\n\r\n".to_vec(), false),
    ]
}

#[test]
fn hostile_replies_are_typed_errors() {
    for (what, bytes, too_large) in hostile_replies() {
        match read_response_full(&mut bytes.as_slice()) {
            Err(RequestError::TooLarge(_)) if too_large => {}
            Err(RequestError::Malformed(_)) if !too_large => {}
            other => panic!("{what}: {other:?}"),
        }
    }
}

#[test]
fn hostile_shard_replies_fail_over_to_the_next_replica() {
    let cases = hostile_replies();
    let hostile_bytes: Vec<Vec<u8>> = cases.iter().map(|(_, b, _)| b.clone()).collect();
    let served = Arc::new(AtomicUsize::new(0));
    let next = Arc::clone(&served);
    let (hostile, hostile_conns) = fake_shard(move |s| {
        // The router drops a connection after a hostile reply, so each
        // case arrives on a fresh one.
        s.write_all(&hostile_bytes[next.fetch_add(1, Ordering::SeqCst) % hostile_bytes.len()])
    });
    let good_body = "{\"key\":\"from-the-good-replica\"}";
    let (good, _) = fake_shard(move |s| write_response_keep(s, 200, &[], good_body, true));
    let (router, handle) = start_router(&[hostile, good]);
    let client = Client::new(router.to_string()).with_retries(0);

    // A key whose replica set tries the hostile shard (index 0) first.
    let key = (0u64..)
        .map(|i| format!("{i:032x}"))
        .find(|k| replica_set(k, 2, 2)[0] == 0)
        .unwrap();
    for (what, _, _) in &cases {
        let resp = client.run_summary(&key).unwrap();
        assert_eq!(resp.status, 200, "{what}: {}", resp.body);
        assert_eq!(resp.body, good_body, "{what}");
    }
    assert_eq!(
        served.load(Ordering::SeqCst),
        cases.len(),
        "every hostile reply must have been sent"
    );
    let hostile_requests: usize = hostile_conns.lock().unwrap().iter().sum();
    assert_eq!(hostile_requests, cases.len());

    let stats = client.stats().unwrap();
    let shard0 = &stats[stats.find("router.shard0").unwrap()..];
    assert_eq!(
        scan_counter(shard0, "errors"),
        Some(cases.len() as u64),
        "each hostile reply counts as one upstream failure"
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
}
