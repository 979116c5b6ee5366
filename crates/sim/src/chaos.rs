//! Deterministic, seeded software fault injection ("chaos") for the
//! infrastructure layers of the reproduction.
//!
//! The paper's thesis is that a system must stay correct under faults:
//! FaultSim injects DRAM faults and the ECC layer corrects or detects
//! them. This module gives our *own* infrastructure (executor, run
//! store, HTTP server, client) the same treatment — a software fault
//! model whose every decision flows from an explicit seed, so a failing
//! chaos run replays bit-for-bit.
//!
//! Chaos is configured with `RAMP_CHAOS=<seed>:<spec>` where `<spec>`
//! is a comma-separated list of knobs:
//!
//! | knob        | meaning                                             |
//! |-------------|-----------------------------------------------------|
//! | `io=P`      | probability of an injected I/O fault (failed store  |
//! |             | write, read error, post-write corruption)           |
//! | `panic=P`   | probability a simulation task panics                |
//! | `net=P`     | probability a server response is reset mid-write    |
//! | `slow=D`    | injected delay (e.g. `20ms`, `1s`) at slow points   |
//! | `retries=N` | executor retry budget for panicked tasks (default 2)|
//!
//! e.g. `RAMP_CHAOS=7:io=0.05,panic=0.01,net=0.1,slow=20ms`.
//!
//! Injection points are *named sites* (`"store.write"`,
//! `"server.response"`, ...): each decision hashes the seed, the site
//! name and a per-kind roll counter through the same SplitMix64 mixer
//! the RNG subsystem uses, so distinct sites draw decorrelated streams
//! and the same seed always injects the same faults at the same rolls.
//!
//! Sites currently wired in (the set is open — a site is just a name):
//! `store.read` / `store.write` / `store.corrupt` (run store),
//! `sim.checkpoint` (kill after a durable checkpoint),
//! `server.job` / `server.response` (dispatcher and response writer),
//! `server.worker` (panic a worker thread outside its per-job
//! isolation so the supervisor's restart path is exercised), and the
//! shard router's `router.upstream` (fault a proxied upstream exchange
//! so per-request failover runs), `router.handoff` (panic a hinted-
//! handoff delivery so the redelivery loop's isolation is exercised)
//! and `router.probe` (fail a health probe so shards flap dark/live).
//!
//! With `RAMP_CHAOS` unset, [`global`] returns `None` and every
//! injection point compiles down to a branch-not-taken — the
//! determinism and warm-start guarantees of the experiment binaries are
//! untouched.
//!
//! ```
//! use ramp_sim::chaos::{Chaos, FaultKind};
//!
//! let chaos = Chaos::parse("7:io=0.5").unwrap();
//! let hits: u32 = (0..100)
//!     .map(|_| chaos.roll(FaultKind::Io, "store.write") as u32)
//!     .sum();
//! assert!(hits > 20 && hits < 80); // seeded coin at p = 0.5
//!
//! // Same seed, same sites => identical decisions.
//! let replay = Chaos::parse("7:io=0.5").unwrap();
//! let replayed: u32 = (0..100)
//!     .map(|_| replay.roll(FaultKind::Io, "store.write") as u32)
//!     .sum();
//! assert_eq!(hits, replayed);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::codec::fnv1a64;
use crate::rng::mix64;

/// Environment variable enabling chaos injection (`<seed>:<spec>`).
pub const ENV_CHAOS: &str = "RAMP_CHAOS";

/// Default executor retry budget for panicked tasks under chaos.
pub const DEFAULT_RETRIES: u32 = 2;

/// The kinds of software faults the registry can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A storage-layer fault: failed write, read error, or post-write
    /// corruption of an on-disk entry.
    Io = 0,
    /// A panic inside a simulation task.
    Panic = 1,
    /// A network fault: the peer's socket is reset mid-response.
    Net = 2,
    /// An injected delay (slow read, queue stall).
    Slow = 3,
}

const KINDS: [FaultKind; 4] = [
    FaultKind::Io,
    FaultKind::Panic,
    FaultKind::Net,
    FaultKind::Slow,
];

impl FaultKind {
    /// Stable lower-case label (spec key and telemetry name).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Io => "io",
            FaultKind::Panic => "panic",
            FaultKind::Net => "net",
            FaultKind::Slow => "slow",
        }
    }
}

/// A seeded fault-injection registry.
///
/// Cheap to share (`Arc<Chaos>`); all counters are atomics, so one
/// registry can serve every thread of a server or executor stage.
#[derive(Debug)]
pub struct Chaos {
    seed: u64,
    rates: [f64; 4],
    slow: Duration,
    retries: u32,
    rolls: [AtomicU64; 4],
    injected: [AtomicU64; 4],
}

impl Chaos {
    /// Parses the full `<seed>:<spec>` form of [`ENV_CHAOS`].
    pub fn parse(s: &str) -> Result<Chaos, String> {
        let (seed_str, spec) = s
            .split_once(':')
            .ok_or_else(|| format!("expected '<seed>:<spec>', got {s:?}"))?;
        let seed = parse_seed(seed_str.trim())?;
        Chaos::from_spec(seed, spec)
    }

    /// Builds a registry from an explicit seed and a `<spec>` string
    /// (`io=0.05,panic=0.01,net=0.1,slow=20ms,retries=3`).
    pub fn from_spec(seed: u64, spec: &str) -> Result<Chaos, String> {
        let mut rates = [0.0f64; 4];
        let mut slow = Duration::ZERO;
        let mut retries = DEFAULT_RETRIES;
        for item in spec.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| format!("expected 'key=value', got {item:?}"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "io" | "panic" | "net" => {
                    let p: f64 = value
                        .parse()
                        .map_err(|_| format!("{key}: bad probability {value:?}"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("{key}: probability {p} outside [0, 1]"));
                    }
                    let kind = match key {
                        "io" => FaultKind::Io,
                        "panic" => FaultKind::Panic,
                        _ => FaultKind::Net,
                    };
                    rates[kind as usize] = p;
                }
                "slow" => {
                    slow = parse_duration(value)?;
                    rates[FaultKind::Slow as usize] = 1.0;
                }
                "retries" => {
                    retries = value
                        .parse()
                        .map_err(|_| format!("retries: bad count {value:?}"))?;
                }
                _ => return Err(format!("unknown chaos knob {key:?}")),
            }
        }
        Ok(Chaos {
            seed,
            rates,
            slow,
            retries,
            rolls: Default::default(),
            injected: Default::default(),
        })
    }

    /// The root seed of every injection decision.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured injection probability of `kind`.
    pub fn rate(&self, kind: FaultKind) -> f64 {
        self.rates[kind as usize]
    }

    /// The injected delay of [`FaultKind::Slow`] sites.
    pub fn slow_delay(&self) -> Duration {
        self.slow
    }

    /// The executor retry budget for panicked tasks.
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// Decides whether to inject a `kind` fault at the named `site`.
    ///
    /// Deterministic: the decision is a hash of the seed, the site name
    /// and the per-kind roll counter — independent of wall clock and of
    /// every other kind's rolls. Returns `true` (and counts the
    /// injection) when the fault fires.
    pub fn roll(&self, kind: FaultKind, site: &str) -> bool {
        let k = kind as usize;
        let p = self.rates[k];
        if p <= 0.0 {
            return false;
        }
        let n = self.rolls[k].fetch_add(1, Ordering::Relaxed);
        let h = mix64(
            self.seed
                ^ fnv1a64(site.as_bytes())
                ^ mix64(n.wrapping_add(1) ^ ((k as u64 + 1) << 56)),
        );
        let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let hit = unit < p;
        if hit {
            self.injected[k].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Sleeps for the configured delay when a [`FaultKind::Slow`] fault
    /// fires at `site`.
    pub fn maybe_slow(&self, site: &str) {
        if self.slow > Duration::ZERO && self.roll(FaultKind::Slow, site) {
            std::thread::sleep(self.slow);
        }
    }

    /// Panics with a recognizable message when a [`FaultKind::Panic`]
    /// fault fires at `site`. Callers are expected to sit under a
    /// `catch_unwind` boundary (the executor and server dispatcher do).
    pub fn maybe_panic(&self, site: &str) {
        if self.roll(FaultKind::Panic, site) {
            panic!("chaos: injected panic at {site}");
        }
    }

    /// Total decisions taken for `kind` so far.
    pub fn rolls(&self, kind: FaultKind) -> u64 {
        self.rolls[kind as usize].load(Ordering::Relaxed)
    }

    /// Faults actually injected for `kind` so far.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.injected[kind as usize].load(Ordering::Relaxed)
    }

    /// One-line human description of the configuration.
    pub fn describe(&self) -> String {
        format!(
            "seed={} io={} panic={} net={} slow={:?} retries={}",
            self.seed,
            self.rates[FaultKind::Io as usize],
            self.rates[FaultKind::Panic as usize],
            self.rates[FaultKind::Net as usize],
            self.slow,
            self.retries,
        )
    }

    /// Exports roll/injection counters into `scope` of `reg` and marks
    /// the scope volatile (injection counts are process observability,
    /// never part of a deterministic result document).
    pub fn export_telemetry(&self, reg: &mut crate::telemetry::StatRegistry, scope: &str) {
        for kind in KINDS {
            reg.counter_add(scope, &format!("rolls_{}", kind.label()), self.rolls(kind));
            reg.counter_add(
                scope,
                &format!("injected_{}", kind.label()),
                self.injected(kind),
            );
        }
        reg.set_volatile(scope);
    }
}

/// The process-wide registry configured by [`ENV_CHAOS`], parsed once.
///
/// Returns `None` when the variable is unset, empty, `off`/`0`, or
/// malformed (a malformed spec is reported to stderr and ignored rather
/// than aborting an experiment run).
pub fn global() -> Option<Arc<Chaos>> {
    static GLOBAL: OnceLock<Option<Arc<Chaos>>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| {
            let v = std::env::var(ENV_CHAOS).ok()?;
            let v = v.trim();
            if v.is_empty() || v.eq_ignore_ascii_case("off") || v == "0" {
                return None;
            }
            match Chaos::parse(v) {
                Ok(chaos) => {
                    eprintln!("[chaos] enabled: {}", chaos.describe());
                    Some(Arc::new(chaos))
                }
                Err(e) => {
                    eprintln!("[chaos] ignoring {ENV_CHAOS}={v:?}: {e}");
                    None
                }
            }
        })
        .clone()
}

/// Extracts the human-readable message of a caught panic payload
/// (`&'static str` and `String` payloads; anything else gets a fixed
/// placeholder). Shared by the executor's typed task errors and the
/// server's failed-job states.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| format!("bad chaos seed {s:?}"))
}

fn parse_duration(s: &str) -> Result<Duration, String> {
    let bad = || format!("bad duration {s:?} (expected e.g. 20ms, 1s, 500us)");
    let (digits, unit) = s.split_at(s.find(|c: char| c.is_ascii_alphabetic()).ok_or_else(bad)?);
    let n: u64 = digits.trim().parse().map_err(|_| bad())?;
    match unit {
        "us" => Ok(Duration::from_micros(n)),
        "ms" => Ok(Duration::from_millis(n)),
        "s" => Ok(Duration::from_secs(n)),
        _ => Err(bad()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_spec() {
        let c = Chaos::parse("0x2a:io=0.05,panic=0.01,net=0.1,slow=20ms,retries=5").unwrap();
        assert_eq!(c.seed(), 42);
        assert_eq!(c.rate(FaultKind::Io), 0.05);
        assert_eq!(c.rate(FaultKind::Panic), 0.01);
        assert_eq!(c.rate(FaultKind::Net), 0.1);
        assert_eq!(c.slow_delay(), Duration::from_millis(20));
        assert_eq!(c.retries(), 5);
        assert!(c.describe().contains("seed=42"));
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(Chaos::parse("no-seed").is_err());
        assert!(Chaos::parse("x:io=0.1").is_err());
        assert!(Chaos::parse("1:io=1.5").is_err());
        assert!(Chaos::parse("1:io=-0.5").is_err());
        assert!(Chaos::parse("1:bogus=0.1").is_err());
        assert!(Chaos::parse("1:slow=20").is_err());
        assert!(Chaos::parse("1:slow=xms").is_err());
        assert!(Chaos::parse("1:io").is_err());
        assert!(Chaos::parse("1:retries=x").is_err());
    }

    #[test]
    fn empty_spec_injects_nothing() {
        let c = Chaos::from_spec(1, "").unwrap();
        for kind in KINDS {
            for _ in 0..50 {
                assert!(!c.roll(kind, "anywhere"));
            }
        }
        assert_eq!(c.injected(FaultKind::Io), 0);
        c.maybe_slow("anywhere"); // no delay configured: returns instantly
        c.maybe_panic("anywhere"); // p = 0: never panics
    }

    #[test]
    fn decisions_are_seeded_and_site_decorrelated() {
        let a = Chaos::from_spec(9, "io=0.5").unwrap();
        let b = Chaos::from_spec(9, "io=0.5").unwrap();
        let seq = |c: &Chaos, site: &str| -> Vec<bool> {
            (0..64).map(|_| c.roll(FaultKind::Io, site)).collect()
        };
        assert_eq!(seq(&a, "store.write"), seq(&b, "store.write"));
        // A different site under the same seed draws a different stream.
        let c = Chaos::from_spec(9, "io=0.5").unwrap();
        assert_ne!(seq(&a, "store.read"), seq(&c, "store.write"));
        // A different seed draws a different stream.
        let d = Chaos::from_spec(10, "io=0.5").unwrap();
        assert_ne!(seq(&b, "store.write"), seq(&d, "store.write"));
    }

    #[test]
    fn rates_zero_and_one_are_exact() {
        let c = Chaos::from_spec(3, "net=1.0").unwrap();
        for _ in 0..20 {
            assert!(c.roll(FaultKind::Net, "server.response"));
            assert!(!c.roll(FaultKind::Io, "store.write"));
        }
        assert_eq!(c.injected(FaultKind::Net), 20);
        assert_eq!(c.rolls(FaultKind::Net), 20);
        assert_eq!(c.rolls(FaultKind::Io), 0); // p = 0 burns no rolls
    }

    #[test]
    fn injected_panic_is_catchable_and_classified() {
        let c = Chaos::from_spec(5, "panic=1.0").unwrap();
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.maybe_panic("exec.task")))
                .expect_err("must panic");
        let msg = panic_message(caught.as_ref());
        assert_eq!(msg, "chaos: injected panic at exec.task");
        assert_eq!(c.injected(FaultKind::Panic), 1);
    }

    #[test]
    fn panic_message_covers_payload_shapes() {
        assert_eq!(panic_message(&"static str"), "static str");
        assert_eq!(panic_message(&String::from("owned")), "owned");
        assert_eq!(panic_message(&42u64), "non-string panic payload");
    }

    #[test]
    fn telemetry_export_is_volatile() {
        let c = Chaos::from_spec(1, "io=1.0").unwrap();
        c.roll(FaultKind::Io, "x");
        let mut reg = crate::telemetry::StatRegistry::new();
        c.export_telemetry(&mut reg, "chaos");
        let full = reg.snapshot_full();
        assert_eq!(
            full.get("chaos", "injected_io")
                .and_then(|s| s.as_counter()),
            Some(1)
        );
        // Volatile scopes never reach the deterministic snapshot.
        assert!(reg.snapshot().get("chaos", "injected_io").is_none());
    }

    #[test]
    fn duration_units() {
        assert_eq!(parse_duration("500us").unwrap(), Duration::from_micros(500));
        assert_eq!(parse_duration("20ms").unwrap(), Duration::from_millis(20));
        assert_eq!(parse_duration("2s").unwrap(), Duration::from_secs(2));
        assert!(parse_duration("20").is_err());
        assert!(parse_duration("ms").is_err());
    }
}
