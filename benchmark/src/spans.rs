//! In-memory spans recorded around calls into the system's layers.
//!
//! Spans are recorded only by benchmark code, at the boundary where it
//! calls a layer's public functions; nothing inside the program is
//! instrumented. They stay in memory and are written out once, at exit.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Id of the span that caused this one (0 = a root).
    pub parent: u64,
    /// Layer-qualified name, e.g. `serve.store.load_run`.
    pub name: &'static str,
    /// Request (or operation) id shared by the spans of one request.
    pub req: u64,
    /// Small per-process thread number.
    pub thread: u64,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

/// A span recorder; when off, every call is a no-op.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Records its span when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    req: u64,
    start: Instant,
}

impl Guard<'_> {
    /// This span's id, to pass as the parent of the spans it causes.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.tracer.push(
            self.id,
            self.parent,
            self.name,
            self.req,
            self.start,
            Instant::now(),
        );
    }
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span that ends when the returned guard drops.
    pub fn span(&self, name: &'static str, parent: u64, req: u64) -> Guard<'_> {
        let id = if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Guard {
            tracer: self,
            id,
            parent,
            name,
            req,
            start: Instant::now(),
        }
    }

    /// Records a span whose ends were measured by the caller.
    pub fn record(&self, name: &'static str, parent: u64, req: u64, start: Instant, end: Instant) {
        if self.on {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            self.push(id, parent, name, req, start, end);
        }
    }

    fn push(&self, id: u64, parent: u64, name: &'static str, req: u64, s: Instant, e: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            req,
            thread: THREAD.with(|t| *t),
            start_ns: ns(s),
            end_ns: ns(e),
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Self time per span: its duration minus the union of the intervals
    /// its direct children cover (children may run on other threads).
    fn self_times(&self) -> Vec<(Span, u64)> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        spans
            .into_iter()
            .map(|s| {
                let mut iv: Vec<(u64, u64)> = children
                    .get(&s.id)
                    .map(|c| {
                        c.iter()
                            .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                            .filter(|(a, b)| a < b)
                            .collect()
                    })
                    .unwrap_or_default();
                iv.sort_unstable();
                let mut covered = 0;
                let mut cur: Option<(u64, u64)> = None;
                for (a, b) in iv {
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            cur = Some((a, b));
                        }
                        None => cur = Some((a, b)),
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                let own = (s.end_ns - s.start_ns).saturating_sub(covered);
                (s, own)
            })
            .collect()
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Checks that on every thread the self times of its spans add up to
    /// no more than `wall_ns`; returns the offending thread's sum if not.
    pub fn check_self_times(&self, wall_ns: u64) -> Result<(), String> {
        let mut per_thread: BTreeMap<u64, u64> = BTreeMap::new();
        for (s, own) in self.self_times() {
            *per_thread.entry(s.thread).or_insert(0) += own;
        }
        for (t, sum) in per_thread {
            if sum > wall_ns {
                return Err(format!(
                    "thread {t}: span self times sum to {sum} ns, more than the {wall_ns} ns traced"
                ));
            }
        }
        Ok(())
    }

    /// Writes every span as a JSON array to `path` (parents created).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::from("[\n");
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":{},\"req\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}{}\n",
                s.id,
                s.parent,
                json::quote(s.name),
                s.req,
                s.thread,
                s.start_ns,
                s.end_ns,
                if i + 1 < spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}
