//! Cross-crate observability: a hierarchical, deterministic stat registry.
//!
//! Every component of the simulator (DRAM controllers, the cache
//! hierarchy, the migration engine, the core model, the parallel runner)
//! exports its counters into a [`StatRegistry`]: named *scopes* (dotted
//! paths such as `dram.hbm.ch0`) holding typed [`Stat`]s — monotone
//! counters, point-in-time gauges, fixed-bin histograms
//! ([`BinHistogram`]) and `num/den` ratio stats.
//!
//! The registry supports:
//!
//! * **Epoch snapshotting** — [`StatRegistry::mark_epoch`] records a
//!   labelled [`Snapshot`] of the current state, so interval-level series
//!   (per-epoch IPC, per-interval migrations) can be inspected after a
//!   run. Counters are monotone across epochs by construction.
//! * **Merging** — [`StatRegistry::merge_from`] combines two registries
//!   (counters/ratios/histogram bins add; gauges last-write-win), which
//!   is how per-shard registries from parallel runs accumulate into one.
//! * **Deterministic serialization** — [`Snapshot::to_json`] and
//!   [`Snapshot::to_table`] are hand-rolled writers (no external
//!   dependencies) with stable key ordering and no timestamps, so two
//!   runs of the same simulation produce byte-identical output at any
//!   thread count. This is what makes golden-snapshot regression testing
//!   possible (`tests/golden_stats.rs`).
//!
//! Scopes that hold wall-clock or scheduling-dependent data (e.g. the
//! executor's steal counts) are marked *volatile* via
//! [`StatRegistry::set_volatile`]; the default [`StatRegistry::snapshot`]
//! excludes them, [`StatRegistry::snapshot_full`] includes them.
//!
//! ```
//! use ramp_sim::telemetry::StatRegistry;
//!
//! let mut reg = StatRegistry::new();
//! reg.counter_add("dram.hbm.ch0", "row_hits", 42);
//! reg.ratio_add("dram.hbm", "row_hit_ratio", 42, 50);
//! reg.observe("dram.hbm.ch0", "read_q_occupancy", 0.0, 32.0, 32, 3.0);
//! let snap = reg.snapshot();
//! assert!(snap.to_json().contains("\"row_hits\""));
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// A fixed-geometry histogram with `u64` bin counts over `[lo, hi)`.
///
/// Out-of-range observations are clamped into the first/last bin so the
/// invariant `total == counts.iter().sum()` always holds (every pushed
/// value is counted exactly once).
#[derive(Clone, Debug, PartialEq)]
pub struct BinHistogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl BinHistogram {
    /// Creates a histogram with `bins` equal-width bins spanning `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        BinHistogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Records one observation (clamped into range).
    pub fn observe(&mut self, x: f64) {
        let bins = self.counts.len();
        let t = (x - self.lo) / (self.hi - self.lo);
        // `as i64` truncates toward zero rather than flooring, but the two
        // only differ for negative non-integers, which the clamp maps to
        // bin 0 either way (NaN and ±inf saturate identically too) — and
        // the cast avoids a libm floor call on this hot path.
        let idx = ((t * bins as f64) as i64).clamp(0, bins as i64 - 1) as usize;
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Lower bound of the range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations (equals the sum of all bins).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Reconstructs a histogram from serialized parts (the inverse of
    /// reading [`Self::lo`], [`Self::hi`] and [`Self::counts`]); the
    /// total is recomputed from the bins.
    ///
    /// Returns `None` instead of panicking when the parts are not a valid
    /// geometry (no bins, empty or non-finite range, bin sum overflow) so
    /// decoders can treat corrupt input as a clean failure.
    pub fn from_parts(lo: f64, hi: f64, counts: Vec<u64>) -> Option<Self> {
        if counts.is_empty() || !(hi > lo) || !lo.is_finite() || !hi.is_finite() {
            return None;
        }
        let total = counts.iter().try_fold(0u64, |a, &c| a.checked_add(c))?;
        Some(BinHistogram {
            lo,
            hi,
            counts,
            total,
        })
    }

    /// Serializes the histogram (bounds plus per-bin counts) into `w`.
    pub fn save_state(&self, w: &mut crate::codec::ByteWriter) {
        w.f64(self.lo);
        w.f64(self.hi);
        w.u32(self.counts.len() as u32);
        for &c in &self.counts {
            w.u64(c);
        }
    }

    /// Decodes a histogram serialized by [`BinHistogram::save_state`],
    /// rejecting corrupt geometry via [`BinHistogram::from_parts`].
    pub fn read_state(r: &mut crate::codec::ByteReader) -> Result<Self, crate::codec::CodecError> {
        let lo = r.f64()?;
        let hi = r.f64()?;
        let n = r.seq_len(8)?;
        let counts = r
            .take(n * 8)?
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        BinHistogram::from_parts(lo, hi, counts).ok_or(crate::codec::CodecError::Malformed(
            "bad histogram geometry",
        ))
    }

    /// Adds `other`'s bins into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different geometry.
    pub fn merge_from(&mut self, other: &BinHistogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.counts.len() == other.counts.len(),
            "histogram geometry mismatch: [{}, {})x{} vs [{}, {})x{}",
            self.lo,
            self.hi,
            self.counts.len(),
            other.lo,
            other.hi,
            other.counts.len()
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

/// One typed statistic inside a scope.
#[derive(Clone, Debug, PartialEq)]
pub enum Stat {
    /// A monotone event count.
    Counter(u64),
    /// A point-in-time value (last write wins).
    Gauge(f64),
    /// A fixed-bin distribution of observations.
    Histogram(BinHistogram),
    /// A derived rate `num / den` that keeps its components so merged
    /// registries stay exact (`0/0` renders as value `0`).
    Ratio {
        /// Numerator events.
        num: u64,
        /// Denominator events.
        den: u64,
    },
}

impl Stat {
    /// The counter value, if this is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            Stat::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The gauge value, if this is a gauge.
    pub fn as_gauge(&self) -> Option<f64> {
        match self {
            Stat::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// The histogram, if this is a histogram.
    pub fn as_histogram(&self) -> Option<&BinHistogram> {
        match self {
            Stat::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// The ratio value `num/den` (0 when `den == 0`), if this is a ratio.
    pub fn as_ratio(&self) -> Option<f64> {
        match self {
            Stat::Ratio { num, den } => Some(if *den == 0 {
                0.0
            } else {
                *num as f64 / *den as f64
            }),
            _ => None,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Stat::Counter(_) => "counter",
            Stat::Gauge(_) => "gauge",
            Stat::Histogram(_) => "histogram",
            Stat::Ratio { .. } => "ratio",
        }
    }

    /// Writes the stat as a single-line JSON object.
    fn write_json(&self, out: &mut String) {
        match self {
            Stat::Counter(v) => {
                let _ = write!(out, "{{\"type\":\"counter\",\"value\":{v}}}");
            }
            Stat::Gauge(v) => {
                out.push_str("{\"type\":\"gauge\",\"value\":");
                push_json_f64(out, *v);
                out.push('}');
            }
            Stat::Histogram(h) => {
                out.push_str("{\"type\":\"histogram\",\"lo\":");
                push_json_f64(out, h.lo);
                out.push_str(",\"hi\":");
                push_json_f64(out, h.hi);
                let _ = write!(out, ",\"bins\":{},\"counts\":[", h.counts.len());
                for (i, c) in h.counts.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{c}");
                }
                let _ = write!(out, "],\"total\":{}}}", h.total);
            }
            Stat::Ratio { num, den } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"ratio\",\"num\":{num},\"den\":{den},\"value\":"
                );
                push_json_f64(
                    out,
                    if *den == 0 {
                        0.0
                    } else {
                        *num as f64 / *den as f64
                    },
                );
                out.push('}');
            }
        }
    }

    /// Renders the stat for the human-readable table output.
    fn render_table(&self) -> String {
        match self {
            Stat::Counter(v) => format!("{v}"),
            Stat::Gauge(v) => format!("{v:.6}"),
            Stat::Histogram(h) => {
                let counts: Vec<String> = h.counts.iter().map(|c| c.to_string()).collect();
                format!(
                    "hist[{}, {}) total={} counts=[{}]",
                    h.lo,
                    h.hi,
                    h.total,
                    counts.join(",")
                )
            }
            Stat::Ratio { num, den } => {
                let v = if *den == 0 {
                    0.0
                } else {
                    *num as f64 / *den as f64
                };
                format!("{v:.6} ({num}/{den})")
            }
        }
    }
}

/// Escapes and appends `s` as a JSON string literal (with quotes).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON number.
///
/// Finite values use Rust's shortest round-trip `Display` (so
/// `emitted.parse::<f64>()` returns exactly `v`); non-finite values
/// (which JSON cannot express) are emitted as `null`.
fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// An immutable, serializable view of a registry at one point in time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    scopes: BTreeMap<String, BTreeMap<String, Stat>>,
}

impl Snapshot {
    /// The stat `name` inside `scope`, if present.
    pub fn get(&self, scope: &str, name: &str) -> Option<&Stat> {
        self.scopes.get(scope)?.get(name)
    }

    /// Inserts (or replaces) one stat, creating its scope if needed.
    pub fn insert(&mut self, scope: impl Into<String>, name: impl Into<String>, stat: Stat) {
        self.scopes
            .entry(scope.into())
            .or_default()
            .insert(name.into(), stat);
    }

    /// Inserts (or replaces) a whole scope at once — how the `ramp-serve`
    /// store decoder rebuilds a snapshot, one map insert per scope.
    pub fn insert_scope(&mut self, scope: String, stats: BTreeMap<String, Stat>) {
        self.scopes.insert(scope, stats);
    }

    /// Iterates scopes in sorted order.
    pub fn scopes(&self) -> impl Iterator<Item = (&str, &BTreeMap<String, Stat>)> {
        self.scopes.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// `true` when no scope holds any stat.
    pub fn is_empty(&self) -> bool {
        self.scopes.is_empty()
    }

    /// Serializes to deterministic JSON: scopes and stats in sorted key
    /// order, one stat per line, no timestamps.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, 0);
        out
    }

    /// Writes the snapshot's JSON object at `indent` levels (2 spaces
    /// each) into `out`.
    pub fn write_json(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        if self.scopes.is_empty() {
            out.push_str("{}");
            return;
        }
        out.push_str("{\n");
        let mut first_scope = true;
        for (scope, stats) in &self.scopes {
            if !first_scope {
                out.push_str(",\n");
            }
            first_scope = false;
            out.push_str(&pad);
            out.push_str("  ");
            push_json_str(out, scope);
            out.push_str(": {\n");
            let mut first_stat = true;
            for (name, stat) in stats {
                if !first_stat {
                    out.push_str(",\n");
                }
                first_stat = false;
                out.push_str(&pad);
                out.push_str("    ");
                push_json_str(out, name);
                out.push_str(": ");
                stat.write_json(out);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push_str("  }");
        }
        out.push('\n');
        out.push_str(&pad);
        out.push('}');
    }

    /// Renders a human-readable table: one `[scope]` block per scope,
    /// `name = value` lines inside.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        for (scope, stats) in &self.scopes {
            let _ = writeln!(out, "[{scope}]");
            for (name, stat) in stats {
                let _ = writeln!(out, "  {name} = {}", stat.render_table());
            }
        }
        out
    }
}

/// The mutable stat registry components export into.
///
/// See the [module docs](self) for the data model and determinism rules.
#[derive(Clone, Debug, Default)]
pub struct StatRegistry {
    scopes: BTreeMap<String, BTreeMap<String, Stat>>,
    volatile: BTreeSet<String>,
    epochs: Vec<(String, Snapshot)>,
}

impl StatRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&mut self, scope: &str, name: &str) -> &mut BTreeMap<String, Stat> {
        let _ = name;
        self.scopes.entry(scope.to_string()).or_default()
    }

    /// Adds `delta` to the counter `scope`/`name` (created at 0).
    ///
    /// # Panics
    ///
    /// Panics if the stat exists with a different type.
    pub fn counter_add(&mut self, scope: &str, name: &str, delta: u64) {
        let stat = self
            .slot(scope, name)
            .entry(name.to_string())
            .or_insert(Stat::Counter(0));
        match stat {
            Stat::Counter(v) => *v += delta,
            other => panic!("{scope}/{name} is a {}, not a counter", other.kind()),
        }
    }

    /// Sets the gauge `scope`/`name` to `value` (last write wins).
    ///
    /// # Panics
    ///
    /// Panics if the stat exists with a different type.
    pub fn gauge_set(&mut self, scope: &str, name: &str, value: f64) {
        let stat = self
            .slot(scope, name)
            .entry(name.to_string())
            .or_insert(Stat::Gauge(0.0));
        match stat {
            Stat::Gauge(v) => *v = value,
            other => panic!("{scope}/{name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Adds `num`/`den` events to the ratio `scope`/`name` (created at 0/0).
    ///
    /// # Panics
    ///
    /// Panics if the stat exists with a different type.
    pub fn ratio_add(&mut self, scope: &str, name: &str, num_delta: u64, den_delta: u64) {
        let stat = self
            .slot(scope, name)
            .entry(name.to_string())
            .or_insert(Stat::Ratio { num: 0, den: 0 });
        match stat {
            Stat::Ratio { num, den } => {
                *num += num_delta;
                *den += den_delta;
            }
            other => panic!("{scope}/{name} is a {}, not a ratio", other.kind()),
        }
    }

    /// Records `value` into the histogram `scope`/`name`, creating it
    /// with the given geometry on first use.
    ///
    /// # Panics
    ///
    /// Panics if the stat exists with a different type or geometry.
    pub fn observe(&mut self, scope: &str, name: &str, lo: f64, hi: f64, bins: usize, value: f64) {
        let stat = self
            .slot(scope, name)
            .entry(name.to_string())
            .or_insert_with(|| Stat::Histogram(BinHistogram::new(lo, hi, bins)));
        match stat {
            Stat::Histogram(h) => {
                assert!(
                    h.lo == lo && h.hi == hi && h.counts.len() == bins,
                    "{scope}/{name} histogram geometry mismatch"
                );
                h.observe(value);
            }
            other => panic!("{scope}/{name} is a {}, not a histogram", other.kind()),
        }
    }

    /// Merges a pre-accumulated histogram into `scope`/`name` (created
    /// empty with `hist`'s geometry on first use).
    ///
    /// # Panics
    ///
    /// Panics if the stat exists with a different type or geometry.
    pub fn observe_hist(&mut self, scope: &str, name: &str, hist: &BinHistogram) {
        let stat = self
            .slot(scope, name)
            .entry(name.to_string())
            .or_insert_with(|| {
                Stat::Histogram(BinHistogram::new(hist.lo, hist.hi, hist.counts.len()))
            });
        match stat {
            Stat::Histogram(h) => h.merge_from(hist),
            other => panic!("{scope}/{name} is a {}, not a histogram", other.kind()),
        }
    }

    /// Marks `scope` (and every sub-scope `scope.*`) as volatile:
    /// excluded from [`Self::snapshot`], included in
    /// [`Self::snapshot_full`]. Use for wall-clock or scheduling-dependent
    /// data that would break cross-thread-count determinism.
    pub fn set_volatile(&mut self, scope: &str) {
        self.volatile.insert(scope.to_string());
    }

    fn is_volatile(&self, scope: &str) -> bool {
        self.volatile.iter().any(|v| {
            scope == v || (scope.starts_with(v.as_str()) && scope.as_bytes()[v.len()] == b'.')
        })
    }

    /// A deterministic snapshot of the current state (volatile scopes
    /// excluded).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            scopes: self
                .scopes
                .iter()
                .filter(|(s, _)| !self.is_volatile(s))
                .map(|(s, m)| (s.clone(), m.clone()))
                .collect(),
        }
    }

    /// A snapshot including volatile scopes (for human-readable output).
    pub fn snapshot_full(&self) -> Snapshot {
        Snapshot {
            scopes: self.scopes.clone(),
        }
    }

    /// Records a labelled epoch snapshot of the current (non-volatile)
    /// state. Counters only ever grow, so successive epochs form a
    /// monotone series per counter.
    pub fn mark_epoch(&mut self, label: impl Into<String>) {
        let snap = self.snapshot();
        self.epochs.push((label.into(), snap));
    }

    /// The recorded epoch snapshots, in recording order.
    pub fn epochs(&self) -> &[(String, Snapshot)] {
        &self.epochs
    }

    /// Merges `other` into `self`: counters and ratios add, histogram
    /// bins add, gauges take `other`'s value; `other`'s volatile marks
    /// and epochs are appended.
    ///
    /// Accumulating registries `A` then `B` into a fresh registry equals
    /// recording all of `A`'s and `B`'s events sequentially (the property
    /// `tests/properties.rs` pins).
    ///
    /// # Panics
    ///
    /// Panics if the same `scope`/`name` holds different stat types or
    /// histogram geometries.
    pub fn merge_from(&mut self, other: &StatRegistry) {
        for (scope, stats) in &other.scopes {
            for (name, stat) in stats {
                match stat {
                    Stat::Counter(v) => self.counter_add(scope, name, *v),
                    Stat::Gauge(v) => self.gauge_set(scope, name, *v),
                    Stat::Histogram(h) => self.observe_hist(scope, name, h),
                    Stat::Ratio { num, den } => self.ratio_add(scope, name, *num, *den),
                }
            }
        }
        for v in &other.volatile {
            self.volatile.insert(v.clone());
        }
        self.epochs.extend(other.epochs.iter().cloned());
    }
}

/// Renders a set of labelled run snapshots as one deterministic JSON
/// document: `{"ramp_telemetry": 1, "runs": {label: snapshot, ...}}`,
/// labels in sorted order.
pub fn render_runs_json(runs: &[(String, Snapshot)]) -> String {
    let sorted: BTreeMap<&str, &Snapshot> = runs.iter().map(|(l, s)| (l.as_str(), s)).collect();
    let mut out = String::new();
    out.push_str("{\n  \"ramp_telemetry\": 1,\n  \"runs\": {");
    let mut first = true;
    for (label, snap) in sorted {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str("    ");
        push_json_str(&mut out, label);
        out.push_str(": ");
        snap.write_json(&mut out, 2);
    }
    if !first {
        out.push('\n');
        out.push_str("  ");
    }
    out.push_str("}\n}");
    out
}

/// Renders a set of labelled run snapshots as human-readable tables.
pub fn render_runs_table(runs: &[(String, Snapshot)]) -> String {
    let sorted: BTreeMap<&str, &Snapshot> = runs.iter().map(|(l, s)| (l.as_str(), s)).collect();
    let mut out = String::new();
    for (label, snap) in sorted {
        let _ = writeln!(out, "=== {label} ===");
        out.push_str(&snap.to_table());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let mut reg = StatRegistry::new();
        reg.counter_add("a.b", "x", 3);
        reg.counter_add("a.b", "x", 4);
        let snap = reg.snapshot();
        assert_eq!(snap.get("a.b", "x").unwrap().as_counter(), Some(7));
        assert!(snap.get("a.b", "y").is_none());
    }

    #[test]
    fn gauge_last_write_wins() {
        let mut reg = StatRegistry::new();
        reg.gauge_set("s", "g", 1.5);
        reg.gauge_set("s", "g", 2.5);
        assert_eq!(reg.snapshot().get("s", "g").unwrap().as_gauge(), Some(2.5));
    }

    #[test]
    fn ratio_components_add() {
        let mut reg = StatRegistry::new();
        reg.ratio_add("s", "r", 1, 4);
        reg.ratio_add("s", "r", 1, 4);
        assert_eq!(reg.snapshot().get("s", "r").unwrap().as_ratio(), Some(0.25));
    }

    #[test]
    fn zero_denominator_ratio_is_zero() {
        let mut reg = StatRegistry::new();
        reg.ratio_add("s", "r", 0, 0);
        assert_eq!(reg.snapshot().get("s", "r").unwrap().as_ratio(), Some(0.0));
        assert!(reg.snapshot().to_json().contains("\"value\":0"));
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_confusion_panics() {
        let mut reg = StatRegistry::new();
        reg.gauge_set("s", "x", 1.0);
        reg.counter_add("s", "x", 1);
    }

    #[test]
    fn histogram_clamps_and_counts() {
        let mut h = BinHistogram::new(0.0, 10.0, 5);
        h.observe(-1.0);
        h.observe(0.0);
        h.observe(9.9);
        h.observe(100.0);
        assert_eq!(h.total(), 4);
        assert_eq!(h.counts().iter().sum::<u64>(), 4);
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[4], 2);
    }

    #[test]
    fn histogram_merge_adds_bins() {
        let mut a = BinHistogram::new(0.0, 4.0, 4);
        a.observe(0.5);
        let mut b = BinHistogram::new(0.0, 4.0, 4);
        b.observe(0.5);
        b.observe(3.5);
        a.merge_from(&b);
        assert_eq!(a.counts(), &[2, 0, 0, 1]);
        assert_eq!(a.total(), 3);
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn histogram_merge_geometry_checked() {
        let mut a = BinHistogram::new(0.0, 4.0, 4);
        a.merge_from(&BinHistogram::new(0.0, 4.0, 8));
    }

    #[test]
    fn volatile_scopes_excluded_from_default_snapshot() {
        let mut reg = StatRegistry::new();
        reg.counter_add("sim", "ticks", 1);
        reg.counter_add("exec", "steals", 5);
        reg.counter_add("exec.stage0", "steals", 2);
        reg.set_volatile("exec");
        let snap = reg.snapshot();
        assert!(snap.get("exec", "steals").is_none());
        assert!(snap.get("exec.stage0", "steals").is_none());
        assert!(snap.get("sim", "ticks").is_some());
        let full = reg.snapshot_full();
        assert_eq!(full.get("exec", "steals").unwrap().as_counter(), Some(5));
        // Prefix matching is component-wise: "execfoo" is not volatile.
        reg.counter_add("execfoo", "x", 1);
        assert!(reg.snapshot().get("execfoo", "x").is_some());
    }

    #[test]
    fn epochs_record_monotone_counters() {
        let mut reg = StatRegistry::new();
        reg.counter_add("s", "n", 1);
        reg.mark_epoch("e0");
        reg.counter_add("s", "n", 2);
        reg.mark_epoch("e1");
        let epochs = reg.epochs();
        assert_eq!(epochs.len(), 2);
        assert_eq!(epochs[0].1.get("s", "n").unwrap().as_counter(), Some(1));
        assert_eq!(epochs[1].1.get("s", "n").unwrap().as_counter(), Some(3));
    }

    #[test]
    fn merge_equals_sequential_accumulation() {
        let mut seq = StatRegistry::new();
        let mut a = StatRegistry::new();
        let mut b = StatRegistry::new();
        for (reg_half, base) in [(&mut a, 0u64), (&mut b, 10u64)] {
            for i in 0..5 {
                reg_half.counter_add("s", "c", base + i);
                seq.counter_add("s", "c", base + i);
                reg_half.observe("s", "h", 0.0, 20.0, 4, (base + i) as f64);
                seq.observe("s", "h", 0.0, 20.0, 4, (base + i) as f64);
            }
        }
        let mut merged = StatRegistry::new();
        merged.merge_from(&a);
        merged.merge_from(&b);
        assert_eq!(merged.snapshot(), seq.snapshot());
    }

    // ---- JSON writer (satellite: escaping, nesting, empty, f64) ------

    #[test]
    fn json_escapes_special_characters() {
        let mut reg = StatRegistry::new();
        reg.counter_add("quote\"back\\slash", "tab\tnew\nline", 1);
        reg.counter_add("ctrl\u{1}", "x", 2);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"quote\\\"back\\\\slash\""));
        assert!(json.contains("\"tab\\tnew\\nline\""));
        assert!(json.contains("\"ctrl\\u0001\""));
    }

    #[test]
    fn json_nested_scopes_sorted_and_well_formed() {
        let mut reg = StatRegistry::new();
        reg.counter_add("b.inner", "z", 1);
        reg.counter_add("a.inner", "y", 2);
        reg.counter_add("a.inner", "a", 3);
        let json = reg.snapshot().to_json();
        // Scopes and stat names appear in sorted order.
        let pa = json.find("\"a.inner\"").unwrap();
        let pb = json.find("\"b.inner\"").unwrap();
        assert!(pa < pb);
        let py = json.find("\"y\"").unwrap();
        let pz = json.find("\"a\"").unwrap();
        assert!(pz < py);
        // Balanced braces/brackets (a cheap well-formedness check).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn json_empty_registry_is_empty_object() {
        assert_eq!(StatRegistry::new().snapshot().to_json(), "{}");
        let runs = render_runs_json(&[]);
        assert!(runs.contains("\"runs\": {}"));
    }

    #[test]
    fn json_f64_round_trips() {
        for v in [
            0.0,
            -0.0,
            1.0,
            0.1,
            -3.25,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            6.02214076e23,
            287.13,
        ] {
            let mut out = String::new();
            push_json_f64(&mut out, v);
            let parsed: f64 = out.parse().expect("emitted text parses as f64");
            assert_eq!(parsed.to_bits(), v.to_bits(), "round-trip of {v}");
        }
        // Non-finite values cannot be JSON numbers: emitted as null.
        let mut out = String::new();
        push_json_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
        let mut out = String::new();
        push_json_f64(&mut out, f64::INFINITY);
        assert_eq!(out, "null");
    }

    #[test]
    fn json_gauge_value_round_trips_through_text() {
        let mut reg = StatRegistry::new();
        let v = 0.012345678901234567;
        reg.gauge_set("s", "g", v);
        let json = reg.snapshot().to_json();
        let needle = "\"value\":";
        let at = json.rfind(needle).unwrap() + needle.len();
        let rest = &json[at..];
        let end = rest.find('}').unwrap();
        assert_eq!(rest[..end].parse::<f64>().unwrap(), v);
    }

    #[test]
    fn table_rendering_lists_scopes_and_stats() {
        let mut reg = StatRegistry::new();
        reg.counter_add("dram.ch0", "reads", 7);
        reg.ratio_add("dram.ch0", "hit_ratio", 1, 2);
        reg.observe("dram.ch0", "occ", 0.0, 4.0, 2, 1.0);
        let t = reg.snapshot().to_table();
        assert!(t.contains("[dram.ch0]"));
        assert!(t.contains("reads = 7"));
        assert!(t.contains("hit_ratio = 0.500000 (1/2)"));
        assert!(t.contains("total=1"));
    }

    #[test]
    fn run_rendering_sorts_labels() {
        let mut reg = StatRegistry::new();
        reg.counter_add("s", "c", 1);
        let snap = reg.snapshot();
        let runs = vec![
            ("b/run".to_string(), snap.clone()),
            ("a/run".to_string(), snap.clone()),
        ];
        let json = render_runs_json(&runs);
        assert!(json.find("\"a/run\"").unwrap() < json.find("\"b/run\"").unwrap());
        assert!(json.starts_with("{\n  \"ramp_telemetry\": 1"));
        let table = render_runs_table(&runs);
        assert!(table.find("=== a/run ===").unwrap() < table.find("=== b/run ===").unwrap());
    }

    #[test]
    fn snapshot_is_detached_from_registry() {
        let mut reg = StatRegistry::new();
        reg.counter_add("s", "c", 1);
        let snap = reg.snapshot();
        reg.counter_add("s", "c", 100);
        assert_eq!(snap.get("s", "c").unwrap().as_counter(), Some(1));
    }
}
