//! The declarative sweep specification and its point enumeration.
//!
//! A sweep spec is a small TOML-subset document with two sections:
//!
//! ```toml
//! [sweep]
//! name = "frontier"        # artifact name (required)
//! strategy = "grid"        # grid | random | halving (default grid)
//! seed = 42                # random-subsample seed (default 0)
//! samples = 32             # random only: points to keep
//! rungs = 3                # halving only: budget rungs (default 3)
//! base = "table1"          # table1 | smoke base config (default table1)
//! insts = 200000           # override base insts_per_core (optional)
//!
//! [axes]
//! workload = ["lbm", "mcf"]
//! policy = ["perf-focused", "balanced", "migration:rel-fc", "profile"]
//! fc_interval_cycles = [400000, 200000]
//! ```
//!
//! The `workload` and `policy` axes are required; any further axis names
//! a numeric [`SystemConfig`] knob (see [`Knob`]). The cartesian grid is
//! enumerated in a canonical nesting order — workload outermost, then
//! policy, then the knob axes in the order the spec lists them, last
//! axis fastest — so point indices are a pure function of the spec text.
//! Every knob flows through [`SystemConfig::canonical_bytes`], so each
//! point lands in its own content-addressed store slot.
//! A grid may have at most [`MAX_GRID_POINTS`] points, and every
//! axis may appear once.
//!
//! The TOML subset is deliberately tiny (the workspace is hermetic):
//! `[section]` headers, `key = value` lines, strings, integers,
//! booleans, one-line arrays, and `#` comments. That covers every sweep
//! spec this repository ships; anything else is a parse error.

use std::collections::BTreeMap;

use ramp_core::config::SystemConfig;
use ramp_core::migration::MigrationScheme;
use ramp_core::placement::PlacementPolicy;
use ramp_serve::spec::{RunAction, RunSpec};
use ramp_sim::SimRng;
use ramp_trace::Workload;

/// The [`SweepSpec::parse`] keys of the `[sweep]` section.
const SWEEP_KEYS: [&str; 7] = [
    "name", "strategy", "seed", "samples", "rungs", "base", "insts",
];

/// The most points a sweep's grid may have; [`SweepSpec::parse`] and
/// [`SweepSpec::points`] reject a larger grid with an error. Every
/// point is a full simulation, and the largest grid shipped (the
/// benchmark's warm sweep) has 288 points. The bound also keeps parsing
/// within the allocation limit the root `tests/properties.rs` checks
/// (4× the spec's size plus 4 KiB): a policy token costs 40 bytes in
/// memory and can be 9 in the spec, so a longer policy axis could
/// outgrow the limit.
pub const MAX_GRID_POINTS: usize = 1024;

/// How the sweep walks its grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// The full cartesian grid.
    Grid,
    /// A seeded random subsample of the grid (`samples` points).
    Random,
    /// Adaptive successive halving: every rung runs the surviving
    /// points at a doubled instruction budget and prunes the
    /// Pareto-dominated ones; only the final rung runs at full budget.
    Halving,
}

impl Strategy {
    /// Stable lower-case label (spec value and artifact field).
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Grid => "grid",
            Strategy::Random => "random",
            Strategy::Halving => "halving",
        }
    }

    /// Parses a spec `strategy` value.
    pub fn from_label(s: &str) -> Option<Strategy> {
        match s {
            "grid" => Some(Strategy::Grid),
            "random" => Some(Strategy::Random),
            "halving" => Some(Strategy::Halving),
            _ => None,
        }
    }
}

/// A numeric [`SystemConfig`] knob a sweep axis can vary.
///
/// Every variant maps onto a field covered by
/// [`SystemConfig::canonical_bytes`], so distinct knob values always
/// produce distinct store keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Knob {
    /// Per-core instruction budget (`insts_per_core`).
    InstsPerCore,
    /// Trace-generation root seed (`seed`).
    Seed,
    /// HBM capacity in pages (`hbm_capacity_pages`).
    HbmCapacityPages,
    /// Full-Counter migration interval in cycles (`fc_interval_cycles`).
    FcIntervalCycles,
    /// MEA migration interval in cycles (`mea_interval_cycles`).
    MeaIntervalCycles,
    /// Maximum page swaps per FC interval (`max_swaps_per_interval`).
    MaxSwapsPerInterval,
    /// Maximum MEA pages per interval (`mea_max_pages_per_interval`).
    MeaMaxPagesPerInterval,
}

/// Every sweepable knob, in canonical order.
pub const KNOBS: [Knob; 7] = [
    Knob::InstsPerCore,
    Knob::Seed,
    Knob::HbmCapacityPages,
    Knob::FcIntervalCycles,
    Knob::MeaIntervalCycles,
    Knob::MaxSwapsPerInterval,
    Knob::MeaMaxPagesPerInterval,
];

impl Knob {
    /// The axis name in spec files and artifact fields — identical to
    /// the `SystemConfig` field name.
    pub fn name(self) -> &'static str {
        match self {
            Knob::InstsPerCore => "insts_per_core",
            Knob::Seed => "seed",
            Knob::HbmCapacityPages => "hbm_capacity_pages",
            Knob::FcIntervalCycles => "fc_interval_cycles",
            Knob::MeaIntervalCycles => "mea_interval_cycles",
            Knob::MaxSwapsPerInterval => "max_swaps_per_interval",
            Knob::MeaMaxPagesPerInterval => "mea_max_pages_per_interval",
        }
    }

    /// Resolves an axis name to its knob.
    pub fn from_name(name: &str) -> Option<Knob> {
        KNOBS.into_iter().find(|k| k.name() == name)
    }

    /// Applies `value` to `cfg`.
    pub fn apply(self, cfg: &mut SystemConfig, value: u64) {
        match self {
            Knob::InstsPerCore => cfg.insts_per_core = value,
            Knob::Seed => cfg.seed = value,
            Knob::HbmCapacityPages => cfg.hbm_capacity_pages = value,
            Knob::FcIntervalCycles => cfg.fc_interval_cycles = value,
            Knob::MeaIntervalCycles => cfg.mea_interval_cycles = value,
            Knob::MaxSwapsPerInterval => cfg.max_swaps_per_interval = value as usize,
            Knob::MeaMaxPagesPerInterval => cfg.mea_max_pages_per_interval = value as usize,
        }
    }
}

/// One config axis: a knob and the values it sweeps.
#[derive(Clone, Debug)]
pub struct KnobAxis {
    /// Which knob varies.
    pub knob: Knob,
    /// The values, in spec order.
    pub values: Vec<u64>,
}

/// A parsed, validated sweep specification.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Artifact/sweep name.
    pub name: String,
    /// Search strategy.
    pub strategy: Strategy,
    /// Seed of the random subsample (unused by grid/halving).
    pub seed: u64,
    /// Random subsample size (random strategy only).
    pub samples: usize,
    /// Successive-halving rung count (halving strategy only).
    pub rungs: u32,
    /// Label of the base config (`table1` or `smoke`).
    pub base_label: String,
    /// The base config every point derives from.
    pub base: SystemConfig,
    /// The workload axis.
    pub workloads: Vec<Workload>,
    /// The policy axis: `(spec token, parsed action)` pairs.
    pub policies: Vec<(String, RunAction)>,
    /// Config-knob axes, in spec order.
    pub knobs: Vec<KnobAxis>,
}

/// One enumerated point of a sweep: a concrete config and run spec.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// The point's config (base + knob-axis values).
    pub cfg: SystemConfig,
    /// What to run.
    pub spec: RunSpec,
    /// The knob-axis values of this point, in axis order.
    pub knobs: Vec<(&'static str, u64)>,
}

impl SweepPoint {
    /// The content-addressed store key of this point.
    pub fn key(&self) -> String {
        self.spec.key(&self.cfg)
    }

    /// `workload/policy` label for progress and error messages.
    pub fn label(&self) -> String {
        format!("{}/{}", self.spec.workload.name(), self.spec.policy_label())
    }
}

/// Parses a policy-axis token into a run action.
///
/// Accepted forms: `profile`, `annotated`, `static:<placement>`,
/// `migration:<scheme>`, or a bare name tried first as a placement
/// policy, then as a migration scheme (`perf-focused` → static,
/// `rel-fc` → migration).
pub fn parse_action(token: &str) -> Result<RunAction, String> {
    match token {
        "profile" => return Ok(RunAction::Profile),
        "annotated" | "annotations" => return Ok(RunAction::Annotated),
        _ => {}
    }
    if let Some(name) = token.strip_prefix("static:") {
        return PlacementPolicy::from_name(name)
            .map(RunAction::Static)
            .ok_or_else(|| format!("unknown placement policy '{name}'"));
    }
    if let Some(name) = token.strip_prefix("migration:") {
        return MigrationScheme::from_name(name)
            .map(RunAction::Migration)
            .ok_or_else(|| format!("unknown migration scheme '{name}'"));
    }
    if let Some(p) = PlacementPolicy::from_name(token) {
        return Ok(RunAction::Static(p));
    }
    if let Some(s) = MigrationScheme::from_name(token) {
        return Ok(RunAction::Migration(s));
    }
    Err(format!(
        "unknown policy token '{token}' (try profile, annotated, static:<name>, migration:<name>)"
    ))
}

impl SweepSpec {
    /// Parses a sweep spec document (see the module docs for the format).
    ///
    /// The document is read line by line and nothing per line is kept,
    /// so the memory a spec costs is bounded by its size: an axis list
    /// is parsed twice (once to count, once to fill a vector of exactly
    /// that length), and the grid check runs before an axis is stored.
    pub fn parse(text: &str) -> Result<SweepSpec, String> {
        let mut sweep: BTreeMap<&str, String> = BTreeMap::new();
        let mut workloads = Vec::new();
        let mut policies = Vec::new();
        let mut knobs: Vec<KnobAxis> = Vec::new();
        let mut axes: Vec<&str> = Vec::new();
        let mut grid = 1usize;
        for entry in toml_entries(text) {
            let Entry {
                section,
                key,
                value,
            } = entry?;
            match (section, value) {
                ("sweep", value) => {
                    if !SWEEP_KEYS.contains(&key) {
                        return Err(format!("[sweep]: unknown key '{key}'"));
                    }
                    let Value::Scalar(value) = value else {
                        return Err(format!("[sweep] {key} must not be an array"));
                    };
                    sweep.entry(key).or_insert(value);
                }
                ("axes", Value::Scalar(_)) => return Err(format!("[axes] {key} must be an array")),
                ("axes", Value::List { inner, len }) => {
                    if len == 0 {
                        return Err(format!("[axes] {key} must be non-empty"));
                    }
                    if axes.contains(&key) {
                        return Err(format!("[axes] duplicate axis '{key}'"));
                    }
                    axes.push(key);
                    grid = grid
                        .checked_mul(len)
                        .filter(|&n| n <= MAX_GRID_POINTS)
                        .ok_or_else(|| {
                            format!("[axes] {key}: the grid exceeds {MAX_GRID_POINTS} points")
                        })?;
                    match key {
                        "workload" => {
                            workloads.reserve_exact(len);
                            for v in array_items(inner) {
                                let v = v?;
                                workloads.push(
                                    Workload::from_name(&v)
                                        .ok_or_else(|| format!("[axes] unknown workload '{v}'"))?,
                                );
                            }
                        }
                        "policy" => {
                            policies.reserve_exact(len);
                            for v in array_items(inner) {
                                let v = v?;
                                let action =
                                    parse_action(&v).map_err(|e| format!("[axes] policy: {e}"))?;
                                policies.push((v, action));
                            }
                        }
                        other => {
                            let knob = Knob::from_name(other).ok_or_else(|| {
                                format!(
                                    "[axes] unknown axis '{other}' (workload, policy, or one of: {})",
                                    KNOBS.map(|k| k.name()).join(", ")
                                )
                            })?;
                            let mut values = Vec::with_capacity(len);
                            for v in array_items(inner) {
                                let v = v?;
                                values.push(
                                    v.parse::<u64>().map_err(|_| {
                                        format!("[axes] {other}: bad integer '{v}'")
                                    })?,
                                );
                            }
                            knobs.push(KnobAxis { knob, values });
                        }
                    }
                }
                (other, _) => return Err(format!("unknown section '[{other}]'")),
            }
        }
        let sweep_str = |key: &str| sweep.get(key).map(String::as_str);
        let name = sweep_str("name")
            .ok_or("[sweep] name is required")?
            .to_string();
        if name.is_empty() || !name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-') {
            return Err(format!(
                "[sweep] name '{name}' must be non-empty [a-zA-Z0-9-]"
            ));
        }
        let strategy = match sweep_str("strategy") {
            None => Strategy::Grid,
            Some(s) => Strategy::from_label(s)
                .ok_or_else(|| format!("[sweep] unknown strategy '{s}' (grid|random|halving)"))?,
        };
        let parse_u64 = |key: &str| -> Result<Option<u64>, String> {
            match sweep_str(key) {
                None => Ok(None),
                Some(v) => v
                    .parse()
                    .map(Some)
                    .map_err(|_| format!("[sweep] {key}: bad integer '{v}'")),
            }
        };
        let seed = parse_u64("seed")?.unwrap_or(0);
        let samples = parse_u64("samples")?.unwrap_or(0) as usize;
        if strategy == Strategy::Random && samples == 0 {
            return Err("[sweep] strategy 'random' requires samples > 0".into());
        }
        let rungs = parse_u64("rungs")?.unwrap_or(3) as u32;
        if strategy == Strategy::Halving && rungs == 0 {
            return Err("[sweep] strategy 'halving' requires rungs > 0".into());
        }
        let base_label = sweep_str("base").unwrap_or("table1").to_string();
        let mut base = match base_label.as_str() {
            "table1" => SystemConfig::table1_scaled(),
            "smoke" => SystemConfig::smoke_test(),
            other => return Err(format!("[sweep] unknown base config '{other}'")),
        };
        if let Some(insts) = parse_u64("insts")? {
            base.insts_per_core = insts;
        }
        if workloads.is_empty() {
            return Err("[axes] workload axis is required".into());
        }
        if policies.is_empty() {
            return Err("[axes] policy axis is required".into());
        }
        Ok(SweepSpec {
            name,
            strategy,
            seed,
            samples,
            rungs,
            base_label,
            base,
            workloads,
            policies,
            knobs,
        })
    }

    /// The size of the full cartesian grid, `usize::MAX` when the
    /// product of the axis lengths overflows.
    pub fn grid_len(&self) -> usize {
        [self.workloads.len(), self.policies.len()]
            .into_iter()
            .chain(self.knobs.iter().map(|axis| axis.values.len()))
            .try_fold(1usize, usize::checked_mul)
            .unwrap_or(usize::MAX)
    }

    /// Enumerates the selected points of this sweep, in canonical order:
    /// the full grid for `grid`/`halving`, a seeded subsample for
    /// `random`. Duplicate store keys (identical points) are dropped,
    /// keeping the first occurrence. Every point's config is validated.
    /// A grid of more than [`MAX_GRID_POINTS`] points is an error
    /// (specs built in code skip [`SweepSpec::parse`], which checks it
    /// first).
    pub fn points(&self) -> Result<Vec<SweepPoint>, String> {
        let grid = self.grid_len();
        if grid > MAX_GRID_POINTS {
            return Err(format!("the grid exceeds {MAX_GRID_POINTS} points"));
        }
        let mut out = Vec::with_capacity(grid);
        for wl in &self.workloads {
            for (_, action) in &self.policies {
                let mut knob_values = vec![0u64; self.knobs.len()];
                self.expand_knobs(0, &mut knob_values, *wl, *action, &mut out)?;
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        out.retain(|p| seen.insert(p.key()));
        if self.strategy == Strategy::Random && self.samples < out.len() {
            // Seeded partial Fisher-Yates over the point indices, then
            // back to canonical order — which points are kept depends
            // only on (seed, samples, grid), never on thread count.
            let mut rng = SimRng::from_seed(self.seed);
            let n = out.len();
            let mut idx: Vec<usize> = (0..n).collect();
            for i in 0..self.samples {
                let j = i + (rng.next_u64() as usize) % (n - i);
                idx.swap(i, j);
            }
            idx.truncate(self.samples);
            idx.sort_unstable();
            out = idx.into_iter().map(|i| out[i].clone()).collect();
        }
        Ok(out)
    }

    fn expand_knobs(
        &self,
        depth: usize,
        knob_values: &mut [u64],
        wl: Workload,
        action: RunAction,
        out: &mut Vec<SweepPoint>,
    ) -> Result<(), String> {
        if depth == self.knobs.len() {
            let mut cfg = self.base.clone();
            let mut knobs = Vec::with_capacity(self.knobs.len());
            for (axis, value) in self.knobs.iter().zip(knob_values.iter()) {
                axis.knob.apply(&mut cfg, *value);
                knobs.push((axis.knob.name(), *value));
            }
            check_config(&cfg).map_err(|e| {
                let combo: Vec<String> = knobs.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!("invalid point config ({}): {e}", combo.join(", "))
            })?;
            out.push(SweepPoint {
                cfg,
                spec: RunSpec {
                    workload: wl,
                    action,
                },
                knobs,
            });
            return Ok(());
        }
        for i in 0..self.knobs[depth].values.len() {
            knob_values[depth] = self.knobs[depth].values[i];
            self.expand_knobs(depth + 1, knob_values, wl, action, out)?;
        }
        Ok(())
    }

    /// Comma-joined workload axis (artifact field).
    pub fn workload_axis(&self) -> String {
        let names: Vec<&str> = self.workloads.iter().map(|w| w.name()).collect();
        names.join(",")
    }

    /// Comma-joined policy axis tokens (artifact field).
    pub fn policy_axis(&self) -> String {
        let names: Vec<&str> = self.policies.iter().map(|(t, _)| t.as_str()).collect();
        names.join(",")
    }
}

/// Validates a point config without panicking (unlike
/// [`SystemConfig::validate`], which asserts).
fn check_config(cfg: &SystemConfig) -> Result<(), String> {
    if cfg.insts_per_core == 0 {
        return Err("insts_per_core must be > 0".into());
    }
    if cfg.hbm_capacity_pages == 0 {
        return Err("hbm_capacity_pages must be > 0".into());
    }
    if cfg.max_swaps_per_interval == 0 {
        return Err("max_swaps_per_interval must be > 0".into());
    }
    if cfg.mea_max_pages_per_interval == 0 {
        return Err("mea_max_pages_per_interval must be > 0".into());
    }
    if cfg.mea_interval_cycles >= cfg.fc_interval_cycles {
        return Err(format!(
            "mea_interval_cycles ({}) must be shorter than fc_interval_cycles ({})",
            cfg.mea_interval_cycles, cfg.fc_interval_cycles
        ));
    }
    Ok(())
}

/// One `key = value` entry of the TOML-subset document.
struct Entry<'a> {
    section: &'a str,
    key: &'a str,
    value: Value<'a>,
}

/// The value of one [`Entry`].
enum Value<'a> {
    /// A scalar in its text form (see [`parse_scalar`]).
    Scalar(String),
    /// A one-line array: the text between its brackets, whose `len`
    /// items all parse (read them with [`array_items`]).
    List { inner: &'a str, len: usize },
}

/// Parses the TOML subset: `[section]` headers, `key = value` lines
/// with string/integer/float/bool scalars or one-line arrays, and `#`
/// comments. Yields entries in document order (axis order matters)
/// without collecting them.
fn toml_entries(text: &str) -> impl Iterator<Item = Result<Entry<'_>, String>> {
    let mut section = "";
    text.lines().enumerate().filter_map(move |(lineno, raw)| {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            return None;
        }
        let err = |msg: &str| format!("line {}: {msg}", lineno + 1);
        if let Some(h) = line.strip_prefix('[') {
            return match h.strip_suffix(']').map(str::trim) {
                None => Some(Err(err("unterminated section header"))),
                Some("") => Some(Err(err("empty section name"))),
                Some(name) => {
                    section = name;
                    None
                }
            };
        }
        Some(parse_entry(section, line).map_err(|e| err(&e)))
    })
}

/// Parses one non-header line of section `section`.
fn parse_entry<'a>(section: &'a str, line: &'a str) -> Result<Entry<'a>, String> {
    let (key, value) = line.split_once('=').ok_or("expected 'key = value'")?;
    let (key, value) = (key.trim(), value.trim());
    if key.is_empty() {
        return Err("empty key".into());
    }
    if section.is_empty() {
        return Err("entry before any [section] header".into());
    }
    let value = match value.strip_prefix('[') {
        Some(inner) => {
            let inner = inner
                .strip_suffix(']')
                .ok_or("arrays must open and close on one line")?;
            let mut len = 0;
            for item in array_items(inner) {
                item?;
                len += 1;
            }
            Value::List { inner, len }
        }
        None => Value::Scalar(parse_scalar(value)?),
    };
    Ok(Entry {
        section,
        key,
        value,
    })
}

/// Strips a `#` comment, honoring `"`-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, b) in line.bytes().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// The items of an array's inside, split on commas outside quoted
/// strings, each parsed with [`parse_scalar`]; empty items are skipped.
fn array_items(inner: &str) -> impl Iterator<Item = Result<String, String>> + '_ {
    let mut rest = Some(inner);
    std::iter::from_fn(move || loop {
        let s = rest?;
        let mut in_str = false;
        let comma = s.bytes().position(|b| {
            if b == b'"' {
                in_str = !in_str;
            }
            b == b',' && !in_str
        });
        let item = match comma {
            Some(i) => {
                rest = Some(&s[i + 1..]);
                &s[..i]
            }
            None => {
                rest = None;
                s
            }
        };
        let item = item.trim();
        if !item.is_empty() {
            return Some(parse_scalar(item));
        }
    })
}

/// Parses a scalar: `"string"`, integer, float, or bool — all kept as
/// their text form (callers parse the fields they care about, the
/// flat-JSON convention).
fn parse_scalar(s: &str) -> Result<String, String> {
    if let Some(inner) = s.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string {s:?}"))?;
        if inner.contains('"') {
            return Err(format!("embedded quote in string {s:?}"));
        }
        return Ok(inner.to_string());
    }
    if s == "true" || s == "false" || s.parse::<i64>().is_ok() || s.parse::<f64>().is_ok() {
        return Ok(s.to_string());
    }
    Err(format!(
        "bad value {s:?} (expected \"string\", number, bool, or [array])"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramp_serve::store::RunKind;

    const EXAMPLE: &str = r#"
        # a comment
        [sweep]
        name = "demo"          # trailing comment
        strategy = "grid"
        base = "smoke"
        insts = 20000

        [axes]
        workload = ["lbm", "mcf"]
        policy = ["perf-focused", "migration:rel-fc", "profile"]
        fc_interval_cycles = [60000, 80000]
    "#;

    #[test]
    fn parses_the_example_spec() {
        let spec = SweepSpec::parse(EXAMPLE).unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.strategy, Strategy::Grid);
        assert_eq!(spec.base.insts_per_core, 20_000);
        assert_eq!(spec.workloads.len(), 2);
        assert_eq!(spec.policies.len(), 3);
        assert_eq!(spec.knobs.len(), 1);
        assert_eq!(spec.grid_len(), 12);
        let points = spec.points().unwrap();
        assert_eq!(points.len(), 12);
        // Canonical nesting: workload outermost, knob axis fastest.
        assert_eq!(points[0].spec.workload.name(), "lbm");
        assert_eq!(points[0].cfg.fc_interval_cycles, 60_000);
        assert_eq!(points[1].cfg.fc_interval_cycles, 80_000);
        assert_eq!(points[2].spec.kind(), RunKind::Migration);
        // Every key is distinct.
        let keys: std::collections::BTreeSet<String> = points.iter().map(|p| p.key()).collect();
        assert_eq!(keys.len(), 12);
    }

    #[test]
    fn policy_tokens_cover_every_kind() {
        assert_eq!(parse_action("profile").unwrap(), RunAction::Profile);
        assert_eq!(parse_action("annotated").unwrap(), RunAction::Annotated);
        assert!(matches!(
            parse_action("perf-focused").unwrap(),
            RunAction::Static(_)
        ));
        assert!(matches!(
            parse_action("static:wr2-ratio").unwrap(),
            RunAction::Static(_)
        ));
        assert!(matches!(
            parse_action("rel-fc").unwrap(),
            RunAction::Migration(_)
        ));
        assert!(matches!(
            parse_action("migration:cross-counter").unwrap(),
            RunAction::Migration(_)
        ));
        assert!(parse_action("static:rel-fc").is_err());
        assert!(parse_action("migration:balanced").is_err());
        assert!(parse_action("bogus").is_err());
    }

    #[test]
    fn rejects_malformed_specs() {
        for (text, needle) in [
            ("", "name is required"),
            ("[sweep]\nname = \"x\"", "workload axis is required"),
            (
                "[sweep]\nname = \"x\"\n[axes]\nworkload = [\"lbm\"]",
                "policy axis is required",
            ),
            (
                "[sweep]\nname = \"x\"\nstrategy = \"random\"\n[axes]\nworkload = [\"lbm\"]\npolicy = [\"profile\"]",
                "requires samples",
            ),
            (
                "[sweep]\nname = \"x\"\nbogus = 1\n[axes]\nworkload = [\"lbm\"]\npolicy = [\"profile\"]",
                "unknown key",
            ),
            (
                "[sweep]\nname = \"x\"\n[axes]\nworkload = [\"lbm\"]\npolicy = [\"profile\"]\ncores = [4]",
                "unknown axis",
            ),
            (
                "[sweep]\nname = \"x\"\n[axes]\nworkload = [\"nope\"]\npolicy = [\"profile\"]",
                "unknown workload",
            ),
            ("[bogus]\nx = 1", "unknown section"),
            ("x = 1", "before any"),
            ("[sweep]\nname = \"has space\"", "must be non-empty"),
            ("[sweep]\nname = [\"x\"", "one line"),
        ] {
            let err = SweepSpec::parse(text).unwrap_err();
            assert!(
                err.contains(needle),
                "spec {text:?}: error {err:?} missing {needle:?}"
            );
        }
    }

    #[test]
    fn invalid_point_configs_are_rejected_with_context() {
        let text = "[sweep]\nname = \"x\"\nbase = \"smoke\"\n[axes]\nworkload = [\"lbm\"]\npolicy = [\"profile\"]\nmea_interval_cycles = [60000]";
        let err = SweepSpec::parse(text).unwrap().points().unwrap_err();
        assert!(err.contains("mea_interval_cycles"), "{err}");
    }

    #[test]
    fn random_subsample_is_seeded_and_canonical() {
        let text = |seed: u64| {
            format!(
                "[sweep]\nname = \"x\"\nstrategy = \"random\"\nseed = {seed}\nsamples = 5\nbase = \"smoke\"\n\
                 [axes]\nworkload = [\"lbm\", \"mcf\", \"astar\"]\npolicy = [\"perf-focused\", \"balanced\", \"profile\", \"wr2-ratio\"]"
            )
        };
        let a = SweepSpec::parse(&text(7)).unwrap().points().unwrap();
        let b = SweepSpec::parse(&text(7)).unwrap().points().unwrap();
        let c = SweepSpec::parse(&text(8)).unwrap().points().unwrap();
        assert_eq!(a.len(), 5);
        let keys = |pts: &[SweepPoint]| pts.iter().map(|p| p.key()).collect::<Vec<_>>();
        assert_eq!(keys(&a), keys(&b));
        assert_ne!(keys(&a), keys(&c));
        // Subsample preserves canonical enumeration order.
        let full = {
            let t = text(7).replace("strategy = \"random\"", "strategy = \"grid\"");
            SweepSpec::parse(&t).unwrap().points().unwrap()
        };
        let order: Vec<usize> = keys(&a)
            .iter()
            .map(|k| full.iter().position(|p| &p.key() == k).unwrap())
            .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]));
    }

    /// `[axes]` lines: one workload, one policy, then `knobs` knob axes of
    /// `n` distinct values each.
    fn knob_grid(knobs: usize, n: u64) -> String {
        let mut text = "[sweep]\nname = \"x\"\nbase = \"smoke\"\n[axes]\n\
                        workload = [\"lbm\"]\npolicy = [\"profile\"]\n"
            .to_string();
        for knob in &KNOBS[..knobs] {
            let values: Vec<String> = (10_000..10_000 + n).map(|v| v.to_string()).collect();
            text.push_str(&format!("{} = [{}]\n", knob.name(), values.join(",")));
        }
        text
    }

    #[test]
    fn oversized_grids_are_errors_not_aborts() {
        // Four 300-value axes: 8.1e9 points from a 7 KB spec, whose
        // enumeration would ask for 1.6 TB up front.
        let text = knob_grid(4, 300);
        assert!((7_000..8_000).contains(&text.len()), "{}", text.len());
        let err = SweepSpec::parse(&text)
            .and_then(|s| s.points().map(|_| ()))
            .unwrap_err();
        assert!(err.contains("exceeds 1024 points"), "{err}");
        // Seven 600-value axes: the point count overflows a u64.
        let err = SweepSpec::parse(&knob_grid(7, 600))
            .and_then(|s| s.points().map(|_| ()))
            .unwrap_err();
        assert!(err.contains("exceeds 1024 points"), "{err}");

        // The bound itself is a valid grid; one point more is not.
        let limit = MAX_GRID_POINTS as u64;
        let spec = SweepSpec::parse(&knob_grid(1, limit)).unwrap();
        assert_eq!(spec.points().unwrap().len(), MAX_GRID_POINTS);
        assert!(SweepSpec::parse(&knob_grid(1, limit + 1)).is_err());

        // A spec built in code skips `parse`; `points` still refuses.
        let mut spec = SweepSpec::parse(&knob_grid(1, 2)).unwrap();
        spec.knobs[0].values = (0..limit + 1).collect();
        assert!(spec.points().unwrap_err().contains("exceeds"));
        assert_eq!(spec.grid_len(), MAX_GRID_POINTS + 1);
        spec.knobs.resize(7, spec.knobs[0].clone());
        assert_eq!(spec.grid_len(), usize::MAX);
        assert!(spec.points().is_err());
    }

    #[test]
    fn every_axis_appears_once() {
        for dup in [
            "workload = [\"mcf\"]",
            "policy = [\"balanced\"]",
            "seed = [1]",
        ] {
            let text = format!("{}seed = [2]\n{dup}\n", knob_grid(0, 0));
            let err = SweepSpec::parse(&text).unwrap_err();
            assert!(err.contains("duplicate axis"), "{text:?}: {err}");
        }
    }

    #[test]
    fn duplicate_points_are_deduped_by_key() {
        let text = "[sweep]\nname = \"x\"\nbase = \"smoke\"\n[axes]\nworkload = [\"lbm\", \"lbm\"]\npolicy = [\"profile\"]";
        let points = SweepSpec::parse(text).unwrap().points().unwrap();
        assert_eq!(points.len(), 1);
    }
}
