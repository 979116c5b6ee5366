//! Persistent, content-addressed run store under `target/ramp-store/`.
//!
//! Every completed simulation is persisted under a key derived from
//! *everything that determines its outcome*: the full
//! [`SystemConfig::canonical_bytes`] encoding, the run kind, the workload
//! name, the policy/scheme label, plus the wire-format version and a
//! code-version salt ([`STORE_SALT`]). Change any input — or the
//! simulator itself, by bumping the salt — and the run lands in a fresh
//! slot instead of serving a stale result.
//!
//! Writes are atomic: the entry is written to a unique temp file in the
//! store directory and `rename`d into place, so concurrent experiment
//! binaries sharing one store never observe a torn entry — and every
//! write is read back and byte-compared before it counts as persisted.
//! Reads that hit a corrupt, truncated or version-skewed file count as
//! misses (and bump the `invalid` metric); the offending file is
//! **quarantined** — renamed `*.quarantine` next to a `*.reason` file
//! recording the decode error — so bad bytes are preserved for autopsy
//! instead of being silently overwritten. [`RunStore::scrub`] walks a
//! store offline, removes stale temp files and quarantines every entry
//! that no longer decodes (exposed as the `ramp-store scrub`
//! subcommand). The store never panics on bad bytes and never trusts
//! them.
//!
//! Under `RAMP_CHAOS` (see [`ramp_sim::chaos`]) the store injects its
//! own faults at three sites — `store.read` (read I/O error),
//! `store.write` (failed write) and `store.corrupt` (post-write bit
//! rot) — which is how the resilience test matrix exercises the
//! quarantine and degraded-mode paths deterministically.
//!
//! Checkpoint trails use the same layout, one `{key}-e{epoch:08}.ckpt`
//! file per epoch; a resume takes the newest one that decodes.
//! [`RunStore::verify`] is the read-only validation pass and
//! [`RunStore::scrub`] the healing walk, which also reclaims orphaned
//! checkpoint trails whose base run entry is missing or quarantined.
//! Both look only at the files directly inside the store directory:
//! subdirectories are never read, counted or touched.
//!
//! Each workload's post-L1 event streams live here too, one
//! `{key}-c{core:02}.stream` file per core under [`stream_key`]: the
//! first run of the key records them ([`RunStore::attach_streams`]
//! writes temp files and renames each into place when its core
//! finishes), and every later run replays them. They are a cache, not
//! results: not fsynced (block checksums catch a torn write), counted
//! apart from entries, and a stream that fails to decode is
//! quarantined so its run goes live. Scrub and verify read every block.
//!
//! Only DDR-only runs (profiles and `static:ddr-only`) keep their
//! per-page [`StatsTable`](ramp_avf::StatsTable) rows on disk: those
//! tables are what placement and migration warm starts read. Every
//! other `.run` and `.ann` entry is written with a zero-row table that
//! keeps `total_cycles` (`keeps_rows`), which makes a typical entry
//! ~60x smaller (DESIGN.md §7). The layout is unchanged, so entries
//! written with full tables by earlier builds still decode as hits.

use std::fs;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ramp_cache::stream::{self, StreamReader, StreamSink, StreamSource, StreamWriter};
use ramp_core::annotate::AnnotationSet;
use ramp_core::config::SystemConfig;
use ramp_core::system::{RunResult, SystemSim, CHECKPOINT_KIND, CHECKPOINT_VERSION};
use ramp_sim::chaos::{self, Chaos, FaultKind};
use ramp_sim::codec::{decode_framed, fnv1a64_seeded, ByteWriter};
use ramp_sim::telemetry::StatRegistry;
use ramp_trace::Workload;

use crate::spec::PROFILE_POLICY;
use crate::wire::{self, WIRE_VERSION};

/// Bump to invalidate every existing store entry after a simulator
/// behaviour change that [`WIRE_VERSION`] (format only) doesn't capture.
pub const STORE_SALT: u32 = 1;

/// Environment variable that disables (`off`/`0`) the store.
pub const ENV_STORE: &str = "RAMP_STORE";
/// Environment variable overriding the store directory.
pub const ENV_STORE_DIR: &str = "RAMP_STORE_DIR";
/// Default store directory, relative to the working directory.
pub const DEFAULT_DIR: &str = "target/ramp-store";

/// The four kinds of runs the store distinguishes.
///
/// The kind participates in the key so e.g. a profile run and a static
/// run of the same workload can never alias.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunKind {
    /// A DDR-only profiling run (produces the per-page stats table that
    /// placement and migration read, and so keeps its table rows on
    /// disk).
    Profile,
    /// A static placement run under some [`PlacementPolicy`] label.
    ///
    /// [`PlacementPolicy`]: ramp_core::placement::PlacementPolicy
    Static,
    /// A dynamic migration run under some [`MigrationScheme`] label.
    ///
    /// [`MigrationScheme`]: ramp_core::migration::MigrationScheme
    Migration,
    /// A programmer-annotated run (result + annotation set).
    Annotated,
}

impl RunKind {
    fn tag(self) -> u8 {
        match self {
            RunKind::Profile => 0,
            RunKind::Static => 1,
            RunKind::Migration => 2,
            RunKind::Annotated => 3,
        }
    }

    /// Stable lower-case label, used in server responses.
    pub fn label(self) -> &'static str {
        match self {
            RunKind::Profile => "profile",
            RunKind::Static => "static",
            RunKind::Migration => "migration",
            RunKind::Annotated => "annotated",
        }
    }
}

/// 32 lowercase hex digits: two seeded FNV-1a passes over `bytes`.
fn hex_key(bytes: &[u8]) -> String {
    let a = fnv1a64_seeded(0xcbf2_9ce4_8422_2325, bytes);
    let b = fnv1a64_seeded(a ^ 0x9e37_79b9_7f4a_7c15, bytes);
    format!("{a:016x}{b:016x}")
}

/// Computes the content-addressed key of one run as 32 lowercase hex
/// digits (two seeded FNV-1a passes over the canonical input encoding).
pub fn run_key(cfg: &SystemConfig, kind: RunKind, workload: &str, policy: &str) -> String {
    let mut w = ByteWriter::new();
    w.u32(WIRE_VERSION);
    w.u32(STORE_SALT);
    let cfg_bytes = cfg.canonical_bytes();
    w.u32(cfg_bytes.len() as u32);
    let mut bytes = w.into_bytes();
    bytes.extend_from_slice(&cfg_bytes);
    let mut tail = ByteWriter::new();
    tail.u8(kind.tag());
    tail.str(workload);
    tail.str(policy);
    bytes.extend_from_slice(tail.bytes());
    hex_key(&bytes)
}

/// The key of `workload`'s post-L1 event streams under `cfg`: a hash of
/// exactly what a core's stream depends on — the workload, the seed, the
/// instruction budget, the number of cores and the L1 geometry — plus
/// the stream format version and [`STORE_SALT`]. Every action on the
/// workload, at any placement, interval or issue width, shares it.
pub fn stream_key(cfg: &SystemConfig, workload: &Workload) -> String {
    let mut w = ByteWriter::new();
    w.str("stream");
    w.u32(stream::STREAM_VERSION);
    w.u32(STORE_SALT);
    w.str(workload.name());
    w.u64(cfg.seed);
    w.u64(cfg.insts_per_core);
    w.u64(workload.assignments().len() as u64);
    let l1 = cfg.hierarchy.l1;
    w.u64(l1.size_bytes as u64);
    w.u64(l1.assoc as u64);
    w.u64(l1.line_bytes as u64);
    hex_key(w.bytes())
}

/// The block identity of core `core`'s stream under `key`: every block
/// carries it, so a file renamed onto another stream or core is refused.
pub fn stream_ident(key: &str, core: usize) -> u64 {
    fnv1a64_seeded(ramp_sim::codec::fnv1a64(key.as_bytes()), &[core as u8])
}

/// Parses a `<key>-c<core>.stream` file name.
fn parse_stream_name(name: &str) -> Option<(&str, usize)> {
    let stem = name.strip_suffix(".stream")?;
    let (key, core) = stem.rsplit_once("-c")?;
    Some((key, core.parse().ok()?))
}

/// How [`RunStore::attach_streams`] fed a simulator's cores.
#[derive(Debug)]
pub enum Feeds {
    /// Every core replays its recorded stream.
    Replaying,
    /// Every core records its stream; the counter reaches the core count
    /// once every stream is committed.
    Recording(Arc<AtomicU64>),
}

/// A stream being recorded into a temp file of the store, renamed into
/// place by [`StreamSink::commit`] and removed if dropped uncommitted.
struct StreamFile {
    file: fs::File,
    tmp: PathBuf,
    dest: PathBuf,
    committed: Arc<AtomicU64>,
    done: bool,
}

impl std::io::Write for StreamFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.file.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

impl StreamSink for StreamFile {
    fn commit(mut self: Box<Self>) -> std::io::Result<()> {
        // A cache, not a result: no fsync. A torn stream fails its block
        // checksums and is quarantined when read.
        fs::rename(&self.tmp, &self.dest)?;
        self.done = true;
        self.committed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl Drop for StreamFile {
    fn drop(&mut self) {
        if !self.done {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

/// Whether the store persists `run`'s per-page table rows: only for a
/// DDR-only run (a profile, or the identical `static:ddr-only`), whose
/// table the placement builders read. Every other entry is written with
/// a zero-row table that keeps `total_cycles`.
fn keeps_rows(run: &RunResult) -> bool {
    run.policy == PROFILE_POLICY
}

/// Hit/miss/write counters of one store handle.
///
/// These are *process-observability* numbers, not simulation results:
/// they differ between cold and warm runs, so they are exported only
/// into volatile-style side channels (the harness `RAMP_STATS=table`
/// epilogue, the server `/stats` document) and never into
/// [`RunResult::telemetry`].
#[derive(Debug, Default)]
pub struct StoreMetrics {
    /// Entries served from disk.
    pub hits: AtomicU64,
    /// Lookups that found no (valid) entry.
    pub misses: AtomicU64,
    /// Entries persisted (write + read-back verify both succeeded).
    pub writes: AtomicU64,
    /// Entries that existed but failed to decode (counted in `misses` too).
    pub invalid: AtomicU64,
    /// Undecodable entries renamed `*.quarantine` (by reads or scrub).
    pub quarantined: AtomicU64,
    /// Writes that failed at the I/O layer (real or injected).
    pub write_failures: AtomicU64,
    /// Writes whose read-back did not match what was written.
    pub verify_failures: AtomicU64,
}

/// A handle on one on-disk store directory.
#[derive(Debug)]
pub struct RunStore {
    dir: PathBuf,
    metrics: StoreMetrics,
    tmp_counter: AtomicU64,
    chaos: Option<Arc<Chaos>>,
}

impl RunStore {
    /// Opens (creating if needed) a store rooted at `dir`, with no
    /// fault injection attached.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<RunStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(RunStore {
            dir,
            metrics: StoreMetrics::default(),
            tmp_counter: AtomicU64::new(0),
            chaos: None,
        })
    }

    /// Attaches a fault-injection registry: subsequent reads and writes
    /// roll the `store.read` / `store.write` / `store.corrupt` sites.
    pub fn with_chaos(mut self, chaos: Option<Arc<Chaos>>) -> Self {
        self.chaos = chaos;
        self
    }

    fn chaos_roll(&self, site: &str) -> bool {
        self.chaos
            .as_ref()
            .is_some_and(|c| c.roll(FaultKind::Io, site))
    }

    /// Opens the store configured by the environment: `RAMP_STORE=off`
    /// (or `0`) disables it, `RAMP_STORE_DIR` overrides the directory,
    /// and the default is `target/ramp-store` (store **on**).
    ///
    /// Returns `None` when disabled or when the directory cannot be
    /// created (a read-only checkout should degrade to cold runs, not
    /// fail).
    pub fn from_env() -> Option<RunStore> {
        match std::env::var(ENV_STORE) {
            Ok(v) if v.eq_ignore_ascii_case("off") || v == "0" => return None,
            _ => {}
        }
        let dir = std::env::var(ENV_STORE_DIR).unwrap_or_else(|_| DEFAULT_DIR.to_string());
        RunStore::open(dir)
            .ok()
            .map(|s| s.with_chaos(chaos::global()))
    }

    /// The directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Live hit/miss/write counters.
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    fn path_for(&self, key: &str, ext: &str) -> PathBuf {
        self.dir.join(format!("{key}.{ext}"))
    }

    fn load_bytes(&self, path: &Path) -> Option<Vec<u8>> {
        if self.chaos_roll("store.read") {
            self.metrics.misses.fetch_add(1, Ordering::Relaxed);
            return None; // injected read I/O error: a clean miss
        }
        match fs::read(path) {
            Ok(bytes) => Some(bytes),
            Err(_) => {
                self.metrics.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Quarantines the undecodable file at `path`: renames it
    /// `<name>.quarantine` and records `why` in `<name>.reason`, so the
    /// bad bytes survive for autopsy and never serve another read.
    fn quarantine(&self, path: &Path, why: &str) {
        let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
            return;
        };
        let jail = path.with_file_name(format!("{name}.quarantine"));
        if fs::rename(path, &jail).is_ok() {
            let reason = path.with_file_name(format!("{name}.reason"));
            let _ = fs::write(&reason, format!("{name}: {why}\n"));
            self.metrics.quarantined.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn note_invalid(&self, path: &Path, why: &str) {
        self.metrics.invalid.fetch_add(1, Ordering::Relaxed);
        self.metrics.misses.fetch_add(1, Ordering::Relaxed);
        self.quarantine(path, why);
    }

    /// Atomically persists `bytes` under `path` and verifies the write
    /// by reading it back. Returns `false` (best effort: a full disk or
    /// read-only store degrades to a cold cache, never an abort) when
    /// the entry did not durably land.
    fn store_bytes(&self, path: &Path, bytes: &[u8]) -> bool {
        if self.chaos_roll("store.write") {
            self.metrics.write_failures.fetch_add(1, Ordering::Relaxed);
            return false; // injected write failure
        }
        let n = self.tmp_counter.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!("tmp-{}-{n}", std::process::id()));
        let ok = fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(bytes))
            .and_then(|_| fs::rename(&tmp, path));
        if ok.is_err() {
            let _ = fs::remove_file(&tmp);
            self.metrics.write_failures.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        // Read-back verify: the entry only counts once the bytes on disk
        // are the bytes we meant to write.
        if !file_equals(path, bytes) {
            let _ = fs::remove_file(path);
            self.metrics.verify_failures.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.metrics.writes.fetch_add(1, Ordering::Relaxed);
        if self.chaos_roll("store.corrupt") {
            // Injected post-write bit rot (after verify, so the write
            // itself succeeded): future reads must quarantine this entry.
            let mut rotted = bytes.to_vec();
            if rotted.len() % 2 == 0 {
                rotted.truncate(rotted.len() / 2);
            } else {
                let mid = rotted.len() / 2;
                rotted[mid] ^= 0x40;
            }
            let _ = fs::write(path, &rotted);
        }
        true
    }

    /// Loads the run stored under `key`, if present and valid.
    /// Undecodable entries are quarantined and count as misses.
    pub fn load_run(&self, key: &str) -> Option<RunResult> {
        let path = self.path_for(key, "run");
        let bytes = self.load_bytes(&path)?;
        match wire::decode_run(&bytes) {
            Ok(run) => {
                self.metrics.hits.fetch_add(1, Ordering::Relaxed);
                Some(run)
            }
            Err(e) => {
                self.note_invalid(&path, &format!("{e:?}"));
                None
            }
        }
    }

    /// Persists `run` under `key`, its table rows only if it is a
    /// DDR-only run; `true` once it is verified on disk.
    pub fn store_run(&self, key: &str, run: &RunResult) -> bool {
        self.store_bytes(
            &self.path_for(key, "run"),
            &wire::encode_run_entry(run, keeps_rows(run)),
        )
    }

    /// Loads the annotated run stored under `key`, if present and valid.
    /// Undecodable entries are quarantined and count as misses.
    pub fn load_annotated(&self, key: &str) -> Option<(RunResult, AnnotationSet)> {
        let path = self.path_for(key, "ann");
        let bytes = self.load_bytes(&path)?;
        match wire::decode_annotated(&bytes) {
            Ok(pair) => {
                self.metrics.hits.fetch_add(1, Ordering::Relaxed);
                Some(pair)
            }
            Err(e) => {
                self.note_invalid(&path, &format!("{e:?}"));
                None
            }
        }
    }

    /// Persists an annotated run under `key`, its table rows only if it
    /// is a DDR-only run (an annotated run never is); `true` once it is
    /// verified on disk.
    pub fn store_annotated(&self, key: &str, run: &RunResult, set: &AnnotationSet) -> bool {
        self.store_bytes(
            &self.path_for(key, "ann"),
            &wire::encode_annotated_entry(run, set, keeps_rows(run)),
        )
    }

    fn checkpoint_path(&self, key: &str, epoch: u64) -> PathBuf {
        // Zero-padded epochs keep lexicographic file order equal to
        // numeric epoch order (handy for humans listing the directory).
        self.dir.join(format!("{key}-e{epoch:08}.ckpt"))
    }

    /// Persists a checkpoint blob for epoch `epoch` of run `key`;
    /// `true` once it is verified on disk. Earlier checkpoints of the
    /// same run are kept: they are the fallback when this one turns out
    /// torn or corrupt on resume.
    pub fn store_checkpoint(&self, key: &str, epoch: u64, bytes: &[u8]) -> bool {
        self.store_bytes(&self.checkpoint_path(key, epoch), bytes)
    }

    /// Lists the checkpoint segments of run `key`, ascending by epoch.
    pub fn list_checkpoints(&self, key: &str) -> Vec<(u64, PathBuf)> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut found: Vec<(u64, PathBuf)> = entries
            .flatten()
            .map(|e| e.path())
            .filter_map(|path| {
                let name = path.file_name()?.to_string_lossy().into_owned();
                let (k, epoch) = parse_checkpoint_name(&name)?;
                (k == key).then_some((epoch, path))
            })
            .collect();
        found.sort();
        found
    }

    /// Loads the newest *valid* checkpoint of run `key`.
    ///
    /// Walks the segments newest-first: a torn or corrupt tail (the
    /// typical kill-during-write artifact) is quarantined and the walk
    /// falls back to the previous segment, so a resume never sees
    /// garbage — at worst it restarts from an older epoch or cold.
    pub fn load_latest_checkpoint(&self, key: &str) -> Option<(u64, Vec<u8>)> {
        for (epoch, path) in self.list_checkpoints(key).into_iter().rev() {
            let Some(bytes) = self.load_bytes(&path) else {
                continue;
            };
            match decode_framed(&bytes, CHECKPOINT_KIND, CHECKPOINT_VERSION) {
                Ok(_) => {
                    self.metrics.hits.fetch_add(1, Ordering::Relaxed);
                    return Some((epoch, bytes));
                }
                Err(e) => self.note_invalid(&path, &format!("{e:?}")),
            }
        }
        None
    }

    /// Lists every checkpoint segment in the store as
    /// `(key, epoch, size_bytes)`, sorted by key then epoch (the
    /// `ramp-store ckpt` listing).
    pub fn all_checkpoints(&self) -> Vec<(String, u64, u64)> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut found: Vec<(String, u64, u64)> = entries
            .flatten()
            .filter_map(|e| {
                let path = e.path();
                let name = path.file_name()?.to_string_lossy().into_owned();
                let (key, epoch) = parse_checkpoint_name(&name)?;
                let len = fs::metadata(&path).ok()?.len();
                Some((key.to_string(), epoch, len))
            })
            .collect();
        found.sort();
        found
    }

    /// Quarantines one checkpoint segment whose *payload* failed to
    /// restore (the frame decoded, but the state inside was rejected —
    /// e.g. a checkpoint from a different run landing under this key).
    pub fn quarantine_checkpoint(&self, key: &str, epoch: u64, why: &str) {
        self.note_invalid(&self.checkpoint_path(key, epoch), why);
    }

    /// Deletes every checkpoint segment of run `key` (a completed run
    /// no longer needs its resume trail). Returns how many were removed.
    pub fn remove_checkpoints(&self, key: &str) -> usize {
        let mut removed = 0;
        for (_, path) in self.list_checkpoints(key) {
            if fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        removed
    }

    fn stream_path(&self, key: &str, core: usize) -> PathBuf {
        self.dir.join(format!("{key}-c{core:02}.stream"))
    }

    /// Feeds every core of `sim` from the streams stored under `key`
    /// (see [`stream_key`]): replays them when each core's stream opens
    /// cleanly, and otherwise records them as the run goes. A stream
    /// set that exists but does not open — damaged, foreign, of another
    /// version — is quarantined first; the second value says so. `None`
    /// when recording cannot start either: the run then goes live.
    pub fn attach_streams(&self, sim: &mut SystemSim, key: &str) -> (Option<Feeds>, bool) {
        let cores = sim.cores();
        let mut readers = Vec::with_capacity(cores);
        let mut damaged = None;
        for core in 0..cores {
            let Ok(file) = fs::File::open(self.stream_path(key, core)) else {
                break;
            };
            let src: Box<dyn StreamSource> = Box::new(file);
            match StreamReader::open(src, stream_ident(key, core), sim.core_lines(core)) {
                Ok(reader) => readers.push(reader),
                Err(e) => {
                    damaged = Some(format!("core {core}: {e}"));
                    break;
                }
            }
        }
        if readers.len() == cores {
            for (core, reader) in readers.into_iter().enumerate() {
                sim.replay_core(core, reader);
            }
            return (Some(Feeds::Replaying), false);
        }
        drop(readers);
        if let Some(why) = &damaged {
            self.quarantine_streams(key, why);
        }
        let committed = Arc::new(AtomicU64::new(0));
        let mut writers = Vec::with_capacity(cores);
        for core in 0..cores {
            let n = self.tmp_counter.fetch_add(1, Ordering::Relaxed);
            let tmp = self.dir.join(format!("tmp-{}-{n}", std::process::id()));
            let Ok(file) = fs::File::create(&tmp) else {
                return (None, damaged.is_some());
            };
            let sink: Box<dyn StreamSink> = Box::new(StreamFile {
                file,
                tmp,
                dest: self.stream_path(key, core),
                committed: Arc::clone(&committed),
                done: false,
            });
            writers.push(StreamWriter::new(sink, stream_ident(key, core)));
        }
        for (core, writer) in writers.into_iter().enumerate() {
            sim.record_core(core, writer);
        }
        (Some(Feeds::Recording(committed)), damaged.is_some())
    }

    /// Quarantines every core stream stored under `key`: one that failed
    /// to open or to decode mid-run. The next run records them afresh.
    pub fn quarantine_streams(&self, key: &str, why: &str) {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for path in entries.flatten().map(|e| e.path()) {
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            if name.as_deref().and_then(parse_stream_name).map(|(k, _)| k) == Some(key) {
                self.quarantine(&path, why);
            }
        }
    }

    /// Walks the whole store, removing stale temp files, quarantining
    /// every entry that no longer decodes, and reclaiming **orphaned
    /// checkpoint trails** — `{key}-e*.ckpt` segments whose base run
    /// entry is missing or quarantined. A trail only outlives its run
    /// when the run died and was never resumed (completed runs delete
    /// their trail); scrub is the explicit offline maintenance pass, so
    /// it treats such trails as abandoned and removes them rather than
    /// letting them accumulate. Deterministic order (sorted by file
    /// name); never panics on foreign files.
    pub fn scrub(&self) -> ScrubReport {
        let mut report = ScrubReport::default();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return report;
        };
        let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        paths.sort();
        // Base keys with a valid run/annotated entry, and the surviving
        // checkpoint files, for the orphan-trail pass below.
        let mut bases: std::collections::HashSet<String> = std::collections::HashSet::new();
        let mut ckpt_files: Vec<(String, PathBuf)> = Vec::new();
        for path in paths {
            if !path.is_file() {
                continue;
            }
            report.scanned += 1;
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            let Some(name) = name else { continue };
            if name.starts_with("tmp-") {
                // An interrupted write that never got renamed into place.
                let _ = fs::remove_file(&path);
                report.tmp_removed += 1;
            } else if name.ends_with(".quarantine") || name.ends_with(".reason") {
                report.already_quarantined += 1;
            } else if let Some(stem) = name.strip_suffix(".run") {
                match fs::read(&path)
                    .map_err(|e| format!("read failed: {e}"))
                    .and_then(|bytes| {
                        wire::decode_run(&bytes)
                            .map(|_| ())
                            .map_err(|e| format!("{e:?}"))
                    }) {
                    Ok(()) => {
                        report.valid += 1;
                        bases.insert(stem.to_string());
                    }
                    Err(why) => {
                        self.quarantine(&path, &why);
                        report.quarantined += 1;
                    }
                }
            } else if let Some(stem) = name.strip_suffix(".ann") {
                match fs::read(&path)
                    .map_err(|e| format!("read failed: {e}"))
                    .and_then(|bytes| {
                        wire::decode_annotated(&bytes)
                            .map(|_| ())
                            .map_err(|e| format!("{e:?}"))
                    }) {
                    Ok(()) => {
                        report.valid += 1;
                        bases.insert(stem.to_string());
                    }
                    Err(why) => {
                        self.quarantine(&path, &why);
                        report.quarantined += 1;
                    }
                }
            } else if name.ends_with(".ckpt") {
                match fs::read(&path)
                    .map_err(|e| format!("read failed: {e}"))
                    .and_then(|bytes| {
                        decode_framed(&bytes, CHECKPOINT_KIND, CHECKPOINT_VERSION)
                            .map(|_| ())
                            .map_err(|e| format!("{e:?}"))
                    }) {
                    Ok(()) => {
                        report.valid += 1;
                        if let Some((key, _)) = parse_checkpoint_name(&name) {
                            ckpt_files.push((key.to_string(), path.clone()));
                        }
                    }
                    Err(why) => {
                        self.quarantine(&path, &why);
                        report.quarantined += 1;
                    }
                }
            } else if let Some((key, core)) = parse_stream_name(&name) {
                match check_stream_file(&path, key, core) {
                    Ok(()) => report.streams += 1,
                    Err(why) => {
                        self.quarantine(&path, &why);
                        report.quarantined += 1;
                    }
                }
            } else {
                report.unknown += 1;
            }
        }
        for (key, path) in ckpt_files {
            if !bases.contains(&key) && fs::remove_file(&path).is_ok() {
                report.orphaned += 1;
            }
        }
        report
    }

    /// Read-only validation of the whole store: decodes every entry
    /// without repairing anything. A clean store reports no errors; the
    /// `ramp-store verify` subcommand exits non-zero otherwise.
    pub fn verify(&self) -> VerifyReport {
        let mut report = VerifyReport::default();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return report;
        };
        let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        paths.sort();
        for path in paths {
            if !path.is_file() {
                continue;
            }
            let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
                continue;
            };
            let decoded = if name.ends_with(".run") {
                fs::read(&path)
                    .map_err(|e| format!("read failed: {e}"))
                    .and_then(|b| {
                        wire::decode_run(&b)
                            .map(|_| ())
                            .map_err(|e| format!("{e:?}"))
                    })
            } else if name.ends_with(".ann") {
                fs::read(&path)
                    .map_err(|e| format!("read failed: {e}"))
                    .and_then(|b| {
                        wire::decode_annotated(&b)
                            .map(|_| ())
                            .map_err(|e| format!("{e:?}"))
                    })
            } else if name.ends_with(".ckpt") {
                fs::read(&path)
                    .map_err(|e| format!("read failed: {e}"))
                    .and_then(|b| {
                        decode_framed(&b, CHECKPOINT_KIND, CHECKPOINT_VERSION)
                            .map(|_| ())
                            .map_err(|e| format!("{e:?}"))
                    })
            } else if let Some((key, core)) = parse_stream_name(&name) {
                match check_stream_file(&path, key, core) {
                    Ok(()) => report.streams += 1,
                    Err(why) => report.errors.push(format!("{name}: {why}")),
                }
                continue;
            } else {
                continue; // temp/quarantine/foreign files are scrub's business
            };
            report.entries += 1;
            match decoded {
                Ok(()) => report.valid += 1,
                Err(why) => report.errors.push(format!("{name}: {why}")),
            }
        }
        report
    }

    /// Counts what the store holds on disk right now, plus this
    /// handle's live hit/miss/write counters — the one-line answer to
    /// "did that sweep actually reuse the store?". Read-only.
    pub fn stats(&self) -> StoreStats {
        let m = &self.metrics;
        let mut stats = StoreStats {
            hits: m.hits.load(Ordering::Relaxed),
            misses: m.misses.load(Ordering::Relaxed),
            writes: m.writes.load(Ordering::Relaxed),
            ..StoreStats::default()
        };
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return stats;
        };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let size = || entry.metadata().map_or(0, |m| m.len());
            if name.ends_with(".run") {
                stats.runs += 1;
                stats.bytes += size();
            } else if name.ends_with(".ann") {
                stats.annotated += 1;
                stats.bytes += size();
            } else if name.ends_with(".ckpt") {
                stats.checkpoints += 1;
            } else if parse_stream_name(&name).is_some() {
                stats.streams += 1;
                stats.stream_bytes += size();
            } else if name.ends_with(".quarantine") {
                stats.quarantined += 1;
            }
        }
        stats
    }

    /// Exports the hit/miss/write/invalid counters into `scope` of `reg`.
    ///
    /// The caller chooses the exposure context; these counters must never
    /// reach a deterministic document (see [`StoreMetrics`]).
    pub fn export_telemetry(&self, reg: &mut StatRegistry, scope: &str) {
        let m = &self.metrics;
        reg.counter_add(scope, "hits", m.hits.load(Ordering::Relaxed));
        reg.counter_add(scope, "misses", m.misses.load(Ordering::Relaxed));
        reg.counter_add(scope, "writes", m.writes.load(Ordering::Relaxed));
        reg.counter_add(scope, "invalid", m.invalid.load(Ordering::Relaxed));
        reg.counter_add(scope, "quarantined", m.quarantined.load(Ordering::Relaxed));
        reg.counter_add(
            scope,
            "write_failures",
            m.write_failures.load(Ordering::Relaxed),
        );
        reg.counter_add(
            scope,
            "verify_failures",
            m.verify_failures.load(Ordering::Relaxed),
        );
    }
}

/// Bytes [`file_equals`] reads per step.
const VERIFY_CHUNK: usize = 64 * 1024;

/// Whether the file at `path` holds exactly `bytes`: read and compared
/// in [`VERIFY_CHUNK`]-byte steps, so a write's read-back never holds a
/// second copy of a large entry. A short, long or differing file, or a
/// read error, is `false`.
fn file_equals(path: &Path, bytes: &[u8]) -> bool {
    let Ok(mut file) = fs::File::open(path) else {
        return false;
    };
    let mut buf = vec![0u8; VERIFY_CHUNK.min(bytes.len() + 1)];
    let mut at = 0;
    loop {
        match file.read(&mut buf) {
            Ok(0) => return at == bytes.len(),
            Ok(n) => {
                if bytes.len() - at < n || buf[..n] != bytes[at..at + n] {
                    return false;
                }
                at += n;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Reads every block of the stream file at `path`, stored as core
/// `core` of stream `key`: its first defect, if any.
fn check_stream_file(path: &Path, key: &str, core: usize) -> Result<(), String> {
    let file = fs::File::open(path).map_err(|e| format!("read failed: {e}"))?;
    stream::check_stream(std::io::BufReader::new(file), stream_ident(key, core))
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// Parses a `<key>-e<epoch>.ckpt` checkpoint file name.
fn parse_checkpoint_name(name: &str) -> Option<(&str, u64)> {
    let stem = name.strip_suffix(".ckpt")?;
    let (key, epoch) = stem.rsplit_once("-e")?;
    Some((key, epoch.parse().ok()?))
}

/// What [`RunStore::scrub`] found and repaired in one walk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Files examined.
    pub scanned: u64,
    /// Entries that decoded cleanly.
    pub valid: u64,
    /// Undecodable entries quarantined by this walk.
    pub quarantined: u64,
    /// Quarantine artifacts (`*.quarantine` / `*.reason`) from earlier.
    pub already_quarantined: u64,
    /// Stale `tmp-*` files removed (interrupted writes).
    pub tmp_removed: u64,
    /// Foreign files left untouched.
    pub unknown: u64,
    /// Orphaned checkpoint segments removed (trails whose base run
    /// entry is missing or quarantined).
    pub orphaned: u64,
    /// Sound core event streams (`.stream` files): a cache that may be
    /// deleted at will, costing only their re-recording.
    pub streams: u64,
}

impl std::fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scanned={} valid={} quarantined={} already={} tmp={} unknown={} orphaned={} streams={}",
            self.scanned,
            self.valid,
            self.quarantined,
            self.already_quarantined,
            self.tmp_removed,
            self.unknown,
            self.orphaned,
            self.streams
        )
    }
}

/// What [`RunStore::stats`] counted: durable contents plus the calling
/// handle's volatile hit/miss/write counters.
///
/// The `Display` form is the greppable `[stats]`-line payload the
/// `ramp-store stats` subcommand prints — CI asserts "warm re-sweep
/// performed zero simulations" from it rather than from wall-clock.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStats {
    /// Durable run entries (`.run` files).
    pub runs: u64,
    /// Durable annotated entries.
    pub annotated: u64,
    /// Checkpoint segments (`.ckpt` files).
    pub checkpoints: u64,
    /// Quarantined entries (`.quarantine` files).
    pub quarantined: u64,
    /// This handle's cache hits since open (volatile).
    pub hits: u64,
    /// This handle's cache misses since open (volatile).
    pub misses: u64,
    /// This handle's completed writes since open (volatile).
    pub writes: u64,
    /// Summed size in bytes of the `.run` and `.ann` entries.
    pub bytes: u64,
    /// Core event streams (`.stream` files, a droppable cache).
    pub streams: u64,
    /// Summed size in bytes of the `.stream` files.
    pub stream_bytes: u64,
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "runs={} annotated={} checkpoints={} quarantined={} hits={} misses={} writes={} bytes={} streams={} stream_bytes={}",
            self.runs,
            self.annotated,
            self.checkpoints,
            self.quarantined,
            self.hits,
            self.misses,
            self.writes,
            self.bytes,
            self.streams,
            self.stream_bytes
        )
    }
}

/// What [`RunStore::verify`] found (read-only; nothing repaired).
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Entries examined.
    pub entries: u64,
    /// How many decoded cleanly.
    pub valid: u64,
    /// Every defect, one human-readable line each. Empty == clean.
    pub errors: Vec<String>,
    /// Sound core event streams, every block checked (not counted in
    /// `entries`: streams are a cache).
    pub streams: u64,
}

impl VerifyReport {
    /// `true` when the store is defect-free.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "entries={} valid={} errors={} streams={}",
            self.entries,
            self.valid,
            self.errors.len(),
            self.streams
        )
    }
}

/// Test-only store fixtures shared across the crate's unit tests.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use std::sync::atomic::AtomicU64;

    static TEST_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    /// A unique per-test store directory (no env vars, no external
    /// tempdir crate).
    pub(crate) fn test_store() -> RunStore {
        let n = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ramp-store-test-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        RunStore::open(dir).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::test_store;
    use super::*;
    use crate::wire::testutil::sample_run;

    fn hits(s: &RunStore) -> u64 {
        s.metrics().hits.load(Ordering::Relaxed)
    }
    fn misses(s: &RunStore) -> u64 {
        s.metrics().misses.load(Ordering::Relaxed)
    }

    /// The form `store_run` persists a non-DDR-only `run` in: its table
    /// rows cleared, `total_cycles` kept.
    fn without_rows(run: &RunResult) -> RunResult {
        RunResult {
            table: ramp_avf::StatsTable::from_stats(Vec::new(), run.table.total_cycles()),
            ..run.clone()
        }
    }

    #[test]
    fn read_back_compare_rejects_short_long_and_differing_files() {
        let store = test_store();
        let dir = store.dir().to_path_buf();
        let path = dir.join("probe");
        // Spans several read steps and ends mid-step.
        let bytes: Vec<u8> = (0..VERIFY_CHUNK * 2 + 77).map(|i| (i * 31) as u8).collect();
        for want in [&bytes[..], &bytes[..1], &[][..]] {
            fs::write(&path, want).unwrap();
            assert!(file_equals(&path, want));
            let mut long = want.to_vec();
            long.push(0);
            assert!(!file_equals(&path, &long), "file shorter than bytes");
            fs::write(&path, &long).unwrap();
            assert!(!file_equals(&path, want), "file longer than bytes");
        }
        let mut flipped = bytes.clone();
        flipped[VERIFY_CHUNK + 5] ^= 1;
        fs::write(&path, &flipped).unwrap();
        assert!(!file_equals(&path, &bytes));
        assert!(!file_equals(&dir.join("missing"), &bytes));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_are_stable_and_discriminating() {
        let cfg = SystemConfig::smoke_test();
        let k = run_key(&cfg, RunKind::Static, "lbm", "perf-focused");
        assert_eq!(k.len(), 32);
        assert!(k.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(k, run_key(&cfg, RunKind::Static, "lbm", "perf-focused"));
        // Every key ingredient discriminates.
        assert_ne!(k, run_key(&cfg, RunKind::Profile, "lbm", "perf-focused"));
        assert_ne!(k, run_key(&cfg, RunKind::Static, "mcf", "perf-focused"));
        assert_ne!(k, run_key(&cfg, RunKind::Static, "lbm", "rel-focused"));
        let other = SystemConfig {
            seed: cfg.seed ^ 1,
            ..cfg.clone()
        };
        assert_ne!(k, run_key(&other, RunKind::Static, "lbm", "perf-focused"));
    }

    #[test]
    fn round_trip_and_counters() {
        let store = test_store();
        let run = sample_run();
        let key = run_key(&SystemConfig::smoke_test(), RunKind::Static, "lbm", "x");
        assert!(store.load_run(&key).is_none());
        assert_eq!(misses(&store), 1);
        store.store_run(&key, &run);
        let back = store.load_run(&key).expect("stored entry loads");
        assert_eq!(back.ipc.to_bits(), run.ipc.to_bits());
        assert_eq!(back.telemetry, run.telemetry);
        assert_eq!(hits(&store), 1);
        assert_eq!(store.metrics().writes.load(Ordering::Relaxed), 1);
        // A static run is persisted without its table rows.
        assert!(!keeps_rows(&run));
        assert!(back.table.pages().is_empty());
        assert_eq!(back.table.total_cycles(), run.table.total_cycles());
        assert_eq!(
            wire::encode_run(&back),
            wire::encode_run(&without_rows(&run))
        );
        // `bytes` sums entries only, not checkpoints.
        store.store_checkpoint(&key, 1, &[0; 8]);
        let entry = fs::metadata(store.path_for(&key, "run")).unwrap().len();
        assert_eq!(store.stats().bytes, entry);
    }

    #[test]
    fn only_ddr_only_runs_keep_table_rows() {
        let store = test_store();
        let cfg = SystemConfig::smoke_test();
        let set = AnnotationSet {
            structures: vec![(ramp_trace::Benchmark::Lbm, "grid".into())],
            pinned: [ramp_sim::PageId(3)].into_iter().collect(),
        };
        for policy in ["ddr-only", "perf-focused", "perf-fc", "annotations"] {
            let run = RunResult {
                policy: policy.into(),
                ..sample_run()
            };
            let key = run_key(&cfg, RunKind::Static, "lbm", policy);
            assert!(store.store_run(&key, &run));
            assert!(store.store_annotated(&key, &run, &set));
            let back = store.load_run(&key).unwrap();
            let (ann, _) = store.load_annotated(&key).unwrap();
            let expected = if policy == "ddr-only" {
                run.clone()
            } else {
                without_rows(&run)
            };
            assert_eq!(keeps_rows(&run), policy == "ddr-only");
            assert_eq!(wire::encode_run(&back), wire::encode_run(&expected));
            assert_eq!(wire::encode_run(&ann), wire::encode_run(&expected));
        }
    }

    #[test]
    fn full_table_entries_from_older_builds_are_hits() {
        // Earlier builds persisted every run with its full table, framed
        // exactly like `wire::encode_run`. Such entries stay warm: the
        // layout and version are unchanged, so they decode as hits with
        // their rows intact and nothing simulates again.
        let store = test_store();
        let cfg = SystemConfig::smoke_test();
        let run = sample_run();
        assert!(!keeps_rows(&run) && run.table.pages().len() == 2);
        let set = AnnotationSet {
            structures: vec![(ramp_trace::Benchmark::Mcf, "nodes".into())],
            pinned: [ramp_sim::PageId(7)].into_iter().collect(),
        };
        let key = run_key(&cfg, RunKind::Static, "lbm", "perf-focused");
        let ann_key = run_key(&cfg, RunKind::Annotated, "lbm", "annotations");
        fs::write(store.path_for(&key, "run"), wire::encode_run(&run)).unwrap();
        fs::write(
            store.path_for(&ann_key, "ann"),
            wire::encode_annotated(&run, &set),
        )
        .unwrap();

        let back = store.load_run(&key).expect("full-table entry is a hit");
        assert_eq!(wire::encode_run(&back), wire::encode_run(&run));
        assert_eq!(back.ipc.to_bits(), run.ipc.to_bits());
        assert_eq!(back.ser_fit.to_bits(), run.ser_fit.to_bits());
        assert_eq!(back.cycles, run.cycles);
        assert_eq!(back.telemetry, run.telemetry);
        assert_eq!(back.table.pages(), run.table.pages());
        assert_eq!(back.table.total_cycles(), run.table.total_cycles());
        let (ann, back_set) = store.load_annotated(&ann_key).expect("annotated hit");
        assert_eq!(wire::encode_run(&ann), wire::encode_run(&run));
        assert_eq!(back_set.pinned, set.pinned);
        assert_eq!((hits(&store), misses(&store)), (2, 0));
        assert_eq!(store.metrics().invalid.load(Ordering::Relaxed), 0);
        let verify = store.verify();
        assert!(verify.ok(), "{verify}: {:?}", verify.errors);
        assert_eq!((verify.entries, verify.valid), (2, 2));
    }

    #[test]
    fn corrupt_entries_are_clean_misses() {
        let store = test_store();
        let run = sample_run();
        let key = run_key(&SystemConfig::smoke_test(), RunKind::Static, "lbm", "x");
        store.store_run(&key, &run);
        let path = store.path_for(&key, "run");
        let good = fs::read(&path).unwrap();

        // Truncated.
        fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(store.load_run(&key).is_none());
        // Bit flip in the payload (checksum catches it).
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        assert!(store.load_run(&key).is_none());
        // Version skew.
        let mut skewed = good.clone();
        skewed[8] ^= 0xff; // version field lives right after the magic
        fs::write(&path, &skewed).unwrap();
        assert!(store.load_run(&key).is_none());
        // Empty file.
        fs::write(&path, b"").unwrap();
        assert!(store.load_run(&key).is_none());

        assert_eq!(store.metrics().invalid.load(Ordering::Relaxed), 4);
        // Every bad read quarantined the file instead of leaving it.
        assert_eq!(store.metrics().quarantined.load(Ordering::Relaxed), 4);
        assert!(!path.exists());
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(path.with_file_name(format!("{name}.quarantine")).exists());
        let reason = fs::read_to_string(path.with_file_name(format!("{name}.reason"))).unwrap();
        assert!(
            reason.contains(&name),
            "reason file names the entry: {reason}"
        );
        // A rewrite heals the slot.
        store.store_run(&key, &run);
        assert!(store.load_run(&key).is_some());
    }

    #[test]
    fn scrub_repairs_a_damaged_store() {
        let store = test_store();
        let run = sample_run();
        let cfg = SystemConfig::smoke_test();
        let good_key = run_key(&cfg, RunKind::Static, "lbm", "x");
        let bad_key = run_key(&cfg, RunKind::Static, "mcf", "x");
        store.store_run(&good_key, &run);
        store.store_run(&bad_key, &run);
        // Damage one entry, drop a stale temp file and a foreign file.
        let bad_path = store.path_for(&bad_key, "run");
        let good_bytes = fs::read(&bad_path).unwrap();
        fs::write(&bad_path, &good_bytes[..good_bytes.len() / 3]).unwrap();
        fs::write(store.dir().join("tmp-999-0"), b"interrupted").unwrap();
        fs::write(store.dir().join("notes.txt"), b"not ours").unwrap();

        let report = store.scrub();
        assert_eq!(report.valid, 1);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.tmp_removed, 1);
        assert_eq!(report.unknown, 1);
        assert_eq!(report.scanned, 4);
        assert!(!store.dir().join("tmp-999-0").exists());
        assert!(!bad_path.exists());
        assert!(store.load_run(&good_key).is_some());
        assert!(store.load_run(&bad_key).is_none());

        // A second walk finds the store clean, with the quarantine
        // artifacts (entry + reason) accounted separately.
        let again = store.scrub();
        assert_eq!(again.quarantined, 0);
        assert_eq!(again.valid, 1);
        assert_eq!(again.already_quarantined, 2);
        assert_eq!(
            report.to_string(),
            "scanned=4 valid=1 quarantined=1 already=0 tmp=1 unknown=1 orphaned=0 streams=0"
        );
    }

    #[test]
    fn injected_write_failure_degrades_to_a_cold_cache() {
        let chaos = Arc::new(ramp_sim::chaos::Chaos::from_spec(3, "io=1.0").unwrap());
        let store = test_store().with_chaos(Some(chaos));
        let run = sample_run();
        let key = run_key(&SystemConfig::smoke_test(), RunKind::Static, "lbm", "x");
        assert!(!store.store_run(&key, &run)); // every write injected to fail
        assert!(!store.path_for(&key, "run").exists());
        assert_eq!(store.metrics().write_failures.load(Ordering::Relaxed), 1);
        assert_eq!(store.metrics().writes.load(Ordering::Relaxed), 0);
        assert!(store.load_run(&key).is_none()); // injected read error: a miss
    }

    #[test]
    fn store_chaos_classifies_every_fault_and_never_serves_garbage() {
        // io=0.5 exercises all three sites (failed writes, read errors,
        // post-write rot) across 40 write+read pairs. The invariants:
        // never panic, never a wrong payload, every load is exactly one
        // of hit/miss, and some of every failure class fires.
        let chaos = Arc::new(ramp_sim::chaos::Chaos::from_spec(5, "io=0.5").unwrap());
        let store = test_store().with_chaos(Some(chaos));
        let run = sample_run();
        let cfg = SystemConfig::smoke_test();
        for i in 0..40 {
            let key = run_key(&cfg, RunKind::Static, &format!("wl{i}"), "x");
            store.store_run(&key, &run);
            if let Some(back) = store.load_run(&key) {
                // A served entry is bit-correct, chaos or not.
                assert_eq!(back.ipc.to_bits(), run.ipc.to_bits());
                assert_eq!(back.telemetry, run.telemetry);
            }
        }
        let m = store.metrics();
        let hits = m.hits.load(Ordering::Relaxed);
        let misses = m.misses.load(Ordering::Relaxed);
        assert_eq!(hits + misses, 40, "each load is exactly one of hit/miss");
        assert!(m.write_failures.load(Ordering::Relaxed) > 0);
        assert!(m.quarantined.load(Ordering::Relaxed) > 0);
        assert_eq!(
            m.quarantined.load(Ordering::Relaxed),
            m.invalid.load(Ordering::Relaxed),
            "every undecodable entry was quarantined"
        );
    }

    #[test]
    fn annotated_round_trip() {
        let store = test_store();
        let run = sample_run();
        let set = AnnotationSet {
            structures: vec![(ramp_trace::Benchmark::Lbm, "grid".into())],
            pinned: [ramp_sim::PageId(3)].into_iter().collect(),
        };
        let key = run_key(
            &SystemConfig::smoke_test(),
            RunKind::Annotated,
            "lbm",
            "annotations",
        );
        assert!(store.load_annotated(&key).is_none());
        store.store_annotated(&key, &run, &set);
        let (_, back_set) = store.load_annotated(&key).unwrap();
        assert_eq!(back_set.pinned, set.pinned);
        // A `.run` entry can never be read back as annotated.
        store.store_run(&key, &run);
        assert!(store.load_annotated(&key).is_some()); // different extension
    }

    #[test]
    fn checkpoint_namespace_round_trip_and_fallback() {
        let store = test_store();
        let key = run_key(&SystemConfig::smoke_test(), RunKind::Migration, "lbm", "x");
        assert!(store.load_latest_checkpoint(&key).is_none());

        let blob = |epoch: u8| {
            ramp_sim::codec::encode_framed(CHECKPOINT_KIND, CHECKPOINT_VERSION, &[epoch; 32])
        };
        assert!(store.store_checkpoint(&key, 2, &blob(2)));
        assert!(store.store_checkpoint(&key, 4, &blob(4)));
        assert!(store.store_checkpoint(&key, 10, &blob(10)));
        assert_eq!(
            store
                .list_checkpoints(&key)
                .iter()
                .map(|(e, _)| *e)
                .collect::<Vec<_>>(),
            vec![2, 4, 10]
        );
        // Another run's checkpoints don't alias.
        let other = run_key(&SystemConfig::smoke_test(), RunKind::Migration, "mcf", "x");
        assert!(store.store_checkpoint(&other, 7, &blob(7)));
        assert_eq!(store.list_checkpoints(&key).len(), 3);

        let (epoch, bytes) = store.load_latest_checkpoint(&key).unwrap();
        assert_eq!(epoch, 10);
        assert_eq!(bytes, blob(10));

        // Tear the newest segment: the load quarantines it and falls
        // back to epoch 4, never serving garbage.
        let torn = store.checkpoint_path(&key, 10);
        let good = fs::read(&torn).unwrap();
        fs::write(&torn, &good[..good.len() - 5]).unwrap();
        let (epoch, bytes) = store.load_latest_checkpoint(&key).unwrap();
        assert_eq!(epoch, 4);
        assert_eq!(bytes, blob(4));
        assert!(!torn.exists());
        assert_eq!(store.metrics().quarantined.load(Ordering::Relaxed), 1);

        // Completed runs clean up their trail.
        assert_eq!(store.remove_checkpoints(&key), 2);
        assert!(store.load_latest_checkpoint(&key).is_none());
        assert_eq!(store.list_checkpoints(&other).len(), 1);
    }

    #[test]
    fn scrub_validates_checkpoint_segments() {
        let store = test_store();
        let key = run_key(&SystemConfig::smoke_test(), RunKind::Migration, "lbm", "x");
        // A live base entry keeps the trail from counting as orphaned.
        store.store_run(&key, &sample_run());
        let good = ramp_sim::codec::encode_framed(CHECKPOINT_KIND, CHECKPOINT_VERSION, &[9; 16]);
        store.store_checkpoint(&key, 1, &good);
        store.store_checkpoint(&key, 2, &good);
        let bad = store.checkpoint_path(&key, 2);
        fs::write(&bad, &good[..good.len() / 2]).unwrap();

        let report = store.scrub();
        assert_eq!(report.valid, 2);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.orphaned, 0);
        assert!(!bad.exists());
        assert_eq!(store.load_latest_checkpoint(&key).unwrap().0, 1);
    }

    /// Writes a small stream for `core` of `key` the way a run does.
    fn write_stream(store: &RunStore, key: &str, core: usize, as_core: usize) -> Vec<u8> {
        let mut w = StreamWriter::new(Vec::new(), stream_ident(key, as_core));
        for i in 0..5_000u64 {
            let outcome = match i % 3 {
                0 => stream::L1Outcome::Hit,
                _ => stream::L1Outcome::Miss {
                    line: ramp_sim::units::LineAddr(64 + i),
                    write: i % 2 == 0,
                    victim: None,
                },
            };
            w.push(&stream::L1Event { insts: 4, outcome }).unwrap();
        }
        let bytes = w.finish().unwrap();
        fs::write(store.stream_path(key, core), &bytes).unwrap();
        bytes
    }

    #[test]
    fn scrub_and_verify_read_every_stream_block() {
        let store = test_store();
        let key = stream_key(&SystemConfig::smoke_test(), &ramp_trace::Workload::all()[0]);
        let good = write_stream(&store, &key, 0, 0).len() + write_stream(&store, &key, 1, 1).len();
        // A damaged block, and a sound stream renamed onto another core.
        let bytes = write_stream(&store, &key, 2, 2);
        let mut bad = bytes.clone();
        bad[bytes.len() / 2] ^= 0x10;
        fs::write(store.stream_path(&key, 2), &bad).unwrap();
        write_stream(&store, &key, 3, 0);

        let verify = store.verify();
        assert_eq!((verify.entries, verify.streams), (0, 2));
        assert_eq!(verify.errors.len(), 2, "{:?}", verify.errors);
        let stats = store.stats();
        assert_eq!(stats.streams, 4);
        assert_eq!((stats.bytes, stats.runs), (0, 0));
        let report = store.scrub();
        assert_eq!(
            (report.streams, report.quarantined, report.unknown),
            (2, 2, 0)
        );
        assert!(!store.stream_path(&key, 2).exists());
        assert!(!store.stream_path(&key, 3).exists());
        let stats = store.stats();
        assert_eq!((stats.streams, stats.stream_bytes), (2, good as u64));
        assert!(store.verify().ok());
    }

    #[test]
    fn streams_record_once_then_replay_and_damage_is_quarantined() {
        let cfg = SystemConfig {
            insts_per_core: 20_000,
            ..SystemConfig::smoke_test()
        };
        let wl = ramp_trace::Workload::Homogeneous(ramp_trace::Benchmark::Lbm);
        let key = stream_key(&cfg, &wl);
        let store = test_store();
        let build = || ramp_core::runner::build_profile_sim(&cfg, &wl);

        let mut sim = build();
        let Some(Feeds::Recording(committed)) = store.attach_streams(&mut sim, &key).0 else {
            panic!("an empty store records");
        };
        let live = sim.run();
        assert_eq!(committed.load(Ordering::Relaxed), 16);
        assert_eq!(store.stats().streams, 16);

        let mut sim = build();
        let (feeds, damaged) = store.attach_streams(&mut sim, &key);
        assert!(matches!(feeds, Some(Feeds::Replaying)) && !damaged);
        assert_eq!(sim.feeds(), (16, 0));
        let replayed = sim.run();
        assert_eq!(wire::encode_run(&replayed), wire::encode_run(&live));

        // A stream whose first block is damaged is quarantined with its
        // set, and the run records the set afresh.
        let first = fs::read(store.stream_path(&key, 0)).unwrap();
        let path = store.stream_path(&key, 5);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..40]).unwrap();
        let mut sim = build();
        let (feeds, damaged) = store.attach_streams(&mut sim, &key);
        assert!(matches!(feeds, Some(Feeds::Recording(_))) && damaged);
        assert_eq!(store.stats().quarantined, 16);
        sim.run();
        assert_eq!(fs::read(store.stream_path(&key, 0)).unwrap(), first);
        assert_eq!(store.stats().streams, 16);
    }

    #[test]
    fn scrub_reclaims_orphaned_checkpoint_trails() {
        let store = test_store();
        let cfg = SystemConfig::smoke_test();
        let live = run_key(&cfg, RunKind::Migration, "lbm", "x");
        let dead = run_key(&cfg, RunKind::Migration, "mcf", "x");
        let blob = ramp_sim::codec::encode_framed(CHECKPOINT_KIND, CHECKPOINT_VERSION, &[7; 16]);
        store.store_run(&live, &sample_run());
        store.store_checkpoint(&live, 1, &blob);
        // `dead` has a trail but no base entry (the run died and was
        // never resumed): scrub reclaims it.
        store.store_checkpoint(&dead, 1, &blob);
        store.store_checkpoint(&dead, 2, &blob);

        let report = store.scrub();
        assert_eq!(report.orphaned, 2);
        assert!(store.list_checkpoints(&dead).is_empty());
        assert_eq!(store.list_checkpoints(&live).len(), 1);

        // A quarantined base also orphans its trail.
        let base = store.path_for(&live, "run");
        let bytes = fs::read(&base).unwrap();
        fs::write(&base, &bytes[..bytes.len() / 2]).unwrap();
        let report = store.scrub();
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.orphaned, 1);
        assert!(store.list_checkpoints(&live).is_empty());
    }

    #[test]
    fn verify_is_read_only_and_classifies_damage() {
        let store = test_store();
        let run = sample_run();
        let key = run_key(&SystemConfig::smoke_test(), RunKind::Static, "lbm", "x");
        store.store_run(&key, &run);
        assert!(store.verify().ok());
        let path = store.path_for(&key, "run");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let report = store.verify();
        assert_eq!(report.entries, 1);
        assert_eq!(report.valid, 0);
        assert_eq!(report.errors.len(), 1);
        // Read-only: the damaged file is still in place (scrub heals).
        assert!(path.exists());
    }

    #[test]
    fn older_builds_log_directory_is_ignored_and_left_untouched() {
        // Builds that had an append-only log backend kept it in a `wal/`
        // subdirectory of the store. Such a directory is not part of
        // the store: reads, counts, scrub and verify pass it by, and its
        // bytes stay as they are until someone deletes it by hand.
        let store = test_store();
        let run = sample_run();
        let cfg = SystemConfig::smoke_test();
        let keys = [
            run_key(&cfg, RunKind::Static, "lbm", "x"),
            run_key(&cfg, RunKind::Static, "mcf", "x"),
        ];
        for key in &keys {
            assert!(store.store_run(key, &run));
        }
        let old = store.dir().join("wal");
        fs::create_dir_all(&old).unwrap();
        let mut segment = wire::encode_run(&run);
        segment.extend_from_slice(&wire::encode_run(&run)[..40]); // torn tail
        fs::write(old.join("seg-00000001.wal"), &segment).unwrap();
        fs::write(old.join("MANIFEST"), b"not a frame").unwrap();
        let snapshot = || {
            let mut files: Vec<(PathBuf, Vec<u8>)> = fs::read_dir(&old)
                .unwrap()
                .flatten()
                .map(|e| (e.path(), fs::read(e.path()).unwrap()))
                .collect();
            files.sort();
            files
        };
        let before = snapshot();

        for key in &keys {
            let back = store
                .load_run(key)
                .expect("entry next to the old directory loads");
            assert_eq!(
                wire::encode_run(&back),
                wire::encode_run(&without_rows(&run))
            );
            assert!(back.table.pages().is_empty());
            assert_eq!(back.table.total_cycles(), run.table.total_cycles());
        }
        let stats = store.stats();
        assert_eq!(
            (
                stats.runs,
                stats.annotated,
                stats.checkpoints,
                stats.quarantined
            ),
            (2, 0, 0, 0)
        );
        assert_eq!(
            store.scrub().to_string(),
            "scanned=2 valid=2 quarantined=0 already=0 tmp=0 unknown=0 orphaned=0 streams=0"
        );
        let verify = store.verify();
        assert!(verify.ok(), "{verify}: {:?}", verify.errors);
        assert_eq!((verify.entries, verify.valid), (2, 2));
        assert_eq!(snapshot(), before, "the old directory was modified");
        assert_eq!(before.len(), 2);
    }

    #[test]
    fn from_env_respects_off_switch() {
        // Can't mutate env safely in parallel tests; just exercise the
        // default path, which must yield a usable store or None.
        if let Some(store) = RunStore::from_env() {
            assert!(store.dir().to_string_lossy().contains("ramp-store"));
        }
    }
}
