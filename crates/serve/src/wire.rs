//! The on-disk wire format of the run store: versioned, checksummed
//! encodings of [`RunResult`] and annotated runs.
//!
//! Built on the generic `ramp_sim::codec` primitives. The format is
//! little-endian, length-prefixed, and framed by
//! [`ramp_sim::codec::encode_framed`] (magic + [`WIRE_VERSION`] + payload
//! kind + checksum), so any truncation, corruption or version skew
//! decodes to a clean [`CodecError`] that the store maps to a cache miss
//! — never a panic, never a stale result.
//!
//! `f64` fields travel as IEEE-754 bit patterns: a decoded result is
//! *bit-identical* to the encoded one, which is what lets a warm-started
//! experiment binary produce byte-identical stdout.
//!
//! [`encode_run`] and [`encode_annotated`] always write the full
//! per-page table. The store writes its entries through crate-private
//! variants that may leave the table's rows out (see
//! `store::keeps_rows`): such an entry carries a zero-row table with the
//! run's `total_cycles`, in the same layout, so the one decoder reads
//! both.
//!
//! The telemetry snapshot has one canonical encoding: scopes, and the
//! stats inside each scope, in strictly increasing name order (the
//! `BTreeMap` order the encoder walks). The decoder rejects swapped or
//! duplicated names as [`CodecError::Malformed`], which lets it build
//! each scope's map in one pass and insert it into the snapshot once.

use std::collections::{BTreeMap, HashSet};

use ramp_avf::{PageStats, StatsTable};
use ramp_core::annotate::AnnotationSet;
use ramp_core::system::RunResult;
use ramp_sim::codec::{decode_framed, encode_framed, ByteReader, ByteWriter, CodecError};
use ramp_sim::telemetry::{BinHistogram, Snapshot, Stat};
use ramp_sim::units::PageId;
use ramp_trace::Benchmark;

/// Format version of every store entry; bump on any layout change so
/// stale entries become misses instead of misreads.
pub const WIRE_VERSION: u32 = 1;

/// Frame kind tag for a plain [`RunResult`].
pub const KIND_RUN: u8 = 1;
/// Frame kind tag for an annotated run (result + annotation set).
pub const KIND_ANNOTATED: u8 = 2;
// Kind 3 is a simulation checkpoint (`ramp_core::system::CHECKPOINT_KIND`).

const TAG_COUNTER: u8 = 0;
const TAG_GAUGE: u8 = 1;
const TAG_HISTOGRAM: u8 = 2;
const TAG_RATIO: u8 = 3;

fn write_snapshot(w: &mut ByteWriter, snap: &Snapshot) {
    let scopes: Vec<_> = snap.scopes().collect();
    w.u32(scopes.len() as u32);
    for (scope, stats) in scopes {
        w.str(scope);
        w.u32(stats.len() as u32);
        for (name, stat) in stats {
            w.str(name);
            match stat {
                Stat::Counter(v) => {
                    w.u8(TAG_COUNTER);
                    w.u64(*v);
                }
                Stat::Gauge(v) => {
                    w.u8(TAG_GAUGE);
                    w.f64(*v);
                }
                Stat::Histogram(h) => {
                    w.u8(TAG_HISTOGRAM);
                    h.save_state(w);
                }
                Stat::Ratio { num, den } => {
                    w.u8(TAG_RATIO);
                    w.u64(*num);
                    w.u64(*den);
                }
            }
        }
    }
}

/// Reads a `u32`-length-prefixed UTF-8 name, borrowed from the payload,
/// that must sort strictly after `prev` (canonical order: no duplicates,
/// no swaps).
fn read_sorted_name<'a>(
    r: &mut ByteReader<'a>,
    prev: Option<&str>,
    what: &'static str,
) -> Result<&'a str, CodecError> {
    let len = r.u32()? as usize;
    let name =
        std::str::from_utf8(r.take(len)?).map_err(|_| CodecError::Malformed("non-UTF-8 string"))?;
    if prev.is_some_and(|p| p >= name) {
        return Err(CodecError::Malformed(what));
    }
    Ok(name)
}

fn read_snapshot(r: &mut ByteReader) -> Result<Snapshot, CodecError> {
    let mut snap = Snapshot::default();
    // Shortest scope: name length + stat count. Shortest stat: name
    // length + tag + an 8-byte value.
    let n_scopes = r.seq_len(8)?;
    let mut prev_scope = None;
    for _ in 0..n_scopes {
        let scope = read_sorted_name(r, prev_scope, "scope names out of order")?;
        prev_scope = Some(scope);
        let n_stats = r.seq_len(13)?;
        let mut stats = BTreeMap::new();
        let mut prev_name = None;
        for _ in 0..n_stats {
            let name = read_sorted_name(r, prev_name, "stat names out of order")?;
            prev_name = Some(name);
            let stat = match r.u8()? {
                TAG_COUNTER => Stat::Counter(r.u64()?),
                TAG_GAUGE => Stat::Gauge(r.f64()?),
                TAG_HISTOGRAM => Stat::Histogram(BinHistogram::read_state(r)?),
                TAG_RATIO => Stat::Ratio {
                    num: r.u64()?,
                    den: r.u64()?,
                },
                _ => return Err(CodecError::Malformed("unknown stat tag")),
            };
            stats.insert(name.to_owned(), stat);
        }
        snap.insert_scope(scope.to_owned(), stats);
    }
    Ok(snap)
}

/// Writes `table`; with `rows == false` only its `total_cycles` and an
/// empty row list (a valid zero-row table to the decoder).
fn write_table(w: &mut ByteWriter, table: &StatsTable, rows: bool) {
    let pages = if rows { table.pages() } else { &[] };
    w.u64(table.total_cycles());
    w.u32(pages.len() as u32);
    for s in pages {
        w.u64(s.page.0);
        w.u64(s.reads);
        w.u64(s.writes);
        w.u64(s.ace_hbm);
        w.u64(s.ace_ddr);
        w.f64(s.avf);
    }
}

/// Bytes of one encoded table row: five `u64` fields and an `f64`.
const ROW_BYTES: usize = 48;

fn read_table(r: &mut ByteReader) -> Result<StatsTable, CodecError> {
    let total_cycles = r.u64()?;
    let n = r.seq_len(ROW_BYTES)?;
    let word = |row: &[u8], i: usize| {
        u64::from_le_bytes(row[8 * i..8 * i + 8].try_into().expect("8 bytes"))
    };
    let stats = r
        .take(n * ROW_BYTES)?
        .chunks_exact(ROW_BYTES)
        .map(|row| PageStats {
            page: PageId(word(row, 0)),
            reads: word(row, 1),
            writes: word(row, 2),
            ace_hbm: word(row, 3),
            ace_ddr: word(row, 4),
            avf: f64::from_bits(word(row, 5)),
        })
        .collect();
    Ok(StatsTable::from_stats(stats, total_cycles))
}

fn write_run_payload(w: &mut ByteWriter, run: &RunResult, rows: bool) {
    w.str(&run.workload);
    w.str(&run.policy);
    w.f64(run.ipc);
    w.u32(run.per_core_ipc.len() as u32);
    for &v in &run.per_core_ipc {
        w.f64(v);
    }
    w.f64(run.ser_fit);
    w.f64(run.ser_ddr_only_fit);
    w.u64(run.cycles);
    w.u64(run.instructions);
    w.f64(run.mpki);
    w.u64(run.hbm_accesses);
    w.u64(run.ddr_accesses);
    w.u64(run.migrations);
    w.f64(run.mean_read_latency.0);
    w.f64(run.mean_read_latency.1);
    write_table(w, &run.table, rows);
    write_snapshot(w, &run.telemetry);
}

fn read_run_payload(r: &mut ByteReader) -> Result<RunResult, CodecError> {
    let workload = r.str()?;
    let policy = r.str()?;
    let ipc = r.f64()?;
    let n_cores = r.seq_len(8)?;
    let per_core_ipc = (0..n_cores)
        .map(|_| r.f64())
        .collect::<Result<Vec<_>, _>>()?;
    Ok(RunResult {
        workload,
        policy,
        ipc,
        per_core_ipc,
        ser_fit: r.f64()?,
        ser_ddr_only_fit: r.f64()?,
        cycles: r.u64()?,
        instructions: r.u64()?,
        mpki: r.f64()?,
        hbm_accesses: r.u64()?,
        ddr_accesses: r.u64()?,
        migrations: r.u64()?,
        mean_read_latency: (r.f64()?, r.f64()?),
        table: read_table(r)?,
        telemetry: read_snapshot(r)?,
    })
}

/// Encodes a run result as a framed, checksummed store entry, table
/// rows included: the bit-exact fingerprint of a `RunResult`.
pub fn encode_run(run: &RunResult) -> Vec<u8> {
    encode_run_entry(run, true)
}

/// [`encode_run`] that writes the table's per-page rows only when
/// `rows` (the store's choice; see `store::keeps_rows`).
pub(crate) fn encode_run_entry(run: &RunResult, rows: bool) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_run_payload(&mut w, run, rows);
    encode_framed(KIND_RUN, WIRE_VERSION, w.bytes())
}

/// Decodes a framed store entry back into a run result.
///
/// Fails cleanly (no panic, no partial result) on truncation, bit flips,
/// wrong kind or version skew.
pub fn decode_run(bytes: &[u8]) -> Result<RunResult, CodecError> {
    let payload = decode_framed(bytes, KIND_RUN, WIRE_VERSION)?;
    let mut r = ByteReader::new(payload);
    let run = read_run_payload(&mut r)?;
    if !r.is_empty() {
        return Err(CodecError::Malformed("trailing payload bytes"));
    }
    Ok(run)
}

/// Encodes an annotated run (result plus its annotation set), table
/// rows included.
pub fn encode_annotated(run: &RunResult, set: &AnnotationSet) -> Vec<u8> {
    encode_annotated_entry(run, set, true)
}

/// [`encode_annotated`] that writes the table's per-page rows only
/// when `rows`.
pub(crate) fn encode_annotated_entry(run: &RunResult, set: &AnnotationSet, rows: bool) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_run_payload(&mut w, run, rows);
    w.u32(set.structures.len() as u32);
    for (bench, name) in &set.structures {
        w.str(bench.name());
        w.str(name);
    }
    let mut pinned: Vec<u64> = set.pinned.iter().map(|p| p.0).collect();
    pinned.sort_unstable();
    w.u32(pinned.len() as u32);
    for p in pinned {
        w.u64(p);
    }
    encode_framed(KIND_ANNOTATED, WIRE_VERSION, w.bytes())
}

/// Decodes an annotated-run store entry.
pub fn decode_annotated(bytes: &[u8]) -> Result<(RunResult, AnnotationSet), CodecError> {
    let payload = decode_framed(bytes, KIND_ANNOTATED, WIRE_VERSION)?;
    let mut r = ByteReader::new(payload);
    let run = read_run_payload(&mut r)?;
    let n_structs = r.seq_len(8)?;
    let mut structures = Vec::with_capacity(n_structs);
    for _ in 0..n_structs {
        let bench = Benchmark::from_name(&r.str()?)
            .ok_or(CodecError::Malformed("unknown benchmark name"))?;
        structures.push((bench, r.str()?));
    }
    let n_pinned = r.seq_len(8)?;
    let pinned: HashSet<PageId> = (0..n_pinned)
        .map(|_| r.u64().map(PageId))
        .collect::<Result<_, _>>()?;
    if !r.is_empty() {
        return Err(CodecError::Malformed("trailing payload bytes"));
    }
    Ok((run, AnnotationSet { structures, pinned }))
}

/// Test-only fixtures shared across the crate's unit tests.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A small but fully-populated result exercising every field.
    pub(crate) fn sample_run() -> RunResult {
        let mut telemetry = Snapshot::default();
        telemetry.insert("system", "instructions", Stat::Counter(42_000));
        telemetry.insert("system", "ipc", Stat::Gauge(1.25));
        telemetry.insert("dram.hbm", "row_hit_ratio", Stat::Ratio { num: 3, den: 7 });
        let mut h = BinHistogram::new(0.0, 16.0, 4);
        h.observe(1.0);
        h.observe(15.0);
        telemetry.insert("core.c00", "outstanding_misses", Stat::Histogram(h));
        RunResult {
            workload: "lbm".into(),
            policy: "perf-focused".into(),
            ipc: 1.25,
            per_core_ipc: vec![1.0, 1.5, f64::MIN_POSITIVE],
            ser_fit: 287.5,
            ser_ddr_only_fit: 1.0,
            cycles: 33_600,
            instructions: 42_000,
            mpki: 12.5,
            hbm_accesses: 400,
            ddr_accesses: 125,
            migrations: 3,
            mean_read_latency: (81.5, 210.25),
            table: StatsTable::from_stats(
                vec![
                    PageStats {
                        page: PageId(7),
                        reads: 10,
                        writes: 2,
                        ace_hbm: 100,
                        ace_ddr: 50,
                        avf: 0.25,
                    },
                    PageStats {
                        page: PageId(9),
                        reads: 0,
                        writes: 0,
                        ace_hbm: 0,
                        ace_ddr: 0,
                        avf: 0.0,
                    },
                ],
                33_600,
            ),
            telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::sample_run;
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn assert_runs_equal(a: &RunResult, b: &RunResult) {
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.ipc.to_bits(), b.ipc.to_bits());
        assert_eq!(a.per_core_ipc.len(), b.per_core_ipc.len());
        for (x, y) in a.per_core_ipc.iter().zip(&b.per_core_ipc) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.ser_fit.to_bits(), b.ser_fit.to_bits());
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.table.pages(), b.table.pages());
        assert_eq!(a.table.total_cycles(), b.table.total_cycles());
        assert_eq!(a.telemetry, b.telemetry);
    }

    #[test]
    fn run_round_trips_bit_exactly() {
        let run = sample_run();
        let bytes = encode_run(&run);
        let back = decode_run(&bytes).unwrap();
        assert_runs_equal(&run, &back);
        assert_eq!(run.telemetry.to_json(), back.telemetry.to_json());
    }

    #[test]
    fn annotated_round_trips() {
        let run = sample_run();
        let set = AnnotationSet {
            structures: vec![
                (Benchmark::Lbm, "lattice_a".into()),
                (Benchmark::Mcf, "nodes".into()),
            ],
            pinned: [PageId(1), PageId(99)].into_iter().collect(),
        };
        let bytes = encode_annotated(&run, &set);
        let (back, back_set) = decode_annotated(&bytes).unwrap();
        assert_runs_equal(&run, &back);
        assert_eq!(back_set.structures, set.structures);
        assert_eq!(back_set.pinned, set.pinned);
    }

    /// A run whose snapshot holds scope `scope.a` with stats `stat.a` and
    /// `stat.b`, and scope `scope.b` with `stat.z`: names that each occur
    /// once in its payload.
    fn two_scope_run() -> RunResult {
        let mut telemetry = Snapshot::default();
        telemetry.insert("scope.a", "stat.a", Stat::Counter(1));
        telemetry.insert("scope.a", "stat.b", Stat::Gauge(2.5));
        telemetry.insert("scope.b", "stat.z", Stat::Ratio { num: 1, den: 3 });
        RunResult {
            telemetry,
            ..sample_run()
        }
    }

    /// `run`'s entry with each `(from, to)` name rewritten in place, all
    /// positions found before any write, then re-framed so the payload
    /// passes the checksum and reaches the snapshot decoder.
    fn renamed_entry(run: &RunResult, renames: &[(&str, &str)]) -> Vec<u8> {
        let entry = encode_run(run);
        let mut payload = decode_framed(&entry, KIND_RUN, WIRE_VERSION)
            .unwrap()
            .to_vec();
        let at: Vec<usize> = renames
            .iter()
            .map(|(from, to)| {
                assert_eq!(from.len(), to.len());
                let mut hits = payload.windows(from.len()).enumerate();
                let (i, _) = hits.find(|(_, w)| *w == from.as_bytes()).unwrap();
                assert!(hits.all(|(_, w)| w != from.as_bytes()), "{from} twice");
                i
            })
            .collect();
        for (&i, (_, to)) in at.iter().zip(renames) {
            payload[i..i + to.len()].copy_from_slice(to.as_bytes());
        }
        encode_framed(KIND_RUN, WIRE_VERSION, &payload)
    }

    /// Swapped or duplicated scope or stat names: each entry is
    /// `Malformed`, and through the store a miss that counts as invalid
    /// and is quarantined.
    #[test]
    fn non_canonical_name_order_is_malformed() {
        let run = two_scope_run();
        assert_eq!(encode_run(&run), renamed_entry(&run, &[]));
        assert_eq!(
            decode_run(&encode_run(&run)).unwrap().telemetry,
            run.telemetry
        );
        let cases: [&[(&str, &str)]; 4] = [
            &[("scope.a", "scope.b"), ("scope.b", "scope.a")],
            &[("scope.b", "scope.a")],
            &[("stat.a", "stat.b"), ("stat.b", "stat.a")],
            &[("stat.b", "stat.a")],
        ];
        let store = crate::store::testutil::test_store();
        let m = store.metrics();
        for (n, renames) in cases.into_iter().enumerate() {
            let bytes = renamed_entry(&run, renames);
            assert!(
                matches!(decode_run(&bytes), Err(CodecError::Malformed(_))),
                "{renames:?}"
            );
            let key = format!("{n:032x}");
            let path = store.dir().join(format!("{key}.run"));
            std::fs::write(&path, &bytes).unwrap();
            assert!(store.load_run(&key).is_none(), "{renames:?}");
            assert!(!path.exists());
            assert!(store.dir().join(format!("{key}.run.quarantine")).exists());
        }
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!((count(&m.hits), count(&m.misses)), (0, 4));
        assert_eq!((count(&m.invalid), count(&m.quarantined)), (4, 4));
    }

    /// A real-sized snapshot (a smoke-config run's ~300 stats, its
    /// histograms observed) decodes to bytes identical to its encoding.
    #[test]
    fn real_snapshot_round_trips_byte_identically() {
        let cfg = ramp_core::config::SystemConfig {
            insts_per_core: 20_000,
            ..ramp_core::config::SystemConfig::smoke_test()
        };
        let spec = crate::spec::RunSpec::parse("lbm", "static", "perf-focused").unwrap();
        let run = spec.execute(&cfg, None);
        let stats: usize = run.telemetry.scopes().map(|(_, s)| s.len()).sum();
        assert!(stats > 200, "{stats} stats");
        let observed = run.telemetry.scopes().flat_map(|(_, s)| s.values());
        assert!(observed
            .filter_map(Stat::as_histogram)
            .any(|h| h.total() > 0));
        let bytes = encode_run(&run);
        let back = decode_run(&bytes).unwrap();
        assert_eq!(back.telemetry, run.telemetry);
        assert_eq!(encode_run(&back), bytes);
    }

    #[test]
    fn kind_confusion_is_a_clean_error() {
        let run = sample_run();
        let bytes = encode_run(&run);
        assert!(matches!(
            decode_annotated(&bytes),
            Err(CodecError::WrongKind { .. })
        ));
    }
}
