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

use std::collections::HashSet;

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
                    w.f64(h.lo());
                    w.f64(h.hi());
                    w.u32(h.counts().len() as u32);
                    for &c in h.counts() {
                        w.u64(c);
                    }
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

fn read_snapshot(r: &mut ByteReader) -> Result<Snapshot, CodecError> {
    let mut snap = Snapshot::default();
    let n_scopes = r.seq_len(4)?;
    for _ in 0..n_scopes {
        let scope = r.str()?;
        let n_stats = r.seq_len(5)?;
        for _ in 0..n_stats {
            let name = r.str()?;
            let stat = match r.u8()? {
                TAG_COUNTER => Stat::Counter(r.u64()?),
                TAG_GAUGE => Stat::Gauge(r.f64()?),
                TAG_HISTOGRAM => {
                    let lo = r.f64()?;
                    let hi = r.f64()?;
                    let bins = r.seq_len(8)?;
                    let counts = (0..bins).map(|_| r.u64()).collect::<Result<Vec<_>, _>>()?;
                    Stat::Histogram(
                        BinHistogram::from_parts(lo, hi, counts)
                            .ok_or(CodecError::Malformed("bad histogram geometry"))?,
                    )
                }
                TAG_RATIO => Stat::Ratio {
                    num: r.u64()?,
                    den: r.u64()?,
                },
                _ => return Err(CodecError::Malformed("unknown stat tag")),
            };
            snap.insert(&scope, name, stat);
        }
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

fn read_table(r: &mut ByteReader) -> Result<StatsTable, CodecError> {
    let total_cycles = r.u64()?;
    let n = r.seq_len(48)?;
    let mut stats = Vec::with_capacity(n);
    for _ in 0..n {
        stats.push(PageStats {
            page: PageId(r.u64()?),
            reads: r.u64()?,
            writes: r.u64()?,
            ace_hbm: r.u64()?,
            ace_ddr: r.u64()?,
            avf: r.f64()?,
        });
    }
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
