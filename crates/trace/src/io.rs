//! Trace (de)serialization: a dense binary format for captured CPU-level
//! traces, so workloads can be recorded once and replayed elsewhere — the
//! same role PinPlay trace files play in the paper's methodology.
//!
//! Format (little-endian):
//!
//! ```text
//! magic  "RAMPTRC1"                 8 bytes
//! count  u64                        number of records
//! repeat count times:
//!   inst_gap u32 | pc u64 | addr u64 | kind u8 (0 = read, 1 = write)
//! ```

use std::io::{self, Read, Write};

use ramp_sim::units::{AccessKind, Addr};

use crate::record::TraceRecord;

const MAGIC: &[u8; 8] = b"RAMPTRC1";

/// Writes `records` to `w` in the RAMP trace format.
///
/// # Errors
///
/// Propagates any I/O error from the underlying writer.
pub fn write_trace<W: Write>(mut w: W, records: &[TraceRecord]) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(records.len() as u64).to_le_bytes())?;
    for r in records {
        w.write_all(&r.inst_gap.to_le_bytes())?;
        w.write_all(&r.pc.to_le_bytes())?;
        w.write_all(&r.addr.0.to_le_bytes())?;
        w.write_all(&[u8::from(r.kind.is_write())])?;
    }
    Ok(())
}

/// Reads a trace previously written by [`write_trace`].
///
/// # Errors
///
/// Returns `InvalidData` if the magic or record encoding is malformed, and
/// propagates I/O errors from the underlying reader.
pub fn read_trace<R: Read>(mut r: R) -> io::Result<Vec<TraceRecord>> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a RAMP trace (bad magic)",
        ));
    }
    let mut n8 = [0u8; 8];
    r.read_exact(&mut n8)?;
    let n = u64::from_le_bytes(n8);
    let mut out = Vec::with_capacity(n.min(1 << 24) as usize);
    let mut rec = [0u8; 21];
    for _ in 0..n {
        r.read_exact(&mut rec)?;
        let inst_gap = u32::from_le_bytes(rec[0..4].try_into().expect("4 bytes"));
        let pc = u64::from_le_bytes(rec[4..12].try_into().expect("8 bytes"));
        let addr = u64::from_le_bytes(rec[12..20].try_into().expect("8 bytes"));
        let kind = match rec[20] {
            0 => AccessKind::Read,
            1 => AccessKind::Write,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("invalid access kind {other}"),
                ))
            }
        };
        out.push(TraceRecord {
            inst_gap,
            pc,
            addr: Addr(addr),
            kind,
        });
    }
    Ok(out)
}

/// Captures `n` records from a generator into a replayable vector.
pub fn capture(gen: &mut crate::gen::InstanceGen, n: usize) -> Vec<TraceRecord> {
    gen.take(n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Benchmark;
    use crate::InstanceGen;

    #[test]
    fn round_trips_generated_traces() {
        let mut gen = InstanceGen::new(Benchmark::Milc.profile(), 0, 42, 1_000_000);
        let records = capture(&mut gen, 5_000);
        let mut buf = Vec::new();
        write_trace(&mut buf, &records).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(records, back);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_trace(&b"NOTATRCE\0\0\0\0\0\0\0\0"[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_bad_kind_byte() {
        let mut buf = Vec::new();
        write_trace(
            &mut buf,
            &[TraceRecord {
                inst_gap: 1,
                pc: 2,
                addr: Addr(64),
                kind: AccessKind::Read,
            }],
        )
        .unwrap();
        let last = buf.len() - 1;
        buf[last] = 9; // corrupt the kind byte
        assert!(read_trace(buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let mut buf = Vec::new();
        write_trace(
            &mut buf,
            &[TraceRecord {
                inst_gap: 0,
                pc: 0,
                addr: Addr(0),
                kind: AccessKind::Write,
            }],
        )
        .unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_trace(buf.as_slice()).is_err());
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).unwrap();
        assert!(read_trace(buf.as_slice()).unwrap().is_empty());
    }
}
