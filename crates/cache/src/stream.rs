//! Post-L1 event streams: what one core's private L1 passes down, recorded
//! once and replayed in every later run.
//!
//! A core's records come from its own generator, and its L1 is private:
//! nothing but the core touches it. So the sequence of [`L1Event`]s a core
//! produces — instructions retired per record, and whether the record hit
//! its L1 or missed with some line and maybe a dirty victim — is the same
//! in every run of a workload, whatever the placement, migration or
//! timing. Only the shared L2 and what lies below it depend on those. A
//! run can therefore replay a recorded stream through
//! [`crate::Hierarchy::l2_access`] and skip generation and the L1 alike.
//!
//! # Layout
//!
//! A stream is a sequence of blocks. Each block is one
//! [`ramp_sim::codec`] frame (kind [`STREAM_KIND`], version
//! [`STREAM_VERSION`], XXH64-checksummed) whose payload is at most
//! [`BLOCK_BYTES`]:
//!
//! | bytes | field |
//! |---|---|
//! | 8 | identity of the stream and core (chosen by the caller) |
//! | 4 | block index, from 0 |
//! | … | records |
//! | 4 | record count |
//! | 1 | 1 on the stream's last block, else 0 |
//!
//! A record is a varint `insts << 3 | miss | write << 1 | victim << 2`;
//! a miss adds the zigzag varint of its line minus the previous miss's
//! line (0 at the start of each block), and a dirty victim the zigzag
//! varint of the victim line minus the miss's line. Blocks decode on
//! their own, so a position is a block's file offset plus the records
//! consumed from it.
//!
//! The writer and the reader each hold one block: memory is bounded by
//! [`BLOCK_BYTES`] per core and direction, whatever the stream's length.
//! Every defect — a bad frame, a foreign block, a record out of range, a
//! stream that ends early — is a [`StreamError`], never a panic.

use std::fmt;
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;

use ramp_sim::codec::{self, CodecError, HEADER_LEN};
use ramp_sim::units::LineAddr;

/// Frame kind of stream blocks (run entries are 1 and 2, checkpoints 3).
pub const STREAM_KIND: u8 = 4;
/// Version of the block layout. Bump on any change to it.
pub const STREAM_VERSION: u32 = 1;
/// Largest block payload in bytes.
pub const BLOCK_BYTES: usize = 64 * 1024;
/// Most instructions one record may retire. Generated records retire a
/// gap of a few instructions plus the access; the bound keeps a damaged
/// record from stretching a run by billions of cycles.
pub const MAX_INSTS: u64 = 1 << 16;

/// Payload bytes ahead of the records: identity and block index.
const BLOCK_HEAD: usize = 8 + 4;
/// Payload bytes after the records: record count and last flag.
const BLOCK_TAIL: usize = 4 + 1;
/// Longest encoded record: three 10-byte varints.
const MAX_RECORD: usize = 30;

/// What one record did in its core's private L1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L1Outcome {
    /// The access hit: nothing leaves the core.
    Hit,
    /// The access missed.
    Miss {
        /// The line accessed.
        line: LineAddr,
        /// Whether the access was a store.
        write: bool,
        /// The dirty line the L1 evicted to make room, if any.
        victim: Option<LineAddr>,
    },
}

/// One record of a core's post-L1 stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L1Event {
    /// Instructions the record retires (its gap plus the access).
    pub insts: u64,
    /// What the access did in the L1.
    pub outcome: L1Outcome,
}

/// Why a stream could not be read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamError {
    /// The source failed to read or seek.
    Io(std::io::ErrorKind),
    /// A block or record is damaged, foreign or out of range, or the
    /// stream ended before its reader did.
    Codec(CodecError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(kind) => write!(f, "stream I/O error: {kind}"),
            StreamError::Codec(e) => write!(f, "stream block: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<CodecError> for StreamError {
    fn from(e: CodecError) -> Self {
        StreamError::Codec(e)
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => StreamError::Codec(CodecError::Truncated),
            kind => StreamError::Io(kind),
        }
    }
}

/// Where a stream is written: a byte sink that can make the finished
/// stream visible to readers (a store renames its temp file into place).
pub trait StreamSink: Write + Send {
    /// Publishes the stream once its last block is written. A sink
    /// dropped without a commit must leave no readable stream behind.
    fn commit(self: Box<Self>) -> std::io::Result<()>;
}

/// Where a stream is read from.
pub trait StreamSource: Read + Seek + Send {}

impl<T: Read + Seek + Send> StreamSource for T {}

/// A position inside a stream: the offset of the current block's frame
/// and how many of its records were consumed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamPos {
    /// File offset of the block's frame.
    pub offset: u64,
    /// Records of that block already consumed.
    pub records: u32,
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

/// Writes `v` as a varint into `out` at `*n`, advancing it.
#[inline(always)]
fn put_varint(out: &mut [u8; MAX_RECORD], n: &mut usize, mut v: u64) {
    while v >= 0x80 {
        out[*n] = v as u8 | 0x80;
        v >>= 7;
        *n += 1;
    }
    out[*n] = v as u8;
    *n += 1;
}

/// Reads one varint of `buf` at `*at`, advancing it.
#[inline(always)]
fn varint(buf: &[u8], at: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = *buf.get(*at).ok_or(CodecError::Truncated)?;
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError::Malformed("varint longer than 64 bits"));
        }
    }
}

/// Encodes a core's events into checksummed blocks as they happen.
pub struct StreamWriter<W: Write> {
    out: W,
    ident: u64,
    /// The open block's frame, header bytes reserved; one allocation,
    /// reused for every block.
    block: Vec<u8>,
    index: u32,
    count: u32,
    prev: u64,
}

impl<W: Write> fmt::Debug for StreamWriter<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamWriter")
            .field("ident", &self.ident)
            .field("block", &self.index)
            .finish()
    }
}

impl<W: Write> StreamWriter<W> {
    /// A writer of the stream `ident` into `out`.
    pub fn new(out: W, ident: u64) -> Self {
        let mut w = StreamWriter {
            out,
            ident,
            block: Vec::with_capacity(HEADER_LEN + BLOCK_BYTES + 8),
            index: 0,
            count: 0,
            prev: 0,
        };
        w.open_block();
        w
    }

    fn open_block(&mut self) {
        self.block.clear();
        self.block.resize(HEADER_LEN, 0);
        self.block.extend_from_slice(&self.ident.to_le_bytes());
        self.block.extend_from_slice(&self.index.to_le_bytes());
        self.count = 0;
        self.prev = 0;
    }

    fn close_block(&mut self, last: bool) -> std::io::Result<()> {
        self.block.extend_from_slice(&self.count.to_le_bytes());
        self.block.push(u8::from(last));
        codec::seal_frame(&mut self.block, STREAM_KIND, STREAM_VERSION);
        self.out.write_all(&self.block)?;
        self.index += 1;
        Ok(())
    }

    /// Appends one event, writing out the block once it is full.
    ///
    /// # Errors
    ///
    /// The sink's write error, or `InvalidInput` for an event that
    /// retires no instruction or more than [`MAX_INSTS`].
    pub fn push(&mut self, ev: &L1Event) -> std::io::Result<()> {
        if !(1..=MAX_INSTS).contains(&ev.insts) {
            return Err(std::io::ErrorKind::InvalidInput.into());
        }
        if self.block.len() - HEADER_LEN + MAX_RECORD + BLOCK_TAIL > BLOCK_BYTES {
            self.close_block(false)?;
            self.open_block();
        }
        // One record is assembled on the stack and appended at once.
        let mut rec = [0u8; MAX_RECORD];
        let mut n = 0;
        match ev.outcome {
            L1Outcome::Hit => put_varint(&mut rec, &mut n, ev.insts << 3),
            L1Outcome::Miss {
                line,
                write,
                victim,
            } => {
                let bits = 1 | u64::from(write) << 1 | u64::from(victim.is_some()) << 2;
                put_varint(&mut rec, &mut n, ev.insts << 3 | bits);
                let delta = zigzag(line.0.wrapping_sub(self.prev) as i64);
                put_varint(&mut rec, &mut n, delta);
                self.prev = line.0;
                if let Some(v) = victim {
                    put_varint(&mut rec, &mut n, zigzag(v.0.wrapping_sub(line.0) as i64));
                }
            }
        }
        self.block.extend_from_slice(&rec[..n]);
        self.count += 1;
        Ok(())
    }

    /// Writes the last block, flushes, and returns the sink.
    ///
    /// # Errors
    ///
    /// The sink's write or flush error.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.close_block(true)?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Decodes a core's events block by block from a source.
pub struct StreamReader<R: Read + Seek> {
    src: R,
    ident: u64,
    lines: Range<u64>,
    /// The current frame; its capacity is one block, allocated once.
    buf: Vec<u8>,
    /// Next record byte and end of the records in `buf`.
    at: usize,
    end: usize,
    /// Records left in the current block, and consumed from it.
    left: u32,
    taken: u32,
    last: bool,
    index: u32,
    prev: u64,
    /// Offset of the current block's frame, of the next one, and of the
    /// source's cursor (`u64::MAX` when unknown).
    offset: u64,
    next_offset: u64,
    src_at: u64,
}

impl<R: Read + Seek> fmt::Debug for StreamReader<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamReader")
            .field("ident", &self.ident)
            .field("position", &self.position())
            .finish()
    }
}

impl<R: Read + Seek> StreamReader<R> {
    /// Opens the stream `ident` in `src` and reads its first block. Every
    /// miss and victim line must lie in `lines`.
    ///
    /// # Errors
    ///
    /// A first block that is missing, damaged, of another version or of
    /// another stream.
    pub fn open(src: R, ident: u64, lines: Range<u64>) -> Result<Self, StreamError> {
        let mut r = StreamReader {
            src,
            ident,
            lines,
            buf: Vec::with_capacity(HEADER_LEN + BLOCK_BYTES + 8),
            at: 0,
            end: 0,
            left: 0,
            taken: 0,
            last: false,
            index: 0,
            prev: 0,
            offset: 0,
            next_offset: 0,
            src_at: u64::MAX,
        };
        r.load(0, Some(0))?;
        Ok(r)
    }

    /// Reads the block whose frame starts at `offset`; its index must be
    /// `index` when given.
    fn load(&mut self, offset: u64, index: Option<u32>) -> Result<(), StreamError> {
        if offset != self.src_at {
            self.src.seek(SeekFrom::Start(offset))?;
        }
        self.src_at = u64::MAX;
        self.buf.clear();
        self.buf.resize(HEADER_LEN, 0);
        self.src.read_exact(&mut self.buf)?;
        let len = u64::from_le_bytes(
            self.buf[HEADER_LEN - 8..]
                .try_into()
                .expect("8-byte length"),
        );
        if len > BLOCK_BYTES as u64 {
            return Err(CodecError::Malformed("stream block longer than a block").into());
        }
        let frame = HEADER_LEN + len as usize + 8;
        self.buf.resize(frame, 0);
        self.src.read_exact(&mut self.buf[HEADER_LEN..])?;
        let payload = codec::decode_framed(&self.buf, STREAM_KIND, STREAM_VERSION)?;
        if payload.len() < BLOCK_HEAD + BLOCK_TAIL {
            return Err(CodecError::Truncated.into());
        }
        let word = |at: usize, n: usize| -> u64 {
            payload[at..at + n]
                .iter()
                .rev()
                .fold(0, |v, &b| v << 8 | u64::from(b))
        };
        if word(0, 8) != self.ident {
            return Err(CodecError::Malformed("stream block of another stream").into());
        }
        let found = word(8, 4) as u32;
        if index.is_some_and(|i| i != found) {
            return Err(CodecError::Malformed("stream block out of order").into());
        }
        let tail = payload.len() - BLOCK_TAIL;
        let count = word(tail, 4) as u32;
        let last = match payload[tail + 4] {
            0 => false,
            1 => true,
            _ => return Err(CodecError::Malformed("bad last-block flag").into()),
        };
        self.index = found;
        self.at = HEADER_LEN + BLOCK_HEAD;
        self.end = HEADER_LEN + tail;
        self.left = count;
        self.taken = 0;
        self.last = last;
        self.prev = 0;
        self.offset = offset;
        self.next_offset = offset + frame as u64;
        self.src_at = self.next_offset;
        Ok(())
    }

    /// Moves to the next block once the current one is consumed.
    #[cold]
    fn advance(&mut self) -> Result<(), StreamError> {
        if self.at != self.end {
            return Err(CodecError::Malformed("trailing bytes in stream block").into());
        }
        if self.last {
            return Err(CodecError::Malformed("stream ended before its core").into());
        }
        let index = self.index.wrapping_add(1);
        self.load(self.next_offset, Some(index))
    }

    /// The next event.
    ///
    /// # Errors
    ///
    /// A damaged or foreign block, a record out of range, or the end of
    /// the stream.
    #[inline]
    pub fn next_event(&mut self) -> Result<L1Event, StreamError> {
        while self.left == 0 {
            self.advance()?;
        }
        self.left -= 1;
        self.taken += 1;
        let buf = &self.buf[..self.end];
        let mut at = self.at;
        let tag = varint(buf, &mut at)?;
        let insts = tag >> 3;
        if !(1..=MAX_INSTS).contains(&insts) {
            return Err(CodecError::Malformed("record instruction count out of range").into());
        }
        if tag & 7 == 0 {
            self.at = at;
            return Ok(L1Event {
                insts,
                outcome: L1Outcome::Hit,
            });
        }
        if tag & 1 == 0 {
            return Err(CodecError::Malformed("hit record with miss bits").into());
        }
        let line = self
            .prev
            .wrapping_add(unzigzag(varint(buf, &mut at)?) as u64);
        let victim = if tag & 4 != 0 {
            let v = line.wrapping_add(unzigzag(varint(buf, &mut at)?) as u64);
            if !self.lines.contains(&v) {
                return Err(
                    CodecError::Malformed("victim line outside the core's footprint").into(),
                );
            }
            Some(LineAddr(v))
        } else {
            None
        };
        if !self.lines.contains(&line) {
            return Err(CodecError::Malformed("miss line outside the core's footprint").into());
        }
        self.at = at;
        self.prev = line;
        Ok(L1Event {
            insts,
            outcome: L1Outcome::Miss {
                line: LineAddr(line),
                write: tag & 2 != 0,
                victim,
            },
        })
    }

    /// Where the next event will be read from.
    pub fn position(&self) -> StreamPos {
        StreamPos {
            offset: self.offset,
            records: self.taken,
        }
    }

    /// Moves to `pos`, a position an identical stream's reader reported.
    ///
    /// # Errors
    ///
    /// A position past the stream, off a block boundary, or past its
    /// block's records.
    pub fn seek(&mut self, pos: StreamPos) -> Result<(), StreamError> {
        self.load(pos.offset, None)?;
        if pos.records > self.left {
            return Err(CodecError::Malformed("stream position past its block").into());
        }
        for _ in 0..pos.records {
            self.next_event()?;
        }
        Ok(())
    }
}

/// Reads every block of a stream without keeping any: the record count
/// of a sound stream, or its first defect. Used to verify a stream at
/// rest.
///
/// # Errors
///
/// The first damaged or foreign block or record, or a stream without a
/// last block.
pub fn check_stream<R: Read + Seek>(src: R, ident: u64) -> Result<u64, StreamError> {
    let mut r = StreamReader::open(src, ident, 0..u64::MAX)?;
    let mut records = 0;
    loop {
        while r.left > 0 {
            r.next_event()?;
            records += 1;
        }
        if r.last {
            if r.at != r.end {
                return Err(CodecError::Malformed("trailing bytes in stream block").into());
            }
            if r.src.read(&mut [0u8])? != 0 {
                return Err(CodecError::Malformed("bytes after the last stream block").into());
            }
            return Ok(records);
        }
        r.advance()?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn events(n: u64) -> Vec<L1Event> {
        (0..n)
            .map(|i| L1Event {
                insts: 1 + i % 9,
                outcome: match i % 4 {
                    0 | 1 => L1Outcome::Hit,
                    2 => L1Outcome::Miss {
                        line: LineAddr(1000 + (i * 7919) % 5000),
                        write: i % 8 == 2,
                        victim: None,
                    },
                    _ => L1Outcome::Miss {
                        line: LineAddr(1000 + (i * 104_729) % 5000),
                        write: false,
                        victim: Some(LineAddr(1000 + (i * 31) % 5000)),
                    },
                },
            })
            .collect()
    }

    fn encode(evs: &[L1Event], ident: u64) -> Vec<u8> {
        let mut w = StreamWriter::new(Vec::new(), ident);
        for ev in evs {
            w.push(ev).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn round_trips_across_blocks_and_checks_at_rest() {
        let evs = events(100_000);
        let bytes = encode(&evs, 7);
        assert!(bytes.len() > 2 * BLOCK_BYTES, "spans several blocks");
        let mut r = StreamReader::open(Cursor::new(&bytes), 7, 1000..6000).unwrap();
        for ev in &evs {
            assert_eq!(&r.next_event().unwrap(), ev);
        }
        assert!(r.next_event().is_err(), "reading past the end is an error");
        assert_eq!(check_stream(Cursor::new(&bytes), 7), Ok(evs.len() as u64));
    }

    #[test]
    fn seek_resumes_at_any_reported_position() {
        let evs = events(40_000);
        let bytes = encode(&evs, 3);
        let mut r = StreamReader::open(Cursor::new(&bytes), 3, 0..u64::MAX).unwrap();
        for cut in [0usize, 1, 17_000, 39_999] {
            let mut a = StreamReader::open(Cursor::new(&bytes), 3, 0..u64::MAX).unwrap();
            for _ in 0..cut {
                a.next_event().unwrap();
            }
            r.seek(a.position()).unwrap();
            for ev in &evs[cut..cut + 1] {
                assert_eq!(&r.next_event().unwrap(), ev);
            }
        }
    }

    #[test]
    fn foreign_damaged_and_out_of_range_streams_are_errors() {
        let evs = events(5_000);
        let bytes = encode(&evs, 11);
        let open = |b: &[u8], ident, lines: Range<u64>| {
            let mut r = StreamReader::open(Cursor::new(b.to_vec()), ident, lines)?;
            for _ in 0..evs.len() {
                r.next_event()?;
            }
            Ok::<_, StreamError>(())
        };
        assert!(open(&bytes, 11, 1000..6000).is_ok());
        assert!(open(&bytes, 12, 1000..6000).is_err(), "foreign ident");
        assert!(open(&bytes, 11, 1000..2000).is_err(), "line out of range");
        let mut flipped = bytes.clone();
        flipped[HEADER_LEN + 40] ^= 1;
        assert!(matches!(
            open(&flipped, 11, 0..u64::MAX),
            Err(StreamError::Codec(CodecError::BadChecksum))
        ));
        assert!(open(&bytes[..bytes.len() - 1], 11, 0..u64::MAX).is_err());
        assert!(open(&[], 11, 0..u64::MAX).is_err());
    }

    #[test]
    fn writer_rejects_out_of_range_instruction_counts() {
        let mut w = StreamWriter::new(Vec::new(), 0);
        for insts in [0, MAX_INSTS + 1] {
            let ev = L1Event {
                insts,
                outcome: L1Outcome::Hit,
            };
            assert!(w.push(&ev).is_err());
        }
    }
}
