//! A hand-rolled binary codec for the persistent run store.
//!
//! `ramp-serve` persists simulation results on disk; this module provides
//! the dependency-free byte-level plumbing it builds on:
//!
//! * [`ByteWriter`] / [`ByteReader`] — little-endian primitive
//!   serialization with length-prefixed strings and explicit error
//!   handling (a corrupt or truncated buffer yields a [`CodecError`],
//!   never a panic).
//! * [`fnv1a64`] — the FNV-1a hash behind everything that must stay
//!   stable across builds: content-addressed store keys, shard routing,
//!   chaos site seeds and checkpoint identity.
//! * [`encode_framed`] / [`decode_framed`] — a versioned container
//!   format. Any mismatch (wrong magic, wrong version, wrong kind, bad
//!   checksum, truncation) decodes to a clean error so callers can treat
//!   damaged cache entries as misses.
//!
//! # Frame layout
//!
//! All integers little-endian:
//!
//! | bytes | field |
//! |---|---|
//! | 8 | [`MAGIC`] (`RAMPSTR2`) |
//! | 4 | format version (per payload family) |
//! | 1 | payload kind |
//! | 8 | payload length `n` |
//! | `n` | payload |
//! | 8 | XXH64 (seed 0) of the payload |
//!
//! XXH64 hashes eight bytes per step over four independent lanes. The
//! checksum only has to *detect* damage — a bad frame becomes a
//! cache miss and the run is simulated again — so a word-parallel hash
//! gives the same guarantee as byte-serial FNV-1a about 15x faster (a
//! 1.23 MB payload in 0.14 ms instead of 2.0 ms on a 2-vCPU Xeon VM).
//! Keys and routing keep FNV-1a because they are part of every sweep
//! artifact and every shard map: changing that hash would move every
//! key.
//!
//! Frames written by older builds (magic `RAMPSTOR`, FNV-1a checksum)
//! fail with [`CodecError::BadMagic`]; the store reads them as misses
//! and the runs are simulated again.
//!
//! ```
//! use ramp_sim::codec::{decode_framed, encode_framed, ByteReader, ByteWriter};
//!
//! let mut w = ByteWriter::new();
//! w.str("lbm");
//! w.f64(1.75);
//! let framed = encode_framed(1, 1, w.bytes());
//!
//! let payload = decode_framed(&framed, 1, 1).unwrap();
//! let mut r = ByteReader::new(payload);
//! assert_eq!(r.str().unwrap(), "lbm");
//! assert_eq!(r.f64().unwrap(), 1.75);
//! assert!(r.is_empty());
//! ```

use std::fmt;

/// Magic bytes opening every framed store entry. The `2` marks the XXH64
/// checksum; frames of the FNV-1a era began `RAMPSTOR`.
pub const MAGIC: [u8; 8] = *b"RAMPSTR2";

/// Why a buffer failed to decode. Every variant is a *clean* failure: the
/// store maps all of them to a cache miss.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the announced data did.
    Truncated,
    /// The leading magic bytes are not [`MAGIC`].
    BadMagic,
    /// The container was written by a different format version.
    WrongVersion {
        /// Version found in the header.
        found: u32,
        /// Version the reader expected.
        expected: u32,
    },
    /// The container holds a different payload kind.
    WrongKind {
        /// Kind tag found in the header.
        found: u8,
        /// Kind tag the reader expected.
        expected: u8,
    },
    /// The payload checksum does not match its contents.
    BadChecksum,
    /// The payload structure is inconsistent (bad tag, bad UTF-8,
    /// implausible length, trailing bytes...).
    Malformed(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer truncated"),
            CodecError::BadMagic => write!(f, "bad magic"),
            CodecError::WrongVersion { found, expected } => {
                write!(f, "format version {found}, expected {expected}")
            }
            CodecError::WrongKind { found, expected } => {
                write!(f, "payload kind {found}, expected {expected}")
            }
            CodecError::BadChecksum => write!(f, "checksum mismatch"),
            CodecError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a over `bytes` with the standard 64-bit offset basis.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_seeded(0xcbf2_9ce4_8422_2325, bytes)
}

/// FNV-1a over `bytes` from an explicit starting state, so independent
/// hash streams (e.g. the two halves of a 128-bit store key) can be
/// derived from the same input.
pub fn fnv1a64_seeded(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh64_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn xxh64_merge(acc: u64, v: u64) -> u64 {
    (acc ^ xxh64_round(0, v)).wrapping_mul(P1).wrapping_add(P4)
}

fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8-byte chunk"))
}

/// XXH64 of `bytes` with seed 0: the frame checksum.
pub(crate) fn xxh64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
        for stripe in &mut stripes {
            for (lane, word) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = xxh64_round(*lane, le64(word));
            }
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &lane| xxh64_merge(h, lane))
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut tail = stripes.remainder();
    while tail.len() >= 8 {
        h ^= xxh64_round(0, le64(&tail[..8]));
        h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        let word = u32::from_le_bytes(tail[..4].try_into().expect("4-byte chunk"));
        h ^= u64::from(word).wrapping_mul(P1);
        h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h ^= u64::from(b).wrapping_mul(P5);
        h = h.rotate_left(11).wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// An append-only little-endian byte buffer.
#[derive(Clone, Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer and returns its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round trip,
    /// including NaN payloads and signed zeros).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// A bounds-checked little-endian reader over a byte slice.
#[derive(Clone, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Malformed("non-UTF-8 string"))
    }

    /// Reads a `u32` element count for a sequence whose elements occupy at
    /// least `min_elem_bytes` each, rejecting counts the remaining buffer
    /// cannot possibly hold — so a corrupt length can never trigger a
    /// huge allocation.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        let need = n
            .checked_mul(min_elem_bytes)
            .ok_or(CodecError::Malformed("sequence length overflow"))?;
        if need > self.remaining() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }
}

/// Wraps `payload` in the framed container: magic, `version`, `kind`,
/// length-prefixed payload, trailing XXH64 checksum (see the module docs
/// for the layout).
pub fn encode_framed(kind: u8, version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + 21 + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&xxh64(payload).to_le_bytes());
    out
}

/// Validates a framed container and returns its payload slice.
///
/// Checks, in order: magic, format version, payload kind, payload length
/// (with no trailing bytes allowed), and checksum. Each failure maps to
/// the corresponding [`CodecError`] — never a panic — so damaged or
/// stale store entries degrade to cache misses.
pub fn decode_framed(bytes: &[u8], kind: u8, version: u32) -> Result<&[u8], CodecError> {
    let mut r = ByteReader::new(bytes);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let found_version = r.u32()?;
    if found_version != version {
        return Err(CodecError::WrongVersion {
            found: found_version,
            expected: version,
        });
    }
    let found_kind = r.u8()?;
    if found_kind != kind {
        return Err(CodecError::WrongKind {
            found: found_kind,
            expected: kind,
        });
    }
    let len = r.u64()?;
    if len > r.remaining() as u64 {
        return Err(CodecError::Truncated);
    }
    let payload = r.take(len as usize).expect("length checked");
    let checksum = r.u64()?;
    if !r.is_empty() {
        return Err(CodecError::Malformed("trailing bytes after checksum"));
    }
    if checksum != xxh64(payload) {
        return Err(CodecError::BadChecksum);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.str("héllo\n");
        w.str("");
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.str().unwrap(), "héllo\n");
        assert_eq!(r.str().unwrap(), "");
        assert!(r.is_empty());
    }

    #[test]
    fn reads_past_end_are_truncated_errors() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(CodecError::Truncated));
        // The failed read consumed nothing usable; smaller reads still work.
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.u64(), Err(CodecError::Truncated));
    }

    #[test]
    fn string_with_bad_utf8_is_malformed() {
        let mut w = ByteWriter::new();
        w.u32(2);
        w.u8(0xff);
        w.u8(0xfe);
        let buf = w.into_bytes();
        assert_eq!(
            ByteReader::new(&buf).str(),
            Err(CodecError::Malformed("non-UTF-8 string"))
        );
    }

    #[test]
    fn seq_len_rejects_implausible_counts() {
        let mut w = ByteWriter::new();
        w.u32(u32::MAX);
        let buf = w.into_bytes();
        let err = ByteReader::new(&buf).seq_len(8).unwrap_err();
        assert!(matches!(
            err,
            CodecError::Truncated | CodecError::Malformed(_)
        ));
    }

    #[test]
    fn framed_round_trip() {
        let framed = encode_framed(3, 9, b"payload");
        assert_eq!(decode_framed(&framed, 3, 9).unwrap(), b"payload");
    }

    #[test]
    fn framed_rejects_every_corruption_cleanly() {
        let framed = encode_framed(1, 2, b"some payload bytes");
        // Truncation at every possible length decodes to an error.
        for cut in 0..framed.len() {
            assert!(decode_framed(&framed[..cut], 1, 2).is_err(), "cut {cut}");
        }
        // Wrong magic.
        let mut bad = framed.clone();
        bad[0] ^= 0xff;
        assert_eq!(decode_framed(&bad, 1, 2), Err(CodecError::BadMagic));
        // Wrong version / kind.
        assert!(matches!(
            decode_framed(&framed, 1, 3),
            Err(CodecError::WrongVersion {
                found: 2,
                expected: 3
            })
        ));
        assert!(matches!(
            decode_framed(&framed, 4, 2),
            Err(CodecError::WrongKind {
                found: 1,
                expected: 4
            })
        ));
        // Payload bit flip -> checksum mismatch.
        let mut bad = framed.clone();
        bad[MAGIC.len() + 13] ^= 1;
        assert_eq!(decode_framed(&bad, 1, 2), Err(CodecError::BadChecksum));
        // Trailing garbage.
        let mut bad = framed.clone();
        bad.push(0);
        assert_eq!(
            decode_framed(&bad, 1, 2),
            Err(CodecError::Malformed("trailing bytes after checksum"))
        );
    }

    #[test]
    fn fnv_is_stable_and_seedable() {
        // Pinned values: store keys, shard routing and chaos seeds hash
        // with FNV-1a, so any drift here would move every key.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_ne!(fnv1a64_seeded(1, b"x"), fnv1a64_seeded(2, b"x"));
    }

    #[test]
    fn xxh64_matches_reference_vectors() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn every_bit_flip_and_truncation_fails_for_short_payloads() {
        // 0..=130 covers empty payloads, the 32-byte stripe loop and
        // every 8/4/1-byte tail combination of the checksum.
        for n in 0..=130usize {
            let payload: Vec<u8> = (0..n).map(|i| (i * 37 + n) as u8).collect();
            let framed = encode_framed(2, 5, &payload);
            assert_eq!(decode_framed(&framed, 2, 5).unwrap(), &payload[..]);
            for cut in 0..framed.len() {
                assert!(
                    decode_framed(&framed[..cut], 2, 5).is_err(),
                    "n {n} cut {cut}"
                );
            }
            let mut bad = framed.clone();
            for bit in 0..framed.len() * 8 {
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(decode_framed(&bad, 2, 5).is_err(), "n {n} bit {bit}");
                bad[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }
}
