//! Little-endian byte-level framing shared by the snapshot reader and
//! writer: a growable [`Writer`], a fail-closed cursor [`Reader`], and the
//! FNV-1a-64 checksum the snapshot header carries.
//!
//! Everything is length-prefixed (`u64` counts) and fixed-width
//! little-endian, so the format has no alignment, endianness, or
//! delimiter-escaping concerns; the reader refuses to run past the end of
//! its buffer and reports *what* it wanted, which the snapshot layer
//! surfaces as a `Malformed` error.

/// FNV-1a, 64-bit: the offset-basis/prime pair from the reference spec.
/// Not cryptographic — it guards against torn writes and bit rot, not
/// adversaries — but it is simple, dependency-free, and byte-order stable.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The snapshot payload checksum: FNV-1a's offset/prime pair absorbing
/// eight-byte little-endian lanes at a time, with any trailing bytes
/// absorbed individually. One multiply per word keeps checksum time a
/// small fraction of the sequential read even on multi-megabyte
/// payloads, which matters because the whole payload is hashed on every
/// load. The xor/odd-multiply round is bijective in the lane, so any
/// single-lane corruption (in particular any single bit flip) is always
/// detected. Distinct from plain [`fnv1a64`] — the lane width is part of
/// the format.
pub fn fnv1a64x8(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut lanes = bytes.chunks_exact(8);
    for lane in &mut lanes {
        h ^= u64::from_le_bytes(lane.try_into().expect("8-byte lane"));
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &b in lanes.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An append-only byte buffer with fixed-width little-endian primitives.
#[derive(Debug, Default)]
pub struct Writer {
    /// The accumulated bytes.
    pub buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length/count as a `u64`.
    pub fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// A cursor over a byte slice whose every read is bounds-checked; an
/// overrun or a malformed primitive returns a description instead of
/// panicking or yielding garbage.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

// `len` here is "read a length prefix", not a collection length, so the
// usual `is_empty` pairing does not apply.
#[allow(clippy::len_without_is_empty)]
impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "payload overrun: wanted {n} byte(s), {} left",
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a length/count. Rejects counts that could not possibly fit in
    /// the remaining payload (one byte per element minimum), so a
    /// corrupted count cannot drive a giant allocation.
    pub fn len(&mut self) -> Result<usize, String> {
        let v = self.u64()?;
        let v = usize::try_from(v).map_err(|_| format!("count {v} exceeds address space"))?;
        if v > self.remaining() {
            return Err(format!(
                "count {v} exceeds the {} remaining payload byte(s)",
                self.remaining()
            ));
        }
        Ok(v)
    }

    /// Reads a count and skips that many `width`-byte elements without
    /// decoding them. An element run longer than the remaining payload is
    /// an overrun, like any other read.
    pub fn skip_array(&mut self, width: usize) -> Result<(), String> {
        let n = self.len()?;
        let bytes = n
            .checked_mul(width)
            .ok_or_else(|| format!("count {n} of {width}-byte elements overflows"))?;
        self.take(bytes).map(|_| ())
    }

    /// Reads a one-byte bool; anything other than 0/1 is malformed.
    pub fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("bad bool byte {b}")),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, String> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid UTF-8 in string".to_string())
    }

    /// Succeeds only if every byte was consumed: trailing garbage after a
    /// well-formed payload is a malformed snapshot, not padding.
    pub fn finish(self) -> Result<(), String> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(format!(
                "{} trailing byte(s) after payload",
                self.remaining()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv1a64x8_lane_behavior() {
        // Sub-lane inputs fall through to the byte-wise rounds and agree
        // with plain FNV-1a.
        assert_eq!(fnv1a64x8(b""), fnv1a64(b""));
        assert_eq!(fnv1a64x8(b"foobar"), fnv1a64(b"foobar"));
        // At and beyond one lane the functions intentionally diverge.
        assert_ne!(fnv1a64x8(b"12345678"), fnv1a64(b"12345678"));
        // One full lane equals one absorb round: (basis ^ lane) * prime.
        let lane = u64::from_le_bytes(*b"12345678");
        assert_eq!(
            fnv1a64x8(b"12345678"),
            (0xcbf2_9ce4_8422_2325u64 ^ lane).wrapping_mul(0x0000_0100_0000_01b3)
        );
        // Any single bit flip changes the checksum.
        let mut buf = b"guarded tgd snapshot payload!".to_vec();
        let h = fnv1a64x8(&buf);
        for i in 0..buf.len() {
            buf[i] ^= 0x10;
            assert_ne!(fnv1a64x8(&buf), h, "flip at byte {i} undetected");
            buf[i] ^= 0x10;
        }
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(65534);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.bool(true);
        w.str("chase ⊥ fixpoint");
        w.len(3);
        let mut r = Reader::new(&w.buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 65534);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "chase ⊥ fixpoint");
        assert_eq!(r.u64().unwrap(), 3);
        r.finish().unwrap();
    }

    #[test]
    fn reads_fail_closed() {
        let mut r = Reader::new(&[1, 0]);
        assert!(r.u32().unwrap_err().contains("overrun"));
        // The failed read consumed nothing; smaller reads still work.
        assert_eq!(r.u16().unwrap(), 1);
        let mut r = Reader::new(&[2]);
        assert!(r.bool().unwrap_err().contains("bad bool"));
        // A count larger than the remaining payload is rejected before any
        // allocation happens.
        let mut w = Writer::new();
        w.u64(1 << 40);
        let mut r = Reader::new(&w.buf);
        assert!(r.len().unwrap_err().contains("exceeds"));
        // A skipped run of wide elements must fit the payload too.
        let mut w = Writer::new();
        w.len(3);
        w.u32(7);
        w.u32(8);
        let mut r = Reader::new(&w.buf);
        assert!(r.skip_array(4).unwrap_err().contains("overrun"));
        let mut r = Reader::new(&w.buf);
        r.skip_array(2).unwrap();
        assert_eq!(r.remaining(), 2);
        // Non-UTF-8 string bytes are malformed, not lossily decoded.
        let mut w = Writer::new();
        w.len(2);
        w.u8(0xff);
        w.u8(0xfe);
        assert!(Reader::new(&w.buf).str().unwrap_err().contains("UTF-8"));
        // Trailing bytes are an error.
        assert!(Reader::new(&[0]).finish().unwrap_err().contains("trailing"));
    }
}
