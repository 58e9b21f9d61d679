//! A small hand-rolled binary codec.
//!
//! Both the deterministic simulator and the live TCP transport move the same
//! protocol messages, so the engine defines one canonical encoding here
//! rather than pulling in a serialization framework. The format is
//! little-endian, length-prefixed for variable-size data, and framed with a
//! CRC-32 checksum by the WAL and the TCP transport.
//!
//! The codec is intentionally boring: fixed-width integers, `u32`-prefixed
//! byte strings, and `u32`-prefixed sequences, written straight into a
//! `Vec<u8>` and read back from a borrowed slice. Every `Decode`
//! implementation validates lengths against the remaining buffer so a
//! corrupt or truncated frame yields [`Error::Codec`] instead of a panic.

use crate::error::{Error, Result};

/// Serializes values into a growable buffer.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::with_capacity(64)
    }

    /// Creates an encoder with the given initial capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends a single byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a boolean as one byte (0 or 1).
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u32` length prefix followed by the raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        debug_assert!(v.len() <= u32::MAX as usize);
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends a length-prefixed sequence of encodable values.
    pub fn put_seq<T: Encode>(&mut self, items: &[T]) {
        debug_assert!(items.len() <= u32::MAX as usize);
        self.put_u32(items.len() as u32);
        for item in items {
            item.encode(self);
        }
    }

    /// Appends an optional value as a presence byte plus the value.
    pub fn put_option<T: Encode>(&mut self, v: &Option<T>) {
        match v {
            Some(inner) => {
                self.put_bool(true);
                inner.encode(self);
            }
            None => self.put_bool(false),
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finalizes the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Deserializes values from a byte slice.
pub struct Decoder<'a> {
    buf: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Wraps a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf }
    }

    /// Consumes the next `n` bytes, or fails without consuming any.
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(Error::Codec(format!(
                "buffer underrun: need {n} bytes, have {}",
                self.buf.len()
            )));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Consumes the next `N` bytes as an array.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16> {
        self.take_array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        self.take_array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        self.take_array().map(u64::from_le_bytes)
    }

    /// Reads a boolean, rejecting bytes other than 0/1.
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(Error::Codec(format!("invalid bool byte {b:#04x}"))),
        }
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.get_u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes).map_err(|e| Error::Codec(format!("invalid utf8: {e}")))
    }

    /// Reads a length-prefixed sequence of decodable values.
    pub fn get_seq<T: Decode>(&mut self) -> Result<Vec<T>> {
        let len = self.get_u32()? as usize;
        // Guard against absurd lengths in corrupt frames: each element needs
        // at least one byte on the wire for every codec we define.
        if len > self.buf.len() {
            return Err(Error::Codec(format!(
                "sequence length {len} exceeds remaining {} bytes",
                self.buf.len()
            )));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(self)?);
        }
        Ok(out)
    }

    /// Reads an optional value written by [`Encoder::put_option`].
    pub fn get_option<T: Decode>(&mut self) -> Result<Option<T>> {
        if self.get_bool()? {
            Ok(Some(T::decode(self)?))
        } else {
            Ok(None)
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// True when the whole buffer was consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Types which can be written with an [`Encoder`].
pub trait Encode {
    /// Appends `self` to the encoder.
    fn encode(&self, e: &mut Encoder);

    /// Convenience: encode into a fresh buffer.
    fn encode_to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        self.encode(&mut e);
        e.finish()
    }

    /// Encodes onto the end of `out` in place, reusing its capacity —
    /// the hot-path entry for pooled buffers.
    fn encode_append(&self, out: &mut Vec<u8>) {
        let mut e = Encoder {
            buf: std::mem::take(out),
        };
        self.encode(&mut e);
        *out = e.finish();
    }
}

/// Types which can be read with a [`Decoder`].
pub trait Decode: Sized {
    /// Parses one value, consuming bytes from the decoder.
    fn decode(d: &mut Decoder<'_>) -> Result<Self>;

    /// Convenience: decode a value that must span the entire buffer.
    fn decode_all(buf: &[u8]) -> Result<Self> {
        let mut d = Decoder::new(buf);
        let v = Self::decode(&mut d)?;
        if !d.is_empty() {
            return Err(Error::Codec(format!(
                "{} trailing bytes after decode",
                d.remaining()
            )));
        }
        Ok(v)
    }
}

impl Encode for u64 {
    fn encode(&self, e: &mut Encoder) {
        e.put_u64(*self);
    }
}

impl Decode for u64 {
    fn decode(d: &mut Decoder<'_>) -> Result<Self> {
        d.get_u64()
    }
}

impl Encode for u32 {
    fn encode(&self, e: &mut Encoder) {
        e.put_u32(*self);
    }
}

impl Decode for u32 {
    fn decode(d: &mut Decoder<'_>) -> Result<Self> {
        d.get_u32()
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), implemented locally
/// so the WAL and transport need no external checksum crate.
pub fn crc32(data: &[u8]) -> u32 {
    // Table generated at first use; 1 KiB, cheap to keep static.
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut e = Encoder::new();
        e.put_u8(0xAB);
        e.put_u16(0xCDEF);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(0x0123_4567_89AB_CDEF);
        e.put_bool(true);
        e.put_bool(false);
        let b = e.finish();
        let mut d = Decoder::new(&b);
        assert_eq!(d.get_u8().unwrap(), 0xAB);
        assert_eq!(d.get_u16().unwrap(), 0xCDEF);
        assert_eq!(d.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert!(d.get_bool().unwrap());
        assert!(!d.get_bool().unwrap());
        assert!(d.is_empty());
    }

    #[test]
    fn bytes_and_strings_roundtrip() {
        let mut e = Encoder::new();
        e.put_bytes(b"hello");
        e.put_str("world \u{1F980}");
        e.put_bytes(b"");
        let b = e.finish();
        let mut d = Decoder::new(&b);
        assert_eq!(d.get_bytes().unwrap(), b"hello");
        assert_eq!(d.get_str().unwrap(), "world \u{1F980}");
        assert_eq!(d.get_bytes().unwrap(), b"");
        assert!(d.is_empty());
    }

    #[test]
    fn sequences_and_options_roundtrip() {
        let mut e = Encoder::new();
        e.put_seq(&[1u64, 2, 3]);
        e.put_option(&Some(9u32));
        e.put_option::<u32>(&None);
        let b = e.finish();
        let mut d = Decoder::new(&b);
        assert_eq!(d.get_seq::<u64>().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.get_option::<u32>().unwrap(), Some(9));
        assert_eq!(d.get_option::<u32>().unwrap(), None);
    }

    #[test]
    fn underrun_is_an_error_not_a_panic() {
        let mut d = Decoder::new(&[1, 2]);
        assert!(d.get_u32().is_err());
    }

    #[test]
    fn invalid_bool_rejected() {
        let mut d = Decoder::new(&[7]);
        assert!(d.get_bool().is_err());
    }

    #[test]
    fn oversized_sequence_length_rejected() {
        // Claims 10 000 elements but carries no payload.
        let mut e = Encoder::new();
        e.put_u32(10_000);
        let b = e.finish();
        let mut d = Decoder::new(&b);
        assert!(d.get_seq::<u64>().is_err());
    }

    #[test]
    fn truncated_bytes_rejected() {
        let mut e = Encoder::new();
        e.put_u32(100); // length prefix promising 100 bytes
        e.put_u8(1); // only one present
        let b = e.finish();
        let mut d = Decoder::new(&b);
        assert!(d.get_bytes().is_err());
    }

    #[test]
    fn decode_all_rejects_trailing_garbage() {
        let mut e = Encoder::new();
        e.put_u64(5);
        e.put_u8(0xFF);
        let b = e.finish();
        assert!(u64::decode_all(&b).is_err());
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_single_bit_flip() {
        let mut data = b"the quick brown fox".to_vec();
        let original = crc32(&data);
        data[3] ^= 0x01;
        assert_ne!(crc32(&data), original);
    }
}
