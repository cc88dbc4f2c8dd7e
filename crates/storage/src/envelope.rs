//! Self-describing checksummed object envelope.
//!
//! Production object stores exhibit bit-rot, truncated multipart uploads,
//! and stale replicas. Every object the checkpoint pipeline stores —
//! chunks and manifests alike — is wrapped in a 16-byte envelope that
//! makes the object self-describing and end-to-end verifiable at every
//! read site:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//!      0     4  magic        b"CNR3"
//!      4     2  version      u16 LE, = 4
//!      6     2  flags        u16 LE (bit 0: payload is a manifest)
//!      8     4  payload_len  u32 LE, exact length of payload
//!     12     4  crc32        u32 LE, CRC-32 (IEEE) over bytes
//!                            [4, 12) of the header ++ payload
//!     16     …  payload      the object's codec bytes
//! ```
//!
//! The checksum covers the header fields as well as the payload, so a bit
//! flip anywhere past the magic is detected — including flips that land
//! on defined flag bits — and a flip in the magic leaves an object without
//! an envelope, which is rejected just the same. The envelope is the only
//! integrity check: payload codecs carry no checksum of their own. The
//! version names the payload layout; objects of any other version are
//! rejected, never misparsed.
//!
//! The parser is hardened against untrusted input: it never panics on
//! short or garbage buffers, never allocates (it returns subslices), and
//! validates `payload_len` against the actual buffer before trusting it.

use crate::{Result, StorageError};

/// Envelope magic: the first four bytes of every stored object.
pub const MAGIC: [u8; 4] = *b"CNR3";

/// Envelope wire version. Version 4 payloads carry no inner checksum
/// frame; version 3 objects are rejected.
pub const VERSION: u16 = 4;

/// Envelope header length in bytes.
pub const HEADER_LEN: usize = 16;

/// Flag bit: the payload is a manifest (informational; readers key off the
/// payload's own magic, the scrubber uses it for reporting).
pub const FLAG_MANIFEST: u16 = 1 << 0;

/// Flag bit: the payload is one frame of a write-ahead delta log segment.
/// WAL segments are bare concatenations of enveloped frames, so a reader
/// seeing this bit knows the object must be walked frame by frame (see
/// [`crate::wal`]) rather than unwrapped as a single envelope.
pub const FLAG_WAL_FRAME: u16 = 1 << 1;

/// All flag bits a reader understands; unknown bits are corruption.
const KNOWN_FLAGS: u16 = FLAG_MANIFEST | FLAG_WAL_FRAME;

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) lookup table,
/// built at compile time so the hot verify path is a table walk.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_feed(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Feeds `data` into a raw (pre-finalization) CRC-32 state.
fn crc32_feed(mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        state = CRC_TABLE[((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// The envelope checksum: CRC-32 over header bytes `[4, 12)` (version,
/// flags, payload_len) followed by the payload.
fn envelope_crc(header_fields: &[u8], payload: &[u8]) -> u32 {
    debug_assert_eq!(header_fields.len(), 8);
    crc32_feed(crc32_feed(0xFFFF_FFFF, header_fields), payload) ^ 0xFFFF_FFFF
}

/// Wraps `payload` in an envelope with the given flags.
pub fn wrap_with_flags(payload: &[u8], flags: u16) -> Vec<u8> {
    assert!(
        payload.len() <= u32::MAX as usize,
        "envelope payload exceeds u32 length field"
    );
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = envelope_crc(&out[4..12], payload);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Wraps `payload` in an envelope with no flags set.
pub fn wrap(payload: &[u8]) -> Vec<u8> {
    wrap_with_flags(payload, 0)
}

#[inline]
fn read_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([buf[at], buf[at + 1]])
}

#[inline]
fn read_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

/// Validates the envelope in `buf` and returns `(flags, payload)`. This is
/// the one call every read site makes before handing bytes to a codec.
///
/// Errors with [`StorageError::Corrupt`] if the buffer is not a
/// well-formed, checksum-clean envelope — bytes without the magic
/// included. Never panics and never allocates for the payload — the
/// returned slice borrows from `buf`.
pub fn unwrap(buf: &[u8]) -> Result<(u16, &[u8])> {
    if buf.len() < MAGIC.len() || buf[..MAGIC.len()] != MAGIC {
        return Err(StorageError::Corrupt("missing envelope magic".to_string()));
    }
    if buf.len() < HEADER_LEN {
        return Err(StorageError::Corrupt(format!(
            "truncated envelope header: {} of {HEADER_LEN} bytes",
            buf.len()
        )));
    }
    let version = read_u16(buf, 4);
    if version != VERSION {
        return Err(StorageError::Corrupt(format!(
            "unsupported envelope version {version} (expected {VERSION})"
        )));
    }
    let flags = read_u16(buf, 6);
    if flags & !KNOWN_FLAGS != 0 {
        return Err(StorageError::Corrupt(format!(
            "unknown envelope flags {flags:#06x}"
        )));
    }
    let payload_len = read_u32(buf, 8) as usize;
    let actual = buf.len() - HEADER_LEN;
    if payload_len != actual {
        return Err(StorageError::Corrupt(format!(
            "envelope length mismatch: header says {payload_len} bytes, object carries {actual}"
        )));
    }
    let payload = &buf[HEADER_LEN..];
    let expected = read_u32(buf, 12);
    let got = envelope_crc(&buf[4..12], payload);
    if got != expected {
        return Err(StorageError::Corrupt(format!(
            "envelope checksum mismatch: stored {expected:#010x}, computed {got:#010x}"
        )));
    }
    Ok((flags, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn wrap_unwrap_roundtrip() {
        for payload in [&b""[..], b"x", b"hello world", &[0u8; 1000][..]] {
            let enveloped = wrap(payload);
            assert_eq!(enveloped.len(), HEADER_LEN + payload.len());
            let (flags, back) = unwrap(&enveloped).unwrap();
            assert_eq!(flags, 0);
            assert_eq!(back, payload);
        }
    }

    #[test]
    fn flags_roundtrip_and_unknown_flags_reject() {
        let enveloped = wrap_with_flags(b"m", FLAG_MANIFEST);
        let (flags, _) = unwrap(&enveloped).unwrap();
        assert_eq!(flags, FLAG_MANIFEST);

        let mut bad = wrap(b"m");
        bad[6] |= 0x80; // set an undefined flag bit
        assert!(matches!(unwrap(&bad), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn bytes_without_the_magic_are_corrupt() {
        for bare in [&b""[..], b"CNR", b"CNRM....not an envelope", &[0u8; 64][..]] {
            match unwrap(bare) {
                Err(StorageError::Corrupt(why)) => assert!(why.contains("magic"), "{why}"),
                other => panic!("bare bytes accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let enveloped = wrap(b"some checkpoint chunk payload");
        for byte in 0..enveloped.len() {
            for bit in 0..8 {
                let mut bad = enveloped.clone();
                bad[byte] ^= 1 << bit;
                // Magic flips included: bytes without the magic are
                // corrupt, not a different format.
                assert!(
                    matches!(unwrap(&bad), Err(StorageError::Corrupt(_))),
                    "flip at byte {byte} bit {bit} not detected"
                );
            }
        }
    }

    #[test]
    fn truncation_and_extension_are_detected() {
        let enveloped = wrap(b"0123456789abcdef");
        for keep in 0..enveloped.len() {
            assert!(
                matches!(unwrap(&enveloped[..keep]), Err(StorageError::Corrupt(_))),
                "truncation to {keep} bytes not detected"
            );
        }
        let mut extended = enveloped.clone();
        extended.push(0);
        assert!(matches!(unwrap(&extended), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn version_skew_is_rejected() {
        for version in [3u16, 5] {
            let mut skewed = wrap(b"payload");
            skewed[4..6].copy_from_slice(&version.to_le_bytes());
            match unwrap(&skewed) {
                Err(StorageError::Corrupt(why)) => {
                    assert!(why.contains("unsupported envelope version"), "{why}")
                }
                other => panic!("version {version} accepted: {other:?}"),
            }
        }
    }

    /// Fuzz-style hardening: the parser must never panic and never
    /// allocate proportionally to untrusted length fields, for random
    /// buffers and for random mutations/truncations of valid envelopes.
    /// Seeded xorshift — deterministic, no external fuzzer.
    #[test]
    fn parser_survives_random_and_truncated_input() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };

        // Pure garbage of many lengths, magic-prefixed garbage included.
        for round in 0..2000 {
            let len = (next() % 96) as usize;
            let mut buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            if round % 3 == 0 && buf.len() >= 4 {
                buf[..4].copy_from_slice(&MAGIC);
            }
            let _ = unwrap(&buf);
        }

        // A huge claimed payload_len over a tiny buffer must not allocate.
        let mut lying = wrap(b"tiny");
        lying[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(unwrap(&lying), Err(StorageError::Corrupt(_))));

        // Random single-byte mutations of a valid envelope: either valid
        // (mutation missed — impossible here, but allowed by the API) or a
        // clean error. Never a panic, never wrong payload bytes.
        let valid = wrap(b"the payload being protected");
        for _ in 0..2000 {
            let mut buf = valid.clone();
            let at = (next() % buf.len() as u64) as usize;
            buf[at] ^= (next() % 255 + 1) as u8;
            if let Ok((_, payload)) = unwrap(&buf) {
                assert_eq!(payload, b"the payload being protected");
            }
            let keep = (next() % (buf.len() as u64 + 1)) as usize;
            let _ = unwrap(&buf[..keep]);
        }
    }
}
