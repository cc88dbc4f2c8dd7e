//! Low-level wire helpers: length-prefixed primitives and truncation-safe
//! scalar reads.
//!
//! The codecs built on these helpers carry no checksum of their own:
//! every stored object is wrapped in the CRC-checked envelope of
//! [`cnr_storage::envelope`], and WAL records ride inside CRC-checked
//! frames, so codecs only ever parse bytes that were already verified.
//! The readers still reject truncated input with a typed error rather
//! than panicking.

use bytes::{Buf, BufMut};

use crate::error::CnrError;

/// FNV-1a 64-bit hash. No checkpoint path uses it — the envelope CRC is
/// the only integrity check; its one caller is the benchmark's kernel
/// probe (`wire.checksum_mb_s`).
pub fn checksum(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_string(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string.
pub fn get_string(buf: &mut &[u8]) -> Result<String, CnrError> {
    if buf.remaining() < 4 {
        return Err(CnrError::Corrupt("string header truncated".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(CnrError::Corrupt("string body truncated".into()));
    }
    let s = String::from_utf8(buf[..len].to_vec())
        .map_err(|_| CnrError::Corrupt("string is not UTF-8".into()))?;
    buf.advance(len);
    Ok(s)
}

/// Appends a length-prefixed `f32` slice.
pub fn put_f32s(buf: &mut Vec<u8>, values: &[f32]) {
    buf.put_u32_le(values.len() as u32);
    for &v in values {
        buf.put_f32_le(v);
    }
}

/// Reads a length-prefixed `f32` slice.
pub fn get_f32s(buf: &mut &[u8]) -> Result<Vec<f32>, CnrError> {
    if buf.remaining() < 4 {
        return Err(CnrError::Corrupt("f32s header truncated".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len * 4 {
        return Err(CnrError::Corrupt("f32s body truncated".into()));
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(buf.get_f32_le());
    }
    Ok(out)
}

/// Reads a `u64`, erroring on truncation.
pub fn get_u64(buf: &mut &[u8]) -> Result<u64, CnrError> {
    if buf.remaining() < 8 {
        return Err(CnrError::Corrupt("u64 truncated".into()));
    }
    Ok(buf.get_u64_le())
}

/// Reads a `u32`, erroring on truncation.
pub fn get_u32(buf: &mut &[u8]) -> Result<u32, CnrError> {
    if buf.remaining() < 4 {
        return Err(CnrError::Corrupt("u32 truncated".into()));
    }
    Ok(buf.get_u32_le())
}

/// Reads a `u16`, erroring on truncation.
pub fn get_u16(buf: &mut &[u8]) -> Result<u16, CnrError> {
    if buf.remaining() < 2 {
        return Err(CnrError::Corrupt("u16 truncated".into()));
    }
    Ok(buf.get_u16_le())
}

/// Reads a `u8`, erroring on truncation.
pub fn get_u8(buf: &mut &[u8]) -> Result<u8, CnrError> {
    if buf.remaining() < 1 {
        return Err(CnrError::Corrupt("u8 truncated".into()));
    }
    Ok(buf.get_u8())
}

/// Reads an `f64`, erroring on truncation.
pub fn get_f64(buf: &mut &[u8]) -> Result<f64, CnrError> {
    if buf.remaining() < 8 {
        return Err(CnrError::Corrupt("f64 truncated".into()));
    }
    Ok(buf.get_f64_le())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_stable_and_sensitive() {
        let a = checksum(b"hello");
        assert_eq!(a, checksum(b"hello"));
        assert_ne!(a, checksum(b"hellp"));
        assert_ne!(checksum(b""), 0);
    }

    #[test]
    fn string_roundtrip() {
        let mut buf = Vec::new();
        put_string(&mut buf, "ckpt/00042/chunk-7");
        let mut slice = buf.as_slice();
        assert_eq!(get_string(&mut slice).unwrap(), "ckpt/00042/chunk-7");
    }

    #[test]
    fn string_rejects_bad_utf8() {
        let mut buf = Vec::new();
        buf.put_u32_le(2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut slice = buf.as_slice();
        assert!(get_string(&mut slice).is_err());
    }

    #[test]
    fn f32s_roundtrip() {
        let vals = vec![1.5f32, -0.25, f32::MIN_POSITIVE, 0.0];
        let mut buf = Vec::new();
        put_f32s(&mut buf, &vals);
        let mut slice = buf.as_slice();
        assert_eq!(get_f32s(&mut slice).unwrap(), vals);
    }

    #[test]
    fn scalar_truncation_errors() {
        let empty: &[u8] = &[];
        assert!(get_u64(&mut { empty }).is_err());
        assert!(get_u32(&mut { empty }).is_err());
        assert!(get_u16(&mut { empty }).is_err());
        assert!(get_u8(&mut { empty }).is_err());
        assert!(get_f64(&mut { empty }).is_err());
    }
}
