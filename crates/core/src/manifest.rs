//! Checkpoint manifests and chunk payloads.
//!
//! A checkpoint is a **manifest** object plus N **chunk** objects in the
//! store. The manifest is self-describing: identity, kind (full or
//! incremental), the base pointer for chain restoration, quantization
//! scheme, model geometry, the (tiny) MLP parameters inline, the reader
//! state, and the list of chunk keys with their sizes. Chunks carry batches
//! of embedding rows: indices, optional optimizer state, and quantized
//! payloads.
//!
//! **Stored format.** Every stored object — manifest and chunk alike — is
//! the codec bytes wrapped in the checksummed envelope of
//! [`cnr_storage::envelope`] (magic `CNR3`, CRC-32 over header and
//! payload). The envelope is the only integrity check: the codecs below
//! carry no checksum of their own, and [`Manifest::decode`] /
//! [`ChunkPayload::decode`] reject any object without a valid envelope as
//! [`CnrError::Corrupt`]. A reader that has already verified the envelope
//! (the restore fetch scheduler does, to decide whether to refetch) parses
//! the payload directly with [`ChunkPayload::decode_payload`] instead of
//! checksumming it twice. The write path stores
//! [`Manifest::encode_enveloped`] / [`ChunkPayload::encode_enveloped`].

use crate::error::{CnrError, Result};
use crate::wire;
use bytes::BufMut;
use cnr_storage::envelope;
use cnr_quant::{QuantScheme, QuantizedRow};
use cnr_reader::ReaderState;
use serde::{Deserialize, Serialize};

/// Monotonically increasing checkpoint identity within a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CheckpointId(pub u64);

impl std::fmt::Display for CheckpointId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ckpt-{:08}", self.0)
    }
}

/// Full baseline or incremental delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckpointKind {
    /// Contains every embedding row.
    Full,
    /// Contains only rows modified relative to `base`.
    Incremental,
}

/// Geometry of one embedding table as stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableMeta {
    /// Row count.
    pub rows: u64,
    /// Embedding dimension.
    pub dim: u16,
    /// Whether rows carry a row-wise optimizer accumulator.
    pub has_optimizer_state: bool,
}

/// One stored chunk.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkMeta {
    /// Object key in the store.
    pub key: String,
    /// Writer host (shard) that produced and uploaded the chunk.
    pub shard: u16,
    /// Embedding rows in the chunk.
    pub rows: u32,
    /// Serialized size in bytes.
    pub bytes: u64,
    /// Multipart parts the chunk was uploaded in (1 = single part).
    pub parts: u32,
    /// Table the chunk's rows belong to.
    pub table: u16,
    /// Lowest row index in the chunk (`u32::MAX` for a chunk without rows).
    pub first_row: u32,
    /// Highest row index in the chunk (`u32::MAX` for a chunk without rows).
    pub last_row: u32,
}

/// Per-writer-host summary of a sharded checkpoint (§4.4: every trainer
/// host uploads its own row-range of every table in parallel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMeta {
    /// Writer host index.
    pub host: u16,
    /// Embedding rows this host stored.
    pub rows: u64,
    /// Chunks this host stored.
    pub chunks: u32,
    /// Payload bytes this host stored.
    pub bytes: u64,
    /// Multipart parts this host uploaded.
    pub parts: u32,
}

/// The checkpoint manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Checkpoint identity.
    pub id: CheckpointId,
    /// Full or incremental.
    pub kind: CheckpointKind,
    /// Checkpoint this delta applies on top of (`None` for full).
    pub base: Option<CheckpointId>,
    /// Trainer iteration at snapshot time.
    pub iteration: u64,
    /// Reader position at snapshot time (§4.1: gap-free by construction).
    pub reader_state: ReaderState,
    /// Quantization scheme of the chunk payloads.
    pub scheme: QuantScheme,
    /// Table geometry, index-aligned with the model.
    pub tables: Vec<TableMeta>,
    /// Flattened bottom-MLP parameters (FP32; MLPs are <1% of bytes).
    pub bottom_mlp: Vec<f32>,
    /// Flattened top-MLP parameters.
    pub top_mlp: Vec<f32>,
    /// Stored chunks, ordered by (shard, per-shard sequence). Chunks of one
    /// checkpoint cover disjoint rows, so application order across chunks
    /// is immaterial; the ordering is for determinism.
    pub chunks: Vec<ChunkMeta>,
    /// Per-writer-host summaries, ascending by host. A single-host write
    /// has exactly one entry; a write that lost hosts mid-upload lists only
    /// the hosts whose chunks the manifest references.
    pub shards: Vec<ShardMeta>,
    /// Total chunk payload bytes.
    pub payload_bytes: u64,
}

const MAGIC: u32 = 0x434E_524D; // "CNRM"
/// Manifest body version (the layout of the fields after magic + version).
const VERSION: u16 = 3;

/// Verifies a stored object's envelope and returns its payload. Every
/// decode of stored bytes funnels through this, so a missing or corrupt
/// envelope surfaces as [`CnrError::Corrupt`] at every read site.
fn unwrap_envelope(stored: &[u8]) -> Result<&[u8]> {
    envelope::unwrap(stored)
        .map(|(_, payload)| payload)
        .map_err(|e| CnrError::Corrupt(e.to_string()))
}

/// Rejects bytes left over after a complete decode: codec payloads are
/// exact, so extra bytes mean a malformed object.
fn expect_consumed(rest: &[u8], what: &str) -> Result<()> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(CnrError::Corrupt(format!(
            "{} trailing bytes after {what}",
            rest.len()
        )))
    }
}

impl Manifest {
    /// Storage key for a manifest of checkpoint `id` under `job`.
    pub fn key(job: &str, id: CheckpointId) -> String {
        format!("{job}/{id}/manifest")
    }

    /// Storage key for chunk `seq` uploaded by writer host `shard` of
    /// checkpoint `id` under `job`. The shard is padded to the full `u16`
    /// width so keys sort lexicographically in (shard, seq) order for any
    /// permitted host count.
    pub fn chunk_key(job: &str, id: CheckpointId, shard: u16, seq: u32) -> String {
        format!("{job}/{id}/shard-{shard:05}-chunk-{seq:06}")
    }

    /// Serializes the manifest payload (the bytes inside the envelope).
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        body.put_u32_le(MAGIC);
        body.put_u16_le(VERSION);
        body.put_u64_le(self.id.0);
        body.put_u8(match self.kind {
            CheckpointKind::Full => 0,
            CheckpointKind::Incremental => 1,
        });
        body.put_u64_le(self.base.map(|b| b.0).unwrap_or(u64::MAX));
        body.put_u64_le(self.iteration);
        body.put_u64_le(self.reader_state.next_batch);
        encode_scheme(&mut body, &self.scheme);
        body.put_u16_le(self.tables.len() as u16);
        for t in &self.tables {
            body.put_u64_le(t.rows);
            body.put_u16_le(t.dim);
            body.put_u8(t.has_optimizer_state as u8);
        }
        wire::put_f32s(&mut body, &self.bottom_mlp);
        wire::put_f32s(&mut body, &self.top_mlp);
        body.put_u32_le(self.chunks.len() as u32);
        for c in &self.chunks {
            wire::put_string(&mut body, &c.key);
            body.put_u16_le(c.shard);
            body.put_u32_le(c.rows);
            body.put_u64_le(c.bytes);
            body.put_u32_le(c.parts);
            body.put_u16_le(c.table);
            body.put_u32_le(c.first_row);
            body.put_u32_le(c.last_row);
        }
        body.put_u16_le(self.shards.len() as u16);
        for s in &self.shards {
            body.put_u16_le(s.host);
            body.put_u64_le(s.rows);
            body.put_u32_le(s.chunks);
            body.put_u64_le(s.bytes);
            body.put_u32_le(s.parts);
        }
        body.put_u64_le(self.payload_bytes);
        body
    }

    /// Serializes the manifest wrapped in the storage envelope — the bytes
    /// the write path actually stores.
    pub fn encode_enveloped(&self) -> Vec<u8> {
        envelope::wrap_with_flags(&self.encode(), envelope::FLAG_MANIFEST)
    }

    /// Verifies a stored manifest's envelope and parses its payload.
    pub fn decode(stored: &[u8]) -> Result<Self> {
        Self::decode_payload(unwrap_envelope(stored)?)
    }

    /// Parses a manifest payload whose envelope was already verified.
    pub fn decode_payload(payload: &[u8]) -> Result<Self> {
        let mut slice = payload;
        let b = &mut slice;
        let magic = wire::get_u32(b)?;
        if magic != MAGIC {
            return Err(CnrError::Corrupt(format!("bad manifest magic {magic:#x}")));
        }
        let version = wire::get_u16(b)?;
        if version != VERSION {
            return Err(CnrError::Corrupt(format!(
                "unsupported manifest version {version}"
            )));
        }

        let id = CheckpointId(wire::get_u64(b)?);
        let kind = match wire::get_u8(b)? {
            0 => CheckpointKind::Full,
            1 => CheckpointKind::Incremental,
            k => return Err(CnrError::Corrupt(format!("bad checkpoint kind {k}"))),
        };
        let base_raw = wire::get_u64(b)?;
        let base = (base_raw != u64::MAX).then_some(CheckpointId(base_raw));
        let iteration = wire::get_u64(b)?;
        let reader_state = ReaderState::at(wire::get_u64(b)?);
        let scheme = decode_scheme(b)?;
        let table_count = wire::get_u16(b)? as usize;
        let mut tables = Vec::with_capacity(table_count);
        for _ in 0..table_count {
            tables.push(TableMeta {
                rows: wire::get_u64(b)?,
                dim: wire::get_u16(b)?,
                has_optimizer_state: wire::get_u8(b)? != 0,
            });
        }
        let bottom_mlp = wire::get_f32s(b)?;
        let top_mlp = wire::get_f32s(b)?;
        let chunk_count = wire::get_u32(b)? as usize;
        // Counts come from the payload: never reserve more than it could hold.
        let mut chunks = Vec::with_capacity(chunk_count.min(b.len()));
        for _ in 0..chunk_count {
            let key = wire::get_string(b)?;
            let shard = wire::get_u16(b)?;
            let rows = wire::get_u32(b)?;
            let bytes = wire::get_u64(b)?;
            let parts = wire::get_u32(b)?;
            chunks.push(ChunkMeta {
                key,
                shard,
                rows,
                bytes,
                parts,
                table: wire::get_u16(b)?,
                first_row: wire::get_u32(b)?,
                last_row: wire::get_u32(b)?,
            });
        }
        let shard_count = wire::get_u16(b)? as usize;
        let mut shards = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            shards.push(ShardMeta {
                host: wire::get_u16(b)?,
                rows: wire::get_u64(b)?,
                chunks: wire::get_u32(b)?,
                bytes: wire::get_u64(b)?,
                parts: wire::get_u32(b)?,
            });
        }
        let payload_bytes = wire::get_u64(b)?;
        expect_consumed(b, "manifest")?;

        Ok(Self {
            id,
            kind,
            base,
            iteration,
            reader_state,
            scheme,
            tables,
            bottom_mlp,
            top_mlp,
            chunks,
            shards,
            payload_bytes,
        })
    }

    /// Size of the stored manifest object, envelope header included.
    pub fn stored_len(&self) -> u64 {
        (envelope::HEADER_LEN + self.encode().len()) as u64
    }

    /// Total bytes of this checkpoint as stored (manifest + chunks).
    pub fn total_bytes(&self) -> u64 {
        self.payload_bytes + self.stored_len()
    }
}

/// One chunk of embedding rows as stored.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkPayload {
    /// Which table the rows belong to.
    pub table: u16,
    /// Row indices within the table, ascending.
    pub row_indices: Vec<u32>,
    /// Row-wise optimizer accumulators (present iff the table has them).
    pub optimizer_state: Option<Vec<f32>>,
    /// Quantized row payloads, index-aligned with `row_indices`.
    pub rows: Vec<QuantizedRow>,
}

impl ChunkPayload {
    /// Serializes the chunk payload (the bytes inside the envelope).
    ///
    /// The per-row fixed header (kind/bits/dim) is hoisted to chunk level —
    /// every row of a chunk shares one scheme and one table geometry, and at
    /// 2-bit/dim-64 a redundant 4-byte per-row header would cost ~14% of
    /// the chunk (the §6.3.2 "metadata structure" the paper flags for
    /// optimization).
    pub fn encode(&self) -> Vec<u8> {
        debug_assert_eq!(self.rows.len(), self.row_indices.len());
        if let Some(acc) = &self.optimizer_state {
            debug_assert_eq!(acc.len(), self.row_indices.len());
        }
        let mut body = Vec::new();
        body.put_u16_le(self.table);
        body.put_u32_le(self.row_indices.len() as u32);
        body.put_u8(self.optimizer_state.is_some() as u8);
        // Chunk-level row context: all rows share kind/bits/dim.
        let (tag, bits, dim) = match self.rows.first() {
            Some(r) => (r.kind_tag(), r.bits, r.dim as u16),
            None => (0, 32, 0),
        };
        debug_assert!(
            self.rows
                .iter()
                .all(|r| r.kind_tag() == tag && r.bits == bits && r.dim as u16 == dim),
            "chunk mixes row encodings"
        );
        body.put_u8(tag);
        body.put_u8(bits);
        body.put_u16_le(dim);
        for &i in &self.row_indices {
            body.put_u32_le(i);
        }
        if let Some(acc) = &self.optimizer_state {
            for &a in acc {
                body.put_f32_le(a);
            }
        }
        for row in &self.rows {
            row.encode_body_into(&mut body);
        }
        body
    }

    /// Serializes the chunk wrapped in the storage envelope — the bytes
    /// the write path actually stores.
    pub fn encode_enveloped(&self) -> Vec<u8> {
        envelope::wrap(&self.encode())
    }

    /// Verifies a stored chunk's envelope and parses its payload.
    pub fn decode(stored: &[u8]) -> Result<Self> {
        Self::decode_payload(unwrap_envelope(stored)?)
    }

    /// Parses a chunk payload whose integrity was already established —
    /// by a verified envelope, or by the CRC of the WAL frame embedding
    /// it. Malformed input is still a typed error, never a panic.
    pub fn decode_payload(payload: &[u8]) -> Result<Self> {
        let mut slice = payload;
        let b = &mut slice;
        let table = wire::get_u16(b)?;
        let count = wire::get_u32(b)? as usize;
        let has_acc = wire::get_u8(b)? != 0;
        let tag = wire::get_u8(b)?;
        let bits = wire::get_u8(b)?;
        let dim = wire::get_u16(b)? as usize;
        // `count` comes from the payload: never reserve more than it could hold.
        let mut row_indices = Vec::with_capacity(count.min(b.len() / 4));
        for _ in 0..count {
            row_indices.push(wire::get_u32(b)?);
        }
        let optimizer_state = if has_acc {
            let mut acc = Vec::with_capacity(count.min(b.len() / 4));
            for _ in 0..count {
                if b.len() < 4 {
                    return Err(CnrError::Corrupt("chunk optimizer state truncated".into()));
                }
                let mut bytes = [0u8; 4];
                bytes.copy_from_slice(&b[..4]);
                *b = &b[4..];
                acc.push(f32::from_le_bytes(bytes));
            }
            Some(acc)
        } else {
            None
        };
        let mut rows = Vec::with_capacity(count.min(b.len()));
        for _ in 0..count {
            rows.push(QuantizedRow::decode_body_from(b, tag, bits, dim)?);
        }
        expect_consumed(b, "chunk")?;
        Ok(Self {
            table,
            row_indices,
            optimizer_state,
            rows,
        })
    }
}

/// Serializes a [`QuantScheme`] (tag + parameters). Shared with the WAL
/// delta-record codec ([`crate::delta_log`]).
pub(crate) fn encode_scheme(buf: &mut Vec<u8>, scheme: &QuantScheme) {
    match *scheme {
        QuantScheme::Fp32 => buf.put_u8(0),
        QuantScheme::Fp16 => buf.put_u8(5),
        QuantScheme::Symmetric { bits } => {
            buf.put_u8(1);
            buf.put_u8(bits);
        }
        QuantScheme::Asymmetric { bits } => {
            buf.put_u8(2);
            buf.put_u8(bits);
        }
        QuantScheme::KMeans { bits } => {
            buf.put_u8(3);
            buf.put_u8(bits);
        }
        QuantScheme::AdaptiveAsymmetric {
            bits,
            num_bins,
            ratio,
        } => {
            buf.put_u8(4);
            buf.put_u8(bits);
            buf.put_u32_le(num_bins);
            buf.put_f64_le(ratio);
        }
    }
}

/// Parses a [`QuantScheme`].
pub(crate) fn decode_scheme(b: &mut &[u8]) -> Result<QuantScheme> {
    Ok(match wire::get_u8(b)? {
        0 => QuantScheme::Fp32,
        1 => QuantScheme::Symmetric {
            bits: wire::get_u8(b)?,
        },
        2 => QuantScheme::Asymmetric {
            bits: wire::get_u8(b)?,
        },
        3 => QuantScheme::KMeans {
            bits: wire::get_u8(b)?,
        },
        4 => QuantScheme::AdaptiveAsymmetric {
            bits: wire::get_u8(b)?,
            num_bins: wire::get_u32(b)?,
            ratio: wire::get_f64(b)?,
        },
        5 => QuantScheme::Fp16,
        t => return Err(CnrError::Corrupt(format!("bad scheme tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest() -> Manifest {
        Manifest {
            id: CheckpointId(42),
            kind: CheckpointKind::Incremental,
            base: Some(CheckpointId(40)),
            iteration: 123_456,
            reader_state: ReaderState::at(123_456),
            scheme: QuantScheme::AdaptiveAsymmetric {
                bits: 4,
                num_bins: 45,
                ratio: 1.0,
            },
            tables: vec![
                TableMeta {
                    rows: 1000,
                    dim: 16,
                    has_optimizer_state: false,
                },
                TableMeta {
                    rows: 500,
                    dim: 16,
                    has_optimizer_state: false,
                },
            ],
            bottom_mlp: vec![0.5, -0.25, 0.125],
            top_mlp: vec![1.0, 2.0],
            chunks: vec![
                ChunkMeta {
                    key: "job/ckpt-00000042/shard-000-chunk-000000".into(),
                    shard: 0,
                    rows: 4096,
                    bytes: 65536,
                    parts: 2,
                    table: 0,
                    first_row: 0,
                    last_row: 4095,
                },
                ChunkMeta {
                    key: "job/ckpt-00000042/shard-001-chunk-000000".into(),
                    shard: 1,
                    rows: 100,
                    bytes: 1600,
                    parts: 1,
                    table: 1,
                    first_row: 400,
                    last_row: 499,
                },
            ],
            shards: vec![
                ShardMeta {
                    host: 0,
                    rows: 4096,
                    chunks: 1,
                    bytes: 65536,
                    parts: 2,
                },
                ShardMeta {
                    host: 1,
                    rows: 100,
                    chunks: 1,
                    bytes: 1600,
                    parts: 1,
                },
            ],
            payload_bytes: 67136,
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let m = sample_manifest();
        assert_eq!(Manifest::decode(&m.encode_enveloped()).unwrap(), m);
        assert_eq!(Manifest::decode_payload(&m.encode()).unwrap(), m);
        assert_eq!(
            (m.chunks[1].table, m.chunks[1].first_row, m.chunks[1].last_row),
            (1, 400, 499)
        );
    }

    #[test]
    fn manifest_roundtrips_all_schemes() {
        for scheme in [
            QuantScheme::Fp32,
            QuantScheme::Fp16,
            QuantScheme::Symmetric { bits: 2 },
            QuantScheme::Asymmetric { bits: 8 },
            QuantScheme::KMeans { bits: 3 },
        ] {
            let mut m = sample_manifest();
            m.scheme = scheme;
            assert_eq!(Manifest::decode(&m.encode_enveloped()).unwrap().scheme, scheme);
        }
    }

    #[test]
    fn manifest_full_has_no_base() {
        let mut m = sample_manifest();
        m.kind = CheckpointKind::Full;
        m.base = None;
        let back = Manifest::decode(&m.encode_enveloped()).unwrap();
        assert_eq!(back.base, None);
        assert_eq!(back.kind, CheckpointKind::Full);
    }

    /// Flipping any byte of the stored manifest — magic included — is a
    /// typed error, never a short or wrong decode.
    #[test]
    fn manifest_detects_corruption() {
        let bytes = sample_manifest().encode_enveloped();
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x40;
            assert!(
                matches!(Manifest::decode(&corrupted), Err(CnrError::Corrupt(_))),
                "flip at {i} accepted"
            );
        }
    }

    /// The payload's own magic and version still gate decoding behind a
    /// valid envelope (a chunk stored under a manifest key, a future
    /// layout).
    #[test]
    fn manifest_rejects_wrong_magic_and_version() {
        let payload = sample_manifest().encode();
        let mut bad_magic = payload.clone();
        bad_magic[0] ^= 0xFF;
        let mut bad_version = payload;
        bad_version[4] = 99;
        for bad in [bad_magic, bad_version] {
            assert!(Manifest::decode_payload(&bad).is_err());
            let stored = envelope::wrap_with_flags(&bad, envelope::FLAG_MANIFEST);
            assert!(Manifest::decode(&stored).is_err());
        }
    }

    #[test]
    fn enveloped_manifest_roundtrips_and_detects_corruption() {
        let m = sample_manifest();
        let bytes = m.encode_enveloped();
        let (flags, _) = envelope::unwrap(&bytes).unwrap();
        assert_eq!(flags, envelope::FLAG_MANIFEST);
        assert_eq!(Manifest::decode(&bytes).unwrap(), m);
        // Truncations are always an error, never a short decode.
        for keep in [0, 3, 8, 15, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(Manifest::decode(&bytes[..keep]).is_err());
        }
        // A bare payload has no envelope: rejected, not parsed.
        assert!(matches!(Manifest::decode(&m.encode()), Err(CnrError::Corrupt(_))));
    }

    #[test]
    fn enveloped_chunk_roundtrips_and_detects_corruption() {
        let c = sample_chunk(true);
        let bytes = c.encode_enveloped();
        assert_eq!(ChunkPayload::decode(&bytes).unwrap(), c);
        // A bare payload has no envelope: rejected, not parsed.
        let payload = c.encode();
        assert!(matches!(ChunkPayload::decode(&payload), Err(CnrError::Corrupt(_))));
        // Payloads are exact: truncation and trailing bytes are typed errors.
        for keep in 0..payload.len() {
            assert!(ChunkPayload::decode_payload(&payload[..keep]).is_err(), "cut {keep}");
        }
        let mut long = payload;
        long.push(0);
        assert!(matches!(ChunkPayload::decode_payload(&long), Err(CnrError::Corrupt(_))));
    }

    #[test]
    fn keys_are_hierarchical() {
        let id = CheckpointId(7);
        assert_eq!(Manifest::key("jobA", id), "jobA/ckpt-00000007/manifest");
        assert_eq!(
            Manifest::chunk_key("jobA", id, 2, 3),
            "jobA/ckpt-00000007/shard-00002-chunk-000003"
        );
        // Lexicographic key order == (shard, seq) order across the whole
        // u16 shard space (the regression was 3-digit padding: "1000" <
        // "999").
        assert!(
            Manifest::chunk_key("j", id, 999, 0) < Manifest::chunk_key("j", id, 1000, 0)
        );
    }

    fn sample_chunk(with_acc: bool) -> ChunkPayload {
        let scheme = QuantScheme::Asymmetric { bits: 4 };
        let rows: Vec<QuantizedRow> = (0..3)
            .map(|i| {
                let row: Vec<f32> = (0..8).map(|j| (i * 8 + j) as f32 * 0.01).collect();
                scheme.quantize_row(&row)
            })
            .collect();
        ChunkPayload {
            table: 1,
            row_indices: vec![10, 20, 30],
            optimizer_state: with_acc.then(|| vec![0.1, 0.2, 0.3]),
            rows,
        }
    }

    #[test]
    fn chunk_roundtrip() {
        for with_acc in [false, true] {
            let c = sample_chunk(with_acc);
            assert_eq!(ChunkPayload::decode(&c.encode_enveloped()).unwrap(), c);
            assert_eq!(ChunkPayload::decode_payload(&c.encode()).unwrap(), c);
        }
    }

    /// Flipping any byte of the stored chunk — magic included — is a
    /// typed error.
    #[test]
    fn chunk_detects_corruption() {
        let bytes = sample_chunk(true).encode_enveloped();
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x10;
            assert!(
                matches!(ChunkPayload::decode(&corrupted), Err(CnrError::Corrupt(_))),
                "flip at {i} accepted"
            );
        }
    }

    #[test]
    fn empty_chunk_roundtrips() {
        let c = ChunkPayload {
            table: 0,
            row_indices: vec![],
            optimizer_state: None,
            rows: vec![],
        };
        assert_eq!(ChunkPayload::decode(&c.encode_enveloped()).unwrap(), c);
    }

    #[test]
    fn total_bytes_includes_manifest() {
        let m = sample_manifest();
        assert_eq!(m.stored_len(), m.encode_enveloped().len() as u64);
        assert_eq!(m.total_bytes(), m.payload_bytes + m.stored_len());
    }
}
