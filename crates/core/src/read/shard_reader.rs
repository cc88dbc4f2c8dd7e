//! The read direction's per-chunk work — the mirror of
//! [`crate::write::shard_writer`].
//!
//! [`ShardReader`] is what a reader host does with one chunk: fetch it
//! through the [`FetchScheduler`](super::scheduler::FetchScheduler) over
//! the host's own downlink (simulated I/O), then decode and de-quantize it
//! (CPU), so decode overlaps the fetch of the next chunk. A host killed
//! mid-restore abandons the chunk it was fetching; the host pipeline
//! ([`crate::hosts`]) re-shards its unread chunks onto the survivors — the
//! mirror of the write path's mid-upload host death.

use super::planner::FetchItem;
use super::scheduler::{verified_payload, FetchScheduler};
use crate::error::Result;
use crate::hosts::{HostWork, Turn};
use crate::manifest::ChunkPayload;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One chunk, fetched, decoded, and de-quantized, ready to merge.
#[derive(Debug, Clone)]
pub struct DecodedChunk {
    /// Position of the owning manifest in the restore chain.
    pub level: usize,
    /// Object key (embeds writer shard + sequence: sorting decoded chunks
    /// by `(level, key)` reproduces the serial application order).
    pub key: String,
    /// Table the rows belong to.
    pub table: u16,
    /// Row indices within the table.
    pub row_indices: Vec<u32>,
    /// De-quantized row values, index-aligned with `row_indices`.
    pub values: Vec<Vec<f32>>,
    /// Row-wise optimizer accumulators, when the table carries them.
    pub optimizer_state: Option<Vec<f32>>,
    /// Serialized chunk size (bytes fetched).
    pub bytes: u64,
    /// Simulated time at which the chunk's last range landed. A lazy
    /// restore stamps first-batch time as the latest arrival among hot
    /// chunks.
    pub arrived_at: std::time::Duration,
    /// Whether the planner required this chunk before first batch
    /// ([`FetchItem::hot`]).
    pub hot: bool,
}

/// Fetches and decodes one reader host's chunks of one restore.
pub(crate) struct ShardReader<'a> {
    pub(crate) scheduler: &'a FetchScheduler<'a>,
    /// Wall-clock nanoseconds spent decoding + de-quantizing, shared across
    /// shards.
    pub(crate) decode_nanos: &'a AtomicU64,
}

impl HostWork for ShardReader<'_> {
    type Item = FetchItem;
    type Output = DecodedChunk;

    /// Fetches, decodes, and de-quantizes one chunk.
    fn run_one(&self, host: u16, item: &FetchItem, turn: Turn<'_>) -> Result<DecodedChunk> {
        let (bytes, arrived_at) = turn.io(|| {
            self.scheduler
                .fetch_chunk(host, &item.key, item.bytes, item.parts)
        })?;
        let t0 = Instant::now();
        let payload = ChunkPayload::decode_payload(verified_payload(&bytes))?;
        let values: Vec<Vec<f32>> = payload.rows.iter().map(|r| r.dequantize()).collect();
        self.decode_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(DecodedChunk {
            level: item.level,
            key: item.key.clone(),
            table: payload.table,
            row_indices: payload.row_indices,
            values,
            optimizer_state: payload.optimizer_state,
            bytes: bytes.len() as u64,
            arrived_at,
            hot: item.hot,
        })
    }

    /// Simulates the host dying partway through fetching `item`: the first
    /// range of the chunk transfers (downlink bandwidth really spent) and
    /// the rest is abandoned.
    fn die(&self, host: u16, item: &FetchItem) -> Result<()> {
        let first = item.bytes.div_ceil(item.parts.max(1) as u64).min(item.bytes);
        // Best-effort: a dying host cannot guarantee its read landed.
        let _ = self.scheduler.store().get_part(
            &item.key,
            0,
            first,
            host as u32,
            std::time::Duration::ZERO,
        );
        Ok(())
    }
}
