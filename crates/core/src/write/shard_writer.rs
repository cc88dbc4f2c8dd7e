//! The write direction's per-chunk work (§4.4 step 3).
//!
//! [`ShardWriter`] is what a writer host does with one chunk: quantize and
//! encode it (CPU), then stream it to the store through the
//! [`UploadScheduler`](super::scheduler::UploadScheduler) over the host's
//! own uplink (simulated I/O). A host killed mid-upload aborts the chunk it
//! was transferring; the host pipeline ([`crate::hosts`]) re-shards its
//! unfinished chunks onto the survivors. Chunks the dead host had already
//! completed become orphaned objects — the controller's orphan sweep
//! reclaims them when the next checkpoint registers.

use super::chunker::WorkItem;
use super::scheduler::UploadScheduler;
use crate::error::Result;
use crate::hosts::{HostWork, Turn};
use crate::manifest::{CheckpointId, ChunkMeta, ChunkPayload, Manifest};
use bytes::Bytes;
use cnr_quant::QuantScheme;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Quantizes and uploads one writer host's chunks of one checkpoint.
pub(crate) struct ShardWriter<'a> {
    pub(crate) job: &'a str,
    pub(crate) id: CheckpointId,
    pub(crate) scheme: QuantScheme,
    pub(crate) scheduler: &'a UploadScheduler<'a>,
    /// Wall-clock nanoseconds spent quantizing, shared across shards.
    pub(crate) quantize_nanos: &'a AtomicU64,
}

impl HostWork for ShardWriter<'_> {
    type Item = WorkItem;
    type Output = ChunkMeta;

    /// Quantizes, encodes, and uploads one chunk.
    fn run_one(&self, host: u16, item: &WorkItem, turn: Turn<'_>) -> Result<ChunkMeta> {
        let t0 = Instant::now();
        let payload = encode_chunk(item, &self.scheme);
        self.quantize_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let key = Manifest::chunk_key(self.job, self.id, host, item.seq);
        let bytes = payload.len() as u64;
        let (_receipt, parts) =
            turn.io(|| self.scheduler.upload(host, &key, Bytes::from(payload)))?;
        Ok(ChunkMeta {
            key,
            shard: host,
            rows: item.indices.len() as u32,
            bytes,
            parts,
            table: item.table,
            first_row: item.indices.first().copied().unwrap_or(u32::MAX),
            last_row: item.indices.last().copied().unwrap_or(u32::MAX),
        })
    }

    /// Simulates the host dying partway through transferring `item`: the
    /// chunk's multipart upload starts, ships one part, and is aborted.
    /// Nothing becomes visible at the chunk's key.
    fn die(&self, host: u16, item: &WorkItem) -> Result<()> {
        let payload = encode_chunk(item, &self.scheme);
        let key = Manifest::chunk_key(self.job, self.id, host, item.seq);
        let store = self.scheduler.store();
        let up = store.begin_multipart(&key)?.on_channel(host as u32);
        let first = payload.len().min(self.scheduler.part_bytes());
        // Best-effort: a dying host cannot guarantee its last part landed.
        let _ = store.put_part(&up, 0, Bytes::from(payload).slice(..first), Duration::ZERO);
        store.abort_multipart(&up)?;
        Ok(())
    }
}

/// Quantizes and encodes one work item into the chunk bytes as stored:
/// the chunk payload wrapped in the storage envelope, so every byte that
/// leaves a writer host is covered by an end-to-end checksum.
pub(crate) fn encode_chunk(item: &WorkItem, scheme: &QuantScheme) -> Vec<u8> {
    let rows = item
        .indices
        .iter()
        .enumerate()
        .map(|(i, _)| scheme.quantize_row(&item.data[i * item.dim..(i + 1) * item.dim]))
        .collect();
    ChunkPayload {
        table: item.table,
        row_indices: item.indices.clone(),
        optimizer_state: item.acc.clone(),
        rows,
    }
    .encode_enveloped()
}
