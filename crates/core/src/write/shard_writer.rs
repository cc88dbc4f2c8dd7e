//! Per-host shard writers (§4.4 step 3).
//!
//! A [`ShardWriter`] executes one simulated writer host's share of a
//! checkpoint: it quantizes each of the host's chunks and streams them to
//! the store through the [`UploadScheduler`](super::scheduler::UploadScheduler),
//! over the host's own uplink. A host can also be *killed* mid-upload
//! (failure injection): it aborts the chunk it was transferring and reports
//! every chunk it never finished, so the coordinator can re-shard that work
//! onto the surviving hosts. Chunks the dead host had already completed
//! become orphaned objects — the controller's orphan sweep reclaims them
//! when the next checkpoint registers.

use super::chunker::WorkItem;
use super::scheduler::UploadScheduler;
use crate::error::Result;
use crate::manifest::{CheckpointId, ChunkMeta, ChunkPayload, Manifest};
use bytes::Bytes;
use cnr_quant::QuantScheme;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// What one host's upload pass produced.
pub struct ShardOutcome {
    /// Writer host index.
    pub host: u16,
    /// Chunk metadata in per-shard sequence order.
    pub chunks: Vec<ChunkMeta>,
    /// Whether the host was killed mid-upload.
    pub killed: bool,
    /// Items the killed host never uploaded (empty for healthy hosts); the
    /// aborted in-flight chunk is included.
    pub unwritten: Vec<WorkItem>,
}

/// Executes one host's chunk uploads for one checkpoint.
pub struct ShardWriter<'a> {
    pub(crate) job: &'a str,
    pub(crate) id: CheckpointId,
    pub(crate) scheme: QuantScheme,
    pub(crate) scheduler: &'a UploadScheduler<'a>,
    /// Wall-clock nanoseconds spent quantizing, shared across shards.
    pub(crate) quantize_nanos: &'a AtomicU64,
}

impl ShardWriter<'_> {
    /// Runs host `host` over its planned `items` on up to `threads`
    /// quantize threads. `kill_after` injects a host death after that many
    /// completed chunks (the next chunk's upload is aborted mid-transfer);
    /// kill injection forces the sequential path so the death point is
    /// deterministic.
    pub fn run(
        &self,
        host: u16,
        items: Vec<WorkItem>,
        kill_after: Option<u32>,
        threads: usize,
    ) -> Result<ShardOutcome> {
        if threads > 1 && kill_after.is_none() && items.len() > 1 {
            return self.run_parallel(host, items, threads);
        }
        let mut outcome = ShardOutcome {
            host,
            chunks: Vec::with_capacity(items.len()),
            killed: false,
            unwritten: Vec::new(),
        };
        let mut iter = items.into_iter();
        let mut completed = 0u32;
        while let Some(item) = iter.next() {
            if kill_after == Some(completed) {
                self.die_mid_upload(host, &item)?;
                outcome.killed = true;
                outcome.unwritten.push(item);
                outcome.unwritten.extend(iter);
                return Ok(outcome);
            }
            outcome.chunks.push(self.upload_one(host, &item)?);
            completed += 1;
        }
        Ok(outcome)
    }

    /// Chunk-level pipeline within one host: `threads` workers pull items
    /// from a queue, quantize, and upload. Chunk metadata is re-sorted by
    /// sequence number, so the outcome is identical to the sequential path.
    fn run_parallel(&self, host: u16, items: Vec<WorkItem>, threads: usize) -> Result<ShardOutcome> {
        use crossbeam::channel;
        let capacity = items.len();
        let (work_tx, work_rx) = channel::unbounded::<WorkItem>();
        for item in items {
            work_tx.send(item).expect("receiver alive");
        }
        drop(work_tx);
        // Unbounded: drained only after the scope joins.
        let (meta_tx, meta_rx) = channel::unbounded::<Result<(u32, ChunkMeta)>>();
        std::thread::scope(|scope| {
            for _ in 0..threads.min(capacity) {
                let work_rx = work_rx.clone();
                let meta_tx = meta_tx.clone();
                scope.spawn(move || {
                    while let Ok(item) = work_rx.recv() {
                        let result = self.upload_one(host, &item).map(|m| (item.seq, m));
                        if meta_tx.send(result).is_err() {
                            return; // collector gone; abort quietly
                        }
                    }
                });
            }
        });
        drop(meta_tx);
        let mut metas: Vec<(u32, ChunkMeta)> = Vec::with_capacity(capacity);
        for result in meta_rx.iter() {
            metas.push(result?);
        }
        metas.sort_by_key(|(seq, _)| *seq);
        Ok(ShardOutcome {
            host,
            chunks: metas.into_iter().map(|(_, m)| m).collect(),
            killed: false,
            unwritten: Vec::new(),
        })
    }

    /// Quantizes, encodes, and uploads one chunk.
    fn upload_one(&self, host: u16, item: &WorkItem) -> Result<ChunkMeta> {
        let t0 = Instant::now();
        let payload = encode_chunk(item, &self.scheme);
        self.quantize_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let key = Manifest::chunk_key(self.job, self.id, host, item.seq);
        let bytes = payload.len() as u64;
        let (_receipt, parts) = self.scheduler.upload(host, &key, Bytes::from(payload))?;
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
    fn die_mid_upload(&self, host: u16, item: &WorkItem) -> Result<()> {
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
