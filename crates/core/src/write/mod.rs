//! The sharded, pipelined checkpoint write path (§4.4 steps 2–3).
//!
//! The snapshot is immutable, so optimization and storage run entirely on
//! background CPU workers while training continues. Work flows through
//! three stages:
//!
//! ```text
//! chunker ──▶ host pipeline (one share per host) ──▶ upload scheduler
//!   split         quantize + encode each chunk,         multipart puts,
//!   rows into     then upload it in the host's          bounded window,
//!   per-host      assignment order                      per-host uplink
//!   chunks
//! ```
//!
//! * [`chunker`] partitions every table's rows over `writer_hosts`
//!   contiguous shards and batches modified rows into chunks.
//! * The host pipeline (`crate::hosts`, shared with the restore path)
//!   fans the shards out over `quantize_workers` threads and runs
//!   [`shard_writer`]'s per-chunk step on each: quantize and encode in
//!   parallel, upload in assignment order. A host killed mid-upload aborts
//!   its in-flight multipart transfer, and the pipeline re-shards its
//!   unfinished chunks onto the survivors.
//! * [`scheduler`] streams each chunk as a multipart object over the
//!   owning host's uplink with a bounded in-flight window. Its upload
//!   *floor* is how overlapped checkpoints stay legal: a write issued
//!   while the previous drain is still in flight
//!   ([`CheckpointWriter::write_overlapping`]) quantizes immediately but
//!   queues every part behind the previous durability point.
//!
//! The coordinator here ([`CheckpointWriter`]) plans the shards, numbers
//! re-sharded chunks after each adopter's own, and writes the manifest
//! once every chunk is accounted for — the §4.4 validity rule: a
//! checkpoint exists only when all of it is durable. Its
//! [`CheckpointRecord::completed_at`] is the durability point the engine
//! keeps and polls (§4.3 non-overlap without blocking).

pub mod chunker;
pub mod scheduler;
pub mod shard_writer;

pub use chunker::{shard_range, WorkItem};
pub use scheduler::{UploadScheduler, UploadStatus};

use crate::config::CheckpointConfig;
use crate::error::Result;
use crate::manifest::{CheckpointId, ChunkMeta, Manifest, ShardMeta, TableMeta};
use crate::snapshot::TrainingSnapshot;
use bytes::Bytes;
use cnr_cluster::HostKill;
use cnr_quant::QuantScheme;
use cnr_storage::ObjectStore;
use shard_writer::ShardWriter;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Result of writing one checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointRecord {
    /// The stored manifest.
    pub manifest: Manifest,
    /// Key of the manifest object.
    pub manifest_key: String,
    /// Logical bytes stored (chunks + manifest).
    pub stored_bytes: u64,
    /// Simulated time at which the checkpoint became fully durable.
    pub completed_at: Duration,
    /// Simulated write latency (durable time − issue time); the §4.3 "time
    /// it takes a checkpoint to become valid".
    pub write_latency: Duration,
    /// Wall-clock CPU time spent quantizing + encoding across all workers.
    pub quantize_cpu_time: Duration,
    /// Wall-clock duration of the whole write call.
    pub wall_time: Duration,
    /// Multipart parts uploaded into the manifest's chunks.
    pub parts: u32,
    /// Writer hosts that died mid-upload (their remaining rows were
    /// re-sharded onto the survivors).
    pub killed_hosts: Vec<u16>,
}

/// Writes checkpoints for one job onto one store.
pub struct CheckpointWriter<'a> {
    store: &'a dyn ObjectStore,
    job: String,
}

impl<'a> CheckpointWriter<'a> {
    /// Creates a writer for `job`.
    pub fn new(store: &'a dyn ObjectStore, job: impl Into<String>) -> Self {
        Self {
            store,
            job: job.into(),
        }
    }

    /// Writes `snapshot` as checkpoint `id` (delta base `base`) using
    /// `scheme`, sharded over `config.writer_hosts` simulated hosts.
    pub fn write(
        &self,
        snapshot: &TrainingSnapshot,
        id: CheckpointId,
        base: Option<CheckpointId>,
        scheme: QuantScheme,
        config: &CheckpointConfig,
    ) -> Result<CheckpointRecord> {
        self.write_overlapping(snapshot, id, base, scheme, config, None, Duration::ZERO)
    }

    /// [`CheckpointWriter::write`] with writer-host failure injection and
    /// under the §4.3 relaxation.
    ///
    /// The host named by `kill` dies mid-upload: its in-flight chunk is
    /// aborted and its unfinished rows are re-sharded onto the surviving
    /// hosts, so the checkpoint is still complete and restores exactly.
    ///
    /// Quantization and encoding proceed immediately (they overlap the
    /// previous checkpoint's upload drain on background CPU), but no part
    /// of this checkpoint may start transferring before `uploads_after` —
    /// the previous checkpoint's durability point — because uploads
    /// themselves must never overlap.
    #[allow(clippy::too_many_arguments)]
    pub fn write_overlapping(
        &self,
        snapshot: &TrainingSnapshot,
        id: CheckpointId,
        base: Option<CheckpointId>,
        scheme: QuantScheme,
        config: &CheckpointConfig,
        kill: Option<HostKill>,
        uploads_after: Duration,
    ) -> Result<CheckpointRecord> {
        let wall_start = Instant::now();
        let issue_time = snapshot.taken_at;
        let quantize_nanos = AtomicU64::new(0);
        let hosts = config.writer_hosts.max(1);
        let scheduler =
            UploadScheduler::new(self.store, hosts, config.upload_window, config.part_bytes);
        scheduler.set_floor(uploads_after);

        // --- Plan, then upload on the host pipeline. ---------------------
        // A dead host's leftovers join each adopter's shard after the
        // chunks it planned, so their (shard, seq) keys stay unique.
        let shards = chunker::plan(snapshot, config);
        let mut next_seq: Vec<u32> = shards.iter().map(|s| s.len() as u32).collect();
        let writer = ShardWriter {
            job: &self.job,
            id,
            scheme,
            scheduler: &scheduler,
            quantize_nanos: &quantize_nanos,
        };
        let run = crate::hosts::run(&writer, config.quantize_workers, shards, kill, |adopter, item| {
            item.shard = adopter;
            item.seq = next_seq[adopter as usize];
            next_seq[adopter as usize] += 1;
        })?;
        let mut metas: Vec<ChunkMeta> = run.outputs.into_iter().flat_map(|(_, m)| m).collect();

        // Deterministic order: keys embed (shard, seq) zero-padded.
        metas.sort_by(|a, b| a.key.cmp(&b.key));
        let payload_bytes: u64 = metas.iter().map(|c| c.bytes).sum();
        let parts: u32 = metas.iter().map(|c| c.parts).sum();

        // --- Per-shard summaries. ---------------------------------------
        let mut by_host: BTreeMap<u16, ShardMeta> = BTreeMap::new();
        for c in &metas {
            let s = by_host.entry(c.shard).or_insert(ShardMeta {
                host: c.shard,
                rows: 0,
                chunks: 0,
                bytes: 0,
                parts: 0,
            });
            s.rows += c.rows as u64;
            s.chunks += 1;
            s.bytes += c.bytes;
            s.parts += c.parts;
        }

        // --- Manifest. --------------------------------------------------
        let tables: Vec<TableMeta> = snapshot
            .model
            .tables
            .iter()
            .zip(&snapshot.delta.tables)
            .map(|(ts, mask)| TableMeta {
                rows: mask.len() as u64,
                dim: if !mask.is_empty() {
                    (ts.data.len() / mask.len()) as u16
                } else {
                    0
                },
                has_optimizer_state: ts.adagrad.is_some(),
            })
            .collect();
        let manifest = Manifest {
            id,
            kind: snapshot.kind,
            base,
            iteration: snapshot.model.iteration,
            reader_state: snapshot.reader,
            scheme,
            tables,
            bottom_mlp: snapshot.model.bottom.clone(),
            top_mlp: snapshot.model.top.clone(),
            chunks: metas,
            shards: by_host.into_values().collect(),
            payload_bytes,
        };
        let manifest_key = Manifest::key(&self.job, id);
        let manifest_bytes = manifest.encode_enveloped();
        let manifest_len = manifest_bytes.len() as u64;
        let receipt = self.store.put(&manifest_key, Bytes::from(manifest_bytes))?;
        // A checkpoint is never durable before the drain it queued behind
        // (covers the no-chunk edge case where only the manifest uploads).
        let completed_at = receipt
            .completed_at
            .max(scheduler.durable_at())
            .max(uploads_after);

        Ok(CheckpointRecord {
            manifest,
            manifest_key,
            stored_bytes: payload_bytes + manifest_len,
            completed_at,
            write_latency: completed_at.saturating_sub(issue_time),
            quantize_cpu_time: Duration::from_nanos(quantize_nanos.load(Ordering::Relaxed)),
            wall_time: wall_start.elapsed(),
            parts,
            killed_hosts: run.killed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CnrError;
    use crate::manifest::CheckpointKind;
    use crate::policy::{Decision, TrackerAction};
    use crate::restore;
    use crate::snapshot::SnapshotTaker;
    use cnr_cluster::SimClock;
    use cnr_model::{DlrmModel, ModelConfig, ShardPlan};
    use cnr_reader::ReaderState;
    use cnr_storage::{InMemoryStore, RemoteConfig, SimulatedRemoteStore};
    use cnr_trainer::{Trainer, TrainerConfig};
    use cnr_workload::{DatasetSpec, SyntheticDataset};

    fn snapshot_after(batches: u64, kind: CheckpointKind) -> TrainingSnapshot {
        snapshot_after_dim(batches, kind, 8).1
    }

    fn snapshot_after_dim(
        batches: u64,
        kind: CheckpointKind,
        dim: usize,
    ) -> (ModelConfig, TrainingSnapshot) {
        let spec = DatasetSpec::tiny(77);
        let ds = SyntheticDataset::new(spec.clone());
        let cfg = ModelConfig::for_dataset(&spec, dim);
        let plan = ShardPlan::balanced(&cfg, 1, 2);
        let model = DlrmModel::new(cfg.clone());
        let mut trainer = Trainer::new(model, SimClock::new(), TrainerConfig::default());
        for i in 0..batches {
            trainer.train_one(&ds.batch(i));
        }
        let decision = match kind {
            CheckpointKind::Full => Decision {
                kind,
                tracker: TrackerAction::SnapshotReset,
            },
            CheckpointKind::Incremental => Decision {
                kind,
                tracker: TrackerAction::SnapshotKeep,
            },
        };
        let snap = SnapshotTaker::new(plan).take(
            &mut trainer,
            ReaderState::at(batches),
            decision,
            &CheckpointConfig::default(),
        );
        (cfg, snap)
    }

    #[test]
    fn full_checkpoint_stores_every_row() {
        let store = InMemoryStore::new();
        let snap = snapshot_after(3, CheckpointKind::Full);
        let writer = CheckpointWriter::new(&store, "job");
        let cfg = CheckpointConfig {
            chunk_rows: 128,
            ..Default::default()
        };
        let rec = writer
            .write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
            .unwrap();
        let total_rows: u32 = rec.manifest.chunks.iter().map(|c| c.rows).sum();
        assert_eq!(total_rows as usize, snap.delta.total_rows());
        // 1000 + 500 rows at 128/chunk = 8 + 4 chunks.
        assert_eq!(rec.manifest.chunks.len(), 12);
        assert_eq!(rec.manifest.kind, CheckpointKind::Full);
        // Single-host write: one shard summary covering everything.
        assert_eq!(rec.manifest.shards.len(), 1);
        assert_eq!(rec.manifest.shards[0].rows, total_rows as u64);
        assert_eq!(rec.manifest.shards[0].chunks, 12);
        // Every chunk object exists in the store.
        for c in &rec.manifest.chunks {
            assert_eq!(store.head(&c.key).unwrap().size, c.bytes);
        }
        assert!(store.get(&rec.manifest_key).is_ok());
    }

    #[test]
    fn incremental_checkpoint_stores_only_delta() {
        let store = InMemoryStore::new();
        let snap = snapshot_after(2, CheckpointKind::Incremental);
        let delta_rows = snap.delta.modified_rows();
        assert!(delta_rows > 0 && delta_rows < snap.delta.total_rows());
        let writer = CheckpointWriter::new(&store, "job");
        let rec = writer
            .write(
                &snap,
                CheckpointId(1),
                Some(CheckpointId(0)),
                QuantScheme::Fp32,
                &CheckpointConfig::default(),
            )
            .unwrap();
        let total_rows: u32 = rec.manifest.chunks.iter().map(|c| c.rows).sum();
        assert_eq!(total_rows as usize, delta_rows);
        assert_eq!(rec.manifest.base, Some(CheckpointId(0)));
    }

    #[test]
    fn quantized_checkpoint_is_smaller() {
        let store = InMemoryStore::new();
        // Realistic embedding dim so per-row metadata (indices + quant
        // params) does not mask the payload reduction — the paper makes the
        // same caveat about metadata in §6.3.2.
        let (_, snap) = snapshot_after_dim(3, CheckpointKind::Full, 32);
        let writer = CheckpointWriter::new(&store, "job");
        let cfg = CheckpointConfig::default();
        let fp32 = writer
            .write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
            .unwrap();
        let q4 = writer
            .write(
                &snap,
                CheckpointId(1),
                None,
                QuantScheme::Asymmetric { bits: 4 },
                &cfg,
            )
            .unwrap();
        let ratio = fp32.stored_bytes as f64 / q4.stored_bytes as f64;
        assert!(
            ratio > 2.0,
            "4-bit should be much smaller than fp32, got {ratio}x"
        );
    }

    #[test]
    fn chunk_payloads_decode_and_match_snapshot() {
        use crate::manifest::ChunkPayload;
        let store = InMemoryStore::new();
        let snap = snapshot_after(2, CheckpointKind::Full);
        let writer = CheckpointWriter::new(&store, "job");
        let rec = writer
            .write(
                &snap,
                CheckpointId(0),
                None,
                QuantScheme::Fp32,
                &CheckpointConfig::default(),
            )
            .unwrap();
        // Decode the first chunk and verify rows are bit-exact (fp32).
        let chunk_bytes = store.get(&rec.manifest.chunks[0].key).unwrap();
        let chunk = ChunkPayload::decode(&chunk_bytes).unwrap();
        let t = chunk.table as usize;
        let dim = rec.manifest.tables[t].dim as usize;
        for (i, &row_idx) in chunk.row_indices.iter().enumerate() {
            let original =
                &snap.model.tables[t].data[row_idx as usize * dim..(row_idx as usize + 1) * dim];
            assert_eq!(chunk.rows[i].dequantize(), original);
        }
    }

    #[test]
    fn parallel_workers_produce_identical_checkpoints() {
        let snap = snapshot_after(3, CheckpointKind::Full);
        let run = |workers: usize, hosts: usize| -> Manifest {
            let store = InMemoryStore::new();
            let writer = CheckpointWriter::new(&store, "job");
            let cfg = CheckpointConfig {
                quantize_workers: workers,
                writer_hosts: hosts,
                ..Default::default()
            };
            writer
                .write(
                    &snap,
                    CheckpointId(0),
                    None,
                    QuantScheme::Asymmetric { bits: 4 },
                    &cfg,
                )
                .unwrap()
                .manifest
        };
        assert_eq!(run(1, 1), run(4, 1), "worker count must not change output");
        assert_eq!(run(1, 4), run(4, 4), "worker count must not change output");
    }

    #[test]
    fn sharded_restore_is_bit_identical_to_single_shard() {
        let (model_cfg, snap) = snapshot_after_dim(3, CheckpointKind::Full, 8);
        let restore_with_hosts = |hosts: usize| {
            let store = InMemoryStore::new();
            let writer = CheckpointWriter::new(&store, "job");
            let cfg = CheckpointConfig {
                chunk_rows: 100,
                writer_hosts: hosts,
                ..Default::default()
            };
            let rec = writer
                .write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
                .unwrap();
            assert_eq!(rec.manifest.shards.len(), hosts);
            restore::restore(&store, "job", CheckpointId(0), &model_cfg)
                .unwrap()
                .state
        };
        let single = restore_with_hosts(1);
        for hosts in [2usize, 4, 7] {
            assert_eq!(
                restore_with_hosts(hosts),
                single,
                "{hosts}-shard restore must be bit-identical"
            );
        }
        assert_eq!(single, snap.model, "fp32 restore is bit-exact");
    }

    #[test]
    fn eight_shards_reach_durability_faster_than_one() {
        let (_, snap) = snapshot_after_dim(3, CheckpointKind::Full, 16);
        let durable = |hosts: usize| {
            let clock = SimClock::new();
            let store = SimulatedRemoteStore::new(
                RemoteConfig {
                    bandwidth_bytes_per_sec: 1024.0 * 1024.0, // 1 MB/s per uplink
                    base_latency: Duration::from_micros(100),
                    replication: 1,
                    channels: hosts as u32,
                },
                clock,
            );
            let writer = CheckpointWriter::new(&store, "job");
            let cfg = CheckpointConfig {
                chunk_rows: 64,
                writer_hosts: hosts,
                ..Default::default()
            };
            writer
                .write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
                .unwrap()
                .completed_at
        };
        let one = durable(1);
        let eight = durable(8);
        assert!(
            eight.as_secs_f64() < 0.5 * one.as_secs_f64(),
            "8 uplinks must be measurably faster: 1-shard {one:?}, 8-shard {eight:?}"
        );
    }

    #[test]
    fn overlapped_write_queues_uploads_behind_the_previous_drain() {
        let clock = SimClock::new();
        let store = SimulatedRemoteStore::new(
            RemoteConfig {
                bandwidth_bytes_per_sec: 1024.0 * 1024.0, // 1 MB/s: slow drain
                base_latency: Duration::ZERO,
                replication: 1,
                channels: 1,
            },
            clock.clone(),
        );
        let snap = snapshot_after(2, CheckpointKind::Full);
        let writer = CheckpointWriter::new(&store, "job");
        let cfg = CheckpointConfig::default();
        let first = writer
            .write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
            .unwrap();
        assert!(first.completed_at > clock.now(), "drain is still in flight");
        // Without advancing the clock (training continues), issue the next
        // checkpoint floored at the first's durability point: quantization
        // overlaps the drain, uploads do not.
        let second = writer
            .write_overlapping(
                &snap,
                CheckpointId(1),
                None,
                QuantScheme::Fp32,
                &cfg,
                None,
                first.completed_at,
            )
            .unwrap();
        assert!(
            second.completed_at >= first.completed_at + first.completed_at / 2,
            "second drain must queue entirely behind the first: {:?} vs {:?}",
            second.completed_at,
            first.completed_at
        );
        // The §4.3 validity clock starts at issue time, so the latency of an
        // overlapped checkpoint includes the drain it waited out.
        assert!(second.write_latency >= second.completed_at - first.completed_at);
    }

    #[test]
    fn killed_host_aborts_and_survivors_reshard() {
        let (model_cfg, snap) = snapshot_after_dim(3, CheckpointKind::Full, 8);
        let store = InMemoryStore::new();
        let writer = CheckpointWriter::new(&store, "job");
        let cfg = CheckpointConfig {
            chunk_rows: 64,
            writer_hosts: 4,
            ..Default::default()
        };
        let kill = HostKill {
            host: 2,
            after_chunks: 1,
        };
        let rec = writer
            .write_overlapping(
                &snap,
                CheckpointId(0),
                None,
                QuantScheme::Fp32,
                &cfg,
                Some(kill),
                Duration::ZERO,
            )
            .unwrap();
        assert_eq!(rec.killed_hosts, vec![2]);
        // Every row is still covered...
        let total_rows: u32 = rec.manifest.chunks.iter().map(|c| c.rows).sum();
        assert_eq!(total_rows as usize, snap.delta.total_rows());
        // ...the dead host contributed only its pre-death chunk...
        let dead = rec.manifest.shards.iter().find(|s| s.host == 2).unwrap();
        assert_eq!(dead.chunks, 1);
        // ...survivors adopted the rest (more chunks than originally planned
        // for at least one of them)...
        assert!(rec.manifest.shards.len() == 4);
        // ...the aborted in-flight chunk left nothing visible...
        let aborted_key = Manifest::chunk_key("job", CheckpointId(0), 2, 1);
        assert!(store.get(&aborted_key).is_err());
        // ...and the checkpoint restores bit-exactly.
        let report = restore::restore(&store, "job", CheckpointId(0), &model_cfg).unwrap();
        assert_eq!(report.state, snap.model);
    }

    #[test]
    fn all_hosts_dead_is_an_error() {
        let (_, snap) = snapshot_after_dim(2, CheckpointKind::Full, 8);
        let store = InMemoryStore::new();
        let writer = CheckpointWriter::new(&store, "job");
        let cfg = CheckpointConfig {
            writer_hosts: 1,
            ..Default::default()
        };
        let result = writer.write_overlapping(
            &snap,
            CheckpointId(0),
            None,
            QuantScheme::Fp32,
            &cfg,
            Some(HostKill {
                host: 0,
                after_chunks: 0,
            }),
            Duration::ZERO,
        );
        assert!(matches!(result, Err(CnrError::Pipeline(_))));
    }

    #[test]
    fn simulated_store_reports_write_latency() {
        let clock = SimClock::new();
        let store = SimulatedRemoteStore::new(
            RemoteConfig {
                bandwidth_bytes_per_sec: 1024.0 * 1024.0, // 1 MB/s: slow
                base_latency: Duration::from_millis(1),
                replication: 1,
                channels: 1,
            },
            clock.clone(),
        );
        let snap = snapshot_after(2, CheckpointKind::Full);
        let writer = CheckpointWriter::new(&store, "job");
        let rec = writer
            .write(
                &snap,
                CheckpointId(0),
                None,
                QuantScheme::Fp32,
                &CheckpointConfig::default(),
            )
            .unwrap();
        // ~1500 rows * 8 dim * 4B ≈ 48 KB -> tens of ms at 1 MB/s.
        assert!(rec.write_latency > Duration::from_millis(10));
        // Durability covers every transfer the store has queued, plus the
        // multipart commit round trip of the last chunk.
        assert!(rec.completed_at >= store.drained_at());
        assert!(rec.quantize_cpu_time > Duration::ZERO);
        assert!(rec.parts >= rec.manifest.chunks.len() as u32);
    }

    #[test]
    fn large_chunks_split_into_multiple_parts() {
        let store = InMemoryStore::new();
        let (_, snap) = snapshot_after_dim(3, CheckpointKind::Full, 32);
        let writer = CheckpointWriter::new(&store, "job");
        let cfg = CheckpointConfig {
            chunk_rows: 4096,
            part_bytes: 4 * 1024, // tiny parts: every chunk is multipart
            ..Default::default()
        };
        let rec = writer
            .write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
            .unwrap();
        assert!(
            rec.parts > rec.manifest.chunks.len() as u32,
            "4 KiB parts must split 100+ KiB chunks"
        );
        for c in &rec.manifest.chunks {
            assert_eq!(c.parts, (c.bytes as usize).div_ceil(4 * 1024) as u32);
            assert_eq!(store.head(&c.key).unwrap().size, c.bytes);
        }
    }
}
