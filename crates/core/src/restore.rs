//! Checkpoint restoration: chain reconstruction and de-quantization.
//!
//! Restoring checkpoint `C` means following its base pointers back to a full
//! baseline, then applying every checkpoint forward: the baseline populates
//! all rows; each delta overwrites the rows it contains. This one mechanism
//! covers all three policies (§5.1):
//!
//! * one-shot / intermittent — `C.base` points straight at the baseline, so
//!   the chain is `[full, C]`;
//! * consecutive — `C.base` points at the previous checkpoint, so the chain
//!   is the whole run of incrementals back to the baseline.
//!
//! MLPs, the iteration counter, and the reader state come from `C` itself
//! (the newest manifest in the chain).

use crate::error::{CnrError, Result};
use crate::manifest::{CheckpointId, CheckpointKind, ChunkPayload, Manifest};
use cnr_model::config::ModelConfig;
use cnr_model::state::{ModelState, TableState};
use cnr_quant::QuantScheme;
use cnr_reader::ReaderState;
use cnr_storage::ObjectStore;
use cnr_tracking::TrackerSnapshot;

/// Outcome of a restore.
#[derive(Debug, Clone)]
pub struct RestoreReport {
    /// Checkpoints applied, oldest (full) first.
    pub chain: Vec<CheckpointId>,
    /// The reconstructed model state (de-quantized).
    pub state: ModelState,
    /// Reader position to resume from.
    pub reader: ReaderState,
    /// Scheme of the newest checkpoint (useful for logging/fallback logic).
    pub scheme: QuantScheme,
    /// Rows written while applying the chain (with overwrite multiplicity).
    pub rows_applied: u64,
    /// Writer-host shards merged across the applied manifests (a
    /// single-host chain of N checkpoints merges N shards).
    pub shards_merged: usize,
    /// Logical bytes fetched from the store.
    pub bytes_read: u64,
    /// Union of rows covered by the *incremental* checkpoints in the chain.
    /// Re-seeds the modification tracker so one-shot/intermittent semantics
    /// survive a restart.
    pub incremental_rows: TrackerSnapshot,
}

/// Loads and verifies the manifest of checkpoint `id` under `job`.
pub fn load_manifest(store: &dyn ObjectStore, job: &str, id: CheckpointId) -> Result<Manifest> {
    let bytes = store.get(&Manifest::key(job, id))?;
    Manifest::decode(&bytes)
}

/// Walks base pointers from `target` back to its full baseline, loading
/// each manifest with `fetch`, and returns the chain oldest (full) first.
/// Detects missing base pointers and cycles. Shared by the serial restore
/// below (untimed reads) and the sharded [`crate::read`] pipeline (timed
/// reads over reader host 0's downlink).
pub(crate) fn load_chain(
    target: CheckpointId,
    mut fetch: impl FnMut(CheckpointId) -> Result<Manifest>,
) -> Result<Vec<Manifest>> {
    let mut chain_manifests = vec![fetch(target)?];
    while chain_manifests.last().unwrap().kind != CheckpointKind::Full {
        let m = chain_manifests.last().unwrap();
        let base = m.base.ok_or_else(|| {
            CnrError::Corrupt(format!("incremental {} has no base pointer", m.id))
        })?;
        if chain_manifests.iter().any(|c| c.id == base) {
            return Err(CnrError::Corrupt(format!(
                "checkpoint chain cycle at {base}"
            )));
        }
        chain_manifests.push(fetch(base)?);
    }
    chain_manifests.reverse(); // oldest (full) first
    Ok(chain_manifests)
}

/// Validates the newest manifest's geometry against the running model
/// configuration.
pub(crate) fn validate_geometry(newest: &Manifest, config: &ModelConfig) -> Result<()> {
    if newest.tables.len() != config.tables.len() {
        return Err(CnrError::ShapeMismatch(format!(
            "checkpoint has {} tables, model has {}",
            newest.tables.len(),
            config.tables.len()
        )));
    }
    for (i, (tm, tc)) in newest.tables.iter().zip(&config.tables).enumerate() {
        if tm.rows != tc.rows || tm.dim as usize != tc.dim {
            return Err(CnrError::ShapeMismatch(format!(
                "table {i}: checkpoint {}x{}, model {}x{}",
                tm.rows, tm.dim, tc.rows, tc.dim
            )));
        }
    }
    Ok(())
}

/// Shard-merge integrity of one manifest: the per-host summaries must
/// account for exactly the chunks the manifest references. A mismatch
/// means a writer host's output was lost after the manifest was written.
pub(crate) fn validate_shard_summaries(manifest: &Manifest) -> Result<()> {
    let shard_rows: u64 = manifest.shards.iter().map(|s| s.rows).sum();
    let chunk_rows: u64 = manifest.chunks.iter().map(|c| c.rows as u64).sum();
    if shard_rows != chunk_rows {
        return Err(CnrError::Corrupt(format!(
            "manifest {} shard summaries cover {shard_rows} rows but chunks cover {chunk_rows}",
            manifest.id
        )));
    }
    for chunk in &manifest.chunks {
        if !manifest.shards.iter().any(|s| s.host == chunk.shard) {
            return Err(CnrError::Corrupt(format!(
                "chunk {} belongs to unknown shard {}",
                chunk.key, chunk.shard
            )));
        }
    }
    Ok(())
}

/// Restores checkpoint `target`, validating geometry against `config`.
pub fn restore(
    store: &dyn ObjectStore,
    job: &str,
    target: CheckpointId,
    config: &ModelConfig,
) -> Result<RestoreReport> {
    let chain_manifests = load_chain(target, |id| load_manifest(store, job, id))?;
    let newest = chain_manifests.last().unwrap().clone();
    validate_geometry(&newest, config)?;

    // Allocate the state template.
    let mut tables: Vec<TableState> = newest
        .tables
        .iter()
        .map(|t| TableState {
            data: vec![0.0; (t.rows * t.dim as u64) as usize],
            adagrad: t.has_optimizer_state.then(|| vec![0.0; t.rows as usize]),
        })
        .collect();
    let row_counts: Vec<usize> = newest.tables.iter().map(|t| t.rows as usize).collect();
    let mut incremental_rows = TrackerSnapshot::empty(&row_counts);

    let mut rows_applied = 0u64;
    let mut shards_merged = 0usize;
    let mut bytes_read = 0u64;
    for manifest in &chain_manifests {
        validate_shard_summaries(manifest)?;
        shards_merged += manifest.shards.len();
        for chunk_meta in &manifest.chunks {
            let bytes = store.get(&chunk_meta.key)?;
            bytes_read += bytes.len() as u64;
            let chunk = ChunkPayload::decode(&bytes)?;
            let t = chunk.table as usize;
            if t >= tables.len() {
                return Err(CnrError::Corrupt(format!(
                    "chunk references table {t} beyond model"
                )));
            }
            let dim = newest.tables[t].dim as usize;
            let table = &mut tables[t];
            for (i, &row_idx) in chunk.row_indices.iter().enumerate() {
                let r = row_idx as usize;
                if (r + 1) * dim > table.data.len() {
                    return Err(CnrError::Corrupt(format!(
                        "chunk row {row_idx} beyond table {t}"
                    )));
                }
                let values = chunk.rows[i].dequantize();
                if values.len() != dim {
                    return Err(CnrError::Corrupt(format!(
                        "row {row_idx} decoded to {} values, expected {dim}",
                        values.len()
                    )));
                }
                table.data[r * dim..(r + 1) * dim].copy_from_slice(&values);
                if let (Some(acc), Some(src)) = (&mut table.adagrad, &chunk.optimizer_state) {
                    acc[r] = src[i];
                }
                if manifest.kind == CheckpointKind::Incremental {
                    incremental_rows.tables[t].set(r);
                }
                rows_applied += 1;
            }
        }
        bytes_read += manifest.stored_len();
    }

    Ok(RestoreReport {
        chain: chain_manifests.iter().map(|m| m.id).collect(),
        state: ModelState {
            tables,
            bottom: newest.bottom_mlp.clone(),
            top: newest.top_mlp.clone(),
            iteration: newest.iteration,
        },
        reader: newest.reader_state,
        scheme: newest.scheme,
        rows_applied,
        shards_merged,
        bytes_read,
        incremental_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CheckpointConfig;
    use crate::policy::{Decision, TrackerAction};
    use crate::snapshot::SnapshotTaker;
    use crate::write::CheckpointWriter;
    use cnr_cluster::SimClock;
    use cnr_model::{DlrmModel, ShardPlan};
    use cnr_storage::InMemoryStore;
    use cnr_trainer::{Trainer, TrainerConfig};
    use cnr_workload::{DatasetSpec, SyntheticDataset};

    struct Fixture {
        ds: SyntheticDataset,
        trainer: Trainer,
        taker: SnapshotTaker,
        store: InMemoryStore,
        cfg: CheckpointConfig,
        model_cfg: ModelConfig,
    }

    fn fixture() -> Fixture {
        let spec = DatasetSpec::tiny(91);
        let ds = SyntheticDataset::new(spec.clone());
        let model_cfg = ModelConfig::for_dataset(&spec, 8);
        let plan = ShardPlan::balanced(&model_cfg, 1, 2);
        let model = DlrmModel::new(model_cfg.clone());
        Fixture {
            ds,
            trainer: Trainer::new(model, SimClock::new(), TrainerConfig::default()),
            taker: SnapshotTaker::new(plan),
            store: InMemoryStore::new(),
            cfg: CheckpointConfig::default(),
            model_cfg,
        }
    }

    fn full_decision() -> Decision {
        Decision {
            kind: CheckpointKind::Full,
            tracker: TrackerAction::SnapshotReset,
        }
    }

    fn incr_keep() -> Decision {
        Decision {
            kind: CheckpointKind::Incremental,
            tracker: TrackerAction::SnapshotKeep,
        }
    }

    fn incr_reset() -> Decision {
        Decision {
            kind: CheckpointKind::Incremental,
            tracker: TrackerAction::SnapshotReset,
        }
    }

    #[test]
    fn full_checkpoint_roundtrip_is_bit_exact() {
        let mut f = fixture();
        for i in 0..5 {
            f.trainer.train_one(&f.ds.batch(i));
        }
        let expected_hash = f.trainer.model().state_hash();
        let snap = f.taker.take(
            &mut f.trainer,
            cnr_reader::ReaderState::at(5),
            full_decision(),
            &f.cfg,
        );
        let writer = CheckpointWriter::new(&f.store, "job");
        writer
            .write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &f.cfg)
            .unwrap();

        let report = restore(&f.store, "job", CheckpointId(0), &f.model_cfg).unwrap();
        assert_eq!(report.chain, vec![CheckpointId(0)]);
        assert_eq!(report.reader.next_batch, 5);
        let mut fresh = DlrmModel::new(f.model_cfg.clone());
        report.state.restore(&mut fresh);
        assert_eq!(fresh.state_hash(), expected_hash, "fp32 restore must be exact");
    }

    #[test]
    fn one_shot_chain_restores_exactly() {
        let mut f = fixture();
        let writer = CheckpointWriter::new(&f.store, "job");
        // Baseline after 3 batches.
        for i in 0..3 {
            f.trainer.train_one(&f.ds.batch(i));
        }
        let snap0 = f.taker.take(
            &mut f.trainer,
            cnr_reader::ReaderState::at(3),
            full_decision(),
            &f.cfg,
        );
        writer
            .write(&snap0, CheckpointId(0), None, QuantScheme::Fp32, &f.cfg)
            .unwrap();
        // Two more intervals, one-shot incrementals.
        for i in 3..6 {
            f.trainer.train_one(&f.ds.batch(i));
        }
        let snap1 = f.taker.take(
            &mut f.trainer,
            cnr_reader::ReaderState::at(6),
            incr_keep(),
            &f.cfg,
        );
        writer
            .write(
                &snap1,
                CheckpointId(1),
                Some(CheckpointId(0)),
                QuantScheme::Fp32,
                &f.cfg,
            )
            .unwrap();
        for i in 6..9 {
            f.trainer.train_one(&f.ds.batch(i));
        }
        let expected_hash = f.trainer.model().state_hash();
        let snap2 = f.taker.take(
            &mut f.trainer,
            cnr_reader::ReaderState::at(9),
            incr_keep(),
            &f.cfg,
        );
        writer
            .write(
                &snap2,
                CheckpointId(2),
                Some(CheckpointId(0)),
                QuantScheme::Fp32,
                &f.cfg,
            )
            .unwrap();

        // Restore checkpoint 2: chain must be [0, 2] (one-shot skips 1).
        let report = restore(&f.store, "job", CheckpointId(2), &f.model_cfg).unwrap();
        assert_eq!(report.chain, vec![CheckpointId(0), CheckpointId(2)]);
        let mut fresh = DlrmModel::new(f.model_cfg.clone());
        report.state.restore(&mut fresh);
        assert_eq!(fresh.state_hash(), expected_hash);
        // Incremental rows = delta of checkpoint 2.
        assert_eq!(
            report.incremental_rows.modified_rows(),
            snap2.delta.modified_rows()
        );
    }

    #[test]
    fn consecutive_chain_restores_exactly() {
        let mut f = fixture();
        let writer = CheckpointWriter::new(&f.store, "job");
        for i in 0..2 {
            f.trainer.train_one(&f.ds.batch(i));
        }
        let snap0 = f.taker.take(
            &mut f.trainer,
            cnr_reader::ReaderState::at(2),
            full_decision(),
            &f.cfg,
        );
        writer
            .write(&snap0, CheckpointId(0), None, QuantScheme::Fp32, &f.cfg)
            .unwrap();
        let mut prev = CheckpointId(0);
        for interval in 0..3u64 {
            for i in (2 + interval * 2)..(2 + (interval + 1) * 2) {
                f.trainer.train_one(&f.ds.batch(i));
            }
            let snap = f.taker.take(
                &mut f.trainer,
                cnr_reader::ReaderState::at(4 + interval * 2),
                incr_reset(),
                &f.cfg,
            );
            let id = CheckpointId(interval + 1);
            writer
                .write(&snap, id, Some(prev), QuantScheme::Fp32, &f.cfg)
                .unwrap();
            prev = id;
        }
        let expected_hash = f.trainer.model().state_hash();
        let report = restore(&f.store, "job", CheckpointId(3), &f.model_cfg).unwrap();
        assert_eq!(
            report.chain,
            vec![
                CheckpointId(0),
                CheckpointId(1),
                CheckpointId(2),
                CheckpointId(3)
            ],
            "consecutive restore reads the whole chain"
        );
        let mut fresh = DlrmModel::new(f.model_cfg.clone());
        report.state.restore(&mut fresh);
        assert_eq!(fresh.state_hash(), expected_hash);
    }

    #[test]
    fn quantized_restore_is_close_not_exact() {
        let mut f = fixture();
        for i in 0..5 {
            f.trainer.train_one(&f.ds.batch(i));
        }
        let snap = f.taker.take(
            &mut f.trainer,
            cnr_reader::ReaderState::at(5),
            full_decision(),
            &f.cfg,
        );
        let writer = CheckpointWriter::new(&f.store, "job");
        writer
            .write(
                &snap,
                CheckpointId(0),
                None,
                QuantScheme::Asymmetric { bits: 8 },
                &f.cfg,
            )
            .unwrap();
        let report = restore(&f.store, "job", CheckpointId(0), &f.model_cfg).unwrap();
        // Not bit-exact...
        assert_ne!(report.state, snap.model);
        // ...but close: compare a row.
        let orig = &snap.model.tables[0].data[..8];
        let rest = &report.state.tables[0].data[..8];
        for (a, b) in orig.iter().zip(rest) {
            assert!((a - b).abs() < 0.01, "{a} vs {b}");
        }
        // MLPs are always fp32-exact.
        assert_eq!(report.state.bottom, snap.model.bottom);
        assert_eq!(report.state.top, snap.model.top);
    }

    #[test]
    fn missing_checkpoint_errors() {
        let f = fixture();
        assert!(matches!(
            restore(&f.store, "job", CheckpointId(9), &f.model_cfg),
            Err(CnrError::Storage(_))
        ));
    }

    #[test]
    fn corrupt_chunk_is_detected() {
        let mut f = fixture();
        f.trainer.train_one(&f.ds.batch(0));
        let snap = f.taker.take(
            &mut f.trainer,
            cnr_reader::ReaderState::at(1),
            full_decision(),
            &f.cfg,
        );
        let writer = CheckpointWriter::new(&f.store, "job");
        let rec = writer
            .write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &f.cfg)
            .unwrap();
        // Corrupt one chunk in place.
        let key = &rec.manifest.chunks[0].key;
        let mut bytes = f.store.get(key).unwrap().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        use cnr_storage::ObjectStore as _;
        f.store.put(key, bytes::Bytes::from(bytes)).unwrap();
        assert!(matches!(
            restore(&f.store, "job", CheckpointId(0), &f.model_cfg),
            Err(CnrError::Corrupt(_))
        ));
    }

    #[test]
    fn broken_chains_are_corrupt_on_both_restore_paths() {
        use crate::read::{restore_sharded, RestoreOptions};
        use std::time::Duration;
        let mut f = fixture();
        f.trainer.train_one(&f.ds.batch(0));
        let snap = f.taker.take(
            &mut f.trainer,
            cnr_reader::ReaderState::at(1),
            full_decision(),
            &f.cfg,
        );
        let full = CheckpointWriter::new(&f.store, "job")
            .write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &f.cfg)
            .unwrap()
            .manifest;
        // Hand-built incrementals over the real baseline: 1 lost its base
        // pointer; 2 and 3 point at each other.
        for (id, base) in [(1, None), (2, Some(3)), (3, Some(2))] {
            let manifest = Manifest {
                id: CheckpointId(id),
                kind: CheckpointKind::Incremental,
                base: base.map(CheckpointId),
                ..full.clone()
            };
            f.store
                .put(
                    &Manifest::key("job", manifest.id),
                    bytes::Bytes::from(manifest.encode_enveloped()),
                )
                .unwrap();
        }
        for target in [CheckpointId(1), CheckpointId(2)] {
            assert!(
                matches!(
                    restore(&f.store, "job", target, &f.model_cfg),
                    Err(CnrError::Corrupt(_))
                ),
                "serial restore of {target}"
            );
            assert!(
                matches!(
                    restore_sharded(
                        &f.store,
                        "job",
                        target,
                        &f.model_cfg,
                        &RestoreOptions::default(),
                        Duration::ZERO
                    ),
                    Err(CnrError::Corrupt(_))
                ),
                "sharded restore of {target}"
            );
        }
    }

    #[test]
    fn shape_mismatch_is_detected() {
        let mut f = fixture();
        f.trainer.train_one(&f.ds.batch(0));
        let snap = f.taker.take(
            &mut f.trainer,
            cnr_reader::ReaderState::at(1),
            full_decision(),
            &f.cfg,
        );
        let writer = CheckpointWriter::new(&f.store, "job");
        writer
            .write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &f.cfg)
            .unwrap();
        let wrong = ModelConfig::for_dataset(&DatasetSpec::medium(1), 16);
        assert!(matches!(
            restore(&f.store, "job", CheckpointId(0), &wrong),
            Err(CnrError::ShapeMismatch(_))
        ));
    }
}
