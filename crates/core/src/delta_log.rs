//! Per-iteration delta records for the write-ahead log.
//!
//! Between full checkpoints the engine appends one [`DeltaRecord`] per
//! training iteration to the WAL (`cnr_storage::wal`). A record carries
//! exactly the state one batch changed: the touched embedding rows (the
//! same set `cnr_tracking`'s bitvec marks, quantized with the checkpoint's
//! scheme, optimizer scalars included) plus the dense MLP parameters —
//! which every batch updates and which are a rounding error next to the
//! embeddings (§2.1). Restore replays records on top of the base
//! checkpoint to reach the WAL tip.
//!
//! The codec is deliberately self-contained per record: a record decodes
//! without any segment- or log-level context, so the WAL reader can hand
//! over opaque frame payloads and crash-consistency stays entirely the
//! frame layer's concern.

use crate::error::{CnrError, Result};
use crate::manifest::{decode_scheme, encode_scheme, CheckpointId, ChunkPayload};
use crate::wire;
use bytes::BufMut;
use cnr_model::DlrmModel;
use cnr_quant::QuantScheme;
use cnr_workload::Batch;

/// The state one training iteration changed, as stored in one WAL frame.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRecord {
    /// The full checkpoint this delta chain builds on. Replay ignores
    /// records whose base doesn't match the restored checkpoint (stale
    /// segments that survived a truncation race).
    pub base: CheckpointId,
    /// Model iteration *after* this batch was applied.
    pub iteration: u64,
    /// Reader position after this batch (next batch index to produce).
    pub reader_next: u64,
    /// Quantization scheme the row payloads use.
    pub scheme: QuantScheme,
    /// Touched rows, one chunk per touched table (ascending table ids).
    pub chunks: Vec<ChunkPayload>,
    /// Bottom MLP parameters, flattened.
    pub bottom_mlp: Vec<f32>,
    /// Top MLP parameters, flattened.
    pub top_mlp: Vec<f32>,
}

impl DeltaRecord {
    /// Captures the delta of the batch just applied to `model`: the
    /// distinct rows `batch` touched in each table (quantized with
    /// `scheme`, AdaGrad scalars included) and the full — tiny — MLPs.
    pub fn capture(
        model: &DlrmModel,
        batch: &Batch,
        scheme: &QuantScheme,
        base: CheckpointId,
        reader_next: u64,
    ) -> Self {
        let mut chunks = Vec::new();
        for (t, touched) in batch.sparse.iter().enumerate() {
            let mut row_indices: Vec<u32> = touched.clone();
            row_indices.sort_unstable();
            row_indices.dedup();
            if row_indices.is_empty() {
                continue;
            }
            let table = &model.tables()[t];
            let rows = row_indices
                .iter()
                .map(|&i| scheme.quantize_row(table.row(i as usize)))
                .collect();
            let optimizer_state = table
                .adagrad()
                .map(|acc| row_indices.iter().map(|&i| acc[i as usize]).collect());
            chunks.push(ChunkPayload { table: t as u16, row_indices, optimizer_state, rows });
        }
        Self {
            base,
            iteration: model.iteration(),
            reader_next,
            scheme: *scheme,
            chunks,
            bottom_mlp: model.bottom().flatten(),
            top_mlp: model.top().flatten(),
        }
    }

    /// Applies this record on top of `model` (which must hold the state of
    /// `iteration - 1`, or any earlier state this record's rows overwrite).
    /// Returns the number of embedding rows written.
    pub fn apply(&self, model: &mut DlrmModel) -> Result<u64> {
        let mut rows_applied = 0u64;
        for chunk in &self.chunks {
            let t = chunk.table as usize;
            let table = model
                .tables_mut()
                .get_mut(t)
                .ok_or_else(|| CnrError::Corrupt(format!("delta chunk for unknown table {t}")))?;
            let (dim, nrows) = (table.dim(), table.rows());
            for (k, &idx) in chunk.row_indices.iter().enumerate() {
                let idx = idx as usize;
                if idx >= nrows {
                    return Err(CnrError::Corrupt(format!(
                        "delta row {idx} out of range for table {t} ({nrows} rows)"
                    )));
                }
                let values = chunk.rows[k].dequantize();
                if values.len() != dim {
                    return Err(CnrError::Corrupt(format!(
                        "delta row dim {} != table dim {dim}",
                        values.len()
                    )));
                }
                table.row_mut(idx).copy_from_slice(&values);
                rows_applied += 1;
            }
            if let (Some(acc), Some(adagrad)) = (&chunk.optimizer_state, table.adagrad_mut()) {
                for (k, &idx) in chunk.row_indices.iter().enumerate() {
                    adagrad[idx as usize] = acc[k];
                }
            }
        }
        let (bottom, top) = model.mlps_mut();
        bottom.unflatten(&self.bottom_mlp);
        top.unflatten(&self.top_mlp);
        model.set_iteration(self.iteration);
        Ok(rows_applied)
    }

    /// [`Self::apply`] for a lazily-restored model: MLPs, iteration, and
    /// reader cursor semantics are unchanged, but embedding rows for which
    /// `divert` returns true (rows not yet materialized) are *returned* as
    /// `(table, row, values, adagrad)` tuples instead of written — the
    /// caller buffers them and applies them when the row materializes.
    /// Row deltas are whole-row overwrites, so deferral composes: applying
    /// chunk levels then buffered deltas in replay order reproduces the
    /// eager result bit-exactly.
    #[allow(clippy::type_complexity)]
    pub fn apply_partial(
        &self,
        model: &mut DlrmModel,
        mut divert: impl FnMut(u16, u32) -> bool,
    ) -> Result<(u64, Vec<(u16, u32, Vec<f32>, Option<f32>)>)> {
        let mut rows_applied = 0u64;
        let mut deferred: Vec<(u16, u32, Vec<f32>, Option<f32>)> = Vec::new();
        for chunk in &self.chunks {
            let t = chunk.table as usize;
            let table = model
                .tables_mut()
                .get_mut(t)
                .ok_or_else(|| CnrError::Corrupt(format!("delta chunk for unknown table {t}")))?;
            let (dim, nrows) = (table.dim(), table.rows());
            for (k, &idx) in chunk.row_indices.iter().enumerate() {
                let i = idx as usize;
                if i >= nrows {
                    return Err(CnrError::Corrupt(format!(
                        "delta row {i} out of range for table {t} ({nrows} rows)"
                    )));
                }
                let values = chunk.rows[k].dequantize();
                if values.len() != dim {
                    return Err(CnrError::Corrupt(format!(
                        "delta row dim {} != table dim {dim}",
                        values.len()
                    )));
                }
                let acc = chunk.optimizer_state.as_ref().map(|a| a[k]);
                if divert(chunk.table, idx) {
                    deferred.push((chunk.table, idx, values, acc));
                    continue;
                }
                table.row_mut(i).copy_from_slice(&values);
                if let (Some(a), Some(adagrad)) = (acc, table.adagrad_mut()) {
                    adagrad[i] = a;
                }
                rows_applied += 1;
            }
        }
        let (bottom, top) = model.mlps_mut();
        bottom.unflatten(&self.bottom_mlp);
        top.unflatten(&self.top_mlp);
        model.set_iteration(self.iteration);
        Ok((rows_applied, deferred))
    }

    /// Serializes the record (the WAL frame payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u64_le(self.base.0);
        buf.put_u64_le(self.iteration);
        buf.put_u64_le(self.reader_next);
        encode_scheme(&mut buf, &self.scheme);
        buf.put_u16_le(self.chunks.len() as u16);
        for chunk in &self.chunks {
            // Chunk payloads are exact (no trailing bytes), so embedded
            // chunks are length-prefixed. The WAL frame's CRC covers them.
            let encoded = chunk.encode();
            buf.put_u32_le(encoded.len() as u32);
            buf.extend_from_slice(&encoded);
        }
        wire::put_f32s(&mut buf, &self.bottom_mlp);
        wire::put_f32s(&mut buf, &self.top_mlp);
        buf
    }

    /// Parses a serialized record, rejecting malformed input with a typed
    /// error — the frame layer's CRC already screens corruption, so a
    /// failure here means a logic bug or a hand-built frame, but it must
    /// still never panic.
    pub fn decode(data: &[u8]) -> Result<Self> {
        let mut slice = data;
        let b = &mut slice;
        let base = CheckpointId(wire::get_u64(b)?);
        let iteration = wire::get_u64(b)?;
        let reader_next = wire::get_u64(b)?;
        let scheme = decode_scheme(b)?;
        let chunk_count = wire::get_u16(b)? as usize;
        let mut chunks = Vec::with_capacity(chunk_count);
        for _ in 0..chunk_count {
            let len = wire::get_u32(b)? as usize;
            if b.len() < len {
                return Err(CnrError::Corrupt("delta chunk truncated".into()));
            }
            chunks.push(ChunkPayload::decode_payload(&b[..len])?);
            *b = &b[len..];
        }
        let bottom_mlp = wire::get_f32s(b)?;
        let top_mlp = wire::get_f32s(b)?;
        if !b.is_empty() {
            return Err(CnrError::Corrupt(format!(
                "{} trailing bytes after delta record",
                b.len()
            )));
        }
        Ok(Self { base, iteration, reader_next, scheme, chunks, bottom_mlp, top_mlp })
    }

    /// Distinct embedding rows this record carries.
    pub fn touched_rows(&self) -> u64 {
        self.chunks.iter().map(|c| c.row_indices.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnr_model::ModelConfig;
    use cnr_workload::DatasetSpec;

    fn model_and_batch() -> (DlrmModel, Batch) {
        let spec = DatasetSpec::tiny(17);
        let cfg = ModelConfig::for_dataset(&spec, 4);
        let mut model = DlrmModel::new(cfg);
        let batch = cnr_workload::SyntheticDataset::new(spec).batch(0);
        model.train_batch(&batch, |_, _| {});
        (model, batch)
    }

    #[test]
    fn roundtrips_bit_identically() {
        let (model, batch) = model_and_batch();
        let rec = DeltaRecord::capture(&model, &batch, &QuantScheme::Fp32, CheckpointId(3), 1);
        assert!(rec.touched_rows() > 0);
        assert_eq!(rec.iteration, 1);
        let decoded = DeltaRecord::decode(&rec.encode()).unwrap();
        assert_eq!(decoded, rec);
    }

    #[test]
    fn capture_rows_match_batch_sparse_set() {
        let (model, batch) = model_and_batch();
        let rec = DeltaRecord::capture(&model, &batch, &QuantScheme::Fp32, CheckpointId(0), 1);
        for chunk in &rec.chunks {
            let mut expected: Vec<u32> = batch.sparse[chunk.table as usize].clone();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(chunk.row_indices, expected);
            // Payload rows are the table's current values, exactly (Fp32).
            let table = &model.tables()[chunk.table as usize];
            for (k, &i) in chunk.row_indices.iter().enumerate() {
                assert_eq!(chunk.rows[k].dequantize(), table.row(i as usize));
            }
        }
    }

    #[test]
    fn apply_partial_diverts_rows_and_composes_back() {
        let (model, batch) = model_and_batch();
        let rec = DeltaRecord::capture(&model, &batch, &QuantScheme::Fp32, CheckpointId(0), 1);
        let cfg = model.config().clone();
        // Full application as reference.
        let mut eager = DlrmModel::new(cfg.clone());
        rec.apply(&mut eager).unwrap();
        // Divert every row of table 0; apply the rest.
        let mut partial = DlrmModel::new(cfg);
        let (applied, deferred) = rec.apply_partial(&mut partial, |t, _| t == 0).unwrap();
        let diverted = deferred.len() as u64;
        assert!(diverted > 0, "table 0 rows must be diverted");
        assert_eq!(
            applied + diverted,
            rec.touched_rows(),
            "every row is either applied or returned, never dropped"
        );
        // MLPs and iteration always apply.
        assert_eq!(partial.iteration(), 1);
        assert_eq!(partial.bottom().flatten(), eager.bottom().flatten());
        // Replaying the deferred tuples reproduces the eager result.
        for (t, row, values, acc) in deferred {
            let table = &mut partial.tables_mut()[t as usize];
            table.row_mut(row as usize).copy_from_slice(&values);
            if let (Some(a), Some(adagrad)) = (acc, table.adagrad_mut()) {
                adagrad[row as usize] = a;
            }
        }
        assert_eq!(partial.state_hash(), eager.state_hash());
    }

    #[test]
    fn apply_reproduces_the_trained_state_exactly() {
        let spec = DatasetSpec::tiny(23);
        let cfg = ModelConfig::for_dataset(&spec, 4);
        let mut trained = DlrmModel::new(cfg.clone());
        let mut replayed = DlrmModel::new(cfg);
        let dataset = cnr_workload::SyntheticDataset::new(spec);
        for i in 0..5u64 {
            let batch = dataset.batch(i);
            trained.train_batch(&batch, |_, _| {});
            let rec = DeltaRecord::capture(
                &trained,
                &batch,
                &QuantScheme::Fp32,
                CheckpointId(0),
                i + 1,
            );
            let rt = DeltaRecord::decode(&rec.encode()).unwrap();
            rt.apply(&mut replayed).unwrap();
        }
        assert_eq!(trained.state_hash(), replayed.state_hash(), "bit-identical replay");
        assert_eq!(replayed.iteration(), 5);
    }

    #[test]
    fn decode_rejects_malformed_input_with_typed_errors() {
        let (model, batch) = model_and_batch();
        let rec = DeltaRecord::capture(&model, &batch, &QuantScheme::Fp32, CheckpointId(0), 1);
        let good = rec.encode();
        // Truncations at every prefix length: typed error, never a panic.
        for cut in 0..good.len() {
            assert!(DeltaRecord::decode(&good[..cut]).is_err(), "cut={cut}");
        }
        // Trailing garbage is rejected too.
        let mut long = good.clone();
        long.push(0);
        assert!(DeltaRecord::decode(&long).is_err());
    }

    #[test]
    fn apply_rejects_out_of_range_rows() {
        let (model, batch) = model_and_batch();
        let mut rec =
            DeltaRecord::capture(&model, &batch, &QuantScheme::Fp32, CheckpointId(0), 1);
        rec.chunks[0].row_indices[0] = u32::MAX;
        let mut target = model.clone();
        assert!(matches!(rec.apply(&mut target), Err(CnrError::Corrupt(_))));
    }
}
