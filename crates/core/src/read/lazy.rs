//! Lazy-restore state: a pending mask over the eager merge.
//!
//! A priority-ordered restore ([`super::planner::plan_priority`]) lets
//! training resume once the *hot* chunks are in (CPR-style partial
//! recovery); the cold ones keep arriving in the background. The merge
//! ([`super::merge::merge`]) decides every row's value in one pass and
//! hands the rest of the restore a [`LazyRestore`]:
//!
//! * **target** — the eager value of every *pending* row (one whose last
//!   writer in application order is a cold chunk). The model view holds
//!   the zero template or an older level's hot value there until the row
//!   materializes,
//! * **pending mask** — which rows still wait,
//! * **per-row charge** — the bytes a fault-in of the row is charged: the
//!   per-row shares of the cold chunks after its last hot writer,
//! * **cold-chunk row lists** — for each cold chunk, the pending rows a
//!   fault-in reads from it ([`LazyRestore::pending_keys`]).
//!
//! WAL replay writes rows that are still pending into the target
//! ([`LazyRestore::write_pending`]), so the target stays the eager result
//! plus the replayed tail. Materializing a row copies its target value,
//! optimizer accumulator included, into the model. That happens on a
//! **fault-in** (training touched an unrestored row — a counted,
//! synchronous, targeted fetch) or in the background **drain** (the rest of
//! the restore finished arriving). Either way the row ends bit-identical to
//! the eager path.

use super::merge::write_row;
use cnr_model::state::TableState;
use cnr_model::DlrmModel;

/// The tail of a lazy restore: the rows that still wait for their eager
/// value, and that value.
#[derive(Debug, Clone)]
pub struct LazyRestore {
    /// Eager values of the pending rows (other rows are not read).
    target: Vec<TableState>,
    /// Per table, per row: whether the row still waits.
    pending: Vec<Vec<bool>>,
    /// Per table, per row: bytes a fault-in of the row is charged.
    charge: Vec<Vec<u64>>,
    /// Per cold chunk, in application order: key, table, and the pending
    /// rows a fault-in reads from it.
    cold: Vec<(String, u16, Vec<u32>)>,
    /// Rows still pending.
    pending_rows: u64,
}

impl LazyRestore {
    /// Assembles the tail the merge recorded.
    pub(super) fn new(
        target: Vec<TableState>,
        pending: Vec<Vec<bool>>,
        charge: Vec<Vec<u64>>,
        cold: Vec<(String, u16, Vec<u32>)>,
    ) -> Self {
        let pending_rows = pending.iter().flatten().filter(|&&p| p).count() as u64;
        Self {
            target,
            pending,
            charge,
            cold,
            pending_rows,
        }
    }

    /// Whether `(table, row)` already holds its final restored value.
    /// Unknown coordinates count as materialized (nothing to fault in).
    pub fn is_materialized(&self, table: u16, row: u32) -> bool {
        !self
            .pending
            .get(table as usize)
            .and_then(|t| t.get(row as usize))
            .copied()
            .unwrap_or(false)
    }

    /// Rows still waiting on a cold chunk.
    pub fn pending_rows(&self) -> u64 {
        self.pending_rows
    }

    /// Whether every row is materialized.
    pub fn is_drained(&self) -> bool {
        self.pending_rows == 0
    }

    /// Keys of cold chunks that still cover at least one pending row — the
    /// in-flight set a concurrent scrub sweep must not rewrite out from
    /// under a fault-in's targeted read.
    pub fn pending_keys(&self) -> Vec<String> {
        self.cold
            .iter()
            .filter(|(_, table, rows)| rows.iter().any(|&r| !self.is_materialized(*table, r)))
            .map(|(key, _, _)| key.clone())
            .collect()
    }

    /// Routes one replayed WAL row: a pending row takes it in the target,
    /// after all its chunk levels, and `true` is returned; a materialized
    /// row is left to the caller (`false`), which writes it into the model.
    pub fn write_pending(
        &mut self,
        table: u16,
        row: u32,
        values: &[f32],
        acc: Option<f32>,
    ) -> bool {
        if self.is_materialized(table, row) {
            return false;
        }
        write_row(&mut self.target[table as usize], row as usize, values, acc);
        true
    }

    /// Materializes `(table, row)` because training touched it before the
    /// drain finished. Returns the bytes the targeted fetch is charged, so
    /// the caller can charge simulated transfer time, or `None` when the
    /// row was not pending (nothing fetched).
    pub fn fault_in(&mut self, model: &mut DlrmModel, table: u16, row: u32) -> Option<u64> {
        if self.is_materialized(table, row) {
            return None;
        }
        let (t, r) = (table as usize, row as usize);
        self.materialize(model, t, r);
        Some(self.charge[t][r])
    }

    /// Materializes every pending row. After this the model is
    /// bit-identical to an eager restore plus full WAL replay. Returns the
    /// rows materialized (0 on a second call).
    pub fn drain(&mut self, model: &mut DlrmModel) -> u64 {
        let before = self.pending_rows;
        for t in 0..self.pending.len() {
            for r in 0..self.pending[t].len() {
                if self.pending[t][r] {
                    self.materialize(model, t, r);
                }
            }
        }
        before
    }

    /// Copies row `r` of table `t` from the target into the model.
    fn materialize(&mut self, model: &mut DlrmModel, t: usize, r: usize) {
        let table = &mut model.tables_mut()[t];
        let dim = table.dim();
        let src = &self.target[t];
        table
            .row_mut(r)
            .copy_from_slice(&src.data[r * dim..(r + 1) * dim]);
        if let (Some(acc), Some(adagrad)) = (&src.adagrad, table.adagrad_mut()) {
            adagrad[r] = acc[r];
        }
        self.pending[t][r] = false;
        self.pending_rows -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{CheckpointId, CheckpointKind, ChunkMeta, Manifest, TableMeta};
    use crate::read::merge::merge;
    use crate::read::DecodedChunk;
    use cnr_model::state::ModelState;
    use cnr_model::ModelConfig;
    use cnr_quant::QuantScheme;
    use cnr_reader::ReaderState;
    use cnr_workload::DatasetSpec;
    use std::time::Duration;

    fn model() -> DlrmModel {
        let spec = DatasetSpec::tiny(5);
        let mut cfg = ModelConfig::for_dataset(&spec, 4);
        // Row-wise AdaGrad so the tests cover optimizer-state fault-in too.
        cfg.optimizer = cnr_model::OptimizerConfig::RowWiseAdagrad {
            lr: 0.05,
            eps: 1e-8,
        };
        DlrmModel::new(cfg)
    }

    fn chunk(level: usize, key: &str, rows: &[u32], fill: f32, hot: bool) -> DecodedChunk {
        DecodedChunk {
            level,
            key: key.to_string(),
            table: 0,
            row_indices: rows.to_vec(),
            values: rows.iter().map(|_| vec![fill; 4]).collect(),
            optimizer_state: Some(vec![fill; rows.len()]),
            bytes: 100 * rows.len() as u64,
            arrived_at: Duration::ZERO,
            hot,
        }
    }

    /// Merges `chunks` lazily over a chain with one manifest per level, and
    /// loads the view into `m`. Returns the tail and the eager merge's
    /// tables.
    fn restore(m: &mut DlrmModel, chunks: Vec<DecodedChunk>) -> (LazyRestore, Vec<TableState>) {
        let levels = chunks.iter().map(|c| c.level + 1).max().unwrap_or(1);
        let chain: Vec<Manifest> = (0..levels)
            .map(|level| Manifest {
                id: CheckpointId(level as u64),
                kind: if level == 0 {
                    CheckpointKind::Full
                } else {
                    CheckpointKind::Incremental
                },
                base: level.checked_sub(1).map(|b| CheckpointId(b as u64)),
                iteration: 0,
                reader_state: ReaderState::fresh(),
                scheme: QuantScheme::Fp32,
                tables: m
                    .tables()
                    .iter()
                    .map(|t| TableMeta {
                        rows: t.rows() as u64,
                        dim: t.dim() as u16,
                        has_optimizer_state: t.adagrad().is_some(),
                    })
                    .collect(),
                bottom_mlp: vec![],
                top_mlp: vec![],
                chunks: chunks
                    .iter()
                    .filter(|c| c.level == level)
                    .map(|c| ChunkMeta {
                        key: c.key.clone(),
                        shard: 0,
                        rows: c.row_indices.len() as u32,
                        bytes: c.bytes,
                        parts: 1,
                        table: c.table,
                        first_row: c.row_indices[0],
                        last_row: *c.row_indices.last().unwrap(),
                    })
                    .collect(),
                shards: vec![],
                payload_bytes: 0,
            })
            .collect();
        let eager = merge(&chain, chunks.clone(), false).unwrap();
        let lazy = merge(&chain, chunks, true).unwrap();
        ModelState {
            tables: lazy.tables,
            bottom: m.bottom().flatten(),
            top: m.top().flatten(),
            iteration: 0,
        }
        .restore(m);
        (
            lazy.lazy.expect("lazy merge returns its tail"),
            eager.tables,
        )
    }

    fn acc(m: &DlrmModel, row: usize) -> f32 {
        m.tables()[0].adagrad().unwrap()[row]
    }

    #[test]
    fn cold_rows_are_pending_until_faulted_in() {
        let mut m = model();
        let chunks = vec![
            chunk(0, "a", &[0, 1], 1.0, true),
            chunk(0, "b", &[2, 3], 2.0, false),
            chunk(1, "c", &[3], 3.0, false),
        ];
        let (mut lazy, eager) = restore(&mut m, chunks);
        assert_eq!(lazy.pending_rows(), 2);
        assert!(lazy.is_materialized(0, 0) && lazy.is_materialized(0, 1));
        assert!(!lazy.is_materialized(0, 3));
        assert_eq!(lazy.pending_keys(), vec!["b".to_string(), "c".to_string()]);
        assert_eq!(
            m.tables()[0].row(3),
            &[0.0; 4],
            "view holds the zero template"
        );

        // Row 3 reads both cold levels: 100 bytes from each 1-row share.
        assert_eq!(lazy.fault_in(&mut m, 0, 3), Some(200));
        assert_eq!(m.tables()[0].row(3), &eager[0].data[12..16]);
        assert_eq!(m.tables()[0].row(3), &[3.0; 4]);
        assert_eq!(acc(&m, 3), 3.0);
        assert_eq!(lazy.pending_keys(), vec!["b".to_string()]);
        // Re-faulting a live row is free and uncounted.
        assert_eq!(lazy.fault_in(&mut m, 0, 3), None);
        assert_eq!(lazy.fault_in(&mut m, 0, 2), Some(100));
        assert!(lazy.is_drained() && lazy.pending_keys().is_empty());
    }

    #[test]
    fn older_cold_chunk_never_clobbers_newer_hot_data() {
        let mut m = model();
        // Row 1: cold level 0 shadowed by hot level 1 — final, not pending.
        // Row 2: cold, hot, then cold again — pending, and only the last
        // cold level is fetched or counted in flight for it.
        let chunks = vec![
            chunk(0, "old", &[1, 2], 5.0, false),
            chunk(1, "new", &[1, 2], 9.0, true),
            chunk(2, "newest", &[2], 7.0, false),
        ];
        let (mut lazy, _) = restore(&mut m, chunks);
        assert_eq!(lazy.pending_rows(), 1);
        assert!(lazy.is_materialized(0, 1));
        assert_eq!(lazy.pending_keys(), vec!["newest".to_string()]);
        assert_eq!(
            m.tables()[0].row(2),
            &[9.0; 4],
            "view holds the older hot value"
        );
        assert_eq!(lazy.fault_in(&mut m, 0, 2), Some(100));
        assert_eq!(m.tables()[0].row(2), &[7.0; 4]);
        assert_eq!(lazy.drain(&mut m), 0);
        assert_eq!(
            m.tables()[0].row(1),
            &[9.0; 4],
            "hot value survives the drain"
        );
        assert_eq!(acc(&m, 1), 9.0);
    }

    #[test]
    fn wal_delta_on_a_pending_row_lands_after_its_chunk_levels() {
        let mut m = model();
        let chunks = vec![
            chunk(0, "base", &[0, 1], 1.0, false),
            chunk(1, "incr", &[1], 2.0, false),
        ];
        let (mut lazy, _) = restore(&mut m, chunks);
        assert_eq!(lazy.pending_rows(), 2);
        // Two replayed deltas for row 1: the later one must win.
        assert!(lazy.write_pending(0, 1, &[3.0; 4], Some(3.0)));
        assert!(lazy.write_pending(0, 1, &[4.0; 4], Some(4.0)));
        assert_eq!(m.tables()[0].row(1), &[0.0; 4], "the view is untouched");
        assert_eq!(lazy.drain(&mut m), 2);
        assert!(lazy.is_drained());
        assert_eq!(m.tables()[0].row(0), &[1.0; 4], "level 0 value");
        assert_eq!(m.tables()[0].row(1), &[4.0; 4], "last replayed delta wins");
        assert_eq!(acc(&m, 1), 4.0);
        // A materialized row is the caller's to write.
        assert!(!lazy.write_pending(0, 1, &[5.0; 4], None));
        assert_eq!(lazy.drain(&mut m), 0, "idempotent");
    }
}
