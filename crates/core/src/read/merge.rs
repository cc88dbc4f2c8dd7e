//! The merge stage: the one place that decides which value each row
//! finally holds.
//!
//! Chunks of one manifest cover disjoint rows, so they can be fetched and
//! decoded in any order by any host; across the chain, later manifests
//! overwrite earlier ones. The merge sorts decoded chunks by
//! `(level, key)` — levels oldest-first, keys (writer shard + sequence,
//! zero-padded) within a level — which reproduces the serial restore's
//! application order exactly, and writes them in one pass. That makes the
//! sharded restore bit-identical to [`crate::restore::restore`].
//!
//! A lazy restore runs the same pass over two buffers. Hot chunks write
//! the *view*, the state training resumes from; cold chunks write the
//! *target*. A row whose last writer is cold is *pending*: the view still
//! holds the zero template or an older level's hot value, while the target
//! holds the row's eager value. Every other row is final in the view. The
//! pass also records each pending row's fault-in charge and, per cold
//! chunk, the pending rows a fault-in reads from it. The result is a
//! [`LazyRestore`]: a pending mask over the eager result.

use super::lazy::LazyRestore;
use super::shard_reader::DecodedChunk;
use crate::error::{CnrError, Result};
use crate::manifest::{CheckpointKind, Manifest};
use cnr_model::state::TableState;
use cnr_tracking::TrackerSnapshot;

/// What the merge produced: the restore-report ingredients that depend on
/// chunk contents.
pub struct MergedState {
    /// Reconstructed embedding tables (MLPs come from the newest manifest):
    /// the eager result, or the view of a lazy merge.
    pub tables: Vec<TableState>,
    /// Rows written into `tables` (with overwrite multiplicity).
    pub rows_applied: u64,
    /// Union of rows covered by the incremental checkpoints in the chain.
    pub incremental_rows: TrackerSnapshot,
    /// The pending rows of a lazy merge; `None` for an eager one.
    pub lazy: Option<LazyRestore>,
}

/// Lazy-merge bookkeeping, live only while the pass runs.
struct Tail {
    /// Cold chunks' values: the eager result on every pending row.
    target: Vec<TableState>,
    /// Per row: cold chunks written since the row's last hot writer.
    run: Vec<Vec<u32>>,
    /// Per row: bytes of those cold chunks' per-row shares.
    charge: Vec<Vec<u64>>,
    /// Per cold chunk, in application order: key, table and rows.
    cold: Vec<(String, u16, Vec<u32>)>,
}

impl Tail {
    /// Pending rows are those with a non-empty cold run. A cold chunk
    /// serves a row's fault-in only if it is in that run, that is, among
    /// the last `run[r]` cold chunks holding `r`. Walking the cold chunks
    /// newest-first hands each row exactly that many.
    fn finish(self) -> LazyRestore {
        let Tail {
            target,
            mut run,
            charge,
            mut cold,
        } = self;
        let pending = run
            .iter()
            .map(|t| t.iter().map(|&n| n > 0).collect())
            .collect();
        for (_, table, rows) in cold.iter_mut().rev() {
            let left = &mut run[*table as usize];
            rows.retain(|&r| {
                let n = &mut left[r as usize];
                let in_run = *n > 0;
                if in_run {
                    *n -= 1;
                }
                in_run
            });
        }
        cold.retain(|(_, _, rows)| !rows.is_empty());
        LazyRestore::new(target, pending, charge, cold)
    }
}

/// Merges `decoded` chunks (from any host, in any order) into a fresh
/// state template described by `chain` (oldest manifest first). With
/// `lazy`, only hot chunks reach the returned tables; cold ones fill the
/// [`LazyRestore`] target (see the module docs).
///
/// Verifies completeness: every manifest's chunk count must be matched by
/// the decoded chunks of its level — a lost chunk fails the restore rather
/// than silently zero-filling rows. Every chunk, hot or cold, still feeds
/// the incremental-row union (the tracker must know about cold rows too).
pub fn merge(
    chain: &[Manifest],
    mut decoded: Vec<DecodedChunk>,
    lazy: bool,
) -> Result<MergedState> {
    let newest = chain.last().expect("chain is never empty");

    // Completeness: group counts per level before consuming.
    let mut per_level = vec![0usize; chain.len()];
    for d in &decoded {
        if d.level >= chain.len() {
            return Err(CnrError::Corrupt(format!(
                "decoded chunk {} references chain level {} of {}",
                d.key,
                d.level,
                chain.len()
            )));
        }
        per_level[d.level] += 1;
    }
    for (level, manifest) in chain.iter().enumerate() {
        if per_level[level] != manifest.chunks.len() {
            return Err(CnrError::Corrupt(format!(
                "manifest {} expects {} chunks, merge received {}",
                manifest.id,
                manifest.chunks.len(),
                per_level[level]
            )));
        }
    }

    // Serial application order: levels oldest-first, keys within a level.
    decoded.sort_by(|a, b| (a.level, &a.key).cmp(&(b.level, &b.key)));

    let template = || -> Vec<TableState> {
        newest
            .tables
            .iter()
            .map(|t| TableState {
                data: vec![0.0; (t.rows * t.dim as u64) as usize],
                adagrad: t.has_optimizer_state.then(|| vec![0.0; t.rows as usize]),
            })
            .collect()
    };
    let mut tables = template();
    let row_counts: Vec<usize> = newest.tables.iter().map(|t| t.rows as usize).collect();
    let mut incremental_rows = TrackerSnapshot::empty(&row_counts);
    let mut rows_applied = 0u64;
    let mut tail = lazy.then(|| Tail {
        target: template(),
        run: row_counts.iter().map(|&n| vec![0; n]).collect(),
        charge: row_counts.iter().map(|&n| vec![0; n]).collect(),
        cold: Vec::new(),
    });

    for chunk in decoded {
        let t = chunk.table as usize;
        if t >= tables.len() {
            return Err(CnrError::Corrupt(format!(
                "chunk references table {t} beyond model"
            )));
        }
        let dim = newest.tables[t].dim as usize;
        let kind = chain[chunk.level].kind;
        if chunk.values.len() != chunk.row_indices.len() {
            return Err(CnrError::Corrupt(format!(
                "chunk {} decoded {} rows for {} indices",
                chunk.key,
                chunk.values.len(),
                chunk.row_indices.len()
            )));
        }
        let cold = tail.is_some() && !chunk.hot;
        let share = chunk.bytes / chunk.row_indices.len().max(1) as u64;
        for (i, &row_idx) in chunk.row_indices.iter().enumerate() {
            let r = row_idx as usize;
            if (r + 1) * dim > tables[t].data.len() {
                return Err(CnrError::Corrupt(format!(
                    "chunk row {row_idx} beyond table {t}"
                )));
            }
            let values = &chunk.values[i];
            if values.len() != dim {
                return Err(CnrError::Corrupt(format!(
                    "row {row_idx} decoded to {} values, expected {dim}",
                    values.len()
                )));
            }
            if kind == CheckpointKind::Incremental {
                incremental_rows.tables[t].set(r);
            }
            let acc = chunk.optimizer_state.as_ref().map(|s| s[i]);
            match &mut tail {
                Some(tail) if cold => {
                    write_row(&mut tail.target[t], r, values, acc);
                    tail.run[t][r] += 1;
                    tail.charge[t][r] += share;
                }
                tail => {
                    write_row(&mut tables[t], r, values, acc);
                    rows_applied += 1;
                    if let Some(tail) = tail {
                        tail.run[t][r] = 0;
                        tail.charge[t][r] = 0;
                    }
                }
            }
        }
        if let Some(tail) = tail.as_mut().filter(|_| cold) {
            tail.cold.push((chunk.key, chunk.table, chunk.row_indices));
        }
    }

    Ok(MergedState {
        tables,
        rows_applied,
        incremental_rows,
        lazy: tail.map(Tail::finish),
    })
}

/// Overwrites row `r` of `table` with `values` and, when both sides carry
/// one, its row-wise optimizer accumulator.
pub(super) fn write_row(table: &mut TableState, r: usize, values: &[f32], acc: Option<f32>) {
    let dim = values.len();
    table.data[r * dim..(r + 1) * dim].copy_from_slice(values);
    if let (Some(dst), Some(acc)) = (&mut table.adagrad, acc) {
        dst[r] = acc;
    }
}
