//! Workload geometry and the inputs derived from the seed.

use cnr_workload::{DatasetSpec, TableAccessSpec};

/// Model and batch geometry shared by every workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Embedding rows summed over all tables.
    pub rows: u64,
    /// Embedding tables the rows are split across.
    pub tables: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Samples per training batch.
    pub batch_size: usize,
    /// Batches per checkpoint interval (`train_incremental`).
    pub interval_batches: u64,
}

/// The benchmark's model: 1M rows × dim 64 ≈ 256 MB of fp32 embeddings.
pub const FULL: Shape = Shape {
    rows: 1_000_000,
    tables: 4,
    dim: 64,
    batch_size: 256,
    interval_batches: 50,
};

/// Per table: share of the rows, multi-hot lookups per sample, and Zipf
/// exponent (the `DatasetSpec::medium` mix: 200k/100k/50k/20k rows).
const TABLES: [(u64, usize, f64); 4] = [(200, 1, 1.05), (100, 4, 1.0), (50, 2, 0.95), (20, 1, 1.1)];

/// Largest number of rows the seed moves into or out of a table.
const JITTER_ROWS: u64 = 2048;

impl Shape {
    /// A small geometry with the same structure, for the package's tests.
    pub fn small() -> Self {
        Self {
            rows: 24_000,
            tables: 4,
            dim: 16,
            batch_size: 64,
            interval_batches: 10,
        }
    }

    /// Row count of each table: the fixed shares of `rows`, each moved by
    /// up to [`JITTER_ROWS`] rows chosen by the seed (the first table takes
    /// up the difference, so the total is always `rows`). The seed thus
    /// shifts chunk boundaries and per-host shards a little while every
    /// seed checkpoints the same number of embedding rows.
    pub fn table_rows(&self, seed: u64) -> Vec<u64> {
        let shares: Vec<u64> = (0..self.tables)
            .map(|t| TABLES[t % TABLES.len()].0)
            .collect();
        let total_share: u64 = shares.iter().sum();
        let base: Vec<u64> = shares.iter().map(|s| self.rows * s / total_share).collect();
        let jitter = JITTER_ROWS.min(base.iter().min().copied().unwrap_or(0) / 4);
        let mut rows: Vec<u64> = base
            .iter()
            .enumerate()
            .map(|(t, b)| {
                let moved =
                    splitmix64(seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9)) % (2 * jitter + 1);
                b + moved - jitter
            })
            .collect();
        let others: u64 = rows[1..].iter().sum();
        rows[0] = self.rows - others;
        rows
    }

    /// The dataset every workload trains on, derived from `seed`.
    pub fn dataset_spec(&self, seed: u64) -> DatasetSpec {
        DatasetSpec {
            seed,
            batch_size: self.batch_size,
            dense_dim: 13,
            tables: self
                .table_rows(seed)
                .into_iter()
                .enumerate()
                .map(|(t, rows)| {
                    let (_, hot, zipf) = TABLES[t % TABLES.len()];
                    TableAccessSpec::new(rows, hot, zipf)
                })
                .collect(),
            concept_seed: None,
        }
    }
}

/// SplitMix64: a seed mixer (not used for any data the program sees).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
