//! Check-N-Run: the checkpointing engine.
//!
//! This crate is the paper's primary contribution, assembled from the
//! substrate crates:
//!
//! * [`snapshot`] — atomic in-memory snapshots: stall training, copy model
//!   state + tracker delta + reader state, resume (§4.2).
//! * [`policy`] + [`predictor`] — full vs incremental decisions: one-shot,
//!   consecutive, and intermittent with the history-based re-baselining
//!   predictor (§5.1).
//! * [`bitwidth`] — dynamic quantization bit-width selection from the
//!   expected number of restores, with automatic 8-bit fallback (§6.2.1).
//! * [`write`] — the sharded, pipelined quantize-and-store write path
//!   running on background threads (§4.4 step 2–3): a per-host chunker
//!   feeding quantize-and-upload steps through a windowed multipart upload
//!   scheduler.
//! * [`manifest`] + [`wire`] — the self-describing checkpoint format with
//!   checksummed chunks.
//! * [`restore`] — chain reconstruction: follow base pointers from any
//!   checkpoint back to its full baseline, apply deltas forward, de-quantize
//!   (§5.1 recovery).
//! * [`read`] — the sharded recovery pipeline mirroring [`write`]: a fetch
//!   planner, per-host ranged downloads overlapping decode, and a merge
//!   stage bit-identical to the serial restore, with fetch/decode/merge
//!   time-to-resume accounting (§2/§5 downtime model). Both directions run
//!   on one host pipeline (`hosts`): fan-out over worker threads, each
//!   host's simulated I/O in assignment order, dead-host re-sharding, and
//!   the per-host in-flight window.
//! * [`controller`] — checkpoint registry, validity, retention, deletion
//!   (§4.4).
//! * [`engine`] — the end-to-end training loop: reader budgets, interval
//!   scheduling, non-overlap rule, failure injection.
//! * [`stats`] — per-interval bandwidth/capacity accounting (Figures 15–17).
//! * [`accuracy`] — the restore-degradation experiment (Figure 14).
//! * [`frequency`] — sustainable checkpoint-frequency planning (§4.3).

pub mod accuracy;
pub mod bitwidth;
pub mod config;
pub mod controller;
pub mod delta_log;
pub mod engine;
pub mod error;
pub mod frequency;
mod hosts;
pub mod manifest;
pub mod observe;
pub mod policy;
pub mod predictor;
pub mod read;
pub mod restore;
pub mod snapshot;
pub mod stats;
pub mod wire;
pub mod write;

pub use bitwidth::BitwidthSelector;
pub use config::{CheckpointConfig, DeltaWalConfig, PolicyKind, QuantMode};
pub use delta_log::DeltaRecord;
pub use engine::{Engine, EngineBuilder};
pub use error::CnrError;
pub use manifest::{CheckpointId, CheckpointKind, Manifest};
pub use read::{FetchScheduler, FetchStatus, HostActivity, RestoreOptions, ShardedRestore};
pub use snapshot::TrainingSnapshot;
pub use stats::{IntervalStats, ResumeStats, WalRunStats};
pub use write::{CheckpointRecord, CheckpointWriter, UploadScheduler, UploadStatus};

/// Adapter exposing an embedding table snapshot to `cnr-quant`'s
/// [`cnr_quant::RowSource`] trait (error metrics, parameter selection).
pub struct TableRows<'a> {
    data: &'a [f32],
    dim: usize,
}

impl<'a> TableRows<'a> {
    /// Wraps row-major table data.
    pub fn new(data: &'a [f32], dim: usize) -> Self {
        assert!(dim > 0 && data.len().is_multiple_of(dim), "ragged table data");
        Self { data, dim }
    }
}

impl cnr_quant::RowSource for TableRows<'_> {
    fn num_rows(&self) -> usize {
        self.data.len() / self.dim
    }

    fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnr_quant::RowSource;

    #[test]
    fn table_rows_adapter() {
        let data = vec![1.0f32, 2.0, 3.0, 4.0];
        let rows = TableRows::new(&data, 2);
        assert_eq!(rows.num_rows(), 2);
        assert_eq!(rows.row(1), &[3.0, 4.0]);
        assert_eq!(rows.dim(), 2);
    }
}
