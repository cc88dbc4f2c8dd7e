//! Atomic in-memory snapshots (§4.2, *decoupled checkpointing*).
//!
//! Training stalls only while the model state is copied from (simulated)
//! device memory to host memory; everything downstream — quantization,
//! serialization, upload — happens in background processes against the
//! immutable copy. All devices copy their shards concurrently, so the stall
//! is bounded by the largest shard, not the model size: the reason the
//! paper's stall stays <7 s on 128 GPUs regardless of scale.

use crate::config::CheckpointConfig;
use crate::manifest::CheckpointKind;
use crate::policy::{Decision, TrackerAction};
use cnr_model::{ModelState, ShardPlan};
use cnr_reader::ReaderState;
use cnr_tracking::TrackerSnapshot;
use cnr_trainer::Trainer;
use std::time::Duration;

/// Everything a checkpoint needs, captured at one consistent instant.
#[derive(Debug, Clone)]
pub struct TrainingSnapshot {
    /// Complete model state (weights + optimizer + iteration).
    pub model: ModelState,
    /// Rows to include: all rows for full checkpoints, the tracked delta for
    /// incrementals.
    pub delta: TrackerSnapshot,
    /// Reader position, gap-free by the §4.1 budget protocol.
    pub reader: ReaderState,
    /// Kind this snapshot was taken for.
    pub kind: CheckpointKind,
    /// Simulated time when the snapshot completed.
    pub taken_at: Duration,
    /// How long training was stalled for the copy.
    pub stall: Duration,
}

/// Takes snapshots according to a shard plan and config.
#[derive(Debug, Clone)]
pub struct SnapshotTaker {
    shard_plan: ShardPlan,
}

impl SnapshotTaker {
    /// Creates a taker with the given device layout.
    pub fn new(shard_plan: ShardPlan) -> Self {
        Self { shard_plan }
    }

    /// The shard plan in use.
    pub fn shard_plan(&self) -> &ShardPlan {
        &self.shard_plan
    }

    /// Stalls the trainer, copies state, applies the policy's tracker
    /// action, and resumes. `reader_state` must already be collected (the
    /// budget must be drained) — passing it in keeps the protocol order
    /// explicit in the engine.
    pub fn take(
        &self,
        trainer: &mut Trainer,
        reader_state: ReaderState,
        decision: Decision,
        config: &CheckpointConfig,
    ) -> TrainingSnapshot {
        self.take_reusing(trainer, reader_state, decision, config, None)
    }

    /// [`Self::take`] that copies the model into `spare` — an earlier
    /// snapshot's model state the caller no longer needs — instead of
    /// allocating a fresh copy, as a host-side snapshot buffer is reused
    /// from one checkpoint to the next.
    pub fn take_reusing(
        &self,
        trainer: &mut Trainer,
        reader_state: ReaderState,
        decision: Decision,
        config: &CheckpointConfig,
        spare: Option<ModelState>,
    ) -> TrainingSnapshot {
        // Stall = largest shard / host-copy bandwidth (§4.2).
        let max_shard = self.shard_plan.max_device_bytes(trainer.model().config());
        let stall = config.snapshot_stall(max_shard);
        trainer.stall(stall);

        let model = match spare {
            Some(mut state) => {
                state.extract_into(trainer.model());
                state
            }
            None => ModelState::extract(trainer.model()),
        };
        let row_counts = trainer.model().config().row_counts();
        let delta = match (decision.kind, decision.tracker) {
            (CheckpointKind::Full, TrackerAction::SnapshotReset) => {
                trainer.tracker().reset();
                TrackerSnapshot::full(&row_counts)
            }
            (CheckpointKind::Full, TrackerAction::SnapshotKeep) => {
                TrackerSnapshot::full(&row_counts)
            }
            (CheckpointKind::Incremental, TrackerAction::SnapshotKeep) => {
                trainer.tracker().snapshot()
            }
            (CheckpointKind::Incremental, TrackerAction::SnapshotReset) => {
                trainer.tracker().snapshot_and_reset()
            }
        };

        TrainingSnapshot {
            model,
            delta,
            reader: reader_state,
            kind: decision.kind,
            taken_at: trainer.clock().now(),
            stall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnr_cluster::SimClock;
    use cnr_model::{DlrmModel, ModelConfig};
    use cnr_trainer::TrainerConfig;
    use cnr_workload::{DatasetSpec, SyntheticDataset};

    fn setup() -> (SyntheticDataset, Trainer, SnapshotTaker, CheckpointConfig) {
        let spec = DatasetSpec::tiny(55);
        let ds = SyntheticDataset::new(spec.clone());
        let cfg = ModelConfig::for_dataset(&spec, 8);
        let plan = ShardPlan::balanced(&cfg, 1, 2);
        let model = DlrmModel::new(cfg);
        let trainer = Trainer::new(model, SimClock::new(), TrainerConfig::default());
        (ds, trainer, SnapshotTaker::new(plan), CheckpointConfig::default())
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
    fn full_snapshot_includes_all_rows_and_resets_tracker() {
        let (ds, mut trainer, taker, cfg) = setup();
        for i in 0..5 {
            trainer.train_one(&ds.batch(i));
        }
        assert!(trainer.tracker().modified_rows() > 0);
        let snap = taker.take(&mut trainer, ReaderState::at(5), full_decision(), &cfg);
        assert_eq!(snap.kind, CheckpointKind::Full);
        assert!((snap.delta.fraction_modified() - 1.0).abs() < 1e-12);
        assert_eq!(trainer.tracker().modified_rows(), 0, "baseline resets tracking");
        assert_eq!(snap.reader.next_batch, 5);
        assert_eq!(snap.model.iteration, 5);
    }

    #[test]
    fn incremental_keep_accumulates() {
        let (ds, mut trainer, taker, cfg) = setup();
        trainer.train_one(&ds.batch(0));
        let snap1 = taker.take(&mut trainer, ReaderState::at(1), incr_keep(), &cfg);
        trainer.train_one(&ds.batch(1));
        let snap2 = taker.take(&mut trainer, ReaderState::at(2), incr_keep(), &cfg);
        // One-shot semantics: later delta is a superset.
        assert!(snap2.delta.modified_rows() >= snap1.delta.modified_rows());
    }

    #[test]
    fn incremental_reset_isolates_intervals() {
        let (ds, mut trainer, taker, cfg) = setup();
        trainer.train_one(&ds.batch(0));
        let snap1 = taker.take(&mut trainer, ReaderState::at(1), incr_reset(), &cfg);
        assert!(snap1.delta.modified_rows() > 0);
        assert_eq!(trainer.tracker().modified_rows(), 0);
        trainer.train_one(&ds.batch(1));
        let snap2 = taker.take(&mut trainer, ReaderState::at(2), incr_reset(), &cfg);
        // Consecutive semantics: the second delta covers only interval 2.
        let b1 = ds.batch(1);
        let mut distinct = std::collections::HashSet::new();
        for (t, idx) in b1.sparse.iter().enumerate() {
            for &r in idx {
                distinct.insert((t, r));
            }
        }
        assert_eq!(snap2.delta.modified_rows(), distinct.len());
    }

    #[test]
    fn stall_is_accounted_on_the_trainer() {
        let (ds, mut trainer, taker, cfg) = setup();
        trainer.train_one(&ds.batch(0));
        let before = trainer.stall_time();
        let snap = taker.take(&mut trainer, ReaderState::at(1), full_decision(), &cfg);
        assert!(snap.stall > Duration::ZERO);
        assert_eq!(trainer.stall_time() - before, snap.stall);
        assert_eq!(snap.taken_at, trainer.clock().now());
    }

    #[test]
    fn snapshot_is_immutable_copy() {
        let (ds, mut trainer, taker, cfg) = setup();
        trainer.train_one(&ds.batch(0));
        let snap = taker.take(&mut trainer, ReaderState::at(1), full_decision(), &cfg);
        let hash_before = trainer.model().state_hash();
        // Continue training; snapshot must not change.
        let frozen = snap.model.clone();
        for i in 1..5 {
            trainer.train_one(&ds.batch(i));
        }
        assert_ne!(trainer.model().state_hash(), hash_before);
        assert_eq!(snap.model, frozen);
    }
}
