//! Sharded restore under transient *read* failures.
//!
//! Remote reads time out in practice just like writes do. The fetch
//! scheduler retries each ranged read a bounded number of times
//! (`RestoreOptions::fetch_retries`); these suites drive the whole restore
//! pipeline through a `FlakyStore` that injects deterministic read
//! failures and assert that (a) transient failures are absorbed without
//! corrupting the restored state, and (b) persistent failures surface as
//! errors rather than silent zero-filled rows.

use check_n_run::cluster::HostKill;
use check_n_run::core::config::CheckpointConfig;
use check_n_run::core::manifest::{CheckpointId, CheckpointKind};
use check_n_run::core::policy::{Decision, TrackerAction};
use check_n_run::core::read::{restore_sharded, restore_sharded_with_heat, RestoreOptions};
use check_n_run::core::snapshot::SnapshotTaker;
use check_n_run::core::write::CheckpointWriter;
use check_n_run::core::{CnrError, TrainingSnapshot};
use check_n_run::model::{DlrmModel, ModelConfig, ShardPlan};
use check_n_run::quant::QuantScheme;
use check_n_run::reader::ReaderState;
use check_n_run::storage::{FailureMode, FlakyStore, InMemoryStore};
use check_n_run::trainer::{Trainer, TrainerConfig};
use check_n_run::workload::{DatasetSpec, SyntheticDataset};
use std::time::Duration;

fn checkpointed_snapshot() -> (ModelConfig, TrainingSnapshot, InMemoryStore) {
    let spec = DatasetSpec::tiny(5150);
    let ds = SyntheticDataset::new(spec.clone());
    let model_cfg = ModelConfig::for_dataset(&spec, 8);
    let model = DlrmModel::new(model_cfg.clone());
    let mut trainer = Trainer::new(model, check_n_run::cluster::SimClock::new(), TrainerConfig::default());
    for i in 0..3 {
        trainer.train_one(&ds.batch(i));
    }
    let snap = SnapshotTaker::new(ShardPlan::balanced(&model_cfg, 1, 2)).take(
        &mut trainer,
        ReaderState::at(3),
        Decision {
            kind: CheckpointKind::Full,
            tracker: TrackerAction::SnapshotReset,
        },
        &CheckpointConfig::default(),
    );
    let store = InMemoryStore::new();
    let writer = CheckpointWriter::new(&store, "job");
    let cfg = CheckpointConfig {
        chunk_rows: 100,
        writer_hosts: 2,
        ..CheckpointConfig::default()
    };
    writer
        .write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
        .expect("write");
    (model_cfg, snap, store)
}

fn options(reader_hosts: usize, retries: u32) -> RestoreOptions {
    RestoreOptions {
        reader_hosts,
        fetch_retries: retries,
        ..RestoreOptions::default()
    }
}

#[test]
fn periodic_read_timeouts_are_absorbed_by_retries() {
    let (model_cfg, snap, inner) = checkpointed_snapshot();
    let store = FlakyStore::failing_reads(inner, FailureMode::Every(4));
    let sharded = restore_sharded(
        &store,
        "job",
        CheckpointId(0),
        &model_cfg,
        &options(4, 3),
        Duration::ZERO,
    )
    .expect("retries must absorb periodic timeouts");
    assert_eq!(sharded.report.state, snap.model, "bit-exact despite timeouts");
    assert!(store.read_failures_injected() > 0, "failures actually fired");
    assert!(sharded.fetch_status.retries_performed >= store.read_failures_injected() - 1);
    assert_eq!(
        sharded.fetch_status.corruption_refetches, 0,
        "transient timeouts are range retries, never whole-chunk heals"
    );
}

#[test]
fn transient_outage_at_restore_start_heals() {
    // An outage long enough to exhaust the manifest fetch's retries fails
    // the first restore attempt loudly; once the store heals, a second
    // attempt succeeds — exactly how an operator-level retry loop would
    // drive it. A *shorter* outage is absorbed inside one attempt, since
    // manifest reads go through the same retrying fetch path as chunks.
    let (model_cfg, snap, inner) = checkpointed_snapshot();
    let store = FlakyStore::failing_reads(inner, FailureMode::FirstN(3));
    let first = restore_sharded(
        &store,
        "job",
        CheckpointId(0),
        &model_cfg,
        &options(2, 2), // 2 retries = 3 attempts, all inside the outage
        Duration::ZERO,
    );
    assert!(first.is_err(), "outage outlasts the manifest fetch retries");
    let second = restore_sharded(
        &store,
        "job",
        CheckpointId(0),
        &model_cfg,
        &options(2, 2),
        Duration::ZERO,
    )
    .expect("healed store restores");
    assert_eq!(second.report.state, snap.model);

    // The shorter outage: two failing reads are absorbed by the manifest
    // fetch's own retries and the restore completes first try.
    let (model_cfg2, snap2, inner2) = checkpointed_snapshot();
    let store2 = FlakyStore::failing_reads(inner2, FailureMode::FirstN(2));
    let absorbed = restore_sharded(
        &store2,
        "job",
        CheckpointId(0),
        &model_cfg2,
        &options(2, 2),
        Duration::ZERO,
    )
    .expect("short outage absorbed in place");
    assert_eq!(absorbed.report.state, snap2.model);
}

#[test]
fn persistent_read_failures_error_rather_than_zero_fill() {
    let (model_cfg, _snap, inner) = checkpointed_snapshot();
    let store = FlakyStore::failing_reads(inner, FailureMode::Every(1));
    let result = restore_sharded(
        &store,
        "job",
        CheckpointId(0),
        &model_cfg,
        &options(4, 2),
        Duration::ZERO,
    );
    assert!(
        matches!(result, Err(CnrError::Storage(_))),
        "exhausted retries must fail the restore loudly"
    );
}

#[test]
fn read_failures_and_reader_death_compose() {
    // A flaky store *and* a reader host dying mid-restore: retries absorb
    // the timeouts, survivors adopt the dead host's chunks, and the state
    // is still bit-exact.
    let (model_cfg, snap, inner) = checkpointed_snapshot();
    let store = FlakyStore::failing_reads(inner, FailureMode::Every(6));
    let sharded = restore_sharded_with_heat(
        &store,
        "job",
        CheckpointId(0),
        &model_cfg,
        &options(4, 4),
        Duration::ZERO,
        Some(HostKill {
            host: 0,
            after_chunks: 1,
        }),
        None,
    )
    .expect("retries + re-sharding must both engage");
    assert_eq!(sharded.report.state, snap.model);
    assert_eq!(sharded.killed_hosts, vec![0]);
    assert!(sharded.breakdown.rescheduled_chunks > 0);
}
