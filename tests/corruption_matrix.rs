//! Corruption-injection matrix, end to end at the facade level: for every
//! damage kind ({bit flip, truncated transfer, stale replica}) aimed at
//! every object class ({chunk, manifest, part boundary}) under every
//! reader-host count ({1, 2, 4, 8}), a restore either heals the damage by
//! re-fetching from another replica — bit-identically — or fails with the
//! typed `CnrError::Corrupt`. It NEVER returns silently wrong weights.
//!
//! Damage is injected by `FlakyStore`'s deterministic corruption layer, so
//! every cell of the matrix is exactly reproducible from its seed.

use check_n_run::cluster::SimClock;
use check_n_run::core::config::CheckpointConfig;
use check_n_run::core::error::CnrError;
use check_n_run::core::manifest::{CheckpointId, CheckpointKind};
use check_n_run::core::policy::{Decision, TrackerAction};
use check_n_run::core::read::{restore_sharded, RestoreOptions};
use check_n_run::core::restore::restore;
use check_n_run::core::snapshot::SnapshotTaker;
use check_n_run::core::write::CheckpointWriter;
use check_n_run::core::TrainingSnapshot;
use check_n_run::model::{DlrmModel, ModelConfig, ShardPlan};
use check_n_run::quant::QuantScheme;
use check_n_run::reader::ReaderState;
use check_n_run::storage::{CorruptionKind, CorruptionSpec, FlakyStore, InMemoryStore};
use check_n_run::trainer::{Trainer, TrainerConfig};
use check_n_run::workload::{DatasetSpec, SyntheticDataset, TableAccessSpec};
use proptest::prelude::*;
use std::time::Duration;

/// What class of stored object the corruption is aimed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// A chunk object, written as a single part.
    Chunk,
    /// The checkpoint manifest.
    Manifest,
    /// A chunk object split into several multipart ranges, so the damage
    /// lands on one ranged read of a larger reassembly.
    PartBoundary,
}

impl Target {
    fn key_filter(self) -> &'static str {
        match self {
            Target::Chunk | Target::PartBoundary => "-chunk-",
            Target::Manifest => "/manifest",
        }
    }

    /// Part size for the write: small enough to split chunks for
    /// [`Target::PartBoundary`], one part otherwise.
    fn part_bytes(self) -> usize {
        match self {
            Target::PartBoundary => 256,
            _ => 1 << 20,
        }
    }
}

/// Trains a small deterministic model and snapshots it.
fn snapshot_for(seed: u64) -> (ModelConfig, TrainingSnapshot) {
    let spec = DatasetSpec {
        seed,
        batch_size: 16,
        dense_dim: 4,
        tables: vec![
            TableAccessSpec::new(120, 2, 1.0),
            TableAccessSpec::new(50, 1, 0.9),
        ],
        concept_seed: None,
    };
    let ds = SyntheticDataset::new(spec.clone());
    let model_cfg = ModelConfig::for_dataset(&spec, 8);
    let model = DlrmModel::new(model_cfg.clone());
    let mut trainer = Trainer::new(model, SimClock::new(), TrainerConfig::default());
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
    (model_cfg, snap)
}

fn write_to(store: &InMemoryStore, snap: &TrainingSnapshot, part_bytes: usize) {
    let writer = CheckpointWriter::new(store, "job");
    let cfg = CheckpointConfig {
        chunk_rows: 32,
        writer_hosts: 2,
        part_bytes,
        ..CheckpointConfig::default()
    };
    writer
        .write(snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
        .expect("write");
}

/// The outcome of one matrix cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// The restore succeeded bit-identically and healed the damage.
    Repaired,
    /// The restore refused: the typed corruption error surfaced.
    TypedError,
}

/// Runs one cell: restores a checkpoint whose reads are damaged by
/// `(kind, target)` under `reader_hosts`, with `retries` refetch budget.
/// Panics on any outcome other than repaired-bit-identically or the typed
/// `CnrError::Corrupt` — silent garbage is the one forbidden result.
fn run_cell(
    kind: CorruptionKind,
    target: Target,
    reader_hosts: usize,
    retries: u32,
    persistent: bool,
    seed: u64,
) -> Outcome {
    let (model_cfg, snap) = snapshot_for(7);
    let inner = InMemoryStore::new();
    write_to(&inner, &snap, target.part_bytes());
    let clean = restore(&inner, "job", CheckpointId(0), &model_cfg).expect("clean restore");

    let mode = if persistent {
        CorruptionSpec::every(kind, 1)
    } else {
        CorruptionSpec::once(kind, 1)
    };
    let store = FlakyStore::corrupting_reads(inner, mode.with_seed(seed))
        .with_corrupt_key_filter(target.key_filter());
    let result = restore_sharded(
        &store,
        "job",
        CheckpointId(0),
        &model_cfg,
        &RestoreOptions {
            reader_hosts,
            fetch_retries: retries,
            ..RestoreOptions::default()
        },
        Duration::ZERO,
    );
    match result {
        Ok(sharded) => {
            assert_eq!(
                sharded.report.state, clean.state,
                "a successful restore must be bit-identical \
                 ({kind:?} x {target:?} x {reader_hosts} hosts, seed {seed})"
            );
            assert!(
                sharded.breakdown.corruption_detected >= 1,
                "damage was injected, so a successful restore must have \
                 detected and healed it ({kind:?} x {target:?})"
            );
            assert!(sharded.breakdown.corruption_repaired >= 1);
            assert!(
                sharded.breakdown.corruption_refetches >= sharded.breakdown.corruption_repaired,
                "every heal rides a whole-chunk refetch (never a transient \
                 range retry): {} refetches for {} repairs",
                sharded.breakdown.corruption_refetches,
                sharded.breakdown.corruption_repaired
            );
            Outcome::Repaired
        }
        Err(CnrError::Corrupt(_)) => Outcome::TypedError,
        Err(other) => panic!(
            "corruption must surface as CnrError::Corrupt, got {other:?} \
             ({kind:?} x {target:?} x {reader_hosts} hosts, seed {seed})"
        ),
    }
}

const KINDS: [CorruptionKind; 3] = [
    CorruptionKind::BitFlip,
    CorruptionKind::Truncate,
    CorruptionKind::StaleReplica,
];
const TARGETS: [Target; 3] = [Target::Chunk, Target::Manifest, Target::PartBoundary];
const HOSTS: [usize; 4] = [1, 2, 4, 8];

/// The full 3 x 3 x 4 matrix with a transient fault and a refetch budget:
/// no cell ever yields silent garbage, and every cell heals by refetching
/// (manifests ride the same verify-and-refetch scheduler as chunks). Any
/// damage — a flipped magic or a truncation below the header included —
/// fails envelope verification, so the scheduler refetches it from a
/// healthy replica.
#[test]
fn transient_corruption_matrix_heals_or_fails_typed() {
    let mut repaired = 0u32;
    let mut typed = 0u32;
    for kind in KINDS {
        for target in TARGETS {
            for hosts in HOSTS {
                match run_cell(kind, target, hosts, 2, false, 11) {
                    Outcome::Repaired => repaired += 1,
                    Outcome::TypedError => typed += 1,
                }
            }
        }
    }
    assert_eq!(repaired + typed, 36, "every cell ran");
    assert!(
        repaired >= 36,
        "the refetch path repaired the matrix (repaired {repaired}/36)"
    );
}

/// With every replica damaged (persistent corruption) and no healthy
/// refetch possible, every cell must fail with the typed error — the
/// retry budget must never be talked into returning garbage.
#[test]
fn persistent_corruption_always_fails_typed() {
    for kind in KINDS {
        for target in TARGETS {
            for hosts in HOSTS {
                assert_eq!(
                    run_cell(kind, target, hosts, 2, true, 13),
                    Outcome::TypedError,
                    "{kind:?} x {target:?} x {hosts} hosts"
                );
            }
        }
    }
}

/// A zero-retry restore hit by transient damage must still never return
/// garbage: it either got lucky on scheduling (impossible here — the
/// first eligible read is damaged) or fails typed.
#[test]
fn no_retry_budget_fails_typed_instead_of_leaking() {
    for kind in KINDS {
        for hosts in [1usize, 4] {
            assert_eq!(
                run_cell(kind, Target::Chunk, hosts, 0, false, 17),
                Outcome::TypedError,
                "{kind:?} x {hosts} hosts"
            );
        }
    }
}

proptest! {
    /// Random cells with random corruption seeds: the repaired-or-typed
    /// invariant holds for arbitrary damage positions, not just the
    /// deterministic seeds of the exhaustive sweeps above.
    #[test]
    fn random_cells_never_leak_garbage(
        seed in any::<u64>(),
        kind_ix in 0usize..3,
        target_ix in 0usize..3,
        hosts_ix in 0usize..4,
        persistent in any::<bool>(),
        retries in 0u32..3,
    ) {
        run_cell(
            KINDS[kind_ix],
            TARGETS[target_ix],
            HOSTS[hosts_ix],
            retries,
            persistent,
            seed,
        );
    }
}
