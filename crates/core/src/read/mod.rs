//! The sharded, pipelined checkpoint *recovery* path — the read-side
//! mirror of [`crate::write`].
//!
//! The paper's downtime model (§2, §5) is dominated by how quickly a
//! preempted job can resume: fetch, de-quantize, and rebuild model state
//! across hosts. The serial [`crate::restore`] walks the chain and decodes
//! chunks one at a time on one host; this module restores the same chain
//! with the write path's structure inverted:
//!
//! ```text
//! planner ──▶ host pipeline (one share per host) ──▶ merge
//!   assign        ranged fetches over the host's       apply decoded
//!   the chain's   own downlink in assignment order,    rows oldest
//!   chunks to     decode + de-quantize overlapping     manifest first —
//!   reader        the next chunk's transfer            bit-identical to
//!   hosts by                                           the serial path
//!   bytes
//! ```
//!
//! * [`planner`] assigns every chunk of the restore chain to a reader
//!   host, balancing bytes, using the manifest's `ChunkMeta.parts` as the
//!   ranged-fetch plan. A lazy restore plans in priority order and marks
//!   the chunks needed before first batch *hot*.
//! * The host pipeline (`crate::hosts`, shared with the write path) fans
//!   the assignments out over `decode_workers` threads and runs
//!   [`shard_reader`]'s per-chunk step on each: fetch in assignment order
//!   through the [`scheduler::FetchScheduler`] — ranged reads
//!   ([`cnr_storage::ObjectStore::get_part`]) under a bounded in-flight
//!   window with bounded transient-failure retries — and decode in
//!   parallel. A host killed mid-restore hands its unread chunks back,
//!   and the pipeline re-shards them onto the survivors.
//! * [`merge`] reassembles the model bit-identically to the serial path
//!   and re-seeds the modification tracker. It is the only stage that
//!   orders chunks for application. In lazy mode the same pass leaves the
//!   rows whose last writer is cold pending in a [`LazyRestore`], a mask
//!   over the eager result that [`lazy`] materializes row by row (fault-in)
//!   or all at once (drain).
//!
//! The coordinator here ([`restore_sharded`]) walks the chain through the
//! timed fetch path, plans, runs the host pipeline and merges, and reports
//! a [`ResumeBreakdown`] — fetch/decode/merge — for the cluster layer's
//! time-to-resume accounting.

pub mod lazy;
pub mod merge;
pub mod planner;
pub mod scheduler;
pub mod shard_reader;

pub use lazy::LazyRestore;
pub use planner::{FetchItem, RowHeat};
pub use scheduler::{FetchScheduler, FetchStatus};
pub use shard_reader::DecodedChunk;

use crate::error::{CnrError, Result};
use crate::manifest::{CheckpointId, Manifest};
use crate::restore::{load_chain, validate_geometry, validate_shard_summaries, RestoreReport};
use cnr_cluster::{HostKill, ResumeBreakdown};
use cnr_model::config::ModelConfig;
use cnr_model::state::ModelState;
use cnr_storage::ObjectStore;
use shard_reader::ShardReader;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Configuration of a sharded restore.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestoreOptions {
    /// Simulated reader hosts: each fetches its share of the chain over
    /// its own downlink. 1 = the single-host path.
    pub reader_hosts: usize,
    /// Bounded in-flight window of the fetch scheduler: at most this many
    /// ranged reads per host may be in flight (in simulated time) before
    /// backpressure delays the next one.
    pub fetch_window: usize,
    /// Decode worker threads, spread across reader hosts exactly like the
    /// write path's quantize workers.
    pub decode_workers: usize,
    /// Transient read-failure retries per ranged fetch before the restore
    /// fails.
    pub fetch_retries: u32,
    /// Lazy (CPR-style) restore at this hot fraction: fetch in priority
    /// order, apply only the chunks covering this fraction of rows (by
    /// heat rank) to the model view before declaring first batch, and hand
    /// the rows still pending back as a [`LazyRestore`] for fault-in or
    /// background drain; `Some(1.0)` has eager timing. `None` restores
    /// eagerly.
    pub lazy_hot_fraction: Option<f64>,
}

impl Default for RestoreOptions {
    fn default() -> Self {
        Self {
            reader_hosts: 1,
            fetch_window: 8,
            decode_workers: 2,
            fetch_retries: 2,
            lazy_hot_fraction: None,
        }
    }
}

impl RestoreOptions {
    /// Validates the options.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.reader_hosts == 0 {
            return Err("need at least one reader host".into());
        }
        if self.reader_hosts > u16::MAX as usize {
            return Err("reader_hosts exceeds the shard id space".into());
        }
        if self.fetch_window == 0 {
            return Err("fetch window must admit at least one range".into());
        }
        if self.decode_workers == 0 {
            return Err("need at least one decode worker".into());
        }
        if let Some(f) = self.lazy_hot_fraction {
            if !f.is_finite() || !(0.0..=1.0).contains(&f) {
                return Err("lazy_hot_fraction must lie in [0, 1]".into());
            }
        }
        Ok(())
    }
}

/// Fetch activity of one reader host during a sharded restore, for
/// per-host timeline spans and load-balance diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostActivity {
    /// Reader host id (shard index).
    pub host: u16,
    /// Chunks this host fetched and decoded (including rescued chunks it
    /// absorbed from a dead host).
    pub chunks: u64,
    /// Total chunk payload bytes this host fetched.
    pub bytes: u64,
    /// Absolute simulated time of this host's last chunk arrival.
    pub last_arrival: Duration,
}

/// Outcome of a sharded restore: the serial-compatible report plus the
/// recovery pipeline's accounting.
#[derive(Debug, Clone)]
pub struct ShardedRestore {
    /// Same shape as the serial path's report — the restored state is
    /// bit-identical to [`crate::restore::restore`].
    pub report: RestoreReport,
    /// Fetch/decode/merge time-to-resume breakdown for the cluster layer.
    pub breakdown: ResumeBreakdown,
    /// Absolute simulated time at which the last ranged fetch arrived.
    pub ready_at: Duration,
    /// Absolute simulated time at which training may resume: for an eager
    /// restore this equals `ready_at`; for a lazy one it is when the last
    /// *hot* chunk landed (the cold tail keeps draining past it).
    pub first_batch_at: Duration,
    /// The tail of a lazy restore (rows whose eager value is not yet in
    /// the view, awaiting fault-in or drain); `None` for eager restores.
    pub lazy: Option<LazyRestore>,
    /// Reader hosts that died mid-restore (their remaining chunks were
    /// re-sharded onto the survivors).
    pub killed_hosts: Vec<u16>,
    /// Final fetch-scheduler counters (parts, stalls, retries).
    pub fetch_status: FetchStatus,
    /// Per-host fetch activity (one entry per host that fetched at least
    /// one chunk, ordered by host id).
    pub host_activity: Vec<HostActivity>,
    /// Absolute simulated time at which the restore plan existed: the
    /// manifest chain was walked and validated, so chunk fetches could
    /// begin. Equals the fetch floor the scheduler enforces.
    pub plan_ready_at: Duration,
}

/// Restores checkpoint `target` across `options.reader_hosts` parallel
/// reader hosts, bit-identically to the serial [`crate::restore::restore`].
/// `started_at` is the simulated time the recovery began (the failure
/// instant); the reported fetch time is measured from it.
pub fn restore_sharded(
    store: &dyn ObjectStore,
    job: &str,
    target: CheckpointId,
    config: &ModelConfig,
    options: &RestoreOptions,
    started_at: Duration,
) -> Result<ShardedRestore> {
    restore_sharded_with_heat(store, job, target, config, options, started_at, None, None)
}

/// [`restore_sharded`] with reader-host failure injection and an explicit
/// access-heat model for priority planning.
///
/// The host named by `kill` dies after fetching `kill.after_chunks`
/// chunks; its remaining chunks are re-sharded onto the surviving hosts
/// and the restore still completes bit-identically.
///
/// `heat` matters only for a lazy restore; a lazy restore without one
/// falls back to uniform heat (priority order degenerates to key order,
/// but the hot cutoff still bounds the first batch's working set).
#[allow(clippy::too_many_arguments)]
pub fn restore_sharded_with_heat(
    store: &dyn ObjectStore,
    job: &str,
    target: CheckpointId,
    config: &ModelConfig,
    options: &RestoreOptions,
    started_at: Duration,
    kill: Option<HostKill>,
    heat: Option<&RowHeat>,
) -> Result<ShardedRestore> {
    options.validate().map_err(CnrError::Config)?;
    let cache_before = store.cache_stats();
    let hosts = options.reader_hosts.max(1);
    let fetch_sched = FetchScheduler::new(
        store,
        hosts,
        options.fetch_window,
        options.fetch_retries,
        started_at,
    );

    // --- Plan: walk the chain, validate, assign chunks to hosts. --------
    // Manifests download through the timed path too (serialized on host
    // 0's downlink — each base pointer is only known once its successor
    // decodes), so chain-walk latency lands in the fetch accounting.
    let chain = load_chain(target, |id| {
        let key = Manifest::key(job, id);
        let size = store.head(&key).map_err(CnrError::from)?.size;
        let (bytes, _arrived) = fetch_sched.fetch_chunk(0, &key, size, 1)?;
        Manifest::decode_payload(scheduler::verified_payload(&bytes))
    })?;
    let newest = chain.last().unwrap().clone();
    validate_geometry(&newest, config)?;
    for manifest in &chain {
        validate_shard_summaries(manifest)?;
    }
    // Chunk fetches may not start before the plan that names them exists.
    fetch_sched.set_floor(fetch_sched.ready_at());
    let plan_floor = fetch_sched.ready_at();
    let uniform_heat;
    let assignments = if let Some(hot_fraction) = options.lazy_hot_fraction {
        let heat = match heat {
            Some(h) => h,
            None => {
                let row_counts: Vec<usize> =
                    newest.tables.iter().map(|t| t.rows as usize).collect();
                uniform_heat = RowHeat::uniform(&row_counts);
                &uniform_heat
            }
        };
        planner::plan_priority(&chain, hosts, heat, hot_fraction)
    } else {
        planner::plan(&chain, hosts)
    };

    // --- Fetch + decode on the host pipeline. ----------------------------
    let decode_nanos = AtomicU64::new(0);
    let reader = ShardReader {
        scheduler: &fetch_sched,
        decode_nanos: &decode_nanos,
    };
    let run = crate::hosts::run(&reader, options.decode_workers, assignments, kill, |_, _| {})?;
    let mut decoded: Vec<DecodedChunk> = Vec::new();
    let mut host_activity: Vec<HostActivity> = Vec::new();
    for (host, chunks) in run.outputs {
        note_activity(&mut host_activity, host, &chunks);
        decoded.extend(chunks);
    }

    // --- Merge: assemble the model bit-identically to the serial path. --
    // (Lazy mode applies hot chunks to the view and leaves the rest
    // pending in the LazyRestore; first batch is the last hot arrival.)
    let chunks_fetched = decoded.len() as u64;
    let chunk_bytes: u64 = decoded.iter().map(|d| d.bytes).sum();
    let hot_ready = decoded
        .iter()
        .filter(|d| d.hot)
        .map(|d| d.arrived_at)
        .max()
        .unwrap_or(plan_floor);
    host_activity.sort_by_key(|a| a.host);
    let merge_t0 = Instant::now();
    let lazy = options.lazy_hot_fraction.is_some();
    let merged = merge::merge(&chain, decoded, lazy)?;
    let merge_time = merge_t0.elapsed();

    let manifest_bytes: u64 = chain.iter().map(Manifest::stored_len).sum();
    let bytes_read = chunk_bytes + manifest_bytes;
    let shards_merged = chain.iter().map(|m| m.shards.len()).sum();
    let ready_at = fetch_sched.ready_at();
    let first_batch_at = if lazy {
        hot_ready.max(plan_floor)
    } else {
        ready_at
    };
    let fetch_status = fetch_sched.poll(Duration::MAX);

    let cache_hit_rate = match (cache_before, store.cache_stats()) {
        (Some(before), Some(after)) => Some(after.since(before).hit_rate()),
        _ => None,
    };
    let breakdown = ResumeBreakdown {
        // The restore pipeline starts at `started_at`; any wait between
        // the failure instant and that point (an in-flight upload drain)
        // is the engine's to account — it fills this in.
        drain_wait: Duration::ZERO,
        fetch: ready_at.saturating_sub(started_at),
        decode: Duration::from_nanos(decode_nanos.load(Ordering::Relaxed)),
        merge: merge_time,
        reader_hosts: hosts,
        bytes_fetched: bytes_read,
        chunks_fetched,
        rescheduled_chunks: run.rescheduled as u64,
        corruption_detected: fetch_status.corruption_detected,
        corruption_repaired: fetch_status.corruption_repaired,
        corruption_refetches: fetch_status.corruption_refetches,
        cache_hit_rate,
        // The engine replays the delta-WAL tail (if any) after the sharded
        // restore finishes and fills these in.
        restore_point: cnr_cluster::RestorePoint::Checkpoint,
        wal_replay: Duration::ZERO,
        wal_replayed_iterations: 0,
        lost_iterations: 0,
        // Eager: first batch == fully resumed. Lazy: first batch when the
        // hot set landed; the engine adds drain-wait and WAL replay.
        time_to_first_batch: first_batch_at.saturating_sub(started_at)
            + Duration::from_nanos(decode_nanos.load(Ordering::Relaxed))
            + merge_time,
        mode: if lazy {
            cnr_cluster::RestoreMode::Lazy
        } else {
            cnr_cluster::RestoreMode::Eager
        },
    };

    Ok(ShardedRestore {
        report: RestoreReport {
            chain: chain.iter().map(|m| m.id).collect(),
            state: ModelState {
                tables: merged.tables,
                bottom: newest.bottom_mlp.clone(),
                top: newest.top_mlp.clone(),
                iteration: newest.iteration,
            },
            reader: newest.reader_state,
            scheme: newest.scheme,
            rows_applied: merged.rows_applied,
            shards_merged,
            bytes_read,
            incremental_rows: merged.incremental_rows,
        },
        breakdown,
        ready_at,
        first_batch_at,
        lazy: merged.lazy,
        killed_hosts: run.killed,
        fetch_status,
        host_activity,
        plan_ready_at: plan_floor,
    })
}

/// Folds one host's fetch-pass outcome into the per-host activity table
/// (a killed host's partial work and a survivor's rescue share both
/// accrue to the host that actually fetched the chunks).
fn note_activity(activity: &mut Vec<HostActivity>, host: u16, decoded: &[DecodedChunk]) {
    if decoded.is_empty() {
        return;
    }
    let chunks = decoded.len() as u64;
    let bytes: u64 = decoded.iter().map(|d| d.bytes).sum();
    let last = decoded.iter().map(|d| d.arrived_at).max().unwrap_or_default();
    match activity.iter_mut().find(|a| a.host == host) {
        Some(a) => {
            a.chunks += chunks;
            a.bytes += bytes;
            a.last_arrival = a.last_arrival.max(last);
        }
        None => activity.push(HostActivity {
            host,
            chunks,
            bytes,
            last_arrival: last,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CheckpointConfig;
    use crate::manifest::CheckpointKind;
    use crate::policy::{Decision, TrackerAction};
    use crate::restore::restore;
    use crate::snapshot::{SnapshotTaker, TrainingSnapshot};
    use cnr_cluster::SimClock;
    use cnr_model::{DlrmModel, ModelConfig, ShardPlan};
    use cnr_quant::QuantScheme;
    use cnr_reader::ReaderState;
    use cnr_storage::{
        FailureMode, FlakyStore, InMemoryStore, RemoteConfig, SimulatedRemoteStore, TieredStore,
    };
    use cnr_workload::{DatasetSpec, SyntheticDataset};

    fn snapshot_after(batches: u64, dim: usize) -> (ModelConfig, TrainingSnapshot) {
        let spec = DatasetSpec::tiny(321);
        let ds = SyntheticDataset::new(spec.clone());
        let cfg = ModelConfig::for_dataset(&spec, dim);
        let model = DlrmModel::new(cfg.clone());
        let mut trainer = cnr_trainer::Trainer::new(
            model,
            SimClock::new(),
            cnr_trainer::TrainerConfig::default(),
        );
        for i in 0..batches {
            trainer.train_one(&ds.batch(i));
        }
        let snap = SnapshotTaker::new(ShardPlan::balanced(&cfg, 1, 2)).take(
            &mut trainer,
            ReaderState::at(batches),
            Decision {
                kind: CheckpointKind::Full,
                tracker: TrackerAction::SnapshotReset,
            },
            &CheckpointConfig::default(),
        );
        (cfg, snap)
    }

    fn write_to(store: &dyn cnr_storage::ObjectStore, snap: &TrainingSnapshot, hosts: usize) {
        write_to_with_parts(store, snap, hosts, 1 << 20);
    }

    fn write_to_with_parts(
        store: &dyn cnr_storage::ObjectStore,
        snap: &TrainingSnapshot,
        hosts: usize,
        part_bytes: usize,
    ) {
        let writer = crate::write::CheckpointWriter::new(store, "job");
        let cfg = CheckpointConfig {
            chunk_rows: 100,
            writer_hosts: hosts,
            part_bytes,
            ..CheckpointConfig::default()
        };
        writer
            .write(snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
            .unwrap();
    }

    fn opts(hosts: usize) -> RestoreOptions {
        RestoreOptions {
            reader_hosts: hosts,
            ..RestoreOptions::default()
        }
    }

    #[test]
    fn sharded_restore_matches_serial_report() {
        let (model_cfg, snap) = snapshot_after(3, 8);
        let store = InMemoryStore::new();
        write_to(&store, &snap, 3);
        let serial = restore(&store, "job", CheckpointId(0), &model_cfg).unwrap();
        for hosts in [1usize, 2, 4, 7] {
            let sharded = restore_sharded(
                &store,
                "job",
                CheckpointId(0),
                &model_cfg,
                &opts(hosts),
                Duration::ZERO,
            )
            .unwrap();
            assert_eq!(sharded.report.state, serial.state, "hosts={hosts}");
            assert_eq!(sharded.report.chain, serial.chain);
            assert_eq!(sharded.report.rows_applied, serial.rows_applied);
            assert_eq!(sharded.report.shards_merged, serial.shards_merged);
            assert_eq!(sharded.report.bytes_read, serial.bytes_read);
            assert_eq!(
                sharded.report.incremental_rows.modified_rows(),
                serial.incremental_rows.modified_rows()
            );
            assert_eq!(sharded.breakdown.reader_hosts, hosts);
            let manifest =
                crate::restore::load_manifest(&store, "job", CheckpointId(0)).unwrap();
            assert_eq!(
                sharded.breakdown.chunks_fetched as usize,
                manifest.chunks.len(),
                "every chunk of the chain fetched exactly once"
            );
            assert!(sharded.killed_hosts.is_empty());
        }
    }

    #[test]
    fn eight_reader_hosts_reach_ready_to_train_sooner() {
        let (model_cfg, snap) = snapshot_after(3, 16);
        let ready_with = |hosts: usize| {
            let clock = SimClock::new();
            let store = SimulatedRemoteStore::new(
                RemoteConfig {
                    bandwidth_bytes_per_sec: 1024.0 * 1024.0, // 1 MB/s per downlink
                    base_latency: Duration::from_micros(50),
                    replication: 1,
                    channels: hosts as u32,
                },
                clock.clone(),
            );
            write_to(&store, &snap, 1); // written single-host either way
            // The failure hits after the write drained: no fetch may start
            // before it (matching the engine, which advances the clock).
            let write_drained = store.wait_for_drain();
            let sharded = restore_sharded(
                &store,
                "job",
                CheckpointId(0),
                &model_cfg,
                &opts(hosts),
                write_drained,
            )
            .unwrap();
            assert_eq!(sharded.report.state, snap.model, "fp32 bit-exact");
            sharded.ready_at.saturating_sub(write_drained)
        };
        let one = ready_with(1);
        let eight = ready_with(8);
        assert!(
            eight.as_secs_f64() < 0.25 * one.as_secs_f64(),
            "8 downlinks should approach 8x faster ready-to-train: 1-host {one:?}, 8-host {eight:?}"
        );
    }

    #[test]
    fn killed_reader_host_reshards_onto_survivors() {
        let (model_cfg, snap) = snapshot_after(3, 8);
        let store = InMemoryStore::new();
        write_to(&store, &snap, 2);
        let kill = HostKill {
            host: 1,
            after_chunks: 1,
        };
        let sharded = restore_sharded_with_heat(
            &store,
            "job",
            CheckpointId(0),
            &model_cfg,
            &opts(4),
            Duration::ZERO,
            Some(kill),
            None,
        )
        .unwrap();
        assert_eq!(sharded.killed_hosts, vec![1]);
        assert!(sharded.breakdown.rescheduled_chunks > 0);
        // Bit-identical despite the death.
        let serial = restore(&store, "job", CheckpointId(0), &model_cfg).unwrap();
        assert_eq!(sharded.report.state, serial.state);
        assert_eq!(sharded.report.rows_applied, serial.rows_applied);
    }

    #[test]
    fn all_reader_hosts_dead_is_an_error() {
        let (model_cfg, snap) = snapshot_after(2, 8);
        let store = InMemoryStore::new();
        write_to(&store, &snap, 1);
        let result = restore_sharded_with_heat(
            &store,
            "job",
            CheckpointId(0),
            &model_cfg,
            &opts(1),
            Duration::ZERO,
            Some(HostKill {
                host: 0,
                after_chunks: 0,
            }),
            None,
        );
        assert!(matches!(result, Err(CnrError::Pipeline(_))));
    }

    #[test]
    fn transient_read_failures_heal_under_retries() {
        let (model_cfg, snap) = snapshot_after(3, 8);
        let inner = InMemoryStore::new();
        write_to(&inner, &snap, 2);
        let store = FlakyStore::failing_reads(inner, FailureMode::Every(5));
        let options = RestoreOptions {
            reader_hosts: 2,
            fetch_retries: 3,
            ..RestoreOptions::default()
        };
        let sharded = restore_sharded(
            &store,
            "job",
            CheckpointId(0),
            &model_cfg,
            &options,
            Duration::ZERO,
        )
        .unwrap();
        assert_eq!(sharded.report.state, snap.model);
        assert!(sharded.fetch_status.retries_performed > 0);
        assert!(store.read_failures_injected() > 0);
    }

    #[test]
    fn warm_tiered_cache_shortcuts_the_remote_fetch() {
        let (model_cfg, snap) = snapshot_after(3, 8);
        let clock = SimClock::new();
        let remote = SimulatedRemoteStore::new(
            RemoteConfig {
                bandwidth_bytes_per_sec: 1024.0 * 1024.0,
                base_latency: Duration::from_millis(1),
                replication: 1,
                channels: 4,
            },
            clock,
        );
        let store = TieredStore::new(InMemoryStore::new(), remote, 1 << 30);
        // Tiny parts: every chunk is multipart, so warm hits depend on the
        // reassembly being offered back to the cache (`offer_cached`) —
        // partial ranges alone can never populate it.
        write_to_with_parts(&store, &snap, 2, 1024);
        let drained = store.remote().drained_at();
        // Cold restore: chunks went up multipart, so reads miss and pay the
        // remote channel.
        let cold = restore_sharded(
            &store,
            "job",
            CheckpointId(0),
            &model_cfg,
            &opts(4),
            drained,
        )
        .unwrap();
        assert_eq!(cold.report.state, snap.model);
        let cold_rate = cold.breakdown.cache_hit_rate.expect("tiered store");
        assert!(cold_rate < 0.5, "cold restore mostly misses: {cold_rate}");
        assert!(cold.breakdown.fetch > Duration::ZERO);
        // Warm restore: everything cached, no remote transfer at all.
        let warm_start = store.remote().drained_at();
        let warm = restore_sharded(
            &store,
            "job",
            CheckpointId(0),
            &model_cfg,
            &opts(4),
            warm_start,
        )
        .unwrap();
        assert_eq!(warm.report.state, snap.model);
        assert_eq!(warm.breakdown.cache_hit_rate, Some(1.0));
        assert_eq!(
            warm.breakdown.fetch,
            Duration::ZERO,
            "cache hits are local reads"
        );
    }

    #[test]
    fn invalid_options_are_rejected() {
        let (model_cfg, snap) = snapshot_after(1, 8);
        let store = InMemoryStore::new();
        write_to(&store, &snap, 1);
        for bad in [
            RestoreOptions {
                reader_hosts: 0,
                ..RestoreOptions::default()
            },
            RestoreOptions {
                fetch_window: 0,
                ..RestoreOptions::default()
            },
            RestoreOptions {
                decode_workers: 0,
                ..RestoreOptions::default()
            },
            RestoreOptions {
                lazy_hot_fraction: Some(-0.1),
                ..RestoreOptions::default()
            },
            RestoreOptions {
                lazy_hot_fraction: Some(1.5),
                ..RestoreOptions::default()
            },
            RestoreOptions {
                lazy_hot_fraction: Some(f64::NAN),
                ..RestoreOptions::default()
            },
        ] {
            assert!(matches!(
                restore_sharded(
                    &store,
                    "job",
                    CheckpointId(0),
                    &model_cfg,
                    &bad,
                    Duration::ZERO
                ),
                Err(CnrError::Config(_))
            ));
        }
    }

    #[test]
    fn decode_workers_do_not_change_the_result() {
        let (model_cfg, snap) = snapshot_after(3, 8);
        let store = InMemoryStore::new();
        write_to(&store, &snap, 3);
        let run = |workers: usize| {
            restore_sharded(
                &store,
                "job",
                CheckpointId(0),
                &model_cfg,
                &RestoreOptions {
                    reader_hosts: 3,
                    decode_workers: workers,
                    ..RestoreOptions::default()
                },
                Duration::ZERO,
            )
            .unwrap()
            .report
            .state
        };
        assert_eq!(run(1), run(6), "worker count must not change output");

        // Nor the simulated schedule: a host issues its fetches in
        // assignment order however many threads decode for it, so a lazy
        // single-host restore lands its hot set at the same instant on 8
        // workers as on 1, every time.
        let row_counts: Vec<usize> = model_cfg.tables.iter().map(|t| t.rows as usize).collect();
        let heat = RowHeat::zipf(&row_counts, 1.05);
        let lazy = |workers: usize| {
            let store = SimulatedRemoteStore::new(
                RemoteConfig {
                    bandwidth_bytes_per_sec: 1024.0 * 1024.0,
                    base_latency: Duration::from_micros(50),
                    replication: 1,
                    channels: 1,
                },
                SimClock::new(),
            );
            let cfg = CheckpointConfig {
                chunk_rows: 10,
                quantize_workers: 1,
                ..CheckpointConfig::default()
            };
            crate::write::CheckpointWriter::new(&store, "job")
                .write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
                .unwrap();
            let failed_at = store.wait_for_drain();
            let sharded = restore_sharded_with_heat(
                &store,
                "job",
                CheckpointId(0),
                &model_cfg,
                &RestoreOptions {
                    reader_hosts: 1,
                    decode_workers: workers,
                    lazy_hot_fraction: Some(0.05),
                    ..RestoreOptions::default()
                },
                failed_at,
                None,
                Some(&heat),
            )
            .unwrap();
            (sharded.first_batch_at, sharded.ready_at, sharded.host_activity)
        };
        let serial = lazy(1);
        // Threads reordering a host's fetches showed in a few percent of
        // runs; 200 repeats caught it in 20 of 20 test runs.
        for run in 0..200 {
            assert_eq!(lazy(8), serial, "run {run}: 8 decode workers moved the schedule");
        }
    }

    #[test]
    fn lazy_restore_plus_drain_is_bit_identical_to_eager() {
        use cnr_model::state::ModelState;
        let (model_cfg, snap) = snapshot_after(3, 8);
        let store = InMemoryStore::new();
        write_to(&store, &snap, 2);
        let eager = restore_sharded(
            &store,
            "job",
            CheckpointId(0),
            &model_cfg,
            &opts(2),
            Duration::ZERO,
        )
        .unwrap();
        let row_counts: Vec<usize> = model_cfg.tables.iter().map(|t| t.rows as usize).collect();
        let heat = RowHeat::zipf(&row_counts, 1.05);
        for hot_fraction in [0.0, 0.05, 0.5, 1.0] {
            let options = RestoreOptions {
                reader_hosts: 2,
                lazy_hot_fraction: Some(hot_fraction),
                ..RestoreOptions::default()
            };
            let sharded = restore_sharded_with_heat(
                &store,
                "job",
                CheckpointId(0),
                &model_cfg,
                &options,
                Duration::ZERO,
                None,
                Some(&heat),
            )
            .unwrap();
            assert!(
                sharded.report.rows_applied <= eager.report.rows_applied,
                "lazy applies at most the eager row count before first batch"
            );
            if hot_fraction == 0.0 {
                assert_eq!(sharded.report.rows_applied, 0, "nothing is hot at K=0");
            }
            let mut tail = sharded.lazy.expect("lazy restore returns its cold tail");
            let mut model = DlrmModel::new(model_cfg.clone());
            sharded.report.state.restore(&mut model);
            tail.drain(&mut model);
            assert!(tail.is_drained());
            assert_eq!(
                ModelState::extract(&model),
                eager.report.state,
                "drained lazy restore bit-identical to eager (hot_fraction={hot_fraction})"
            );
            // Chain metadata is mode-independent.
            assert_eq!(sharded.report.chain, eager.report.chain);
            assert_eq!(sharded.report.bytes_read, eager.report.bytes_read);
            assert_eq!(
                sharded.report.incremental_rows.modified_rows(),
                eager.report.incremental_rows.modified_rows(),
                "tracker reseed must see cold incremental rows too"
            );
        }
    }

    #[test]
    fn lazy_restore_reaches_first_batch_before_full_ready() {
        let (model_cfg, snap) = snapshot_after(3, 16);
        let clock = SimClock::new();
        let store = SimulatedRemoteStore::new(
            RemoteConfig {
                bandwidth_bytes_per_sec: 1024.0 * 1024.0,
                base_latency: Duration::from_micros(50),
                replication: 1,
                channels: 2,
            },
            clock.clone(),
        );
        write_to(&store, &snap, 1);
        let write_drained = store.wait_for_drain();
        let row_counts: Vec<usize> = model_cfg.tables.iter().map(|t| t.rows as usize).collect();
        let heat = RowHeat::zipf(&row_counts, 1.05);
        let options = RestoreOptions {
            reader_hosts: 2,
            lazy_hot_fraction: Some(0.1),
            ..RestoreOptions::default()
        };
        let sharded = restore_sharded_with_heat(
            &store,
            "job",
            CheckpointId(0),
            &model_cfg,
            &options,
            write_drained,
            None,
            Some(&heat),
        )
        .unwrap();
        assert!(
            sharded.first_batch_at < sharded.ready_at,
            "hot set lands before the cold tail: first_batch={:?} ready={:?}",
            sharded.first_batch_at,
            sharded.ready_at
        );
        assert!(sharded.breakdown.time_to_first_batch < sharded.breakdown.time_to_resume());
        let tail = sharded.lazy.expect("cold tail present");
        assert!(tail.pending_rows() > 0, "something was actually deferred");
    }

    #[test]
    fn restore_heals_a_corrupt_read_and_reports_it() {
        use cnr_storage::{CorruptionKind, CorruptionSpec, FlakyStore};
        let (model_cfg, snap) = snapshot_after(3, 8);
        let inner = InMemoryStore::new();
        write_to(&inner, &snap, 2);
        let clean = restore(&inner, "job", CheckpointId(0), &model_cfg).unwrap();
        // One chunk read comes back bit-flipped; the refetch is healthy.
        let store = FlakyStore::corrupting_reads(
            inner,
            CorruptionSpec::once(CorruptionKind::BitFlip, 1),
        )
        .with_corrupt_key_filter("-chunk-");
        let sharded = restore_sharded(
            &store,
            "job",
            CheckpointId(0),
            &model_cfg,
            &RestoreOptions {
                reader_hosts: 2,
                fetch_retries: 2,
                ..RestoreOptions::default()
            },
            Duration::ZERO,
        )
        .unwrap();
        assert_eq!(sharded.report.state, clean.state, "healed restore is bit-identical");
        assert_eq!(sharded.breakdown.corruption_detected, 1);
        assert_eq!(sharded.breakdown.corruption_repaired, 1);
        assert_eq!(sharded.breakdown.corruption_refetches, 1);
        assert_eq!(
            sharded.fetch_status.retries_performed, 0,
            "healing must not masquerade as transient retries"
        );
    }

    #[test]
    fn head_failure_mid_restore_is_absorbed() {
        let (model_cfg, snap) = snapshot_after(3, 8);
        let inner = InMemoryStore::new();
        write_to(&inner, &snap, 2);
        let clean = restore(&inner, "job", CheckpointId(0), &model_cfg).unwrap();
        // Tiered store whose remote drops every second metadata probe: the
        // miss path's whole-object size probe is best-effort, so a probe
        // failing mid-restore only loses cache population — the data that
        // already arrived is served and the restore completes. (Before the
        // fix, the probe ran *after* the successful ranged read and its
        // failure failed the whole read.)
        let store = TieredStore::new(
            InMemoryStore::new(),
            FlakyStore::failing_heads(inner, FailureMode::Every(2)),
            1 << 30,
        );
        let sharded = restore_sharded(
            &store,
            "job",
            CheckpointId(0),
            &model_cfg,
            &opts(2),
            Duration::ZERO,
        )
        .unwrap();
        assert_eq!(sharded.report.state, clean.state, "bit-identical despite probe outage");
        assert!(store.remote().head_failures_injected() > 0, "probes did fail");
    }

    #[test]
    fn unhealable_corruption_fails_the_restore_with_a_typed_error() {
        use crate::error::CnrError;
        use cnr_storage::{CorruptionKind, CorruptionSpec, FlakyStore};
        let (model_cfg, snap) = snapshot_after(3, 8);
        let inner = InMemoryStore::new();
        write_to(&inner, &snap, 2);
        // Every replica of every chunk read is damaged: no retry budget
        // can heal it, and the restore must refuse to return garbage.
        let store = FlakyStore::corrupting_reads(
            inner,
            CorruptionSpec::every(CorruptionKind::BitFlip, 1),
        )
        .with_corrupt_key_filter("-chunk-");
        let err = restore_sharded(
            &store,
            "job",
            CheckpointId(0),
            &model_cfg,
            &RestoreOptions {
                reader_hosts: 2,
                fetch_retries: 2,
                ..RestoreOptions::default()
            },
            Duration::ZERO,
        )
        .unwrap_err();
        assert!(
            matches!(err, CnrError::Corrupt(_)),
            "typed corruption error, got {err:?}"
        );
    }
}
