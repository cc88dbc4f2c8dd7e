//! `bulk_fp32` and `bulk_q4`: repeated full checkpoint of the whole model,
//! then an eager sharded restore, through `SimulatedRemoteStore`.
//!
//! One cycle = `SnapshotTaker::take` → `CheckpointWriter::write` → drain →
//! `restore_sharded` → output check. Each cycle writes into a fresh store
//! on the trainer's clock, so every cycle's simulated and exact results
//! are identical and the wall-clock samples are comparable. The model is
//! not trained between cycles: the snapshot of every cycle equals the
//! model, which is what the output checks compare against.

use crate::kernels;
use crate::report::Report;
use crate::shape::Shape;
use crate::store::{StoreTotals, TimedStore};
use crate::trace::{layer_self_times, scoped, Tracer};
use crate::{median, rms_diff, RunArgs};
use bytes::Bytes;
use cnr_cluster::{ResumeBreakdown, SimClock};
use cnr_core::config::CheckpointConfig;
use cnr_core::manifest::{CheckpointId, CheckpointKind};
use cnr_core::policy::{Decision, TrackerAction};
use cnr_core::read::{restore_sharded, RestoreOptions};
use cnr_core::snapshot::SnapshotTaker;
use cnr_core::write::{CheckpointRecord, CheckpointWriter};
use cnr_model::{DlrmModel, ModelConfig, ShardPlan};
use cnr_quant::QuantScheme;
use cnr_reader::ReaderState;
use cnr_storage::{ObjectStore, RemoteConfig, SimulatedRemoteStore};
use cnr_trainer::{Trainer, TrainerConfig};
use cnr_workload::SyntheticDataset;
use std::time::{Duration, Instant};

/// Simulated writer and reader hosts (one store channel each).
const HOSTS: usize = 2;
/// Quantize and decode worker threads.
const WORKERS: usize = 2;
/// Batches trained once during set-up, so the checkpointed weights are
/// not the bare initialization.
const SHAPING_BATCHES: u64 = 4;
/// Measured cycles per untraced run at least (more while time remains).
const MIN_CYCLES: usize = 2;
/// Cycles per run at most.
const MAX_CYCLES: usize = 40;
const JOB: &str = "bench";

/// The checkpoint configuration of both bulk workloads.
fn checkpoint_config() -> CheckpointConfig {
    CheckpointConfig {
        writer_hosts: HOSTS,
        reader_hosts: HOSTS,
        quantize_workers: WORKERS,
        ..CheckpointConfig::default()
    }
}

/// The restore options of both bulk workloads (eager).
fn restore_options() -> RestoreOptions {
    RestoreOptions {
        reader_hosts: HOSTS,
        decode_workers: WORKERS,
        ..RestoreOptions::default()
    }
}

/// The store configuration of both bulk workloads: the default remote
/// link with one channel per host.
fn remote_config() -> RemoteConfig {
    RemoteConfig::default().with_channels(HOSTS as u32)
}

/// Everything built before the first timed operation.
pub struct Setup {
    cfg: ModelConfig,
    trainer: Trainer,
    taker: SnapshotTaker,
    /// `bulk_q4`: every row as `scheme.quantize_row(row).dequantize()`,
    /// per table — what a correct restore must return, bit for bit.
    expected: Option<Vec<Vec<f32>>>,
}

/// Builds the model, trains the shaping batches, and builds the expected
/// restore output.
pub fn setup(shape: Shape, seed: u64, scheme: QuantScheme) -> Setup {
    let spec = shape.dataset_spec(seed);
    let dataset = SyntheticDataset::new(spec.clone());
    let cfg = ModelConfig::for_dataset(&spec, shape.dim);
    let mut trainer = Trainer::new(
        DlrmModel::new(cfg.clone()),
        SimClock::new(),
        TrainerConfig::default(),
    );
    for i in 0..SHAPING_BATCHES {
        trainer.train_one(&dataset.batch(i));
    }
    let expected = (scheme != QuantScheme::Fp32).then(|| expected_rows(&trainer, scheme));
    let taker = SnapshotTaker::new(ShardPlan::balanced(&cfg, 1, 8));
    Setup {
        cfg,
        trainer,
        taker,
        expected,
    }
}

/// Every table's rows as `scheme.quantize_row(row).dequantize()`, built
/// on [`WORKERS`] threads.
fn expected_rows(trainer: &Trainer, scheme: QuantScheme) -> Vec<Vec<f32>> {
    let dim = trainer.model().config().dim();
    let round_trip = |rows: &[f32]| -> Vec<f32> {
        rows.chunks_exact(dim)
            .flat_map(|row| scheme.quantize_row(row).dequantize())
            .collect()
    };
    trainer
        .model()
        .tables()
        .iter()
        .map(|t| {
            let data = t.data();
            let per_worker = data.len().div_ceil(dim * WORKERS) * dim;
            std::thread::scope(|scope| {
                let parts: Vec<_> = data
                    .chunks(per_worker.max(dim))
                    .map(|part| scope.spawn(move || round_trip(part)))
                    .collect();
                parts
                    .into_iter()
                    .flat_map(|h| h.join().expect("reference worker panicked"))
                    .collect()
            })
        })
        .collect()
}

/// What one cycle measured.
#[derive(Debug, Clone)]
pub struct Cycle {
    /// Wall time of `take` + `write` (snapshot start → manifest stored).
    pub ckpt_write: Duration,
    /// Wall time of `SnapshotTaker::take`.
    pub take: Duration,
    /// Wall time of `CheckpointWriter::write`.
    pub write: Duration,
    /// Wall time of `restore_sharded`.
    pub restore: Duration,
    /// Bytes of the snapshot's model state.
    pub snapshot_bytes: u64,
    /// Delta fraction the snapshot covered.
    pub modified_frac: f64,
    /// The write's record.
    pub record: CheckpointRecord,
    /// The restore's breakdown.
    pub breakdown: ResumeBreakdown,
    /// Ranged-read retries of the restore.
    pub fetch_retries: u64,
    /// Simulated failure → ready-to-train.
    pub sim_resume: Duration,
    /// RMS difference between restored and snapshot embeddings.
    pub rmse: f64,
    /// Store wrapper counters (traced cycles only).
    pub store: Option<StoreTotals>,
}

/// Runs one cycle. Errors and failed output checks are returned as
/// `Err` with a description; `chunk_sample` receives the stored chunk
/// bytes when it is empty and the cycle is traced.
pub fn cycle(
    s: &mut Setup,
    scheme: QuantScheme,
    tracer: Option<&Tracer>,
    index: usize,
    chunk_sample: &mut Vec<Bytes>,
) -> Result<Cycle, String> {
    let config = checkpoint_config();
    let remote = SimulatedRemoteStore::new(remote_config(), s.trainer.clock().clone());
    let timed = tracer.map(|t| TimedStore::new(&remote, Some(t)));
    let store: &dyn ObjectStore = match &timed {
        Some(t) => t,
        None => &remote,
    };
    let root = tracer.map(|t| {
        let r = t.begin("cycle", None);
        t.attr(r, "cycle", index.to_string());
        r
    });

    let reader = ReaderState::at(s.trainer.model().iteration());
    let decision = Decision {
        kind: CheckpointKind::Full,
        tracker: TrackerAction::SnapshotReset,
    };
    let t0 = Instant::now();
    let snap = scoped(tracer, "snapshot.take", root, || {
        s.taker.take(&mut s.trainer, reader, decision, &config)
    });
    let take = t0.elapsed();
    let t1 = Instant::now();
    let written = scoped(tracer, "write.call", root, || {
        CheckpointWriter::new(store, JOB).write(&snap, CheckpointId(0), None, scheme, &config)
    });
    let write = t1.elapsed();
    let ckpt_write = t0.elapsed();
    let record = written.map_err(|e| format!("write: {e}"))?;
    let snapshot_bytes = snap.model.byte_size() as u64;
    let modified_frac = snap.delta.fraction_modified();
    let snapshot_iteration = snap.model.iteration;
    drop(snap);

    let failed_at = remote.wait_for_drain();
    let t2 = Instant::now();
    let restored = scoped(tracer, "read.call", root, || {
        restore_sharded(
            store,
            JOB,
            CheckpointId(0),
            &s.cfg,
            &restore_options(),
            failed_at,
        )
    });
    let restore = t2.elapsed();
    let sharded = restored.map_err(|e| format!("restore: {e}"))?;

    if chunk_sample.is_empty() && tracer.is_some() {
        for c in &record.manifest.chunks {
            chunk_sample.push(
                remote
                    .get(&c.key)
                    .map_err(|e| format!("chunk sample: {e}"))?,
            );
        }
    }

    let checked = scoped(tracer, "bench.check", root, || {
        check(s, &sharded.report.state, snapshot_iteration)
    });
    if let (Some(t), Some(r)) = (tracer, root) {
        t.end(r);
        t.flush();
    }
    let rmse = checked?;
    Ok(Cycle {
        ckpt_write,
        take,
        write,
        restore,
        snapshot_bytes,
        modified_frac,
        fetch_retries: sharded.fetch_status.retries_performed,
        sim_resume: sharded.ready_at.saturating_sub(failed_at),
        breakdown: sharded.breakdown,
        record,
        rmse,
        store: timed.map(|t| t.totals()),
    })
}

/// Output check: `bulk_fp32` restores the snapshot bit for bit; `bulk_q4`
/// restores exactly the set-up reference `quantize_row(row).dequantize()`.
/// Both restore the dense layers and the iteration exactly. Returns the
/// embedding RMS difference from the snapshot.
fn check(s: &Setup, state: &cnr_model::ModelState, iteration: u64) -> Result<f64, String> {
    let model = s.trainer.model();
    if state.iteration != iteration {
        return Err(format!(
            "restored iteration {} != {iteration}",
            state.iteration
        ));
    }
    let bits_equal = |a: &[f32], b: &[f32]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    if !bits_equal(&state.bottom, &model.bottom().flatten())
        || !bits_equal(&state.top, &model.top().flatten())
    {
        return Err("restored dense layers differ from the snapshot".into());
    }
    if state.tables.len() != model.tables().len() {
        return Err("restored table count differs".into());
    }
    for (t, restored) in state.tables.iter().enumerate() {
        let want: &[f32] = match &s.expected {
            Some(expected) => &expected[t],
            None => model.tables()[t].data(),
        };
        if !bits_equal(&restored.data, want) {
            return Err(format!(
                "table {t}: restored rows differ from the expected rows"
            ));
        }
    }
    Ok(rms_diff(
        state
            .tables
            .iter()
            .zip(model.tables())
            .map(|(r, m)| (r.data.as_slice(), m.data())),
    ))
}

fn secs(samples: &[Duration]) -> Vec<f64> {
    samples.iter().map(Duration::as_secs_f64).collect()
}

/// Runs a bulk workload and fills its report.
pub fn run(shape: Shape, scheme: QuantScheme, args: RunArgs, tracer: Option<&Tracer>) -> Report {
    let mut report = Report::default();

    let t0 = Instant::now();
    let mut s = setup(shape, args.seed, scheme);
    report.set("setup_s", t0.elapsed().as_secs_f64());
    let model_bytes = s.trainer.model().state_bytes() as f64;

    // Cycle 0 warms up the allocator and the pages the cycle touches; its
    // wall times are not sampled. Traced runs then alternate untraced and
    // traced cycles, so the tracing overhead is measured inside one run.
    let min_cycles = 1 + if tracer.is_some() {
        2 * MIN_CYCLES
    } else {
        MIN_CYCLES
    };
    let mut start = Instant::now();
    let mut warm_up: Vec<Cycle> = Vec::new();
    let mut plain: Vec<Cycle> = Vec::new();
    let mut traced: Vec<Cycle> = Vec::new();
    let mut chunk_sample = Vec::new();
    let mut i = 0;
    while i < MAX_CYCLES && (i < min_cycles || start.elapsed() < args.seconds) {
        let t = tracer.filter(|_| i % 2 == 0 && i > 0);
        // One checkpoint and one restore per cycle; a failed check fails
        // the restore.
        match cycle(&mut s, scheme, t, i, &mut chunk_sample) {
            Ok(c) => {
                report.op(true, "checkpoint");
                report.op(true, "restore");
                match (i, t) {
                    (0, _) => {
                        warm_up.push(c);
                        start = Instant::now();
                    }
                    (_, Some(_)) => traced.push(c),
                    (_, None) => plain.push(c),
                }
            }
            Err(e) => {
                let write_failed = e.starts_with("write");
                report.op(!write_failed, format!("cycle {i}: {e}"));
                report.op(false, format!("cycle {i}: {e}"));
                break;
            }
        }
        i += 1;
    }

    let all: Vec<&Cycle> = warm_up.iter().chain(&plain).chain(&traced).collect();
    // Simulated and exact results must not depend on the cycle.
    if let Some(first) = all.first() {
        let same = all.iter().all(|c| {
            c.record.stored_bytes == first.record.stored_bytes
                && c.record.write_latency == first.record.write_latency
                && c.sim_resume == first.sim_resume
                && c.rmse.to_bits() == first.rmse.to_bits()
        });
        report.check(same, "simulated results differ between identical cycles");
        report.set(
            "ckpt_bytes_ratio",
            first.record.stored_bytes as f64 / model_bytes,
        );
        report.set("sim_write_s", first.record.write_latency.as_secs_f64());
        report.set("sim_resume_s", first.sim_resume.as_secs_f64());
        report.set("quant.restore_rmse", first.rmse);
    }
    let plain_write = secs(&plain.iter().map(|c| c.ckpt_write).collect::<Vec<_>>());
    let plain_restore = secs(&plain.iter().map(|c| c.restore).collect::<Vec<_>>());
    report.set_median("ckpt_write_s", &plain_write);
    report.set_median("restore_s", &plain_restore);

    if let Some(tracer) = tracer {
        per_layer(&mut report, &s, scheme, tracer, &traced, &chunk_sample);
        let overhead =
            |traced: &[f64], plain: &[f64]| median(traced) / median(plain).max(1e-12) - 1.0;
        let tw = secs(&traced.iter().map(|c| c.ckpt_write).collect::<Vec<_>>());
        let tr = secs(&traced.iter().map(|c| c.restore).collect::<Vec<_>>());
        report.set(
            "bench.trace_overhead_frac.ckpt_write_s",
            overhead(&tw, &plain_write),
        );
        report.set(
            "bench.trace_overhead_frac.restore_s",
            overhead(&tr, &plain_restore),
        );
    }
    report.set("peak_rss_mb", crate::peak_rss_mb());
    report
}

/// Per-layer metrics of the traced cycles.
fn per_layer(
    report: &mut Report,
    s: &Setup,
    scheme: QuantScheme,
    tracer: &Tracer,
    traced: &[Cycle],
    chunk_sample: &[Bytes],
) {
    let col = |f: &dyn Fn(&Cycle) -> f64| traced.iter().map(f).collect::<Vec<f64>>();
    let first = |f: &dyn Fn(&Cycle) -> f64| traced.first().map(f).unwrap_or(0.0);
    report.set_median("snapshot.take_s", &col(&|c| c.take.as_secs_f64()));
    report.set("snapshot.bytes", first(&|c| c.snapshot_bytes as f64));
    report.set_median("write.call_s", &col(&|c| c.write.as_secs_f64()));
    report.set_median(
        "write.quantize_cpu_s",
        &col(&|c| c.record.quantize_cpu_time.as_secs_f64()),
    );
    report.set(
        "write.chunks",
        first(&|c| c.record.manifest.chunks.len() as f64),
    );
    report.set("write.parts", first(&|c| f64::from(c.record.parts)));
    report.set("write.bytes", first(&|c| c.record.stored_bytes as f64));
    let totals = |c: &Cycle| c.store.unwrap_or_default();
    report.set("storage.put_calls", first(&|c| totals(c).put_calls as f64));
    report.set_median("storage.put_s", &col(&|c| totals(c).put_time.as_secs_f64()));
    report.set("storage.put_bytes", first(&|c| totals(c).put_bytes as f64));
    report.set("storage.get_calls", first(&|c| totals(c).get_calls as f64));
    report.set_median("storage.get_s", &col(&|c| totals(c).get_time.as_secs_f64()));
    report.set("storage.get_bytes", first(&|c| totals(c).get_bytes as f64));
    report.set(
        "storage.read_amplification",
        first(&|c| totals(c).get_bytes as f64 / c.record.stored_bytes.max(1) as f64),
    );
    report.set_median("read.call_s", &col(&|c| c.restore.as_secs_f64()));
    report.set_median(
        "read.decode_cpu_s",
        &col(&|c| c.breakdown.decode.as_secs_f64()),
    );
    report.set_median("read.merge_s", &col(&|c| c.breakdown.merge.as_secs_f64()));
    report.set("read.chunks", first(&|c| c.breakdown.chunks_fetched as f64));
    report.set("read.fetch_retries", first(&|c| c.fetch_retries as f64));
    report.set(
        "read.corruption_refetches",
        first(&|c| c.breakdown.corruption_refetches as f64),
    );
    report.set(
        "read.sim_fetch_s",
        first(&|c| c.breakdown.fetch.as_secs_f64()),
    );
    report.set("tracking.modified_frac", first(&|c| c.modified_frac));
    for name in [
        "engine.train_batches_s",
        "engine.checkpoint_s",
        "engine.restore_s",
        "engine.drain_s",
        "engine.upload_backlog_s",
        "engine.train_samples_per_s",
        "engine.restore_logloss_delta",
        "wal.appends",
        "wal.bytes_per_iter",
        "wal.sync_sim_s",
        "wal.replayed_iterations",
        "restore.lost_iterations",
        "restore.fault_in_fetches",
    ] {
        report.set(name, 0.0);
    }

    let spans = tracer.obs().spans();
    report.check(
        cnr_obs::span::validate_tree(&spans).is_ok(),
        format!(
            "span tree invalid: {:?}",
            cnr_obs::span::validate_tree(&spans).err()
        ),
    );
    let layers = layer_self_times(&spans, "cycle");
    let layer = |name: &str| -> Vec<f64> {
        layers
            .iter()
            .map(|l| l.get(name).copied().unwrap_or_default().as_secs_f64())
            .collect()
    };
    report.set_median("write.self_s", &layer("write"));
    report.set_median("read.self_s", &layer("read"));
    report.set_median("storage.self_s", &layer("storage"));
    report.set_median("bench.unattributed_s", &layer("unattributed"));
    report.set(
        "bench.spans",
        spans.len() as f64 / traced.len().max(1) as f64,
    );

    let table0 = s.trainer.model().tables()[0].data();
    let (q, d) = kernels::quant_ns_per_row(table0, s.cfg.dim(), scheme, tracer);
    report.set("quant.quantize_ns_per_row", q);
    report.set("quant.dequantize_ns_per_row", d);
    let (crc, fnv) = kernels::checksum_mb_s(chunk_sample, tracer);
    report.set("envelope.crc32_mb_s", crc);
    report.set("wire.checksum_mb_s", fnv);
}
