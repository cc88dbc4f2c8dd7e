//! `train_incremental`: the `Engine` as users run it.
//!
//! It trains the DLRM with the default intermittent incremental policy,
//! fixed 4-bit asymmetric quantization, the per-iteration delta WAL and
//! lazy restore, checkpointing every `interval_batches` batches. One
//! failure is injected half-way through the middle interval; after the
//! restore the lazy tail is drained, the output is checked, and training
//! continues.
//!
//! The benchmark times `Engine::train_batches` and `Engine::checkpoint_now`
//! separately, so the engine's own interval is set out of reach and the
//! loop calls `checkpoint_now` at each boundary. [`Loop::Plain`] runs the
//! same plan through the interval-driven `train_batches` alone; the
//! package's tests check that both yield the same `RunStats::intervals`.

use crate::kernels;
use crate::report::Report;
use crate::shape::Shape;
use crate::trace::{layer_self_times, scoped, Node, Tracer};
use crate::{median, rms_diff, RunArgs};
use cnr_core::config::{DeltaWalConfig, PolicyKind, QuantMode};
use cnr_core::engine::{Engine, EngineBuilder};
use cnr_core::write::CheckpointRecord;
use cnr_model::ModelConfig;
use cnr_quant::QuantScheme;
use cnr_storage::RemoteConfig;
use cnr_trainer::TrainerConfig;
use cnr_workload::QpsModel;
use std::time::{Duration, Instant};

/// The checkpoint quantization scheme.
pub const SCHEME: QuantScheme = QuantScheme::Asymmetric { bits: 4 };
/// Simulated trainer throughput (samples/s), with [`remote_config`]
/// chosen so the store link drains a checkpoint and the interval's WAL
/// segment re-puts within the interval that follows it: then
/// `Engine::upload_backlog` does not grow from one boundary to the next.
/// At 8k samples/s a 50-batch interval lasts 1.6 simulated seconds; the
/// full 4-bit baseline (about 245 single-part chunks over two uplinks) and
/// 50 WAL segment re-puts occupy each uplink for about 1.2 s of it. With
/// the default 20 ms per transfer the baseline alone takes 2.7 s and the
/// backlog carries over; at the 50k samples/s default the incremental
/// intervals fall behind too and write latency climbs every interval.
pub const QPS: f64 = 8_000.0;
/// Simulated writer and reader hosts.
pub const HOSTS: usize = 2;
/// Rows restored before the first batch after a failure.
pub const HOT_FRACTION: f64 = 0.1;
/// First batch index of the held-out evaluation set (never trained on).
const HELD_OUT_FROM: u64 = 1 << 40;
/// Held-out batches per evaluation.
const HELD_OUT_BATCHES: u64 = 8;
/// Wall seconds one interval takes on a 2-core x86-64 machine, the failure
/// included: sizes the plan from `--seconds` without reading the clock, so
/// the plan (and every exact, simulated and count result) depends only on
/// the arguments.
const SECONDS_PER_INTERVAL: f64 = 1.5;
/// Intervals per plan at least: enough incremental checkpoints that their
/// median is not the first one after the full baseline, which runs slower
/// while the process's allocator warms up.
const MIN_INTERVALS: u64 = 8;

/// The store link: the default bandwidth and replication, one uplink per
/// host, and 5 ms per transfer (see [`QPS`]).
pub fn remote_config() -> RemoteConfig {
    RemoteConfig {
        base_latency: Duration::from_millis(5),
        ..RemoteConfig::default().with_channels(HOSTS as u32)
    }
}

/// How the loop reaches checkpoint boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// `train_batches` up to each boundary, then `checkpoint_now`; the
    /// engine's own interval is out of reach. What the benchmark times.
    Split,
    /// The engine checkpoints inside `train_batches` at its own interval.
    Plain,
}

/// The run's fixed plan: `intervals` checkpoint intervals; the failure
/// hits `failure_after` batches into interval `failure_interval`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Checkpoint intervals (= checkpoints).
    pub intervals: u64,
    /// Interval the failure lands in (never the first).
    pub failure_interval: u64,
    /// Batches into that interval when the failure lands.
    pub failure_after: u64,
}

impl Plan {
    /// The plan for a run of about `seconds` on a 2-core x86-64 machine.
    pub fn for_run(shape: Shape, seconds: Duration) -> Self {
        let intervals = (seconds.as_secs_f64() / SECONDS_PER_INTERVAL)
            .round()
            .clamp(MIN_INTERVALS as f64, 40.0) as u64;
        Self {
            intervals,
            failure_interval: intervals / 2,
            failure_after: shape.interval_batches / 2,
        }
    }
}

/// The engine of the workload, seeded from `seed`.
pub fn builder(shape: Shape, seed: u64, mode: Loop) -> EngineBuilder {
    let spec = shape.dataset_spec(seed);
    let cfg = ModelConfig::for_dataset(&spec, shape.dim);
    let interval = match mode {
        Loop::Split => u64::MAX / 2,
        Loop::Plain => shape.interval_batches,
    };
    EngineBuilder::new(spec, cfg)
        .checkpoint_every_batches(interval)
        .policy(PolicyKind::Intermittent)
        .quantization(QuantMode::Fixed(SCHEME))
        .writer_hosts(HOSTS)
        .reader_hosts(HOSTS)
        .remote_config(remote_config())
        .trainer_config(TrainerConfig {
            qps: QpsModel::new(QPS),
            track: true,
        })
        .delta_wal(DeltaWalConfig::default())
        .lazy_restore(HOT_FRACTION)
}

/// What one run of the plan measured.
#[derive(Debug, Default, Clone)]
pub struct Measured {
    /// Wall seconds in `train_batches`, per interval.
    pub train_s: Vec<f64>,
    /// Wall seconds of each `checkpoint_now` call ([`Loop::Split`] only).
    pub checkpoint_s: Vec<f64>,
    /// Whether each checkpoint ran in a traced interval.
    pub checkpoint_traced: Vec<bool>,
    /// Records of each `checkpoint_now` ([`Loop::Split`] only).
    pub records: Vec<CheckpointRecord>,
    /// Tracker's modified fraction before each checkpoint.
    pub modified_frac: Vec<f64>,
    /// `Engine::upload_backlog` at each boundary, before its checkpoint.
    pub backlog: Vec<Duration>,
    /// Wall seconds of each failure-and-restore call.
    pub restore_s: Vec<f64>,
    /// Whether each restore ran in a traced interval.
    pub restore_traced: Vec<bool>,
    /// Simulated clock advance across each of those calls.
    pub sim_resume: Vec<f64>,
    /// Wall seconds of the lazy drain after each.
    pub drain_s: Vec<f64>,
    /// Held-out logloss after restore and drain, minus before the failure.
    pub logloss_delta: Vec<f64>,
    /// Embedding RMS difference, restored (after drain) vs before failure.
    pub rmse: Vec<f64>,
    /// Wall seconds of the whole loop, output checks excluded.
    pub loop_s: f64,
    /// Samples trained, re-trained ones excluded.
    pub samples: u64,
}

/// Runs `plan` on `engine`. Every engine call and every output check is
/// counted in `report`; the first error ends the run.
pub fn drive(
    engine: &mut Engine,
    shape: Shape,
    plan: Plan,
    mode: Loop,
    tracer: Option<&Tracer>,
    report: &mut Report,
) -> Measured {
    let mut m = Measured::default();
    let start_iteration = engine.trainer().model().iteration();
    let loop_start = Instant::now();
    let mut unmeasured = Duration::ZERO;
    let n = shape.interval_batches;
    let mut into_interval = 0u64;
    for interval in 0..plan.intervals {
        // Traced runs trace every other interval, so the tracing overhead
        // is measured inside one run.
        let t = tracer.filter(|_| interval % 2 == 1);
        let root = t.map(|t| {
            let r = t.begin("interval", None);
            t.attr(r, "interval", interval.to_string());
            r
        });
        let mut train_s = 0.0;
        if interval == plan.failure_interval {
            let before = plan.failure_after - into_interval;
            match timed_train(engine, before, t, root, report) {
                Some(secs) => train_s += secs,
                None => break,
            }
            let c0 = Instant::now();
            let check = t.map(|t| t.begin("bench.check", root));
            let failed_iteration = engine.trainer().model().iteration();
            let reference: Vec<Vec<f32>> = engine
                .trainer()
                .model()
                .tables()
                .iter()
                .map(|t| t.data().to_vec())
                .collect();
            let logloss_before = held_out_logloss(engine);
            if let (Some(t), Some(c)) = (t, check) {
                t.end(c);
            }
            unmeasured += c0.elapsed();

            let sim0 = engine.clock().now();
            let (ok, secs) = call(t, "engine.restore", root, || {
                engine.simulate_failure_and_restore().map(|_| ())
            });
            report.op(ok.is_ok(), format!("simulate_failure_and_restore: {ok:?}"));
            if ok.is_err() {
                break;
            }
            m.restore_s.push(secs);
            m.restore_traced.push(t.is_some());
            m.sim_resume
                .push((engine.clock().now() - sim0).as_secs_f64());
            let (ok, secs) = call(t, "engine.drain", root, || {
                engine.drain_lazy_restore().map(|_| ())
            });
            report.op(ok.is_ok(), format!("drain_lazy_restore: {ok:?}"));
            if ok.is_err() {
                break;
            }
            m.drain_s.push(secs);

            let c0 = Instant::now();
            let check = t.map(|t| t.begin("bench.check", root));
            check_restore(engine, failed_iteration, report);
            m.rmse.push(rms_diff(
                engine
                    .trainer()
                    .model()
                    .tables()
                    .iter()
                    .zip(&reference)
                    .map(|(t, r)| (t.data(), r.as_slice())),
            ));
            m.logloss_delta
                .push(held_out_logloss(engine) - logloss_before);
            drop(reference);
            if let (Some(t), Some(c)) = (t, check) {
                t.end(c);
            }
            unmeasured += c0.elapsed();
            // The restored position inside the interval: the engine's own
            // interval bookkeeping resumes at the replayed iteration too.
            let replayed = engine
                .stats()
                .resumes
                .last()
                .map_or(0, |r| r.wal_replayed_iterations);
            into_interval = replayed % n;
        }
        let remaining = n - into_interval;
        match mode {
            Loop::Split => {
                match timed_train(engine, remaining, t, root, report) {
                    Some(secs) => m.train_s.push(train_s + secs),
                    None => break,
                }
                m.modified_frac
                    .push(engine.trainer().tracker().fraction_modified());
                m.backlog.push(engine.upload_backlog());
                let (record, secs) =
                    call(t, "engine.checkpoint_now", root, || engine.checkpoint_now());
                report.op(
                    record.is_ok(),
                    format!("checkpoint_now: {:?}", record.as_ref().err()),
                );
                match record {
                    Ok(r) => m.records.push(r),
                    Err(_) => break,
                }
                m.checkpoint_s.push(secs);
                m.checkpoint_traced.push(t.is_some());
            }
            Loop::Plain => {
                // The boundary's checkpoint runs inside this call.
                if timed_train(engine, remaining, t, root, report).is_none() {
                    break;
                }
            }
        }
        into_interval = 0;
        if let (Some(t), Some(r)) = (t, root) {
            t.end(r);
            t.flush();
        }
    }
    m.loop_s = (loop_start.elapsed() - unmeasured).as_secs_f64();
    m.samples = (engine.trainer().model().iteration() - start_iteration) * shape.batch_size as u64;
    m
}

/// Times one engine call, inside a span when traced.
fn call<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    root: Option<Node>,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let t0 = Instant::now();
    let out = scoped(tracer, name, root, f);
    (out, t0.elapsed().as_secs_f64())
}

/// `train_batches`, timed; `None` when it failed.
fn timed_train(
    engine: &mut Engine,
    batches: u64,
    t: Option<&Tracer>,
    root: Option<Node>,
    report: &mut Report,
) -> Option<f64> {
    let (ok, secs) = call(t, "engine.train_batches", root, || {
        engine.train_batches(batches)
    });
    report.op(ok.is_ok(), format!("train_batches: {ok:?}"));
    ok.is_ok().then_some(secs)
}

fn held_out_logloss(engine: &Engine) -> f64 {
    engine
        .evaluate(HELD_OUT_FROM, HELD_OUT_FROM + HELD_OUT_BATCHES)
        .logloss
}

/// The restore's output checks: at most one iteration lost, the restored
/// iteration is the failed one minus the lost ones, and no corruption.
fn check_restore(engine: &Engine, failed_iteration: u64, report: &mut Report) {
    let Some(r) = engine.stats().resumes.last() else {
        report.check(false, "restore recorded no resume stats");
        return;
    };
    let restored = engine.trainer().model().iteration();
    report.check(
        r.lost_iterations <= 1,
        format!("lost {} iterations", r.lost_iterations),
    );
    report.check(
        restored + r.lost_iterations == failed_iteration,
        format!(
            "restored iteration {restored}, failed at {failed_iteration}, lost {}",
            r.lost_iterations
        ),
    );
    report.check(
        r.corruption_detected == 0,
        format!("{} corrupt chunks detected", r.corruption_detected),
    );
    report.check(
        engine.pending_lazy().is_none(),
        "lazy restore still pending after drain",
    );
}

/// Runs `train_incremental` and fills its report.
pub fn run(shape: Shape, args: RunArgs, tracer: Option<&Tracer>) -> Report {
    let mut report = Report::default();
    let t0 = Instant::now();
    let built = builder(shape, args.seed, Loop::Split).build();
    report.set("setup_s", t0.elapsed().as_secs_f64());
    let mut engine = match built {
        Ok(e) => e,
        Err(e) => {
            report.op(false, format!("build: {e}"));
            return report;
        }
    };

    let plan = Plan::for_run(shape, args.seconds);
    let m = drive(&mut engine, shape, plan, Loop::Split, tracer, &mut report);

    // Upload backlog must not grow from one boundary to the next.
    let growing = m.backlog.windows(2).any(|w| w[1] > w[0]);
    report.check(!growing, format!("upload backlog grows: {:?}", m.backlog));

    let stats = engine.stats();
    let full_ref = stats.full_reference_bytes.max(1) as f64;
    let ratios: Vec<f64> = m
        .records
        .iter()
        .map(|r| r.stored_bytes as f64 / full_ref)
        .collect();
    report.set(
        "ckpt_bytes_ratio",
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
    );
    let latencies: Vec<f64> = m
        .records
        .iter()
        .map(|r| r.write_latency.as_secs_f64())
        .collect();
    report.set_median("sim_write_s", &latencies);
    report.set_median("sim_resume_s", &m.sim_resume);
    let untraced_ckpt = samples_where(&m.checkpoint_s, &m.checkpoint_traced, false);
    report.set_median("ckpt_write_s", &untraced_ckpt);
    let untraced_restore: Vec<f64> = samples_where(&m.restore_s, &m.restore_traced, false);
    report.set_median("restore_s", &untraced_restore);

    if let Some(tracer) = tracer {
        per_layer(&mut report, &engine, &m, tracer);
    }
    report.set("peak_rss_mb", crate::peak_rss_mb());
    report
}

/// The samples whose traced flag equals `traced`.
fn samples_where(samples: &[f64], flags: &[bool], traced: bool) -> Vec<f64> {
    samples
        .iter()
        .zip(flags)
        .filter(|(_, f)| **f == traced)
        .map(|(s, _)| *s)
        .collect()
}

/// Per-layer metrics of a traced run.
fn per_layer(report: &mut Report, engine: &Engine, m: &Measured, tracer: &Tracer) {
    let stats = engine.stats();
    let model = engine.trainer().model();
    report.set("snapshot.bytes", model.state_bytes() as f64);
    let rec = |f: &dyn Fn(&CheckpointRecord) -> f64| m.records.iter().map(f).collect::<Vec<f64>>();
    report.set_median("write.call_s", &rec(&|r| r.wall_time.as_secs_f64()));
    report.set_median(
        "write.quantize_cpu_s",
        &rec(&|r| r.quantize_cpu_time.as_secs_f64()),
    );
    report.set_median("write.chunks", &rec(&|r| r.manifest.chunks.len() as f64));
    report.set_median("write.parts", &rec(&|r| f64::from(r.parts)));
    report.set_median("write.bytes", &rec(&|r| r.stored_bytes as f64));

    let io = engine.store().metrics().snapshot();
    report.set("storage.put_calls", io.puts as f64);
    report.set("storage.put_bytes", io.bytes_put as f64);
    report.set("storage.get_calls", io.gets as f64);
    report.set("storage.get_bytes", io.bytes_got as f64);
    report.set(
        "storage.read_amplification",
        io.bytes_got as f64 / io.bytes_put.max(1) as f64,
    );

    // Per restore, median over the run's restores.
    let events = engine.recovery().events();
    let per_restore = |f: &dyn Fn(&cnr_cluster::ResumeBreakdown) -> f64| -> Vec<f64> {
        events.iter().map(|e| f(&e.breakdown)).collect()
    };
    report.set_median(
        "read.decode_cpu_s",
        &per_restore(&|b| b.decode.as_secs_f64()),
    );
    report.set_median("read.merge_s", &per_restore(&|b| b.merge.as_secs_f64()));
    report.set_median("read.chunks", &per_restore(&|b| b.chunks_fetched as f64));
    report.set_median(
        "read.corruption_refetches",
        &per_restore(&|b| b.corruption_refetches as f64),
    );
    report.set_median("read.sim_fetch_s", &per_restore(&|b| b.fetch.as_secs_f64()));
    let retries = engine
        .obs()
        .registry()
        .histogram(cnr_obs::names::RESTORE_FETCH_RETRIES)
        .map_or(0.0, |h| h.sum);
    report.set("read.fetch_retries", retries);

    report.set_median("engine.train_batches_s", &m.train_s);
    report.set_median("engine.checkpoint_s", &m.checkpoint_s);
    report.set_median("engine.restore_s", &m.restore_s);
    report.set_median("engine.drain_s", &m.drain_s);
    let backlog_max = m.backlog.iter().max().copied().unwrap_or_default();
    report.set("engine.upload_backlog_s", backlog_max.as_secs_f64());
    report.set(
        "engine.train_samples_per_s",
        m.samples as f64 / m.loop_s.max(1e-9),
    );
    report.set_median("engine.restore_logloss_delta", &m.logloss_delta);
    report.set_median("quant.restore_rmse", &m.rmse);
    report.set_median("tracking.modified_frac", &m.modified_frac);

    let wal = stats.wal;
    report.set("wal.appends", wal.appends as f64);
    report.set(
        "wal.bytes_per_iter",
        wal.bytes_appended as f64 / wal.appends.max(1) as f64,
    );
    report.set("wal.sync_sim_s", wal.sync_time.as_secs_f64());
    let resumes = |f: &dyn Fn(&cnr_core::ResumeStats) -> u64| -> Vec<f64> {
        stats.resumes.iter().map(|r| f(r) as f64).collect()
    };
    report.set_median(
        "wal.replayed_iterations",
        &resumes(&|r| r.wal_replayed_iterations),
    );
    let lost = resumes(&|r| r.lost_iterations);
    report.set(
        "restore.lost_iterations",
        lost.iter().copied().fold(0.0, f64::max),
    );
    report.set(
        "restore.fault_in_fetches",
        resumes(&|r| r.fault_in_fetches).iter().sum(),
    );

    // Layers inside the engine are not split from outside: the snapshot,
    // the write call's store traffic and the read call are all inside
    // `checkpoint_now` / `simulate_failure_and_restore`.
    for name in [
        "snapshot.take_s",
        "write.self_s",
        "storage.put_s",
        "storage.get_s",
        "storage.self_s",
        "read.call_s",
        "read.self_s",
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
    let layers = layer_self_times(&spans, "interval");
    let unattributed: Vec<f64> = layers
        .iter()
        .map(|l| {
            l.get("unattributed")
                .copied()
                .unwrap_or_default()
                .as_secs_f64()
        })
        .collect();
    report.set_median("bench.unattributed_s", &unattributed);
    report.set("bench.spans", spans.len() as f64);
    // Zero when one side has no sample: each process has one restore.
    let overhead = |samples: &[f64], traced: &[bool]| {
        let on = samples_where(samples, traced, true);
        let off = samples_where(samples, traced, false);
        if on.is_empty() || off.is_empty() {
            0.0
        } else {
            median(&on) / median(&off) - 1.0
        }
    };
    report.set(
        "bench.trace_overhead_frac.ckpt_write_s",
        overhead(&m.checkpoint_s, &m.checkpoint_traced),
    );
    report.set(
        "bench.trace_overhead_frac.restore_s",
        overhead(&m.restore_s, &m.restore_traced),
    );

    let table0 = model.tables()[0].data();
    let (q, d) = kernels::quant_ns_per_row(table0, model.config().dim(), SCHEME, tracer);
    report.set("quant.quantize_ns_per_row", q);
    report.set("quant.dequantize_ns_per_row", d);
    let chunks: Vec<bytes::Bytes> = m
        .records
        .last()
        .map(|r| {
            r.manifest
                .chunks
                .iter()
                .filter_map(|c| cnr_storage::ObjectStore::get(engine.store().as_ref(), &c.key).ok())
                .collect()
        })
        .unwrap_or_default();
    let (crc, fnv) = kernels::checksum_mb_s(&chunks, tracer);
    report.set("envelope.crc32_mb_s", crc);
    report.set("wire.checksum_mb_s", fnv);
}
