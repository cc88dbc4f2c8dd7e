//! The benchmark's own checks, on a small model with the workloads'
//! structure. Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use cnr_quant::QuantScheme;
use perfbench::report::{lookup, Kind, Report, END_TO_END, PER_LAYER};
use perfbench::shape::Shape;
use perfbench::trace::Tracer;
use perfbench::train::{self, Loop, Plan};
use perfbench::{bulk, RunArgs};
use std::time::Duration;

const SEED: u64 = 7;

fn args(trace: bool) -> RunArgs {
    RunArgs {
        seed: SEED,
        seconds: Duration::from_secs(1),
        trace,
    }
}

/// The store wrapper forwards the whole trait: simulated and exact results
/// of a bulk cycle are bit-identical with and without it.
#[test]
fn store_wrapper_leaves_sim_and_exact_results_unchanged() {
    for scheme in [QuantScheme::Fp32, train::SCHEME] {
        let mut plain_setup = bulk::setup(Shape::small(), SEED, scheme);
        let mut wrapped_setup = bulk::setup(Shape::small(), SEED, scheme);
        let tracer = Tracer::new();
        let plain =
            bulk::cycle(&mut plain_setup, scheme, None, 0, &mut Vec::new()).expect("plain cycle");
        let wrapped = bulk::cycle(
            &mut wrapped_setup,
            scheme,
            Some(&tracer),
            0,
            &mut Vec::new(),
        )
        .expect("wrapped cycle");
        assert!(wrapped.store.expect("wrapper counters").get_calls > 0);
        assert_eq!(plain.record.stored_bytes, wrapped.record.stored_bytes);
        assert_eq!(plain.record.write_latency, wrapped.record.write_latency);
        assert_eq!(plain.record.parts, wrapped.record.parts);
        assert_eq!(plain.record.manifest.chunks, wrapped.record.manifest.chunks);
        assert_eq!(plain.sim_resume, wrapped.sim_resume);
        assert!(
            plain.sim_resume > Duration::ZERO,
            "ranged reads must carry transfer time"
        );
        assert_eq!(plain.breakdown.fetch, wrapped.breakdown.fetch);
        assert_eq!(
            plain.breakdown.bytes_fetched,
            wrapped.breakdown.bytes_fetched
        );
        assert_eq!(
            plain.breakdown.chunks_fetched,
            wrapped.breakdown.chunks_fetched
        );
        assert_eq!(plain.rmse.to_bits(), wrapped.rmse.to_bits());
    }
}

/// Timing `train_batches` and `checkpoint_now` separately leaves the
/// program's behaviour unchanged: the same `RunStats::intervals` as the
/// interval-driven `train_batches` loop on the same seed.
#[test]
fn split_loop_yields_the_plain_loops_intervals() {
    let shape = Shape::small();
    let plan = Plan::for_run(shape, Duration::from_secs(1));
    let mut series = Vec::new();
    for mode in [Loop::Split, Loop::Plain] {
        let mut engine = train::builder(shape, SEED, mode).build().expect("engine");
        let mut report = Report::default();
        train::drive(&mut engine, shape, plan, mode, None, &mut report);
        assert_eq!(report.failed, 0, "{mode:?}: {:?}", report.failures());
        let intervals: Vec<_> = engine
            .stats()
            .intervals
            .iter()
            .map(|i| (i.kind, i.stored_bytes, i.write_latency))
            .collect();
        assert_eq!(intervals.len() as u64, plan.intervals);
        series.push((intervals, engine.trainer().model().state_hash()));
    }
    assert_eq!(series[0], series[1]);
}

fn run(workload: &str, trace: bool) -> Report {
    let tracer = trace.then(Tracer::new);
    match workload {
        "bulk_fp32" => bulk::run(
            Shape::small(),
            QuantScheme::Fp32,
            args(trace),
            tracer.as_ref(),
        ),
        "bulk_q4" => bulk::run(Shape::small(), train::SCHEME, args(trace), tracer.as_ref()),
        _ => train::run(Shape::small(), args(trace), tracer.as_ref()),
    }
}

/// Every output check passes, every metric of the mode is set, and every
/// simulated, exact and count metric repeats bit-identically with the
/// same seed.
#[test]
fn every_workload_is_correct_complete_and_deterministic() {
    for workload in perfbench::WORKLOADS {
        for trace in [false, true] {
            let a = run(workload, trace);
            let b = run(workload, trace);
            for r in [&a, &b] {
                assert_eq!(r.failed, 0, "{workload} trace={trace}: {:?}", r.failures());
                assert!(r.attempted > 0);
            }
            let defs = if trace { PER_LAYER } else { END_TO_END };
            for d in defs {
                let (x, y) = (a.get(d.name), b.get(d.name));
                assert!(x.is_some(), "{workload}: {} not set", d.name);
                if d.kind != Kind::Wall {
                    assert_eq!(
                        x.map(f64::to_bits),
                        y.map(f64::to_bits),
                        "{workload}: {} differs between runs of one seed",
                        d.name
                    );
                }
            }
        }
    }
}

/// `BENCHMARK.json` lists exactly the metrics this package prints, with
/// the same units and directions.
#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = json.split_whitespace().collect();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
            d.name, d.unit, d.better
        );
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = compact.matches("{\"name\":").count();
    let workloads = perfbench::WORKLOADS.len();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len() + workloads,
        "extra entries in BENCHMARK.json"
    );
    for w in perfbench::WORKLOADS {
        assert!(
            compact.contains(&format!("{{\"name\":\"{w}\",\"why\"")),
            "workload {w} missing"
        );
        assert!(lookup(w).is_none());
    }
}
