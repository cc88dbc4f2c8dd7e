//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in [`PROCESSES`] worker processes, one after
//! another, each measuring for a share of `--seconds`, and prints as the
//! last line of standard output one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`, each the median over the worker
//! processes. Lines before it (prefixed `#`) list every metric with its
//! unit, kind and sample counts. A traced worker also writes its spans as
//! Chrome trace JSONL to `.bench_out/trace-<workload>-seed<n>-p<i>.jsonl`.
//!
//! Why processes: the program allocates a fresh full-model snapshot at
//! every checkpoint, and whether the allocator serves it from freed heap
//! or from fresh pages is settled early in each process and differs from
//! process to process. Within one process every sample shares that state,
//! so the median over several processes is what makes a run repeatable.

use perfbench::report::{Report, END_TO_END, PER_LAYER};
use perfbench::shape::FULL;
use perfbench::trace::Tracer;
use perfbench::{bulk, train, RunArgs, WORKLOADS};
use std::process::{Command, ExitCode};
use std::time::Duration;

/// Worker processes per run; each also sets up once, so `setup_s` is a
/// median over this many set-ups.
const PROCESSES: u32 = 3;

const USAGE: &str = "usage: perfbench --workload <bulk_fp32|bulk_q4|train_incremental> --seed <n> --seconds <s> --trace <0|1>";

/// Parsed arguments; `worker` is set in a worker process.
struct Args {
    workload: String,
    run: RunArgs,
    worker: Option<u32>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut worker = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must lie in 1..=600".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--worker" => {
                let i = value.parse::<u32>().map_err(|e| format!("--worker: {e}"))?;
                if i >= PROCESSES {
                    return Err(format!("--worker must be below {PROCESSES}"));
                }
                worker = Some(i);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        run: RunArgs {
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        },
        worker,
    })
}

/// One worker process: runs the workload for its share of the time and
/// prints its report for the parent.
fn worker(args: &Args, index: u32) {
    let run = RunArgs {
        seconds: args.run.seconds / PROCESSES,
        ..args.run
    };
    let tracer = run.trace.then(Tracer::new);
    let mut report = match args.workload.as_str() {
        "bulk_fp32" => bulk::run(FULL, cnr_quant::QuantScheme::Fp32, run, tracer.as_ref()),
        "bulk_q4" => bulk::run(FULL, train::SCHEME, run, tracer.as_ref()),
        _ => train::run(FULL, run, tracer.as_ref()),
    };
    if let Some(tracer) = &tracer {
        let jsonl = cnr_obs::export::chrome_trace_jsonl(&tracer.obs().spans());
        let valid = cnr_obs::export::validate_trace_jsonl(&jsonl);
        report.check(
            valid.is_ok(),
            format!("trace export invalid: {:?}", valid.err()),
        );
        let path = format!(
            ".bench_out/trace-{}-seed{}-p{index}.jsonl",
            args.workload, run.seed
        );
        let written =
            std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, jsonl));
        if let Err(e) = written {
            report.check(false, format!("could not write {path}: {e}"));
        }
    }
    print!("{}", report.to_child_lines());
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(index) = args.worker {
        worker(&args, index);
        return ExitCode::SUCCESS;
    }

    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut reports = Vec::new();
    for i in 0..PROCESSES {
        // `output` waits for the worker to exit.
        let out = Command::new(&exe)
            .args(&argv)
            .args(["--worker", &i.to_string()])
            .output();
        let report = match out {
            Ok(o) if o.status.success() => {
                Report::from_child_lines(&String::from_utf8_lossy(&o.stdout))
            }
            Ok(o) => {
                eprintln!(
                    "worker {i} failed ({}): {}",
                    o.status,
                    String::from_utf8_lossy(&o.stderr)
                );
                None
            }
            Err(e) => {
                eprintln!("worker {i} did not start: {e}");
                None
            }
        };
        match report {
            Some(r) => reports.push(r),
            None => return ExitCode::FAILURE,
        }
    }
    let report = Report::combine(&reports);
    let defs = if args.run.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    println!(
        "# workload {} seed {} attempted {} failed {}",
        args.workload, args.run.seed, report.attempted, report.failed
    );
    print!("{}", report.summary(defs));
    println!("{}", report.json(defs));
    ExitCode::SUCCESS
}
