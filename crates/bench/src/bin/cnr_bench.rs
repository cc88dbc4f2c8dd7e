//! Emits the checked-in bench-trajectory files `BENCH_restore.json` and
//! `BENCH_wal.json` at the repo root.
//!
//! ```text
//! cargo run --release -p cnr_bench --bin cnr_bench
//! cargo run ... -- --timeline    # also emit BENCH_timeline.jsonl + .prom
//! cargo run ... -- --out-dir some/dir                         # elsewhere
//! ```
//!
//! Every record is simulated (storage/network cost model), so the files
//! are byte-identical on every machine and every run; CI re-emits them and
//! fails on any `diff` against the checked-in copies. Re-run this after a
//! change that moves a simulated number and commit the result. Wall-clock
//! speed is measured by the repository benchmark, `perfbench/`.

use cnr_bench::timeline::lifecycle_timeline;
use cnr_bench::trajectory::{restore_records, to_json, wal_records};
use std::path::PathBuf;

fn main() {
    let mut timeline = false;
    let mut out_dir = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--timeline" => timeline = true,
            "--out-dir" => {
                out_dir = PathBuf::from(
                    args.next().expect("--out-dir requires a directory argument"),
                );
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: cnr_bench [--timeline] [--out-dir <dir>]");
                std::process::exit(2);
            }
        }
    }
    std::fs::create_dir_all(&out_dir).expect("create --out-dir");

    let restore = restore_records();
    let restore_path = out_dir.join("BENCH_restore.json");
    std::fs::write(&restore_path, to_json("restore", &restore))
        .expect("write BENCH_restore.json");
    println!("wrote {} ({} records)", restore_path.display(), restore.len());

    let wal = wal_records();
    let wal_path = out_dir.join("BENCH_wal.json");
    std::fs::write(&wal_path, to_json("wal", &wal)).expect("write BENCH_wal.json");
    println!("wrote {} ({} records)", wal_path.display(), wal.len());

    // Opt-in: the checkpoint-lifecycle timeline (Chrome trace_event JSONL)
    // plus a Prometheus-style metrics snapshot. Structure is deterministic
    // but durations mix in wall-clock CPU time (quantize/decode/merge), so
    // the bytes are machine-dependent and not checked in; validated before
    // writing.
    if timeline {
        let t = match lifecycle_timeline() {
            Ok(t) => t,
            Err(err) => {
                eprintln!("timeline export failed validation: {err}");
                std::process::exit(1);
            }
        };
        let trace_path = out_dir.join("BENCH_timeline.jsonl");
        std::fs::write(&trace_path, &t.trace_jsonl).expect("write BENCH_timeline.jsonl");
        println!("wrote {} ({} spans)", trace_path.display(), t.spans);
        let metrics_path = out_dir.join("BENCH_metrics.prom");
        std::fs::write(&metrics_path, &t.metrics_text).expect("write BENCH_metrics.prom");
        println!("wrote {}", metrics_path.display());
    }
}
