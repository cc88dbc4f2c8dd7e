//! The repository benchmark: checkpoint and restore wall time of a
//! 1M-row × dim-64 model, timed layer by layer from outside the program.
//!
//! Every call into the system goes through its public API and is timed
//! here, never inside the program: `SnapshotTaker::take`,
//! `CheckpointWriter::write`, `restore_sharded`, the `Engine` entry points,
//! the `cnr_quant` / `envelope` / `wire` kernels, and every `ObjectStore`
//! call through the forwarding [`store::TimedStore`]. An untraced run
//! (`--trace 0`) reports the end-to-end metrics; a traced run (`--trace 1`)
//! records a span around each call and reports the per-layer metrics.
//!
//! Workloads (see `README.md` for parameters and the layer → metric
//! predictions):
//!
//! * `bulk_fp32` — repeated full fp32 checkpoint + eager restore: copy,
//!   encode, checksum, fetch and merge bound; no quantization arithmetic.
//! * `bulk_q4` — the same cycle with 4-bit asymmetric quantization:
//!   quantize / dequantize bound, ~6× fewer bytes.
//! * `train_incremental` — the `Engine` as users run it: intermittent
//!   incremental checkpoints, delta WAL, lazy restore, one injected failure.

pub mod bulk;
pub mod kernels;
pub mod report;
pub mod shape;
pub mod store;
pub mod trace;
pub mod train;

use std::time::Duration;

/// One run's arguments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunArgs {
    /// Workload seed: every input (table geometry, weights, batches) is
    /// derived from it.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: Duration,
    /// Traced run: record spans and report the per-layer metrics.
    pub trace: bool,
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["bulk_fp32", "bulk_q4", "train_incremental"];

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Root-mean-square difference between two equally long value slices.
pub fn rms_diff<'a>(pairs: impl Iterator<Item = (&'a [f32], &'a [f32])>) -> f64 {
    let mut sum = 0.0f64;
    let mut n = 0u64;
    for (a, b) in pairs {
        assert_eq!(a.len(), b.len(), "rms over mismatched tables");
        for (x, y) in a.iter().zip(b) {
            let d = f64::from(*x) - f64::from(*y);
            sum += d * d;
        }
        n += a.len() as u64;
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).sqrt()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or `0.0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
