//! Experiment harness regenerating every figure of the Check-N-Run paper.
//!
//! Each `figN` module produces the data series of the corresponding figure,
//! printed as CSV with `#`-prefixed commentary. The `repro` binary
//! dispatches on figure ids. The `cnr_bench` binary writes the simulated
//! bench trajectory ([`trajectory`]: `BENCH_restore.json`,
//! `BENCH_wal.json`); wall-clock speed is measured by the repository
//! benchmark, `perfbench/`, not here.
//!
//! Scale: the paper's model is O(TB) on 128 GPUs; these experiments use
//! laptop-scale models and report the same *normalized* quantities the
//! paper plots (% of model size, ℓ2 error, reduction factors), so shapes
//! are directly comparable. `EXPERIMENTS.md` records paper-vs-measured per
//! figure.

pub mod figures;
pub mod timeline;
pub mod trajectory;
pub mod workloads;

/// Prints a CSV header and rows with a `# <title>` preamble.
pub fn print_csv(title: &str, header: &str, rows: &[String]) {
    println!("# {title}");
    println!("{header}");
    for r in rows {
        println!("{r}");
    }
    println!();
}

/// Formats a float with fixed precision, trimming noise.
pub fn f(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else if x.abs() >= 1.0 {
        format!("{x:.3}")
    } else {
        format!("{x:.6}")
    }
}
