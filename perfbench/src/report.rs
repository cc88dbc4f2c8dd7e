//! Metric definitions, the per-run report, and its JSON line.
//!
//! Every metric carries a kind label, because two kinds of record must
//! never be confused:
//!
//! * `wall` — wall-clock time (or a rate derived from it) of our own code;
//!   varies from run to run and machine to machine;
//! * `sim` — an output of the `SimClock` storage/network cost model,
//!   bit-identical on every run with the same seed (unit `sim_s`);
//! * `exact` — a deterministic ratio or error, bit-identical per seed;
//! * `count` — a deterministic count, bit-identical per seed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Kind label of a metric (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wall-clock measurement.
    Wall,
    /// Simulated-clock output.
    Sim,
    /// Deterministic ratio or error.
    Exact,
    /// Deterministic count.
    Count,
}

impl Kind {
    /// The label printed next to the metric.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Wall => "wall",
            Kind::Sim => "sim",
            Kind::Exact => "exact",
            Kind::Count => "count",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Kind label.
    pub kind: Kind,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, kind: Kind, better: &'static str) -> Def {
    Def {
        name,
        unit,
        kind,
        better,
    }
}

use Kind::{Count, Exact, Sim, Wall};

/// End-to-end metrics: printed by every untraced run, on every workload.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", Wall, "lower"),
    def("ckpt_write_s", "s", Wall, "lower"),
    def("restore_s", "s", Wall, "lower"),
    def("peak_rss_mb", "MB", Wall, "lower"),
    def("ckpt_bytes_ratio", "ratio", Exact, "lower"),
    def("sim_write_s", "sim_s", Sim, "lower"),
    def("sim_resume_s", "sim_s", Sim, "lower"),
];

/// Per-layer metrics: printed by every traced run, on every workload. A
/// layer the workload does not call reports zero.
pub const PER_LAYER: &[Def] = &[
    // snapshot (cnr_core::snapshot)
    def("snapshot.take_s", "s", Wall, "lower"),
    def("snapshot.bytes", "bytes", Count, "lower"),
    // write (cnr_core::write)
    def("write.call_s", "s", Wall, "lower"),
    def("write.self_s", "s", Wall, "lower"),
    def("write.quantize_cpu_s", "s", Wall, "lower"),
    def("write.chunks", "count", Count, "lower"),
    def("write.parts", "count", Count, "lower"),
    def("write.bytes", "bytes", Count, "lower"),
    // quant (cnr_quant, on the run's own rows and scheme)
    def("quant.quantize_ns_per_row", "ns", Wall, "lower"),
    def("quant.dequantize_ns_per_row", "ns", Wall, "lower"),
    def("quant.restore_rmse", "rms", Exact, "lower"),
    // envelope + wire (on the run's chunk bytes)
    def("envelope.crc32_mb_s", "MB/s", Wall, "higher"),
    def("wire.checksum_mb_s", "MB/s", Wall, "higher"),
    // storage (forwarding wrapper over the store)
    def("storage.put_calls", "count", Count, "lower"),
    def("storage.put_s", "s", Wall, "lower"),
    def("storage.put_bytes", "bytes", Count, "lower"),
    def("storage.get_calls", "count", Count, "lower"),
    def("storage.get_s", "s", Wall, "lower"),
    def("storage.get_bytes", "bytes", Count, "lower"),
    def("storage.read_amplification", "ratio", Exact, "lower"),
    def("storage.self_s", "s", Wall, "lower"),
    // read (cnr_core::read)
    def("read.call_s", "s", Wall, "lower"),
    def("read.self_s", "s", Wall, "lower"),
    def("read.decode_cpu_s", "s", Wall, "lower"),
    def("read.merge_s", "s", Wall, "lower"),
    def("read.chunks", "count", Count, "lower"),
    def("read.fetch_retries", "count", Count, "lower"),
    def("read.corruption_refetches", "count", Count, "lower"),
    def("read.sim_fetch_s", "sim_s", Sim, "lower"),
    // engine (cnr_core::engine)
    def("engine.train_batches_s", "s", Wall, "lower"),
    def("engine.checkpoint_s", "s", Wall, "lower"),
    def("engine.restore_s", "s", Wall, "lower"),
    def("engine.drain_s", "s", Wall, "lower"),
    def("engine.upload_backlog_s", "sim_s", Sim, "lower"),
    def("engine.train_samples_per_s", "1/s", Wall, "higher"),
    def("engine.restore_logloss_delta", "logloss", Exact, "lower"),
    // tracking (cnr_tracking)
    def("tracking.modified_frac", "ratio", Exact, "lower"),
    // wal (cnr_storage::wal + cnr_core::delta_log)
    def("wal.appends", "count", Count, "lower"),
    def("wal.bytes_per_iter", "bytes", Exact, "lower"),
    def("wal.sync_sim_s", "sim_s", Sim, "lower"),
    def("wal.replayed_iterations", "count", Count, "higher"),
    def("restore.lost_iterations", "count", Count, "lower"),
    def("restore.fault_in_fetches", "count", Count, "lower"),
    // the benchmark itself
    def("bench.unattributed_s", "s", Wall, "lower"),
    def("bench.spans", "count", Count, "lower"),
    def(
        "bench.trace_overhead_frac.ckpt_write_s",
        "ratio",
        Wall,
        "lower",
    ),
    def(
        "bench.trace_overhead_frac.restore_s",
        "ratio",
        Wall,
        "lower",
    ),
];

/// Looks a metric up by name in both tables.
pub fn lookup(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// One run's results: metric values, sample counts, and the operation
/// ledger (a failed output check counts as a failed operation).
#[derive(Debug, Default, Clone)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, usize>,
    /// Worker processes combined into this report (0 for one process).
    processes: usize,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Operations that errored or whose output check failed.
    pub failed: u64,
    failures: Vec<String>,
}

impl Report {
    /// Sets a metric. Panics on an unknown name or a non-finite value —
    /// both are bugs in this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(lookup(name).is_some(), "unknown metric {name}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// Sets a metric to the median of `samples` and records the count.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        self.set(name, crate::median(samples));
        self.samples.insert(name, samples.len());
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one operation; `ok == false` counts it as failed and keeps
    /// `what` for the printed summary.
    pub fn op(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.into());
        }
    }

    /// Counts a failed check against an operation already counted.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failed += 1;
            self.failures.push(what.into());
        }
    }

    /// Descriptions of everything that failed.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The lines a worker process prints for its parent: the ledger, every
    /// failure, and every metric value (in a form that parses back to the
    /// same bits).
    pub fn to_child_lines(&self) -> String {
        let mut out = format!("@ops {} {}\n", self.attempted, self.failed);
        for f in &self.failures {
            writeln!(out, "@fail {}", f.replace('\n', " ")).expect("write to String");
        }
        for (name, v) in &self.values {
            writeln!(out, "@m {name} {v:?}").expect("write to String");
        }
        for (name, n) in &self.samples {
            writeln!(out, "@n {name} {n}").expect("write to String");
        }
        out
    }

    /// Parses [`Report::to_child_lines`] output; `None` without a ledger.
    pub fn from_child_lines(text: &str) -> Option<Report> {
        let mut r = Report::default();
        let mut ledger = false;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("@ops ") {
                let mut it = rest.split_whitespace().map(str::parse::<u64>);
                r.attempted = it.next()?.ok()?;
                r.failed = it.next()?.ok()?;
                ledger = true;
            } else if let Some(rest) = line.strip_prefix("@fail ") {
                r.failures.push(rest.to_string());
            } else if let Some(rest) = line.strip_prefix("@m ") {
                let (name, value) = rest.split_once(' ')?;
                r.values.insert(lookup(name)?.name, value.parse().ok()?);
            } else if let Some(rest) = line.strip_prefix("@n ") {
                let (name, n) = rest.split_once(' ')?;
                r.samples.insert(lookup(name)?.name, n.parse().ok()?);
            }
        }
        ledger.then_some(r)
    }

    /// Combines the reports of a run's worker processes: each metric is
    /// the median over processes, the ledgers add up, and a simulated,
    /// exact or count metric that differs between processes (which share
    /// one seed) fails the determinism check.
    pub fn combine(children: &[Report]) -> Report {
        let mut r = Report {
            processes: children.len(),
            ..Report::default()
        };
        for c in children {
            r.attempted += c.attempted;
            r.failed += c.failed;
            r.failures.extend(c.failures.iter().cloned());
        }
        let names: std::collections::BTreeSet<&'static str> = children
            .iter()
            .flat_map(|c| c.values.keys().copied())
            .collect();
        for name in names {
            let values: Vec<f64> = children.iter().filter_map(|c| c.get(name)).collect();
            let deterministic = lookup(name).is_some_and(|d| d.kind != Kind::Wall);
            if deterministic {
                let same = values.len() == children.len()
                    && values.iter().all(|v| v.to_bits() == values[0].to_bits());
                r.check(
                    same,
                    format!("{name} differs between processes: {values:?}"),
                );
            }
            r.set(name, crate::median(&values));
            if let Some(n) = children.iter().find_map(|c| c.samples.get(name)) {
                r.samples.insert(name, *n);
            }
        }
        r
    }

    /// Human-readable lines: one per metric with its unit, kind and sample
    /// count, then every failure.
    pub fn summary(&self, defs: &[Def]) -> String {
        let mut out = String::new();
        for d in defs {
            let v = self.values.get(d.name).copied().unwrap_or(f64::NAN);
            let n = match (self.processes, self.samples.get(d.name)) {
                (0, Some(n)) => format!("  (median of {n})"),
                (0, None) => String::new(),
                (p, Some(n)) => format!("  (median of {p} processes × {n} samples)"),
                (p, None) => format!("  (median of {p} processes)"),
            };
            writeln!(
                out,
                "# {:<42} {:>16.6} {:<7} [{}]{}",
                d.name,
                v,
                d.unit,
                d.kind.label(),
                n
            )
            .expect("write to String");
        }
        for f in &self.failures {
            writeln!(out, "# FAILED: {f}").expect("write to String");
        }
        out
    }

    /// The result line: exactly the metrics in `defs`, each with its
    /// unit, plus the operation ledger. Panics if a metric was never set.
    pub fn json(&self, defs: &[Def]) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        )
        .expect("write to String");
        for (i, d) in defs.iter().enumerate() {
            let v = self
                .values
                .get(d.name)
                .unwrap_or_else(|| panic!("metric {} was never set", d.name));
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                d.name, v, d.unit
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}
