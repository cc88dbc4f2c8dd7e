//! Checkpoint engine configuration.

use cnr_quant::QuantScheme;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Incremental checkpointing policy (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Every checkpoint is a full model copy (the paper's baseline).
    FullOnly,
    /// One full baseline, then incrementals that accumulate all
    /// modifications since that baseline ("one-shot baseline").
    OneShot,
    /// Each incremental stores only the rows modified during the last
    /// interval; restore reads the whole chain ("consecutive increment").
    Consecutive,
    /// One-shot behaviour plus the history-based predictor that re-takes a
    /// full baseline when `Fc ≤ Ic` ("intermittent baseline", the default).
    Intermittent,
}

/// Quantization mode for checkpoint payloads (§5.2, §6.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum QuantMode {
    /// No quantization: FP32 passthrough (bit-exact restores).
    None,
    /// A fixed scheme for every checkpoint.
    Fixed(QuantScheme),
    /// The paper's dynamic selection: pick the bit-width from the expected
    /// number of restores (2/3/4/8 bits), falling back to 8-bit when actual
    /// restores exceed the estimate.
    Dynamic {
        /// Expected number of restore events over the job's lifetime.
        expected_restores: u32,
    },
}

/// Per-iteration delta WAL between full checkpoints (off by default).
///
/// When enabled, every training iteration appends the touched-row delta to
/// a segmented, CRC-framed log (`cnr_storage::wal`); restore replays the
/// log tail on top of the last full checkpoint, collapsing lost work from
/// a checkpoint interval to at most one iteration (Checkmate-style).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeltaWalConfig {
    /// Rotate to a new log segment once the current one reaches this size.
    pub segment_bytes: u64,
    /// Sync (make durable) every N appends; `1` loses at most the
    /// iteration that was mid-append when the process died, larger values
    /// trade durability for fewer sync round-trips.
    pub sync_every: u32,
    /// Fixed simulated latency charged per sync — the log device's fsync
    /// round-trip. Charged to the training clock, so it shows up in the
    /// steady-state overhead the paper's 6–17% band is about.
    pub sync_latency: Duration,
    /// Simulated log-device append bandwidth (bytes/s) for the newly
    /// synced frame bytes. The object-store re-put of the whole segment is
    /// an implementation artifact of the simulated store; a real WAL
    /// device appends, so time is charged for appended bytes only.
    pub append_bandwidth: f64,
}

impl Default for DeltaWalConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 1 << 20,
            sync_every: 1,
            sync_latency: Duration::from_micros(10),
            append_bandwidth: 1.0e9,
        }
    }
}

impl DeltaWalConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.segment_bytes == 0 {
            return Err("wal segment_bytes must be positive".into());
        }
        if self.sync_every == 0 {
            return Err("wal sync_every must be positive".into());
        }
        if self.append_bandwidth <= 0.0 {
            return Err("wal append bandwidth must be positive".into());
        }
        Ok(())
    }

    /// The storage-layer writer configuration this implies.
    pub fn writer_config(&self) -> cnr_storage::WalConfig {
        cnr_storage::WalConfig {
            segment_bytes: self.segment_bytes,
            sync_every: self.sync_every,
        }
    }

    /// Simulated time one sync costs for `appended_bytes` of new frames.
    pub fn sync_cost(&self, appended_bytes: u64) -> Duration {
        self.sync_latency
            + Duration::from_secs_f64(appended_bytes as f64 / self.append_bandwidth)
    }
}

/// Full configuration of the Check-N-Run engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointConfig {
    /// Batches per checkpoint interval (the paper defaults to the batch
    /// count equivalent of 30 minutes).
    pub interval_batches: u64,
    /// Incremental policy.
    pub policy: PolicyKind,
    /// Quantization mode.
    pub quant: QuantMode,
    /// Embedding rows per storage chunk (pipelining granularity, §4.4).
    pub chunk_rows: usize,
    /// Background quantization worker threads (the paper's "dedicated CPU
    /// processes"). The budget spreads across writer hosts: up to
    /// `min(quantize_workers, writer_hosts)` shards run concurrently, each
    /// splitting its share into a chunk-level pipeline — a single-host
    /// write still quantizes on all workers.
    pub quantize_workers: usize,
    /// Simulated writer hosts: each owns a contiguous row-range of every
    /// table and uploads its own shard over its own uplink (§4.4's
    /// parallel per-host writes). 1 = the single-host path.
    pub writer_hosts: usize,
    /// Bounded in-flight window of the upload scheduler: at most this many
    /// multipart parts per host may be in flight (in simulated time) before
    /// backpressure delays the next part.
    pub upload_window: usize,
    /// Multipart part size: chunks larger than this stream to the store in
    /// multiple parts, each accounted individually.
    pub part_bytes: usize,
    /// Simulated reader hosts used by sharded restores: on recovery each
    /// host fetches and decodes a share of the checkpoint chain over its
    /// own downlink, so time-to-resume shrinks with this count (the read
    /// mirror of `writer_hosts`). 1 = the single-host restore path.
    pub reader_hosts: usize,
    /// Bounded in-flight window of the restore fetch scheduler: at most
    /// this many ranged reads per reader host may be in flight (in
    /// simulated time) before backpressure delays the next one.
    pub fetch_window: usize,
    /// Transient read-failure retries per ranged fetch before a restore
    /// fails.
    pub fetch_retries: u32,
    /// How many complete restore chains to retain; older chains are deleted
    /// once a newer checkpoint is valid (§4.4).
    pub retained_chains: usize,
    /// Simulated host-copy bandwidth per device for the snapshot stall
    /// (GPU HBM → pinned host memory, §4.2).
    pub snapshot_bandwidth_per_device: f64,
    /// Per-iteration delta WAL between full checkpoints; `None` (the
    /// default) disables it and a failure loses the interval since the
    /// last checkpoint, as in the paper.
    pub delta_wal: Option<DeltaWalConfig>,
    /// Lazy (CPR-style) restores at this hot fraction: resume training as
    /// soon as the dense layers and this fraction of embedding rows (by
    /// access heat) are applied, drain the cold tail in the background,
    /// and fault cold rows in on demand; `Some(1.0)` degenerates to eager
    /// timing. `None` (the default) restores eagerly — every chunk is
    /// applied before resuming.
    pub lazy_hot_fraction: Option<f64>,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        Self {
            interval_batches: 1000,
            policy: PolicyKind::Intermittent,
            quant: QuantMode::None,
            chunk_rows: 4096,
            quantize_workers: 2,
            writer_hosts: 1,
            upload_window: 8,
            part_bytes: 1 << 20,
            reader_hosts: 1,
            fetch_window: 8,
            fetch_retries: 2,
            retained_chains: 1,
            snapshot_bandwidth_per_device: 5.0e9,
            delta_wal: None,
            lazy_hot_fraction: None,
        }
    }
}

impl CheckpointConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.interval_batches == 0 {
            return Err("interval_batches must be positive".into());
        }
        if self.chunk_rows == 0 {
            return Err("chunk_rows must be positive".into());
        }
        if self.quantize_workers == 0 {
            return Err("need at least one quantize worker".into());
        }
        if self.writer_hosts == 0 {
            return Err("need at least one writer host".into());
        }
        if self.writer_hosts > u16::MAX as usize {
            return Err("writer_hosts exceeds the shard id space".into());
        }
        if self.upload_window == 0 {
            return Err("upload window must admit at least one part".into());
        }
        if self.part_bytes == 0 {
            return Err("multipart part size must be positive".into());
        }
        if self.reader_hosts == 0 {
            return Err("need at least one reader host".into());
        }
        if self.reader_hosts > u16::MAX as usize {
            return Err("reader_hosts exceeds the shard id space".into());
        }
        if self.fetch_window == 0 {
            return Err("fetch window must admit at least one range".into());
        }
        if self.retained_chains == 0 {
            return Err("must retain at least one chain".into());
        }
        if self.snapshot_bandwidth_per_device <= 0.0 {
            return Err("snapshot bandwidth must be positive".into());
        }
        if let Some(wal) = &self.delta_wal {
            wal.validate()?;
        }
        if let Some(f) = self.lazy_hot_fraction {
            if !f.is_finite() || !(0.0..=1.0).contains(&f) {
                return Err("lazy_hot_fraction must lie in [0, 1]".into());
            }
        }
        if let QuantMode::Fixed(s) = self.quant {
            let bits = s.bits();
            if bits != 32 && bits != 16 && !(1..=8).contains(&bits) {
                return Err(format!("unsupported checkpoint bit width {bits}"));
            }
        }
        Ok(())
    }

    /// The sharded-restore options implied by this configuration: the
    /// quantize-worker budget doubles as the decode budget (the recovery
    /// path runs on the same background CPU processes the writer used).
    pub fn restore_options(&self) -> crate::read::RestoreOptions {
        crate::read::RestoreOptions {
            reader_hosts: self.reader_hosts.max(1),
            fetch_window: self.fetch_window,
            decode_workers: self.quantize_workers,
            fetch_retries: self.fetch_retries,
            lazy_hot_fraction: self.lazy_hot_fraction,
        }
    }

    /// Snapshot stall duration for a model whose largest per-device shard is
    /// `max_device_bytes` (§4.2: devices copy concurrently, so the max
    /// shard bounds the stall).
    pub fn snapshot_stall(&self, max_device_bytes: u64) -> Duration {
        Duration::from_secs_f64(max_device_bytes as f64 / self.snapshot_bandwidth_per_device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(CheckpointConfig::default().validate().is_ok());
    }

    #[test]
    fn validation_catches_zeroes() {
        let c = CheckpointConfig {
            interval_batches: 0,
            ..CheckpointConfig::default()
        };
        assert!(c.validate().is_err());

        let c = CheckpointConfig {
            chunk_rows: 0,
            ..CheckpointConfig::default()
        };
        assert!(c.validate().is_err());

        let c = CheckpointConfig {
            quantize_workers: 0,
            ..CheckpointConfig::default()
        };
        assert!(c.validate().is_err());

        let c = CheckpointConfig {
            retained_chains: 0,
            ..CheckpointConfig::default()
        };
        assert!(c.validate().is_err());

        for bad in [
            CheckpointConfig {
                writer_hosts: 0,
                ..CheckpointConfig::default()
            },
            CheckpointConfig {
                writer_hosts: u16::MAX as usize + 1,
                ..CheckpointConfig::default()
            },
            CheckpointConfig {
                upload_window: 0,
                ..CheckpointConfig::default()
            },
            CheckpointConfig {
                part_bytes: 0,
                ..CheckpointConfig::default()
            },
            CheckpointConfig {
                reader_hosts: 0,
                ..CheckpointConfig::default()
            },
            CheckpointConfig {
                reader_hosts: u16::MAX as usize + 1,
                ..CheckpointConfig::default()
            },
            CheckpointConfig {
                fetch_window: 0,
                ..CheckpointConfig::default()
            },
            CheckpointConfig {
                lazy_hot_fraction: Some(-0.5),
                ..CheckpointConfig::default()
            },
            CheckpointConfig {
                lazy_hot_fraction: Some(2.0),
                ..CheckpointConfig::default()
            },
        ] {
            assert!(bad.validate().is_err());
        }
    }

    #[test]
    fn paper_scale_snapshot_stall_is_about_seven_seconds() {
        // §4.2: a model partitioned over 128 GPUs stalls <7s. With ~32 GB
        // HBM per device and 5 GB/s host copy, the bound is 6.4s.
        let cfg = CheckpointConfig {
            snapshot_bandwidth_per_device: 5.0e9,
            ..Default::default()
        };
        let stall = cfg.snapshot_stall(32 * 1024 * 1024 * 1024);
        assert!(stall < Duration::from_secs(7));
        assert!(stall > Duration::from_secs(6));
    }

    #[test]
    fn fixed_quant_bits_validated() {
        let c = CheckpointConfig {
            quant: QuantMode::Fixed(QuantScheme::Asymmetric { bits: 8 }),
            ..CheckpointConfig::default()
        };
        assert!(c.validate().is_ok());
    }
}
