//! The upload scheduler: bounded in-flight multipart windows with
//! backpressure, per writer host.
//!
//! Every chunk uploads as a multipart object over its host's uplink
//! (channel). The scheduler bounds how many parts a host may have in
//! flight in *simulated* time ([`crate::hosts::Window`]): part `n` may not
//! start before part `n − window` has finished transferring. That models
//! the real constraint the paper's background writer runs under —
//! quantized chunks buffer in bounded host memory until the network
//! accepts them. The write reports the resulting durability point as
//! [`CheckpointRecord::completed_at`](super::CheckpointRecord); the engine
//! keeps that instant and polls it through
//! [`Engine::upload_backlog`](crate::engine::Engine::upload_backlog)
//! (§4.3 non-overlap without blocking), not this scheduler.

use crate::error::{CnrError, Result};
use crate::hosts::Window;
use bytes::Bytes;
use cnr_storage::{ObjectStore, PutReceipt};
use std::sync::Mutex;
use std::time::Duration;

/// Point-in-time view of the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UploadStatus {
    /// Parts still transferring at the polled instant.
    pub in_flight_parts: usize,
    /// Simulated time at which everything submitted so far is durable.
    pub durable_at: Duration,
    /// Parts successfully submitted so far.
    pub parts_uploaded: u64,
    /// Times a part's start was delayed because its host's window was full.
    pub backpressure_stalls: u64,
}

/// Schedules chunk uploads for one checkpoint write across all hosts.
pub struct UploadScheduler<'a> {
    store: &'a dyn ObjectStore,
    part_bytes: usize,
    window: Mutex<Window>,
}

impl<'a> UploadScheduler<'a> {
    /// Creates a scheduler over `store` for `hosts` writer hosts, each with
    /// an in-flight window of `window` parts of at most `part_bytes`.
    pub fn new(store: &'a dyn ObjectStore, hosts: usize, window: usize, part_bytes: usize) -> Self {
        assert!(part_bytes >= 1);
        Self {
            store,
            part_bytes,
            window: Mutex::new(Window::new(hosts, window, Duration::ZERO)),
        }
    }

    /// Uploads `data` under `key` over host `host`'s uplink as a multipart
    /// object, splitting into `part_bytes` parts under window backpressure.
    /// Returns the assembled object's receipt and the part count. On any
    /// storage error the upload is aborted (no partial object, no staged
    /// parts left behind).
    pub fn upload(&self, host: u16, key: &str, data: Bytes) -> Result<(PutReceipt, u32)> {
        let up = self
            .store
            .begin_multipart(key)
            .map_err(CnrError::from)?
            .on_channel(host as u32);
        let nparts = data.len().div_ceil(self.part_bytes).max(1) as u32;
        for p in 0..nparts {
            let lo = p as usize * self.part_bytes;
            let hi = (lo + self.part_bytes).min(data.len());
            let not_before = self.window.lock().unwrap().admit(host as usize);
            match self.store.put_part(&up, p, data.slice(lo..hi), not_before) {
                Ok(receipt) => self
                    .window
                    .lock()
                    .unwrap()
                    .record(host as usize, receipt.completed_at),
                Err(e) => {
                    let _ = self.store.abort_multipart(&up);
                    return Err(e.into());
                }
            }
        }
        match self.store.complete_multipart(&up) {
            Ok(receipt) => {
                let mut w = self.window.lock().unwrap();
                w.done_at = w.done_at.max(receipt.completed_at);
                Ok((receipt, nparts))
            }
            Err(e) => {
                let _ = self.store.abort_multipart(&up);
                Err(e.into())
            }
        }
    }

    /// Forbids any part from starting before `floor` in simulated time.
    /// The engine sets this to the *previous* checkpoint's durability
    /// point: under the §4.3 relaxation the new interval's snapshot and
    /// quantization overlap the old drain, but the uploads themselves
    /// must queue behind it.
    pub fn set_floor(&self, floor: Duration) {
        self.window.lock().unwrap().floor = floor;
    }

    /// The store uploads go to.
    pub fn store(&self) -> &'a dyn ObjectStore {
        self.store
    }

    /// Configured multipart part size.
    pub fn part_bytes(&self) -> usize {
        self.part_bytes
    }

    /// Simulated time at which everything submitted so far is durable.
    pub fn durable_at(&self) -> Duration {
        self.window.lock().unwrap().done_at
    }

    /// Polls the scheduler at simulated time `now`: retires finished parts
    /// and reports what is still in flight.
    pub fn poll(&self, now: Duration) -> UploadStatus {
        let mut w = self.window.lock().unwrap();
        UploadStatus {
            in_flight_parts: w.retire(now),
            durable_at: w.done_at,
            parts_uploaded: w.parts,
            backpressure_stalls: w.stalls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnr_cluster::SimClock;
    use cnr_storage::{InMemoryStore, RemoteConfig, SimulatedRemoteStore};

    fn remote(bw_mbps: f64, channels: u32) -> SimulatedRemoteStore {
        SimulatedRemoteStore::new(
            RemoteConfig {
                bandwidth_bytes_per_sec: bw_mbps * 1024.0 * 1024.0,
                base_latency: Duration::ZERO,
                replication: 1,
                channels,
            },
            SimClock::new(),
        )
    }

    fn mb(n: usize) -> Bytes {
        Bytes::from(vec![0u8; n * 1024 * 1024])
    }

    #[test]
    fn splits_into_parts_and_assembles() {
        let store = InMemoryStore::new();
        let sched = UploadScheduler::new(&store, 1, 4, 1024);
        let payload = Bytes::from(vec![7u8; 2500]);
        let (receipt, parts) = sched.upload(0, "obj", payload.clone()).unwrap();
        assert_eq!(parts, 3);
        assert_eq!(receipt.bytes, 2500);
        assert_eq!(store.get("obj").unwrap(), payload);
        assert_eq!(sched.poll(Duration::ZERO).parts_uploaded, 3);
    }

    #[test]
    fn empty_payload_is_one_part() {
        let store = InMemoryStore::new();
        let sched = UploadScheduler::new(&store, 1, 4, 1024);
        let (_, parts) = sched.upload(0, "obj", Bytes::new()).unwrap();
        assert_eq!(parts, 1);
        assert_eq!(store.get("obj").unwrap().len(), 0);
    }

    #[test]
    fn full_window_applies_backpressure() {
        // Window of 1: each part may not start before its predecessor
        // completes. On the serialized simulated uplink the channel already
        // enforces that ordering, so the observable effect is the stall
        // accounting — the contract matters for backends whose parts
        // transfer concurrently.
        let store = remote(1.0, 1);
        let sched = UploadScheduler::new(&store, 1, 1, 1024 * 1024);
        let (receipt, parts) = sched.upload(0, "obj", mb(3)).unwrap();
        assert_eq!(parts, 3);
        assert!((receipt.completed_at.as_secs_f64() - 3.0).abs() < 1e-6);
        assert_eq!(sched.poll(Duration::ZERO).backpressure_stalls, 2);
        // A window wide enough for the whole object never stalls.
        let store = remote(1.0, 1);
        let sched = UploadScheduler::new(&store, 1, 8, 1024 * 1024);
        sched.upload(0, "obj", mb(3)).unwrap();
        assert_eq!(sched.poll(Duration::ZERO).backpressure_stalls, 0);
    }

    #[test]
    fn floored_uploads_queue_behind_the_previous_drain() {
        // A 5 s floor (the previous checkpoint's durability point) delays
        // the first part's start: 1 MiB at 1 MiB/s lands at 6 s, not 1 s.
        let store = remote(1.0, 1);
        let sched = UploadScheduler::new(&store, 1, 4, 1024 * 1024);
        sched.set_floor(Duration::from_secs(5));
        let (receipt, parts) = sched.upload(0, "obj", mb(1)).unwrap();
        assert_eq!(parts, 1);
        assert!(
            (receipt.completed_at.as_secs_f64() - 6.0).abs() < 1e-6,
            "floored part must start at the floor, got {:?}",
            receipt.completed_at
        );
        assert!(sched.durable_at() >= Duration::from_secs(6));
    }

    #[test]
    fn durable_at_tracks_the_slowest_host() {
        let store = remote(1.0, 2);
        let sched = UploadScheduler::new(&store, 2, 8, 1024 * 1024);
        sched.upload(0, "a", mb(1)).unwrap();
        sched.upload(1, "b", mb(2)).unwrap();
        assert!((sched.durable_at().as_secs_f64() - 2.0).abs() < 1e-6);
        // Poll halfway: host 1 still has transfers outstanding.
        let status = sched.poll(Duration::from_millis(1500));
        assert!(status.in_flight_parts >= 1);
        // Poll at the end: everything retired.
        assert_eq!(sched.poll(Duration::from_secs(2)).in_flight_parts, 0);
    }

    #[test]
    fn errors_abort_the_upload() {
        use cnr_storage::FlakyStore;
        let store = FlakyStore::new(InMemoryStore::new(), 2);
        let sched = UploadScheduler::new(&store, 1, 4, 1024);
        // 3 parts; part #2 is injected to fail.
        let err = sched.upload(0, "obj", Bytes::from(vec![0u8; 2500]));
        assert!(matches!(err, Err(CnrError::Storage(_))));
        // No partial object and no staged parts remain.
        assert!(store.get("obj").is_err());
        assert_eq!(store.list("obj").unwrap(), Vec::<String>::new());
    }
}
