//! The fetch scheduler: bounded in-flight ranged downloads with
//! backpressure, per reader host — the read-side mirror of
//! [`crate::write::scheduler`].
//!
//! Every chunk downloads as a sequence of ranged reads
//! ([`ObjectStore::get_part`]) over its reader host's downlink (channel).
//! The scheduler bounds how many ranges a host may have in flight in
//! *simulated* time ([`crate::hosts::Window`]): range `n` may not start
//! before range `n − window` has finished transferring — decoded rows
//! buffer in bounded host memory until the merge stage consumes them, just
//! as quantized chunks buffer on the write side until the network accepts
//! them. Transient read failures are retried in place (a bounded number of
//! times) rather than failing the whole restore: remote reads time out in
//! practice and the paper's time-to-resume model only cares that the bytes
//! eventually arrive.

use crate::error::{CnrError, Result};
use crate::hosts::Window;
use bytes::Bytes;
use cnr_storage::{envelope, ObjectStore, StorageError};
use std::sync::Mutex;
use std::time::Duration;

/// The payload of an object [`FetchScheduler::fetch_chunk`] returned. Its
/// envelope was verified on arrival, so the payload is handed to the codec
/// as is.
pub(crate) fn verified_payload(stored: &[u8]) -> &[u8] {
    &stored[envelope::HEADER_LEN..]
}

/// Point-in-time view of the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchStatus {
    /// Ranged reads still transferring at the polled instant.
    pub in_flight_parts: usize,
    /// Simulated time at which everything fetched so far has arrived.
    pub ready_at: Duration,
    /// Ranged reads completed so far.
    pub parts_fetched: u64,
    /// Times a range's start was delayed because its host's window was full.
    pub backpressure_stalls: u64,
    /// Transient read failures absorbed by retries.
    pub retries_performed: u64,
    /// Whole-chunk re-fetches triggered by a failed envelope verification
    /// (corruption healing) — distinct from `retries_performed`, which
    /// counts only transient I/O retries of individual ranges.
    pub corruption_refetches: u64,
    /// Envelope verification failures on assembled chunks (each failed
    /// verification counts, including repeat failures of one chunk).
    pub corruption_detected: u64,
    /// Chunks that failed verification at least once and were then served
    /// clean by a re-fetch from another replica.
    pub corruption_repaired: u64,
}

struct FetchState {
    /// In-flight ranges per host. No range may start before its floor (the
    /// failure instant, raised to the chain-load completion once the
    /// manifests are in); its latest completion is the ready point.
    window: Window,
    retries_performed: u64,
    corruption_refetches: u64,
    corruption_detected: u64,
    corruption_repaired: u64,
}

/// Schedules chunk downloads for one restore across all reader hosts.
pub struct FetchScheduler<'a> {
    store: &'a dyn ObjectStore,
    retries: u32,
    state: Mutex<FetchState>,
    /// One issuance lock per host: admit → read → record must be atomic
    /// per host, or concurrent decode threads sharing a host could exceed
    /// its in-flight window (and make its timing schedule-dependent).
    issue: Vec<Mutex<()>>,
}

impl<'a> FetchScheduler<'a> {
    /// Creates a scheduler over `store` for `hosts` reader hosts, each with
    /// an in-flight window of `window` ranged reads, retrying each
    /// transiently failed range up to `retries` times before giving up.
    /// No transfer starts before `start_floor` (the failure instant).
    pub fn new(
        store: &'a dyn ObjectStore,
        hosts: usize,
        window: usize,
        retries: u32,
        start_floor: Duration,
    ) -> Self {
        Self {
            store,
            retries,
            state: Mutex::new(FetchState {
                window: Window::new(hosts, window, start_floor),
                retries_performed: 0,
                corruption_refetches: 0,
                corruption_detected: 0,
                corruption_repaired: 0,
            }),
            issue: (0..hosts).map(|_| Mutex::new(())).collect(),
        }
    }

    /// Raises the start floor: subsequent ranges may not begin before `t`.
    /// The coordinator calls this after the manifest chain loads — chunk
    /// fetches cannot start before the plan that names them exists.
    pub fn set_floor(&self, t: Duration) {
        let mut s = self.state.lock().unwrap();
        let w = &mut s.window;
        w.floor = w.floor.max(t);
        w.done_at = w.done_at.max(w.floor);
    }

    /// Downloads the `bytes`-byte object at `key` over host `host`'s
    /// downlink as `parts` ranged reads under window backpressure,
    /// returning the assembled bytes and the simulated time the last range
    /// arrived. Transient failures (I/O timeouts) retry in place;
    /// exhausted retries and non-transient errors (missing object, bad
    /// range) propagate immediately.
    ///
    /// Every object's envelope is verified end-to-end after reassembly: a
    /// chunk whose envelope is missing or fails its checksum is re-fetched
    /// whole from another replica (the per-range retry budget also bounds
    /// whole-chunk re-fetches), and a chunk that never verifies surfaces as
    /// [`StorageError::Corrupt`] — corrupted bytes are never handed to the
    /// decoder. The returned bytes are the verified stored object, so its
    /// payload can be decoded without checksumming it again.
    pub fn fetch_chunk(
        &self,
        host: u16,
        key: &str,
        bytes: u64,
        parts: u32,
    ) -> Result<(Bytes, Duration)> {
        let mut refetches = 0u32;
        loop {
            let (data, arrived_at) = self.fetch_chunk_once(host, key, bytes, parts)?;
            match self.verify(key, &data) {
                Ok(()) => {
                    let mut s = self.state.lock().unwrap();
                    if refetches > 0 {
                        s.corruption_repaired += 1;
                    }
                    drop(s);
                    if parts.max(1) > 1 {
                        // The miss path of a caching tier can only retain
                        // whole-object ranges; hand verified multi-part
                        // reassemblies back explicitly so warm restores hit
                        // the cache for large chunks too.
                        self.store.offer_cached(key, data.clone());
                    }
                    return Ok((data, arrived_at));
                }
                Err(e) if refetches < self.retries => {
                    refetches += 1;
                    // Healing is not a transient retry: whole-chunk
                    // re-fetches keep their own counter so `ResumeStats`
                    // can tell flaky networks from rotten replicas.
                    let mut s = self.state.lock().unwrap();
                    s.corruption_refetches += 1;
                    drop(s);
                    let _ = e; // re-fetch the whole chunk from another replica
                }
                Err(e) => return Err(CnrError::from(e)),
            }
        }
    }

    /// One assembly pass of [`FetchScheduler::fetch_chunk`]: every range
    /// downloads under window backpressure, transient I/O failures retry
    /// per range, and the raw (unverified) reassembly comes back.
    fn fetch_chunk_once(
        &self,
        host: u16,
        key: &str,
        bytes: u64,
        parts: u32,
    ) -> Result<(Bytes, Duration)> {
        let nparts = parts.max(1) as u64;
        if nparts <= 1 || bytes == 0 {
            // Zero-copy fast path: a single range *is* the whole object,
            // so the buffer the store returned flows straight to the
            // decoder — no reassembly vector, no copy.
            return self.fetch_part(host, key, 0, bytes);
        }
        let part_len = bytes.div_ceil(nparts).max(1);
        let mut assembled = Vec::with_capacity(bytes as usize);
        let mut arrived_at = Duration::ZERO;
        let mut offset = 0u64;
        while offset < bytes {
            let len = part_len.min(bytes - offset);
            let (data, completed_at) = self.fetch_part(host, key, offset, len)?;
            arrived_at = arrived_at.max(completed_at);
            assembled.extend_from_slice(&data);
            offset += len;
        }
        Ok((Bytes::from(assembled), arrived_at))
    }

    /// Downloads one range over `host`'s downlink under window
    /// backpressure, retrying transient I/O failures in place, and returns
    /// its bytes with the simulated time they finished arriving.
    fn fetch_part(
        &self,
        host: u16,
        key: &str,
        offset: u64,
        len: u64,
    ) -> Result<(Bytes, Duration)> {
        // Hold the host's issuance lock across admit → read → record so
        // the in-flight window bound holds under concurrent decode threads
        // (reads are wall-instant; only simulated time is scheduled here).
        let guard = self.issue[host as usize].lock().unwrap();
        let not_before = self.state.lock().unwrap().window.admit(host as usize);
        let mut attempt = 0u32;
        let (data, receipt) = loop {
            match self
                .store
                .get_part(key, offset, len, host as u32, not_before)
            {
                Ok(ok) => break ok,
                Err(StorageError::Io(_)) if attempt < self.retries => {
                    attempt += 1;
                    self.state.lock().unwrap().retries_performed += 1;
                    // Transient: retry the same range.
                }
                Err(StorageError::OutOfRange(why)) => {
                    // Ranges are planned from the size the manifest
                    // recorded: an object too short to serve one was
                    // truncated at rest.
                    self.state.lock().unwrap().corruption_detected += 1;
                    return Err(CnrError::Corrupt(format!("{key}: {why}")));
                }
                Err(e) => return Err(CnrError::from(e)),
            }
        };
        self.state
            .lock()
            .unwrap()
            .window
            .record(host as usize, receipt.completed_at);
        drop(guard);
        Ok((data, receipt.completed_at))
    }

    /// Verifies an assembled object's envelope. Bytes without an
    /// envelope, a short read (in-transit truncation loses trailing bytes)
    /// and a checksum mismatch all count as detected corruption.
    fn verify(&self, key: &str, data: &[u8]) -> std::result::Result<(), StorageError> {
        envelope::unwrap(data).map(|_| ()).map_err(|why| {
            self.state.lock().unwrap().corruption_detected += 1;
            StorageError::Corrupt(format!("{key}: {why}"))
        })
    }

    /// The store downloads come from.
    pub fn store(&self) -> &'a dyn ObjectStore {
        self.store
    }

    /// Simulated time at which everything fetched so far has arrived.
    pub fn ready_at(&self) -> Duration {
        self.state.lock().unwrap().window.done_at
    }

    /// Polls the scheduler at simulated time `now`: retires finished ranges
    /// and reports what is still in flight.
    pub fn poll(&self, now: Duration) -> FetchStatus {
        let mut s = self.state.lock().unwrap();
        FetchStatus {
            in_flight_parts: s.window.retire(now),
            ready_at: s.window.done_at,
            parts_fetched: s.window.parts,
            backpressure_stalls: s.window.stalls,
            retries_performed: s.retries_performed,
            corruption_refetches: s.corruption_refetches,
            corruption_detected: s.corruption_detected,
            corruption_repaired: s.corruption_repaired,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnr_cluster::SimClock;
    use cnr_storage::{
        FailureMode, FlakyStore, InMemoryStore, RemoteConfig, SimulatedRemoteStore,
    };

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

    /// A stored object of exactly `len` bytes, envelope included.
    fn object(len: usize) -> Bytes {
        let payload: Vec<u8> = (0..len - envelope::HEADER_LEN).map(|i| i as u8).collect();
        Bytes::from(envelope::wrap(&payload))
    }

    fn mb(n: usize) -> Bytes {
        object(n * 1024 * 1024)
    }

    #[test]
    fn fetches_in_ranges_and_reassembles() {
        let store = InMemoryStore::new();
        let payload = object(250);
        store.put("obj", payload.clone()).unwrap();
        let sched = FetchScheduler::new(&store, 1, 4, 0, Duration::ZERO);
        let (data, _) = sched.fetch_chunk(0, "obj", 250, 3).unwrap();
        assert_eq!(data, payload);
        assert_eq!(sched.poll(Duration::ZERO).parts_fetched, 3);
    }

    /// An empty object downloads as one range — and, having no envelope,
    /// is rejected as corrupt rather than handed to a decoder.
    #[test]
    fn empty_object_is_one_range() {
        let store = InMemoryStore::new();
        store.put("obj", Bytes::new()).unwrap();
        let sched = FetchScheduler::new(&store, 1, 4, 0, Duration::ZERO);
        let err = sched.fetch_chunk(0, "obj", 0, 1).unwrap_err();
        assert!(matches!(err, CnrError::Corrupt(_)), "got {err:?}");
        let status = sched.poll(Duration::ZERO);
        assert_eq!(status.parts_fetched, 1);
        assert_eq!(status.corruption_detected, 1);
    }

    #[test]
    fn full_window_applies_backpressure() {
        let store = remote(1.0, 1);
        store.put("obj", mb(3)).unwrap(); // channel busy until 3s
        let sched = FetchScheduler::new(&store, 1, 1, 0, Duration::ZERO);
        let (_, arrived) = sched.fetch_chunk(0, "obj", 3 * 1024 * 1024, 3).unwrap();
        // 3 MB written + 3 MB read back over the same 1 MB/s channel.
        assert!((arrived.as_secs_f64() - 6.0).abs() < 1e-6);
        assert_eq!(sched.poll(Duration::ZERO).backpressure_stalls, 2);
        // A wide window never stalls.
        let sched = FetchScheduler::new(&store, 1, 8, 0, Duration::ZERO);
        sched.fetch_chunk(0, "obj", 3 * 1024 * 1024, 3).unwrap();
        assert_eq!(sched.poll(Duration::ZERO).backpressure_stalls, 0);
    }

    #[test]
    fn ready_at_tracks_the_slowest_host() {
        let store = remote(1.0, 2);
        store.put("a", mb(1)).unwrap();
        store.put("b", mb(2)).unwrap();
        let write_drain = store.drained_at();
        let sched = FetchScheduler::new(&store, 2, 8, 0, Duration::ZERO);
        sched.fetch_chunk(0, "a", 1024 * 1024, 1).unwrap();
        sched.fetch_chunk(1, "b", 2 * 1024 * 1024, 1).unwrap();
        assert!((sched.ready_at().as_secs_f64() - (write_drain.as_secs_f64() + 2.0)).abs() < 1e-6);
        assert_eq!(
            sched.poll(Duration::from_secs(60)).in_flight_parts,
            0,
            "everything retired after arrival"
        );
    }

    #[test]
    fn transient_read_failures_are_retried() {
        let store = FlakyStore::failing_reads(InMemoryStore::new(), FailureMode::FirstN(2));
        store.put("obj", object(100)).unwrap();
        let sched = FetchScheduler::new(&store, 1, 4, 3, Duration::ZERO);
        let (data, _) = sched.fetch_chunk(0, "obj", 100, 2).unwrap();
        assert_eq!(data.len(), 100);
        let status = sched.poll(Duration::ZERO);
        assert_eq!(status.retries_performed, 2);
        assert_eq!(status.corruption_refetches, 0, "no healing involved");
    }

    #[test]
    fn exhausted_retries_propagate_the_error() {
        let store = FlakyStore::failing_reads(InMemoryStore::new(), FailureMode::Every(1));
        store.put("obj", object(100)).unwrap();
        let sched = FetchScheduler::new(&store, 1, 4, 2, Duration::ZERO);
        assert!(matches!(
            sched.fetch_chunk(0, "obj", 100, 1),
            Err(CnrError::Storage(_))
        ));
    }

    #[test]
    fn object_shorter_than_planned_is_corrupt() {
        let store = InMemoryStore::new();
        let stored = object(100);
        store.put("obj", stored.slice(..60)).unwrap(); // truncated at rest
        let sched = FetchScheduler::new(&store, 1, 4, 2, Duration::ZERO);
        let err = sched.fetch_chunk(0, "obj", 100, 2).unwrap_err();
        assert!(matches!(err, CnrError::Corrupt(_)), "got {err:?}");
        assert_eq!(sched.poll(Duration::ZERO).corruption_detected, 1);
    }

    #[test]
    fn missing_object_fails_without_retry_help() {
        let store = InMemoryStore::new();
        let sched = FetchScheduler::new(&store, 1, 4, 2, Duration::ZERO);
        assert!(sched.fetch_chunk(0, "nope", 10, 1).is_err());
        // Non-transient errors never consume retries.
        assert_eq!(sched.poll(Duration::ZERO).retries_performed, 0);
    }

    #[test]
    fn start_floor_delays_every_range() {
        let store = remote(1.0, 2);
        store.put("obj", mb(1)).unwrap(); // channel 0 busy until 1s
        store.put("small", object(1024)).unwrap();
        let floor = Duration::from_secs(10);
        let sched = FetchScheduler::new(&store, 2, 4, 0, floor);
        assert_eq!(sched.ready_at(), floor, "nothing fetched yet");
        let (_, arrived) = sched.fetch_chunk(1, "obj", 1024 * 1024, 1).unwrap();
        assert!(arrived >= floor + Duration::from_secs(1), "read starts at the floor");
        // Raising the floor moves subsequent ranges, not completed ones.
        sched.set_floor(Duration::from_secs(20));
        let (_, arrived2) = sched.fetch_chunk(1, "small", 1024, 1).unwrap();
        assert!(arrived2 >= Duration::from_secs(20));
    }

    #[test]
    fn multipart_reassembly_is_offered_back_to_the_cache() {
        use cnr_storage::TieredStore;
        let remote = InMemoryStore::new();
        remote.put("chunk", object(4096)).unwrap();
        let store = TieredStore::new(InMemoryStore::new(), remote, 1 << 20);
        let sched = FetchScheduler::new(&store, 1, 4, 0, Duration::ZERO);
        // 4 partial ranges: none can populate the cache on its own...
        let (data, _) = sched.fetch_chunk(0, "chunk", 4096, 4).unwrap();
        assert_eq!(data.len(), 4096);
        // ...but the reassembled object was offered back, so the next
        // fetch is all cache hits.
        assert!(store.cache().get("chunk").is_ok(), "reassembly cached");
        let before = store.cache_hits();
        sched.fetch_chunk(0, "chunk", 4096, 4).unwrap();
        assert_eq!(store.cache_hits(), before + 4);
    }

    #[test]
    fn corrupt_chunk_is_healed_by_refetching_another_replica() {
        use cnr_storage::{envelope, CorruptionKind, CorruptionSpec};
        let inner = InMemoryStore::new();
        let enveloped = Bytes::from(envelope::wrap(&[7u8; 300]));
        inner.put("obj", enveloped.clone()).unwrap();
        // The very first eligible read is bit-flipped; the refetch hits a
        // healthy replica (the corruption counter has moved on).
        let store = FlakyStore::corrupting_reads(
            inner,
            CorruptionSpec::once(CorruptionKind::BitFlip, 1),
        );
        let sched = FetchScheduler::new(&store, 1, 4, 2, Duration::ZERO);
        let (data, _) = sched
            .fetch_chunk(0, "obj", enveloped.len() as u64, 1)
            .unwrap();
        assert_eq!(data, enveloped, "healed fetch is bit-identical");
        let status = sched.poll(Duration::ZERO);
        assert_eq!(status.corruption_detected, 1);
        assert_eq!(status.corruption_repaired, 1);
        assert_eq!(status.corruption_refetches, 1);
        assert_eq!(
            status.retries_performed, 0,
            "healing a rotten replica is not a transient I/O retry"
        );
    }

    #[test]
    fn persistent_corruption_surfaces_as_a_typed_error() {
        use crate::error::CnrError;
        use cnr_storage::{envelope, CorruptionKind, CorruptionSpec};
        let inner = InMemoryStore::new();
        let enveloped = Bytes::from(envelope::wrap(&[9u8; 128]));
        inner.put("obj", enveloped.clone()).unwrap();
        // Every replica is bad: all reads come back damaged.
        let store = FlakyStore::corrupting_reads(
            inner,
            CorruptionSpec::every(CorruptionKind::BitFlip, 1),
        );
        let sched = FetchScheduler::new(&store, 1, 4, 2, Duration::ZERO);
        let err = sched
            .fetch_chunk(0, "obj", enveloped.len() as u64, 1)
            .unwrap_err();
        assert!(
            matches!(err, CnrError::Corrupt(_)),
            "typed corruption error, got {err:?}"
        );
        let status = sched.poll(Duration::ZERO);
        // Initial attempt + 2 refetches, all detected; nothing repaired.
        assert_eq!(status.corruption_detected, 3);
        assert_eq!(status.corruption_repaired, 0);
        assert_eq!(status.corruption_refetches, 2);
        assert_eq!(status.retries_performed, 0);
    }

    #[test]
    fn truncated_transfer_never_passes_verification() {
        use cnr_storage::{envelope, CorruptionKind, CorruptionSpec};
        let inner = InMemoryStore::new();
        let enveloped = Bytes::from(envelope::wrap(&(0u8..=255).collect::<Vec<u8>>()));
        inner.put("obj", enveloped.clone()).unwrap();
        let store = FlakyStore::corrupting_reads(
            inner,
            CorruptionSpec::once(CorruptionKind::Truncate, 1),
        );
        let sched = FetchScheduler::new(&store, 1, 4, 1, Duration::ZERO);
        let (data, _) = sched
            .fetch_chunk(0, "obj", enveloped.len() as u64, 2)
            .unwrap();
        assert_eq!(data, enveloped);
        let status = sched.poll(Duration::ZERO);
        assert!(status.corruption_detected >= 1, "short range was caught");
        assert_eq!(status.corruption_repaired, 1);
        assert!(status.corruption_refetches >= 1);
    }

    #[test]
    fn poisoned_reassembly_is_never_offered_to_the_cache() {
        use cnr_storage::{envelope, CorruptionKind, CorruptionSpec, TieredStore};
        let remote = InMemoryStore::new();
        let enveloped = Bytes::from(envelope::wrap(&[5u8; 4096]));
        remote.put("chunk", enveloped.clone()).unwrap();
        let tiered = TieredStore::new(InMemoryStore::new(), remote, 1 << 20);
        let store = FlakyStore::corrupting_reads(
            tiered,
            CorruptionSpec::once(CorruptionKind::BitFlip, 1),
        );
        let sched = FetchScheduler::new(&store, 1, 4, 2, Duration::ZERO);
        let (data, _) = sched
            .fetch_chunk(0, "chunk", enveloped.len() as u64, 4)
            .unwrap();
        assert_eq!(data, enveloped);
        // Only the verified reassembly reached the cache tier.
        let cached = store.inner().cache().get("chunk").unwrap();
        assert_eq!(cached, enveloped, "cache holds clean bytes only");
    }
}
