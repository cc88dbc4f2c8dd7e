//! A forwarding [`ObjectStore`] that times every call from outside.
//!
//! Every trait method is forwarded — not only `put`/`get`. A wrapper that
//! left `get_part` or the multipart methods to the trait's defaults would
//! change what it measures: the default multipart path buffers parts as
//! staging objects and assembles them with an extra get + put, and the
//! default `get_part` returns zero-time receipts, which zeroes the
//! simulated restore time. The package's tests check that the simulated
//! and exact metrics are bit-identical with and without the wrapper.

use crate::trace::Tracer;
use bytes::Bytes;
use cnr_storage::{
    CacheStats, GetReceipt, MultipartUpload, ObjectMeta, ObjectStore, PartReceipt, PutReceipt,
    Result,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Call counters of a [`TimedStore`]; statistics only, so `Relaxed`.
#[derive(Debug, Default)]
pub struct StoreCounters {
    put_calls: AtomicU64,
    put_nanos: AtomicU64,
    put_bytes: AtomicU64,
    get_calls: AtomicU64,
    get_nanos: AtomicU64,
    get_bytes: AtomicU64,
}

/// A copy of the counters at one instant.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct StoreTotals {
    /// `put` + `put_part` calls.
    pub put_calls: u64,
    /// Wall time inside those calls, summed over threads.
    pub put_time: Duration,
    /// Bytes they carried.
    pub put_bytes: u64,
    /// `get` + `get_range` + `get_part` calls.
    pub get_calls: u64,
    /// Wall time inside those calls, summed over threads.
    pub get_time: Duration,
    /// Bytes they returned.
    pub get_bytes: u64,
}

/// Forwards every call to `inner`, counting calls, bytes and wall time,
/// and records a span per call when a tracer is attached.
pub struct TimedStore<'a> {
    inner: &'a dyn ObjectStore,
    tracer: Option<&'a Tracer>,
    counters: StoreCounters,
}

impl<'a> TimedStore<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn ObjectStore, tracer: Option<&'a Tracer>) -> Self {
        Self {
            inner,
            tracer,
            counters: StoreCounters::default(),
        }
    }

    /// The counters so far.
    pub fn totals(&self) -> StoreTotals {
        let c = &self.counters;
        StoreTotals {
            put_calls: c.put_calls.load(Ordering::Relaxed),
            put_time: Duration::from_nanos(c.put_nanos.load(Ordering::Relaxed)),
            put_bytes: c.put_bytes.load(Ordering::Relaxed),
            get_calls: c.get_calls.load(Ordering::Relaxed),
            get_time: Duration::from_nanos(c.get_nanos.load(Ordering::Relaxed)),
            get_bytes: c.get_bytes.load(Ordering::Relaxed),
        }
    }

    /// Runs one forwarded call, charging it to the put or get counters by
    /// its span name (other calls only get a span).
    fn timed<T>(
        &self,
        name: &'static str,
        call: impl FnOnce() -> Result<T>,
        bytes: impl Fn(&T) -> u64,
    ) -> Result<T> {
        let span_start = self.tracer.map(Tracer::now);
        let t0 = Instant::now();
        let out = call();
        let nanos = t0.elapsed().as_nanos() as u64;
        let n = out.as_ref().map(&bytes).unwrap_or(0);
        let c = &self.counters;
        let class = match name {
            "storage.put" | "storage.put_part" => Some((&c.put_calls, &c.put_nanos, &c.put_bytes)),
            "storage.get" | "storage.get_range" | "storage.get_part" => {
                Some((&c.get_calls, &c.get_nanos, &c.get_bytes))
            }
            _ => None,
        };
        if let Some((calls, time, total)) = class {
            calls.fetch_add(1, Ordering::Relaxed);
            time.fetch_add(nanos, Ordering::Relaxed);
            total.fetch_add(n, Ordering::Relaxed);
        }
        if let (Some(t), Some(s)) = (self.tracer, span_start) {
            t.store_call(name, s, n);
        }
        out
    }
}

impl ObjectStore for TimedStore<'_> {
    fn put(&self, key: &str, data: Bytes) -> Result<PutReceipt> {
        let n = data.len() as u64;
        self.timed("storage.put", || self.inner.put(key, data), |_| n)
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        self.timed("storage.get", || self.inner.get(key), |b| b.len() as u64)
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.timed("storage.delete", || self.inner.delete(key), |_| 0)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.timed("storage.list", || self.inner.list(prefix), |_| 0)
    }

    fn head(&self, key: &str) -> Result<ObjectMeta> {
        self.timed("storage.head", || self.inner.head(key), |_| 0)
    }

    fn total_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Bytes> {
        self.timed(
            "storage.get_range",
            || self.inner.get_range(key, offset, len),
            |b| b.len() as u64,
        )
    }

    fn get_part(
        &self,
        key: &str,
        offset: u64,
        len: u64,
        channel: u32,
        not_before: Duration,
    ) -> Result<(Bytes, GetReceipt)> {
        self.timed(
            "storage.get_part",
            || self.inner.get_part(key, offset, len, channel, not_before),
            |(b, _)| b.len() as u64,
        )
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }

    fn offer_cached(&self, key: &str, data: Bytes) {
        self.inner.offer_cached(key, data)
    }

    fn begin_multipart(&self, key: &str) -> Result<MultipartUpload> {
        self.timed(
            "storage.begin_multipart",
            || self.inner.begin_multipart(key),
            |_| 0,
        )
    }

    fn put_part(
        &self,
        up: &MultipartUpload,
        part: u32,
        data: Bytes,
        not_before: Duration,
    ) -> Result<PartReceipt> {
        let n = data.len() as u64;
        self.timed(
            "storage.put_part",
            || self.inner.put_part(up, part, data, not_before),
            |_| n,
        )
    }

    fn complete_multipart(&self, up: &MultipartUpload) -> Result<PutReceipt> {
        self.timed(
            "storage.complete_multipart",
            || self.inner.complete_multipart(up),
            |_| 0,
        )
    }

    fn abort_multipart(&self, up: &MultipartUpload) -> Result<()> {
        self.timed(
            "storage.abort_multipart",
            || self.inner.abort_multipart(up),
            |_| 0,
        )
    }
}
