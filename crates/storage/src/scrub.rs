//! Background integrity scrubber.
//!
//! Checkpoints outlive the writes that created them: a chunk written today
//! may not be read until a failure weeks later, long past any write-time
//! verification. Production stores rot in the meantime — media decay,
//! truncated repairs, replicas that diverge. The scrubber is the defense:
//! it walks live objects *before* a restore needs them, validates each
//! one's envelope (see [`crate::envelope`]; a delta-log segment frame by
//! frame, [`wal::verifies_clean`]), and repairs what it finds:
//!
//! * **Transit damage** — a read served by a sick replica — heals by
//!   re-reading: the next read lands on a healthy replica (in simulation,
//!   [`crate::FlakyStore`] corruption is keyed by read count, so a retry
//!   models exactly that).
//! * **At-rest damage** — the stored bytes themselves are bad — heals from
//!   a replica store when one is configured: the clean replica bytes are
//!   verified and written back over the damaged object.
//!
//! An object without an envelope is damage like any other: it counts as
//! corrupt and heals the same way.
//!
//! Each sweep returns a [`ScrubReport`]; the cluster layer
//! (`cnr_cluster::scrub`) schedules sweeps and aggregates findings into
//! run statistics.

use crate::{wal, ObjectStore, Result};
use bytes::Bytes;

/// Findings of one scrub sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Objects examined.
    pub scanned: u64,
    /// Objects whose envelope verified on first read.
    pub clean: u64,
    /// Objects whose first read failed envelope verification.
    pub corrupt_detected: u64,
    /// Corrupt objects healed — from a re-read (healthy replica) or from
    /// the replica store — and written back clean.
    pub repaired: u64,
    /// Keys that could not be read clean from any source.
    pub unrepairable: Vec<String>,
    /// Keys skipped because the caller marked them in-flight (a lazy
    /// restore still has fetches outstanding against them); the next
    /// sweep revisits them.
    pub skipped_in_flight: u64,
}

impl ScrubReport {
    /// The report as plain-count findings for the cluster-level scrub log
    /// ([`cnr_cluster::scrub::ScrubScheduler`]).
    pub fn findings(&self) -> cnr_cluster::ScrubFindings {
        cnr_cluster::ScrubFindings {
            scanned: self.scanned,
            clean: self.clean,
            corrupt_detected: self.corrupt_detected,
            repaired: self.repaired,
            unrepairable: self.unrepairable.len() as u64,
            skipped_in_flight: self.skipped_in_flight,
        }
    }

    /// Accumulates another sweep's findings into this one.
    pub fn absorb(&mut self, other: &ScrubReport) {
        self.scanned += other.scanned;
        self.clean += other.clean;
        self.corrupt_detected += other.corrupt_detected;
        self.repaired += other.repaired;
        self.unrepairable.extend(other.unrepairable.iter().cloned());
        self.skipped_in_flight += other.skipped_in_flight;
    }
}

/// Walks stored objects, validating envelopes and repairing damage.
pub struct Scrubber<'a> {
    primary: &'a dyn ObjectStore,
    replica: Option<&'a dyn ObjectStore>,
    /// Reads attempted against the primary per object before falling back
    /// to the replica store (each retry models a different replica).
    read_attempts: u32,
    /// Keys a lazy restore still has fetches in flight against — skipped
    /// (and counted), never verified or rewritten mid-fetch.
    in_flight: std::collections::HashSet<String>,
    /// When attached, each sweep records a `scrub.sweep` span and mirrors
    /// its findings into the `cnr_obs::names::SCRUB_*` counters.
    obs: Option<cnr_obs::Obs>,
}

impl<'a> Scrubber<'a> {
    /// A scrubber over `primary` with no replica fallback and 3 read
    /// attempts.
    pub fn new(primary: &'a dyn ObjectStore) -> Self {
        Self {
            primary,
            replica: None,
            read_attempts: 3,
            in_flight: std::collections::HashSet::new(),
            obs: None,
        }
    }

    /// Attaches an observability handle: sweeps record spans + counters.
    pub fn with_obs(mut self, obs: cnr_obs::Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Marks keys a concurrent lazy restore still has fetches in flight
    /// against: the sweep skips them (healing an object mid-fetch would
    /// race the fault-in's read) and counts each skip in
    /// [`ScrubReport::skipped_in_flight`] so the next sweep knows to
    /// revisit.
    pub fn with_in_flight(mut self, keys: impl IntoIterator<Item = String>) -> Self {
        self.in_flight.extend(keys);
        self
    }

    /// Adds a replica store to heal at-rest damage from.
    pub fn with_replica(mut self, replica: &'a dyn ObjectStore) -> Self {
        self.replica = Some(replica);
        self
    }

    /// Overrides the per-object primary read budget (minimum 1).
    pub fn with_read_attempts(mut self, attempts: u32) -> Self {
        self.read_attempts = attempts.max(1);
        self
    }

    /// Scrubs every key under `prefix`.
    pub fn sweep_prefix(&self, prefix: &str) -> Result<ScrubReport> {
        let keys = self.primary.list(prefix)?;
        Ok(self.sweep(keys.iter().map(String::as_str)))
    }

    /// Scrubs the given keys, returning the sweep's findings. Individual
    /// object failures never abort the sweep — they are reported.
    pub fn sweep<'k>(&self, keys: impl IntoIterator<Item = &'k str>) -> ScrubReport {
        let mut report = ScrubReport::default();
        for key in keys {
            if self.in_flight.contains(key) {
                report.skipped_in_flight += 1;
                continue;
            }
            report.scanned += 1;
            self.scrub_one(key, &mut report);
        }
        if let Some(obs) = &self.obs {
            record_sweep(obs, &report);
        }
        report
    }

    fn scrub_one(&self, key: &str, report: &mut ScrubReport) {
        // An unreadable object, a live delta-log segment with a bad frame
        // and an object without one valid envelope all heal the same way
        // (re-read, then replica).
        let clean = self
            .primary
            .get(key)
            .is_ok_and(|first| wal::verifies_clean(key, &first));
        if clean {
            report.clean += 1;
            return;
        }
        report.corrupt_detected += 1;
        match self.heal(key, 1) {
            Some(_) => report.repaired += 1,
            None => report.unrepairable.push(key.to_string()),
        }
    }

    /// Tries to obtain verified-clean bytes for `key` — re-reads of the
    /// primary first (`attempts_used` already spent), then the replica
    /// store — and writes them back over the damaged object.
    fn heal(&self, key: &str, attempts_used: u32) -> Option<Bytes> {
        for _ in attempts_used..self.read_attempts {
            if let Ok(bytes) = self.primary.get(key) {
                if wal::verifies_clean(key, &bytes) {
                    return self.write_back(key, bytes);
                }
            }
        }
        let replica = self.replica?;
        let bytes = replica.get(key).ok()?;
        if wal::verifies_clean(key, &bytes) {
            return self.write_back(key, bytes);
        }
        None
    }

    fn write_back(&self, key: &str, bytes: Bytes) -> Option<Bytes> {
        self.primary.put(key, bytes.clone()).ok()?;
        Some(bytes)
    }
}

/// Convenience: scrubs `keys` on `primary` against an optional `replica`
/// with default settings.
pub fn sweep_keys(
    primary: &dyn ObjectStore,
    replica: Option<&dyn ObjectStore>,
    keys: &[String],
) -> ScrubReport {
    let mut scrubber = Scrubber::new(primary);
    if let Some(r) = replica {
        scrubber = scrubber.with_replica(r);
    }
    scrubber.sweep(keys.iter().map(String::as_str))
}

/// Records one finished sweep into the registry and emits a `scrub.sweep`
/// span. Sweeps are zero-length in simulated time — scrubbing is background
/// work on spare cycles (like the decoupled upload path, §4.2) — so the span
/// is an instant marker carrying the findings as attrs.
fn record_sweep(obs: &cnr_obs::Obs, report: &ScrubReport) {
    use cnr_obs::names as n;
    let r = obs.registry();
    r.counter_add(n::SCRUB_SWEEPS, 1);
    r.counter_add(n::SCRUB_SCANNED, report.scanned);
    r.counter_add(n::SCRUB_CLEAN, report.clean);
    r.counter_add(n::SCRUB_CORRUPT_DETECTED, report.corrupt_detected);
    r.counter_add(n::SCRUB_REPAIRED, report.repaired);
    r.counter_add(n::SCRUB_UNREPAIRABLE, report.unrepairable.len() as u64);
    r.counter_add(n::SCRUB_SKIPPED_IN_FLIGHT, report.skipped_in_flight);
    let now = obs.now();
    obs.record(
        cnr_obs::Span::new(n::SPAN_SCRUB_SWEEP, now, now)
            .with_attr("scanned", report.scanned.to_string())
            .with_attr("clean", report.clean.to_string())
            .with_attr("corrupt_detected", report.corrupt_detected.to_string())
            .with_attr("repaired", report.repaired.to_string())
            .with_attr("skipped_in_flight", report.skipped_in_flight.to_string()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flaky::{CorruptionKind, CorruptionSpec};
    use crate::{envelope, FlakyStore, InMemoryStore};

    fn put_enveloped(store: &dyn ObjectStore, key: &str, payload: &[u8]) {
        store
            .put(key, Bytes::from(envelope::wrap(payload)))
            .unwrap();
    }

    /// Overwrites `key` with envelope bytes whose payload was damaged
    /// after checksumming — at-rest corruption.
    fn poison(store: &dyn ObjectStore, key: &str) {
        let mut bytes = store.get(key).unwrap().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        store.put(key, Bytes::from(bytes)).unwrap();
    }

    #[test]
    fn clean_sweep_reports_all_clean() {
        let store = InMemoryStore::new();
        for i in 0..5 {
            put_enveloped(&store, &format!("job/0/chunk-{i}"), b"payload");
        }
        let report = Scrubber::new(&store).sweep_prefix("job/").unwrap();
        assert_eq!(report.scanned, 5);
        assert_eq!(report.clean, 5);
        assert_eq!(report.corrupt_detected, 0);
        assert!(report.unrepairable.is_empty());
    }

    #[test]
    fn at_rest_damage_heals_from_the_replica_store() {
        let primary = InMemoryStore::new();
        let replica = InMemoryStore::new();
        let n = 7;
        for i in 0..n {
            let key = format!("job/0/chunk-{i}");
            put_enveloped(&primary, &key, b"the real bytes");
            put_enveloped(&replica, &key, b"the real bytes");
        }
        // Poison every object in the primary.
        for i in 0..n {
            poison(&primary, &format!("job/0/chunk-{i}"));
        }
        let report = Scrubber::new(&primary)
            .with_replica(&replica)
            .sweep_prefix("job/")
            .unwrap();
        assert_eq!(report.scanned, n);
        assert_eq!(report.corrupt_detected, n);
        assert_eq!(report.repaired, n, "all N poisoned objects repaired");
        assert!(report.unrepairable.is_empty());
        // The primary now verifies clean end to end.
        let again = Scrubber::new(&primary).sweep_prefix("job/").unwrap();
        assert_eq!(again.clean, n);
        for i in 0..n {
            let bytes = primary.get(&format!("job/0/chunk-{i}")).unwrap();
            assert_eq!(envelope::unwrap(&bytes).unwrap().1, b"the real bytes");
        }
    }

    #[test]
    fn transit_damage_heals_by_rereading_without_a_replica() {
        let inner = InMemoryStore::new();
        put_enveloped(&inner, "job/0/chunk-0", b"payload");
        // The first read of the object is served damaged; retries are clean.
        let primary = FlakyStore::corrupting_reads(
            inner,
            CorruptionSpec::once(CorruptionKind::BitFlip, 1).with_seed(11),
        );
        let report = Scrubber::new(&primary).sweep_prefix("job/").unwrap();
        assert_eq!(report.corrupt_detected, 1);
        assert_eq!(report.repaired, 1, "healthy replica found on retry");
        assert!(report.unrepairable.is_empty());
    }

    #[test]
    fn unrepairable_damage_is_reported_not_hidden() {
        let primary = InMemoryStore::new();
        put_enveloped(&primary, "job/0/chunk-0", b"payload");
        poison(&primary, "job/0/chunk-0");
        let report = Scrubber::new(&primary).sweep_prefix("job/").unwrap();
        assert_eq!(report.corrupt_detected, 1);
        assert_eq!(report.repaired, 0);
        assert_eq!(report.unrepairable, vec!["job/0/chunk-0".to_string()]);
    }

    #[test]
    fn bare_objects_count_as_corrupt_and_heal_from_the_replica() {
        let primary = InMemoryStore::new();
        let replica = InMemoryStore::new();
        for key in ["job/0/manifest", "job/0/chunk-0"] {
            primary.put(key, Bytes::from_static(b"no envelope here")).unwrap();
            put_enveloped(&replica, key, b"the real bytes");
        }
        let report = Scrubber::new(&primary)
            .with_replica(&replica)
            .sweep_prefix("job/")
            .unwrap();
        assert_eq!(report.corrupt_detected, 2);
        assert_eq!(report.repaired, 2);
        assert!(report.unrepairable.is_empty());
        for key in ["job/0/manifest", "job/0/chunk-0"] {
            let bytes = primary.get(key).unwrap();
            assert_eq!(envelope::unwrap(&bytes).unwrap().1, b"the real bytes");
        }
        let again = Scrubber::new(&primary).sweep_prefix("job/").unwrap();
        assert_eq!(again.clean, 2);
    }

    #[test]
    fn wal_segment_with_mid_log_frame_corruption_heals_from_replica() {
        use crate::wal::{self, WalConfig, WalWriter};
        use std::sync::Arc;

        // Build a multi-frame WAL segment on the primary, copy to a replica.
        let primary = Arc::new(InMemoryStore::new());
        let replica = InMemoryStore::new();
        let mut w = WalWriter::new(
            Arc::clone(&primary) as Arc<dyn ObjectStore>,
            "job",
            WalConfig::default(),
        );
        for i in 0u32..5 {
            w.append(&i.to_le_bytes()).unwrap();
        }
        let key = wal::segment_key("job", 0);
        let clean = primary.get(&key).unwrap();
        replica.put(&key, clean.clone()).unwrap();

        // A healthy multi-frame segment reads clean (the single-envelope
        // path would reject it with a length mismatch).
        let report = Scrubber::new(primary.as_ref()).sweep([key.as_str()]);
        assert_eq!(report.clean, 1);
        assert_eq!(report.corrupt_detected, 0);

        // Smash a payload byte in the middle frame — at-rest damage the
        // primary re-reads can't fix.
        let mut bytes = clean.to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        primary.put(&key, Bytes::from(bytes)).unwrap();

        let report = Scrubber::new(primary.as_ref())
            .with_replica(&replica)
            .sweep([key.as_str()]);
        assert_eq!(report.corrupt_detected, 1);
        assert_eq!(report.repaired, 1, "healed from the replica copy");
        assert!(report.unrepairable.is_empty());

        // The healed segment is bit-identical to the original and replays
        // every frame.
        assert_eq!(primary.get(&key).unwrap(), clean);
        let r = wal::replay(primary.as_ref(), "job").unwrap();
        assert_eq!(r.records.len(), 5);
        assert_eq!(r.tail, wal::WalTail::Clean);
    }

    #[test]
    fn wal_segment_without_replica_is_unrepairable_not_hidden() {
        use crate::wal::{self, WalConfig, WalWriter};
        use std::sync::Arc;

        let primary = Arc::new(InMemoryStore::new());
        let mut w = WalWriter::new(
            Arc::clone(&primary) as Arc<dyn ObjectStore>,
            "job",
            WalConfig::default(),
        );
        w.append(b"delta").unwrap();
        let key = wal::segment_key("job", 0);
        poison(primary.as_ref(), &key);
        let report = Scrubber::new(primary.as_ref()).sweep([key.as_str()]);
        assert_eq!(report.corrupt_detected, 1);
        assert_eq!(report.repaired, 0);
        assert_eq!(report.unrepairable, vec![key]);
    }

    #[test]
    fn in_flight_keys_are_skipped_not_scrubbed() {
        let store = InMemoryStore::new();
        put_enveloped(&store, "job/0/chunk-0", b"cold tail being fetched");
        put_enveloped(&store, "job/0/chunk-1", b"quiet object");
        // chunk-0 is damaged *and* has a lazy-restore fetch in flight: the
        // sweep must neither touch nor report it as corrupt — rewriting it
        // mid-fetch would race the fault-in's read.
        poison(&store, "job/0/chunk-0");
        let before = store.get("job/0/chunk-0").unwrap();
        let report = Scrubber::new(&store)
            .with_in_flight(["job/0/chunk-0".to_string()])
            .sweep(["job/0/chunk-0", "job/0/chunk-1"]);
        assert_eq!(report.skipped_in_flight, 1);
        assert_eq!(report.scanned, 1, "only the quiet object is examined");
        assert_eq!(report.clean, 1);
        assert_eq!(report.corrupt_detected, 0);
        assert!(report.unrepairable.is_empty());
        assert_eq!(
            store.get("job/0/chunk-0").unwrap(),
            before,
            "in-flight object bytes untouched"
        );
        assert_eq!(report.findings().skipped_in_flight, 1);

        // Once the fetch lands, the next sweep sees the damage as usual.
        let next = Scrubber::new(&store).sweep(["job/0/chunk-0"]);
        assert_eq!(next.corrupt_detected, 1);
    }

    #[test]
    fn sweep_with_obs_mirrors_findings_into_registry_and_emits_span() {
        use cnr_obs::names as n;
        let store = InMemoryStore::new();
        put_enveloped(&store, "a", b"ok");
        put_enveloped(&store, "b", b"ok");
        poison(&store, "b");
        store.put("c", Bytes::from_static(b"no envelope")).unwrap();

        let obs = cnr_obs::Obs::wall();
        let report = Scrubber::new(&store).with_obs(obs.clone()).sweep_prefix("").unwrap();
        let r = obs.registry();
        assert_eq!(r.counter(n::SCRUB_SWEEPS), 1);
        assert_eq!(r.counter(n::SCRUB_SCANNED), report.scanned);
        assert_eq!(r.counter(n::SCRUB_CLEAN), report.clean);
        assert_eq!(r.counter(n::SCRUB_CORRUPT_DETECTED), report.corrupt_detected);
        assert_eq!(report.corrupt_detected, 2, "poisoned and bare objects");
        assert_eq!(r.counter(n::SCRUB_UNREPAIRABLE), report.unrepairable.len() as u64);

        let spans = obs.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, n::SPAN_SCRUB_SWEEP);
        assert!(spans[0]
            .attrs
            .iter()
            .any(|(k, v)| *k == "scanned" && *v == report.scanned.to_string()));
    }
}
