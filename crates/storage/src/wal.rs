//! Segmented, CRC-framed write-ahead delta log.
//!
//! Check-N-Run's frequency model (§4.1) trades lost work against checkpoint
//! write cost; a failure still loses everything since the last interval
//! checkpoint. The WAL closes that gap Checkmate-style: after every training
//! iteration the engine appends a small delta record here, and restore
//! replays the log tail on top of the last full checkpoint.
//!
//! # Wire layout
//!
//! A WAL **segment** is a bare concatenation of **frames**. Each frame is a
//! standard envelope ([`crate::envelope`]) carrying
//! [`FLAG_WAL_FRAME`](crate::envelope::FLAG_WAL_FRAME), whose payload is:
//!
//! ```text
//! [record_seq: u64 LE][application payload ...]
//! ```
//!
//! `record_seq` is monotonic across the whole log (it never resets at
//! segment boundaries), so replay can detect gaps and out-of-order frames.
//! Segments live under flat keys `{job}/wal-{index:08}` — deliberately flat
//! (no `/` after the job prefix) so the checkpoint controller's orphan sweep,
//! which reclaims manifestless checkpoint *directories*, never touches them.
//!
//! # Crash-consistency contract
//!
//! The writer has no append primitive (object stores don't), so every sync
//! re-puts the whole current segment buffer; the store's [`PutReceipt`]
//! marks the simulated durability point (the "fsync"). A crash therefore
//! leaves the newest segment as some *prefix* of what the writer buffered —
//! possibly cut mid-frame. Replay walks frames front to back, verifies each
//! CRC, and stops cleanly at the first torn, corrupt, or out-of-sequence
//! frame: everything before the stop point is applied, everything after is
//! reported as a [`WalTail::Torn`] diagnosis, and nothing is ever silently
//! decoded from garbage.

use crate::envelope::{self, FLAG_WAL_FRAME, HEADER_LEN, MAGIC};
use crate::{ObjectStore, PutReceipt, Result, StorageError};
use bytes::Bytes;

/// Bytes of the `record_seq` prefix inside every frame payload.
const SEQ_LEN: usize = 8;

/// Configuration of the delta log writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Rotate to a new segment once the current one reaches this many bytes
    /// (checked after a sync; a segment may exceed it by one frame).
    pub segment_bytes: u64,
    /// Sync (re-put the segment) every N appends. `1` makes every record
    /// durable before training continues; larger values batch appends and
    /// risk losing the unsynced suffix on a crash.
    pub sync_every: u32,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self { segment_bytes: 1 << 20, sync_every: 1 }
    }
}

impl WalConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.segment_bytes == 0 {
            return Err("wal segment_bytes must be positive".into());
        }
        if self.sync_every == 0 {
            return Err("wal sync_every must be positive".into());
        }
        Ok(())
    }
}

/// The flat object key of WAL segment `index` for `job`.
pub fn segment_key(job: &str, index: u64) -> String {
    format!("{job}/wal-{index:08}")
}

/// Whether `key` names a WAL segment (final path component `wal-...`).
pub fn is_wal_segment_key(key: &str) -> bool {
    key.rsplit('/').next().is_some_and(|name| name.starts_with("wal-"))
}

/// Whether `buf` starts with an envelope header carrying [`FLAG_WAL_FRAME`] — a
/// cheap sniff so readers (e.g. the scrubber) can route multi-frame WAL
/// segments away from the single-envelope path without trusting key names.
pub fn looks_like_wal_segment(buf: &[u8]) -> bool {
    if buf.len() < HEADER_LEN || buf[..4] != MAGIC {
        return false;
    }
    let flags = u16::from_le_bytes([buf[6], buf[7]]);
    flags & FLAG_WAL_FRAME != 0
}

/// Counters of one writer's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalWriterStats {
    /// Records appended.
    pub appends: u64,
    /// Sync points (whole-segment puts) performed.
    pub syncs: u64,
    /// Frame bytes appended (envelope + seq + payload).
    pub bytes_appended: u64,
    /// Cumulative bytes pushed through the store by syncs. Each sync re-puts
    /// the whole segment, so this exceeds `bytes_appended` unless every sync
    /// rotates; it is the honest write-amplification figure.
    pub bytes_synced: u64,
    /// Completed segments rotated away from.
    pub segments_rotated: u64,
    /// Whole-log truncations (checkpoint registrations).
    pub truncations: u64,
}

/// Appends framed records to a segmented log on an object store.
///
/// Payload-agnostic: callers hand in opaque bytes (the engine's quantized
/// delta records) and get back sync receipts for durability accounting.
pub struct WalWriter {
    store: std::sync::Arc<dyn ObjectStore>,
    job: String,
    config: WalConfig,
    /// Index of the segment currently being written. Monotonic for the
    /// writer's lifetime — never reused after rotation or truncation.
    seg_index: u64,
    /// Full contents of the current segment (synced prefix + pending tail).
    buf: Vec<u8>,
    /// Appends since the last sync.
    pending: u32,
    /// Next record sequence number (monotonic across segments).
    next_seq: u64,
    /// Indices of segments with at least one synced byte, oldest first.
    live: Vec<u64>,
    stats: WalWriterStats,
    /// When attached, every stat increment is mirrored into the shared
    /// metrics registry (`cnr_obs::names::WAL_*`); the engine derives its
    /// `WalRunStats` from those counters instead of copying `stats`.
    obs: Option<cnr_obs::Obs>,
}

impl WalWriter {
    /// Creates a writer for `job` starting at segment 0, sequence 0.
    pub fn new(store: std::sync::Arc<dyn ObjectStore>, job: &str, config: WalConfig) -> Self {
        Self {
            store,
            job: job.to_string(),
            config,
            seg_index: 0,
            buf: Vec::new(),
            pending: 0,
            next_seq: 0,
            live: Vec::new(),
            stats: WalWriterStats::default(),
            obs: None,
        }
    }

    /// Attaches an observability handle; counters recorded from now on.
    pub fn set_obs(&mut self, obs: cnr_obs::Obs) {
        self.obs = Some(obs);
    }

    /// Appends one record. Returns the sync receipt when this append hit a
    /// sync point (`sync_every` reached), `None` when it was only buffered.
    pub fn append(&mut self, payload: &[u8]) -> Result<Option<PutReceipt>> {
        let mut frame_payload = Vec::with_capacity(SEQ_LEN + payload.len());
        frame_payload.extend_from_slice(&self.next_seq.to_le_bytes());
        frame_payload.extend_from_slice(payload);
        let frame = envelope::wrap_with_flags(&frame_payload, FLAG_WAL_FRAME);
        self.next_seq += 1;
        self.stats.appends += 1;
        self.stats.bytes_appended += frame.len() as u64;
        if let Some(obs) = &self.obs {
            let r = obs.registry();
            r.counter_add(cnr_obs::names::WAL_APPENDS, 1);
            r.counter_add(cnr_obs::names::WAL_BYTES_APPENDED, frame.len() as u64);
        }
        self.buf.extend_from_slice(&frame);
        self.pending += 1;
        if self.pending >= self.config.sync_every {
            return self.sync().map(Some);
        }
        Ok(None)
    }

    /// Makes every buffered append durable by re-putting the whole current
    /// segment, then rotates if the segment is full. Idempotent when there
    /// is nothing pending (returns the last receipt's worth of a no-op put
    /// only if data exists; errs on an empty log).
    pub fn sync(&mut self) -> Result<PutReceipt> {
        if self.buf.is_empty() {
            return Err(StorageError::InvalidKey("wal sync with no appended data".into()));
        }
        let key = segment_key(&self.job, self.seg_index);
        let receipt = self.store.put(&key, Bytes::copy_from_slice(&self.buf))?;
        if self.live.last() != Some(&self.seg_index) {
            self.live.push(self.seg_index);
        }
        self.pending = 0;
        self.stats.syncs += 1;
        self.stats.bytes_synced += self.buf.len() as u64;
        if let Some(obs) = &self.obs {
            let r = obs.registry();
            r.counter_add(cnr_obs::names::WAL_SYNCS, 1);
            r.counter_add(cnr_obs::names::WAL_BYTES_SYNCED, self.buf.len() as u64);
        }
        if self.buf.len() as u64 >= self.config.segment_bytes {
            self.seg_index += 1;
            self.buf.clear();
            self.stats.segments_rotated += 1;
            if let Some(obs) = &self.obs {
                obs.registry().counter_add(cnr_obs::names::WAL_SEGMENTS_ROTATED, 1);
            }
        }
        Ok(receipt)
    }

    /// Drops the whole log: deletes every live segment (a registered full
    /// checkpoint supersedes it) and starts a fresh segment. Sequence
    /// numbers keep counting — replay uses contiguity, not absolute zero.
    pub fn truncate(&mut self) -> Result<usize> {
        let mut deleted = 0;
        for index in self.live.drain(..) {
            match self.store.delete(&segment_key(&self.job, index)) {
                Ok(()) => deleted += 1,
                Err(StorageError::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        if !self.buf.is_empty() {
            self.buf.clear();
            self.seg_index += 1;
        }
        self.pending = 0;
        self.stats.truncations += 1;
        if let Some(obs) = &self.obs {
            obs.registry().counter_add(cnr_obs::names::WAL_TRUNCATIONS, 1);
            let now = obs.now();
            obs.record(
                cnr_obs::Span::new(cnr_obs::names::SPAN_WAL_TRUNCATE, now, now)
                    .with_attr("segments_deleted", deleted.to_string()),
            );
        }
        Ok(deleted)
    }

    /// Keys of every segment with synced data, oldest first, plus the
    /// in-progress segment if it has synced bytes. These are live objects
    /// the controller must protect from the orphan sweep and the scrubber
    /// must cover.
    pub fn live_segments(&self) -> Vec<String> {
        self.live.iter().map(|&i| segment_key(&self.job, i)).collect()
    }

    /// Appends not yet covered by a sync (lost if the process dies now).
    pub fn pending_appends(&self) -> u32 {
        self.pending
    }

    /// Next record sequence number.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Lifetime counters.
    pub fn stats(&self) -> WalWriterStats {
        self.stats
    }
}

/// One successfully replayed record.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// The frame's monotonic sequence number.
    pub seq: u64,
    /// The application payload (zero-copy view into the segment buffer).
    pub payload: Bytes,
}

/// How the log ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalTail {
    /// Every frame verified and the last segment ended exactly on a frame
    /// boundary.
    Clean,
    /// Replay stopped before the end of the stored bytes: the first
    /// unusable frame, with a typed diagnosis. Everything before
    /// `frame_offset` in `segment` was applied; nothing after it was.
    Torn {
        /// Segment object the stop happened in.
        segment: String,
        /// Byte offset of the first unusable frame within that segment.
        frame_offset: usize,
        /// Human-readable reason (truncated header, CRC mismatch, gap...).
        reason: String,
    },
}

/// The result of replaying a log: the clean prefix plus a tail diagnosis.
#[derive(Debug, Clone)]
pub struct WalReplay {
    /// Verified records in sequence order.
    pub records: Vec<WalRecord>,
    /// Why replay stopped.
    pub tail: WalTail,
    /// Segment objects read.
    pub segments_read: usize,
    /// Total segment bytes fetched.
    pub bytes_read: u64,
}

impl WalReplay {
    /// An empty, clean replay (no log present).
    pub fn empty() -> Self {
        Self { records: Vec::new(), tail: WalTail::Clean, segments_read: 0, bytes_read: 0 }
    }
}

/// Walks one segment buffer, appending verified records to `out` starting
/// from `expect_seq`. Returns `Ok(next_expected_seq)` when the segment ends
/// exactly on a frame boundary, `Err((offset, reason))` at the first
/// unusable frame.
fn walk_segment(
    buf: &Bytes,
    mut expect_seq: Option<u64>,
    out: &mut Vec<WalRecord>,
) -> std::result::Result<Option<u64>, (usize, String)> {
    let bytes = &buf[..];
    let mut off = 0;
    while off < bytes.len() {
        let rest = &bytes[off..];
        if rest.len() < HEADER_LEN {
            return Err((off, format!("torn frame header: {} of {HEADER_LEN} bytes", rest.len())));
        }
        if rest[..4] != MAGIC {
            return Err((off, "bad frame magic".into()));
        }
        let payload_len =
            u32::from_le_bytes([rest[8], rest[9], rest[10], rest[11]]) as usize;
        let frame_len = HEADER_LEN + payload_len;
        if rest.len() < frame_len {
            return Err((
                off,
                format!("torn frame body: {} of {frame_len} bytes", rest.len()),
            ));
        }
        let (flags, payload) = match envelope::unwrap(&rest[..frame_len]) {
            Ok(v) => v,
            Err(e) => return Err((off, format!("frame verify failed: {e}"))),
        };
        if flags & FLAG_WAL_FRAME == 0 {
            return Err((off, "frame missing WAL flag".into()));
        }
        if payload.len() < SEQ_LEN {
            return Err((off, "frame payload shorter than sequence prefix".into()));
        }
        let seq = u64::from_le_bytes(payload[..SEQ_LEN].try_into().unwrap());
        if let Some(expected) = expect_seq {
            if seq != expected {
                return Err((off, format!("sequence gap: expected {expected}, found {seq}")));
            }
        }
        out.push(WalRecord {
            seq,
            payload: buf.slice(off + HEADER_LEN + SEQ_LEN..off + frame_len),
        });
        expect_seq = Some(seq + 1);
        off += frame_len;
    }
    Ok(expect_seq)
}

/// Validates one segment buffer without collecting records: every frame
/// must verify and the frames must consume the buffer exactly. Returns the
/// frame count, or a description of the first problem.
pub fn validate_segment(buf: &[u8]) -> std::result::Result<usize, String> {
    if buf.is_empty() {
        return Err("empty wal segment".into());
    }
    let owned = Bytes::copy_from_slice(buf);
    let mut records = Vec::new();
    match walk_segment(&owned, None, &mut records) {
        Ok(_) => Ok(records.len()),
        Err((off, reason)) => Err(format!("at offset {off}: {reason}")),
    }
}

/// Whether the stored object `bytes` at `key` verifies clean: a WAL
/// segment frame by frame ([`validate_segment`]), any other object as one
/// envelope. A segment is a bare concatenation of enveloped frames, so the
/// single-envelope [`envelope::unwrap`] would reject a healthy multi-frame
/// one. Segments are recognized by key name, with a header-flag sniff as
/// backstop for unrecognized key shapes. Every reader that checks a whole
/// object without knowing what it holds — the scrubber, the tiered
/// cache — calls this.
pub fn verifies_clean(key: &str, bytes: &[u8]) -> bool {
    if is_wal_segment_key(key) || looks_like_wal_segment(bytes) {
        validate_segment(bytes).is_ok()
    } else {
        envelope::unwrap(bytes).is_ok()
    }
}

/// Lists the live segment keys of `job`'s log, oldest first.
pub fn list_segments(store: &dyn ObjectStore, job: &str) -> Result<Vec<String>> {
    let mut keys: Vec<String> = store
        .list(&format!("{job}/wal-"))?
        .into_iter()
        .filter(|k| is_wal_segment_key(k))
        .collect();
    keys.sort(); // zero-padded indices: lexicographic == numeric
    Ok(keys)
}

/// Replays `job`'s whole log with clean-prefix semantics.
///
/// Segments are read oldest first; frames are CRC-verified and must carry
/// contiguous sequence numbers. The first torn, corrupt, or out-of-sequence
/// frame stops replay — records collected so far are returned along with a
/// [`WalTail::Torn`] diagnosis. Hard store errors (I/O) still propagate as
/// `Err`; a missing log is simply an empty clean replay.
pub fn replay(store: &dyn ObjectStore, job: &str) -> Result<WalReplay> {
    let keys = list_segments(store, job)?;
    let mut replay = WalReplay::empty();
    let mut expect_seq: Option<u64> = None;
    for key in keys {
        let buf = match store.get(&key) {
            Ok(b) => b,
            // Raced with truncation: a vanished segment ends the log.
            Err(StorageError::NotFound(_)) => break,
            Err(e) => return Err(e),
        };
        replay.segments_read += 1;
        replay.bytes_read += buf.len() as u64;
        match walk_segment(&buf, expect_seq, &mut replay.records) {
            Ok(next) => expect_seq = next,
            Err((off, reason)) => {
                replay.tail = WalTail::Torn { segment: key, frame_offset: off, reason };
                return Ok(replay);
            }
        }
    }
    Ok(replay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryStore;
    use std::sync::Arc;

    fn store() -> Arc<InMemoryStore> {
        Arc::new(InMemoryStore::new())
    }

    fn writer(store: &Arc<InMemoryStore>, config: WalConfig) -> WalWriter {
        WalWriter::new(Arc::clone(store) as Arc<dyn ObjectStore>, "job", config)
    }

    #[test]
    fn roundtrip_records_in_order() {
        let s = store();
        let mut w = writer(&s, WalConfig::default());
        for i in 0u32..5 {
            w.append(format!("rec-{i}").as_bytes()).unwrap();
        }
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.tail, WalTail::Clean);
        assert_eq!(r.records.len(), 5);
        for (i, rec) in r.records.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
            assert_eq!(&rec.payload[..], format!("rec-{i}").as_bytes());
        }
        assert_eq!(r.segments_read, 1);
    }

    #[test]
    fn rotation_splits_segments_and_replay_spans_them() {
        let s = store();
        // Tiny segments: every frame (~30 bytes) exceeds the threshold.
        let mut w = writer(&s, WalConfig { segment_bytes: 1, sync_every: 1 });
        for i in 0u32..4 {
            w.append(&i.to_le_bytes()).unwrap();
        }
        assert_eq!(w.stats().segments_rotated, 4);
        assert_eq!(w.live_segments().len(), 4);
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.tail, WalTail::Clean);
        assert_eq!(r.segments_read, 4);
        assert_eq!(r.records.iter().map(|r| r.seq).collect::<Vec<_>>(), [0, 1, 2, 3]);
    }

    #[test]
    fn sync_every_batches_and_crash_loses_unsynced_suffix() {
        let s = store();
        let mut w = writer(&s, WalConfig { segment_bytes: 1 << 20, sync_every: 3 });
        assert!(w.append(b"a").unwrap().is_none());
        assert!(w.append(b"b").unwrap().is_none());
        assert!(w.append(b"c").unwrap().is_some()); // third append syncs
        assert!(w.append(b"d").unwrap().is_none()); // buffered only
        assert_eq!(w.pending_appends(), 1);
        // "Crash": replay sees only the synced prefix.
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.tail, WalTail::Clean);
        assert_eq!(r.records.len(), 3);
        // Explicit sync makes the suffix durable.
        w.sync().unwrap();
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.records.len(), 4);
    }

    #[test]
    fn truncate_deletes_segments_and_keeps_seq_monotonic() {
        let s = store();
        let mut w = writer(&s, WalConfig { segment_bytes: 1, sync_every: 1 });
        w.append(b"a").unwrap();
        w.append(b"b").unwrap();
        assert_eq!(w.truncate().unwrap(), 2);
        assert!(w.live_segments().is_empty());
        assert!(replay(s.as_ref(), "job").unwrap().records.is_empty());
        // New appends continue the sequence — no reuse of 0.
        w.append(b"c").unwrap();
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.records[0].seq, 2);
    }

    #[test]
    fn torn_tail_stops_cleanly_at_every_cut_point() {
        let s = store();
        let mut w = writer(&s, WalConfig::default());
        for i in 0u32..3 {
            w.append(format!("payload-{i}").as_bytes()).unwrap();
        }
        let key = segment_key("job", 0);
        let full = s.get(&key).unwrap().to_vec();
        // Cut the segment at every possible byte length; replay must always
        // return a clean prefix of whole records and a torn tail, never err.
        for cut in 0..full.len() {
            s.put(&key, Bytes::copy_from_slice(&full[..cut])).unwrap();
            let r = replay(s.as_ref(), "job").unwrap();
            assert!(r.records.len() <= 3);
            for (i, rec) in r.records.iter().enumerate() {
                assert_eq!(rec.seq, i as u64);
                assert_eq!(&rec.payload[..], format!("payload-{i}").as_bytes());
            }
            // Frames are equal-length here; a cut exactly on a frame
            // boundary *is* a clean prefix — anything else is torn.
            let frame_len = full.len() / 3;
            if cut % frame_len == 0 {
                assert_eq!(r.tail, WalTail::Clean, "cut={cut}");
                assert_eq!(r.records.len(), cut / frame_len);
            } else {
                assert!(matches!(r.tail, WalTail::Torn { .. }), "cut={cut}");
                assert_eq!(r.records.len(), cut / frame_len);
            }
        }
    }

    #[test]
    fn corrupt_mid_frame_stops_before_later_clean_frames() {
        let s = store();
        let mut w = writer(&s, WalConfig::default());
        for i in 0u32..3 {
            w.append(&i.to_le_bytes()).unwrap();
        }
        let key = segment_key("job", 0);
        let mut buf = s.get(&key).unwrap().to_vec();
        // Flip a payload byte inside the second frame.
        let frame_len = buf.len() / 3;
        buf[frame_len + HEADER_LEN + 2] ^= 0x40;
        s.put(&key, Bytes::copy_from_slice(&buf)).unwrap();
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.records.len(), 1, "only the prefix before the corrupt frame");
        match r.tail {
            WalTail::Torn { frame_offset, ref reason, .. } => {
                assert_eq!(frame_offset, frame_len);
                assert!(reason.contains("verify failed"), "{reason}");
            }
            WalTail::Clean => panic!("corruption must not read clean"),
        }
    }

    #[test]
    fn sequence_gap_is_torn() {
        let s = store();
        let mut w = writer(&s, WalConfig { segment_bytes: 1, sync_every: 1 });
        for i in 0u32..3 {
            w.append(&i.to_le_bytes()).unwrap();
        }
        // Delete the middle segment: seq 0 then seq 2 is a gap.
        s.delete(&segment_key("job", 1)).unwrap();
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.records.len(), 1);
        assert!(
            matches!(r.tail, WalTail::Torn { ref reason, .. } if reason.contains("sequence gap"))
        );
    }

    #[test]
    fn validate_segment_accepts_healthy_and_rejects_tampered() {
        let s = store();
        let mut w = writer(&s, WalConfig::default());
        for i in 0u32..4 {
            w.append(&i.to_le_bytes()).unwrap();
        }
        let buf = s.get(&segment_key("job", 0)).unwrap().to_vec();
        assert_eq!(validate_segment(&buf).unwrap(), 4);
        // Any single bit flip anywhere must fail validation.
        let mut bad = buf.clone();
        bad[buf.len() / 2] ^= 0x01;
        assert!(validate_segment(&bad).is_err());
        // A truncated tail fails validation (scrub sees a torn segment).
        assert!(validate_segment(&buf[..buf.len() - 1]).is_err());
        assert!(validate_segment(&[]).is_err());
    }

    #[test]
    fn key_helpers() {
        assert_eq!(segment_key("exp/j1", 7), "exp/j1/wal-00000007");
        assert!(is_wal_segment_key("exp/j1/wal-00000007"));
        assert!(!is_wal_segment_key("exp/j1/ckpt-00000001/manifest"));
        let s = store();
        let mut w = writer(&s, WalConfig::default());
        w.append(b"x").unwrap();
        let buf = s.get(&segment_key("job", 0)).unwrap();
        assert!(looks_like_wal_segment(&buf));
        assert!(!looks_like_wal_segment(&envelope::wrap(b"plain")));
        assert!(!looks_like_wal_segment(b"short"));
    }

    #[test]
    fn flaky_torn_write_yields_a_typed_clean_prefix_on_replay() {
        use crate::flaky::{FlakyStore, TornWriteSpec};
        // The third sync's put tears: the device keeps a strict prefix and
        // the writer sees the write fail. The unacknowledged record — and
        // only it — is lost; replay stops at the torn frame with a typed
        // diagnosis instead of erroring or decoding garbage.
        let flaky = Arc::new(FlakyStore::tearing_writes(
            InMemoryStore::new(),
            // Cut inside the second frame (each frame is ~29 bytes).
            TornWriteSpec::once(3).at_byte(40),
        ));
        let mut w = WalWriter::new(
            Arc::clone(&flaky) as Arc<dyn ObjectStore>,
            "job",
            WalConfig::default(),
        );
        w.append(b"first").unwrap();
        w.append(b"second").unwrap();
        let torn = w.append(b"third");
        assert!(torn.is_err(), "the torn put is unacknowledged");
        assert_eq!(flaky.torn_writes_injected(), 1);
        let r = replay(flaky.as_ref(), "job").unwrap();
        // Each sync re-puts the whole segment; the cut at byte 40 lands
        // inside the second of the three frames, so exactly the first
        // record survives and the tail is diagnosed.
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.records[0].seq, 0);
        assert_eq!(&r.records[0].payload[..], b"first");
        assert!(
            matches!(r.tail, WalTail::Torn { .. }),
            "a mid-frame cut must be diagnosed, got {:?}",
            r.tail
        );
    }

    #[test]
    fn missing_log_is_empty_clean_replay() {
        let s = store();
        let r = replay(s.as_ref(), "job").unwrap();
        assert!(r.records.is_empty());
        assert_eq!(r.tail, WalTail::Clean);
    }

    #[test]
    fn writer_with_obs_mirrors_every_stat_into_the_registry() {
        use cnr_obs::names as n;
        let obs = cnr_obs::Obs::wall();
        let s = store();
        let mut w = WalWriter::new(
            s.clone(),
            "job",
            WalConfig { sync_every: 2, segment_bytes: 1 },
        );
        w.set_obs(obs.clone());
        for i in 0..4u8 {
            w.append(&[i; 8]).unwrap();
        }
        w.truncate().unwrap();

        let stats = w.stats();
        let r = obs.registry();
        assert_eq!(r.counter(n::WAL_APPENDS), stats.appends);
        assert_eq!(r.counter(n::WAL_SYNCS), stats.syncs);
        assert_eq!(r.counter(n::WAL_BYTES_APPENDED), stats.bytes_appended);
        assert_eq!(r.counter(n::WAL_BYTES_SYNCED), stats.bytes_synced);
        assert_eq!(r.counter(n::WAL_SEGMENTS_ROTATED), stats.segments_rotated);
        assert_eq!(r.counter(n::WAL_TRUNCATIONS), stats.truncations);
        assert!(stats.appends == 4 && stats.syncs == 2 && stats.truncations == 1);
        assert!(obs.spans().iter().any(|s| s.name == n::SPAN_WAL_TRUNCATE));
    }
}
