//! Objects without a valid envelope are corrupt at every read site.
//!
//! The envelope's CRC is the only integrity check a stored object carries,
//! so bytes that lack the envelope magic — bare codec payloads, garbage,
//! or an envelope whose magic was flipped — must never reach a decoder.
//! One table of such objects runs against every read site: the restore
//! fetch scheduler, the manifest and chunk decoders, a `TieredStore` cache
//! hit, and the background `Scrubber`.

use bytes::Bytes;
use check_n_run::core::error::CnrError;
use check_n_run::core::manifest::{
    CheckpointId, CheckpointKind, ChunkMeta, ChunkPayload, Manifest, ShardMeta, TableMeta,
};
use check_n_run::core::read::FetchScheduler;
use check_n_run::quant::QuantScheme;
use check_n_run::reader::ReaderState;
use check_n_run::storage::{envelope, InMemoryStore, ObjectStore, Scrubber, TieredStore};
use std::time::Duration;

fn sample_chunk() -> ChunkPayload {
    let scheme = QuantScheme::Asymmetric { bits: 4 };
    ChunkPayload {
        table: 0,
        row_indices: vec![1, 5, 9],
        optimizer_state: Some(vec![0.5, 0.25, 0.125]),
        rows: (0..3)
            .map(|i| scheme.quantize_row(&[i as f32, 0.5, -0.5, 1.0]))
            .collect(),
    }
}

fn sample_manifest(chunk_bytes: u64) -> Manifest {
    Manifest {
        id: CheckpointId(3),
        kind: CheckpointKind::Full,
        base: None,
        iteration: 30,
        reader_state: ReaderState::at(30),
        scheme: QuantScheme::Asymmetric { bits: 4 },
        tables: vec![TableMeta {
            rows: 16,
            dim: 4,
            has_optimizer_state: true,
        }],
        bottom_mlp: vec![0.5; 4],
        top_mlp: vec![-0.5; 2],
        chunks: vec![ChunkMeta {
            key: "job/ckpt-00000003/shard-00000-chunk-000000".into(),
            shard: 0,
            rows: 3,
            bytes: chunk_bytes,
            parts: 1,
            table: 0,
            first_row: 1,
            last_row: 9,
        }],
        shards: vec![ShardMeta {
            host: 0,
            rows: 3,
            chunks: 1,
            bytes: chunk_bytes,
            parts: 1,
        }],
        payload_bytes: chunk_bytes,
    }
}

fn flip_magic(mut stored: Vec<u8>, byte: usize) -> Vec<u8> {
    stored[byte] ^= 0x01;
    stored
}

/// One row of the table: a named object that must be rejected, and the
/// clean stored object a healthy replica holds under the same key.
struct Case {
    name: String,
    bad: Bytes,
    clean: Bytes,
}

fn cases() -> Vec<Case> {
    let chunk = sample_chunk();
    let chunk_stored = chunk.encode_enveloped();
    let manifest = sample_manifest(chunk_stored.len() as u64);
    let manifest_stored = manifest.encode_enveloped();
    let mut cases = vec![
        ("bare chunk payload", chunk.encode(), &chunk_stored),
        ("bare manifest payload", manifest.encode(), &manifest_stored),
        ("empty object", Vec::new(), &chunk_stored),
        (
            "garbage",
            (0u8..64).map(|i| i.wrapping_mul(37)).collect(),
            &chunk_stored,
        ),
    ];
    for byte in 0..envelope::MAGIC.len() {
        cases.push((
            "chunk with a flipped magic",
            flip_magic(chunk_stored.clone(), byte),
            &chunk_stored,
        ));
        cases.push((
            "manifest with a flipped magic",
            flip_magic(manifest_stored.clone(), byte),
            &manifest_stored,
        ));
    }
    cases
        .into_iter()
        .enumerate()
        .map(|(i, (name, bad, clean))| Case {
            name: format!("#{i} {name}"),
            bad: Bytes::from(bad),
            clean: Bytes::from(clean.clone()),
        })
        .collect()
}

#[test]
fn unenveloped_objects_are_rejected_at_every_read_site() {
    const KEY: &str = "job/ckpt-00000003/shard-00000-chunk-000000";
    for case in cases() {
        let name = &case.name;

        // Restore fetch scheduler: verification fails, no refetch budget,
        // typed error, counted as detected corruption.
        let store = InMemoryStore::new();
        store.put(KEY, case.bad.clone()).unwrap();
        let sched = FetchScheduler::new(&store, 1, 4, 0, Duration::ZERO);
        let fetched = sched.fetch_chunk(0, KEY, case.bad.len() as u64, 1);
        assert!(
            matches!(fetched, Err(CnrError::Corrupt(_))),
            "{name}: scheduler"
        );
        assert_eq!(sched.poll(Duration::ZERO).corruption_detected, 1, "{name}");

        // Decoders of stored bytes.
        assert!(
            matches!(Manifest::decode(&case.bad), Err(CnrError::Corrupt(_))),
            "{name}: Manifest::decode"
        );
        assert!(
            matches!(ChunkPayload::decode(&case.bad), Err(CnrError::Corrupt(_))),
            "{name}: ChunkPayload::decode"
        );

        // TieredStore: a cache entry without a valid envelope is evicted on
        // the hit and the clean remote copy is served instead.
        let tiered = TieredStore::new(InMemoryStore::new(), InMemoryStore::new(), 1 << 20);
        tiered.put(KEY, case.clean.clone()).unwrap();
        tiered.cache().put(KEY, case.bad.clone()).unwrap();
        assert_eq!(tiered.get(KEY).unwrap(), case.clean, "{name}: cache hit");
        assert_eq!(tiered.cache_verify_evictions(), 1, "{name}");
        assert_eq!(tiered.cache_hits(), 0, "{name}: rejected entry is no hit");

        // Scrubber: counted as corrupt and repaired from the replica.
        let primary = InMemoryStore::new();
        let replica = InMemoryStore::new();
        primary.put(KEY, case.bad.clone()).unwrap();
        replica.put(KEY, case.clean.clone()).unwrap();
        let report = Scrubber::new(&primary).with_replica(&replica).sweep([KEY]);
        assert_eq!(report.corrupt_detected, 1, "{name}: scrub detection");
        assert_eq!(report.repaired, 1, "{name}: scrub repair");
        assert!(report.unrepairable.is_empty(), "{name}");
        assert_eq!(
            primary.get(KEY).unwrap(),
            case.clean,
            "{name}: healed bytes"
        );
    }
}
