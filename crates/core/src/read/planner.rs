//! Fetch planning: assigning a restore chain's chunks to reader hosts.
//!
//! The restore-side mirror of [`crate::write::chunker`]. Where the write
//! path shards *rows* (it owns the data), the read path shards *objects*:
//! the manifests already describe every chunk (`ChunkMeta`), including how
//! many multipart parts it was uploaded in — which is exactly the ranged
//! fetch plan, since part boundaries are where a download can be split
//! without re-framing. Planning is pure: the assignment depends only on the
//! chain and the host count, never on execution timing, so a sharded
//! restore is deterministic.
//!
//! **Priority mode** ([`plan_priority`]) additionally orders each host's
//! fetch list by access heat: chunks covering the hottest embedding rows
//! (ranked by a [`RowHeat`] model built from `cnr_workload` Zipf/trace
//! frequencies and `cnr_tracking` coverage) are admitted first, so a lazy
//! restore can resume training once the dense layers — which ride the
//! manifests, fetched before any chunk — plus the top-K hot rows have
//! landed, while the cold tail keeps draining in the background (CPR-style
//! partial recovery).

use crate::manifest::Manifest;
use cnr_tracking::CoverageAnalyzer;
use cnr_workload::{AccessTrace, ZipfSampler};

/// One chunk download owed to a reader host.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchItem {
    /// Position of the owning manifest in the restore chain (0 = the full
    /// baseline). The merge stage applies levels in order.
    pub level: usize,
    /// Object key of the chunk.
    pub key: String,
    /// Writer shard that produced the chunk (diagnostics only; reader
    /// assignment is independent of writer sharding).
    pub shard: u16,
    /// Serialized chunk size in bytes (from the manifest — the fetcher
    /// never needs a `head` round trip).
    pub bytes: u64,
    /// Ranged reads to issue for the chunk: the multipart part count the
    /// chunk was uploaded in (`ChunkMeta.parts`), so download granularity
    /// mirrors upload granularity.
    pub parts: u32,
    /// Embedding rows in the chunk.
    pub rows: u32,
    /// Whether the chunk must be applied before training resumes. The
    /// byte-balancing [`plan`] marks everything hot (all-or-nothing
    /// restore); [`plan_priority`] marks only chunks covering top-K rows,
    /// and a lazy restore stamps first-batch time when the last hot chunk
    /// arrives.
    pub hot: bool,
}

/// Per-row access-heat scores used to order priority fetch plans.
///
/// Scores are relative: only the ordering (and the top-`hot_fraction`
/// cutoff) matters, not the absolute values. Build one from the workload's
/// Zipf skew ([`RowHeat::zipf`]), observed trace frequencies
/// ([`RowHeat::observe_trace`]), and the tracker's coverage window
/// ([`RowHeat::boost_covered`]); the three sources compose additively.
#[derive(Debug, Clone)]
pub struct RowHeat {
    /// Per-table, per-row scores; higher is hotter.
    scores: Vec<Vec<f32>>,
}

impl RowHeat {
    /// A heat model where every row scores equally (priority planning
    /// degenerates to deterministic key order).
    pub fn uniform(row_counts: &[usize]) -> Self {
        Self {
            scores: row_counts.iter().map(|&n| vec![1.0; n]).collect(),
        }
    }

    /// Heat from the workload's Zipf skew: row `k` of every table scores
    /// its Zipf probability mass, so low row indices (popular ids) rank
    /// first — the same distribution [`cnr_workload`] samples batches from.
    pub fn zipf(row_counts: &[usize], exponent: f64) -> Self {
        let scores = row_counts
            .iter()
            .map(|&n| match ZipfSampler::new(n as u64, exponent) {
                Some(z) => z.pmf_all().into_iter().map(|p| p as f32).collect(),
                None => vec![1.0; n],
            })
            .collect();
        Self { scores }
    }

    /// Folds observed access frequencies from a recorded trace into the
    /// scores (each recorded `(table, row)` event adds `weight`).
    pub fn observe_trace(&mut self, trace: &AccessTrace, weight: f32) {
        for e in trace.events() {
            if let Some(s) = self
                .scores
                .get_mut(e.table as usize)
                .and_then(|t| t.get_mut(e.row as usize))
            {
                *s += weight;
            }
        }
    }

    /// Boosts every row the coverage window has touched by `factor` — rows
    /// the current training window provably uses outrank cold Zipf mass.
    pub fn boost_covered(&mut self, coverage: &CoverageAnalyzer, factor: f32) {
        for (t, table) in self.scores.iter_mut().enumerate() {
            for (r, s) in table.iter_mut().enumerate() {
                if coverage.is_touched(t, r) {
                    *s += factor;
                }
            }
        }
    }

    /// Total rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.scores.iter().map(|t| t.len()).sum()
    }

    /// Hottest score inside `[first, last]` of `table`; `None` when the
    /// table or range is unknown to the model.
    fn score_range(&self, table: u16, first: u32, last: u32) -> Option<f32> {
        let t = self.scores.get(table as usize)?;
        let lo = first as usize;
        let hi = (last as usize + 1).min(t.len());
        if lo >= hi {
            return None;
        }
        t[lo..hi].iter().copied().reduce(f32::max)
    }

    /// Score cutoff such that roughly `hot_fraction` of all rows score at
    /// or above it. `>= 1.0` makes everything hot; `<= 0.0` nothing.
    pub fn hot_cutoff(&self, hot_fraction: f64) -> f32 {
        let total = self.total_rows();
        if total == 0 || hot_fraction >= 1.0 {
            return f32::NEG_INFINITY;
        }
        let k = (hot_fraction * total as f64).ceil() as usize;
        if k == 0 {
            return f32::INFINITY;
        }
        let mut all: Vec<f32> = self.scores.iter().flatten().copied().collect();
        all.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        all[k.min(all.len()) - 1]
    }
}

/// Assigns every chunk of `chain` (oldest manifest first) to one of
/// `reader_hosts` hosts, balancing by bytes: each chunk goes to the
/// currently lightest host (ties to the lowest index). Returns one item
/// list per host, in deterministic order; trailing hosts may be empty when
/// there are fewer chunks than hosts.
///
/// Balancing by bytes rather than by writer shard matters: a checkpoint
/// written by one host must still restore `reader_hosts`-wide, and a
/// checkpoint written by more hosts than are restoring must not overload
/// any reader.
pub fn plan(chain: &[Manifest], reader_hosts: usize) -> Vec<Vec<FetchItem>> {
    let hosts = reader_hosts.max(1);
    let mut assignments: Vec<Vec<FetchItem>> = (0..hosts).map(|_| Vec::new()).collect();
    let mut load = vec![0u64; hosts];
    for (level, manifest) in chain.iter().enumerate() {
        for chunk in &manifest.chunks {
            let h = lightest(&load);
            load[h] += chunk.bytes;
            assignments[h].push(FetchItem {
                level,
                key: chunk.key.clone(),
                shard: chunk.shard,
                bytes: chunk.bytes,
                parts: chunk.parts.max(1),
                rows: chunk.rows,
                // All-or-nothing restore: every chunk gates first batch.
                hot: true,
            });
        }
    }
    assignments
}

/// Priority mode: like [`plan`], but every host's fetch list is ordered by
/// descending access heat, so the [`FetchScheduler`](super::scheduler)
/// (which admits ranged reads in list order) streams the hottest chunks
/// first. Chunks whose hottest row scores at or above the top-`hot_fraction`
/// cutoff are marked [`FetchItem::hot`]; a lazy restore resumes training
/// once those (plus the dense MLPs and reader cursor, which ride the
/// manifests fetched before any chunk) have been applied. Chunks the heat
/// model cannot score (a table or row range it does not cover) rank
/// conservatively hottest — they cannot be deferred safely.
///
/// Assignment remains greedy-lightest-host, but performed in heat order, so
/// per-host lists stay sorted by heat and hot work spreads evenly over all
/// downlinks. Planning is pure and deterministic: ties break on
/// `(level, key)`.
pub fn plan_priority(
    chain: &[Manifest],
    reader_hosts: usize,
    heat: &RowHeat,
    hot_fraction: f64,
) -> Vec<Vec<FetchItem>> {
    let hosts = reader_hosts.max(1);
    let cutoff = heat.hot_cutoff(hot_fraction);
    // Score every chunk of every level; unscorable ranges score infinitely
    // hot.
    let mut scored: Vec<(f32, usize, &crate::manifest::ChunkMeta)> = Vec::new();
    for (level, manifest) in chain.iter().enumerate() {
        for chunk in &manifest.chunks {
            let score = heat
                .score_range(chunk.table, chunk.first_row, chunk.last_row)
                .unwrap_or(f32::INFINITY);
            scored.push((score, level, chunk));
        }
    }
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.1.cmp(&b.1))
            .then_with(|| a.2.key.cmp(&b.2.key))
    });

    let mut assignments: Vec<Vec<FetchItem>> = (0..hosts).map(|_| Vec::new()).collect();
    let mut load = vec![0u64; hosts];
    for (score, level, chunk) in scored {
        let h = lightest(&load);
        load[h] += chunk.bytes;
        assignments[h].push(FetchItem {
            level,
            key: chunk.key.clone(),
            shard: chunk.shard,
            bytes: chunk.bytes,
            parts: chunk.parts.max(1),
            rows: chunk.rows,
            hot: score >= cutoff,
        });
    }
    assignments
}

/// Index of the currently lightest-loaded host (ties to the lowest index).
fn lightest(load: &[u64]) -> usize {
    load.iter()
        .enumerate()
        .min_by_key(|(i, l)| (**l, *i))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{CheckpointId, CheckpointKind, ChunkMeta, ShardMeta, TableMeta};
    use cnr_quant::QuantScheme;
    use cnr_reader::ReaderState;

    fn manifest_with_chunks(id: u64, sizes: &[u64]) -> Manifest {
        let chunks: Vec<ChunkMeta> = sizes
            .iter()
            .enumerate()
            .map(|(i, &bytes)| ChunkMeta {
                key: Manifest::chunk_key("job", CheckpointId(id), 0, i as u32),
                shard: 0,
                rows: 8,
                bytes,
                parts: 1 + (bytes / 1024) as u32,
                table: 0,
                first_row: (i * 8) as u32,
                last_row: (i * 8 + 7) as u32,
            })
            .collect();
        let total: u64 = sizes.iter().sum();
        Manifest {
            id: CheckpointId(id),
            kind: CheckpointKind::Full,
            base: None,
            iteration: 0,
            reader_state: ReaderState::fresh(),
            scheme: QuantScheme::Fp32,
            tables: vec![TableMeta {
                rows: 64,
                dim: 8,
                has_optimizer_state: false,
            }],
            bottom_mlp: vec![],
            top_mlp: vec![],
            chunks,
            shards: vec![ShardMeta {
                host: 0,
                rows: 8 * sizes.len() as u64,
                chunks: sizes.len() as u32,
                bytes: total,
                parts: 0,
            }],
            payload_bytes: total,
        }
    }

    #[test]
    fn plan_covers_every_chunk_exactly_once() {
        let chain = vec![
            manifest_with_chunks(0, &[100, 200, 300, 400, 500]),
            manifest_with_chunks(1, &[50, 60]),
        ];
        for hosts in [1usize, 2, 3, 7] {
            let assignment = plan(&chain, hosts);
            assert_eq!(assignment.len(), hosts);
            let mut keys: Vec<&str> = assignment
                .iter()
                .flatten()
                .map(|i| i.key.as_str())
                .collect();
            keys.sort_unstable();
            let mut expected: Vec<&str> = chain
                .iter()
                .flat_map(|m| m.chunks.iter().map(|c| c.key.as_str()))
                .collect();
            expected.sort_unstable();
            assert_eq!(keys, expected, "hosts={hosts}");
        }
    }

    #[test]
    fn plan_balances_bytes_across_hosts() {
        // 8 equal chunks over 4 hosts: exactly 2 each.
        let chain = vec![manifest_with_chunks(0, &[1000; 8])];
        let assignment = plan(&chain, 4);
        for items in &assignment {
            assert_eq!(items.len(), 2);
        }
        // Skewed sizes still stay within one max-chunk of balance.
        let chain = vec![manifest_with_chunks(0, &[900, 100, 100, 100, 100, 100])];
        let assignment = plan(&chain, 2);
        let loads: Vec<u64> = assignment
            .iter()
            .map(|items| items.iter().map(|i| i.bytes).sum())
            .collect();
        assert!(loads.iter().max().unwrap() - loads.iter().min().unwrap() <= 900);
    }

    #[test]
    fn plan_records_levels_and_parts() {
        let chain = vec![
            manifest_with_chunks(0, &[2048]),
            manifest_with_chunks(1, &[10]),
        ];
        let assignment = plan(&chain, 1);
        assert_eq!(assignment[0][0].level, 0);
        assert_eq!(assignment[0][0].parts, 3, "parts follow ChunkMeta");
        assert_eq!(assignment[0][1].level, 1);
    }

    #[test]
    fn plan_is_deterministic() {
        let chain = vec![manifest_with_chunks(0, &[7, 7, 7, 9, 9, 3])];
        assert_eq!(plan(&chain, 3), plan(&chain, 3));
    }

    #[test]
    fn more_hosts_than_chunks_leaves_trailing_hosts_idle() {
        let chain = vec![manifest_with_chunks(0, &[5, 5])];
        let assignment = plan(&chain, 4);
        assert_eq!(assignment[0].len(), 1);
        assert_eq!(assignment[1].len(), 1);
        assert!(assignment[2].is_empty() && assignment[3].is_empty());
    }

    #[test]
    fn eager_plan_marks_everything_hot() {
        let chain = vec![manifest_with_chunks(0, &[10, 10, 10])];
        assert!(plan(&chain, 2).iter().flatten().all(|i| i.hot));
    }

    #[test]
    fn priority_plan_orders_each_host_by_descending_heat() {
        // 64 rows, 8 chunks of 8 rows each, Zipf heat: chunk 0 (rows 0-7)
        // is hottest, chunk 7 coldest.
        let chain = vec![manifest_with_chunks(0, &[100; 8])];
        let heat = RowHeat::zipf(&[64], 1.05);
        for hosts in [1usize, 2, 3] {
            let assignment = plan_priority(&chain, hosts, &heat, 0.25);
            for items in &assignment {
                let seqs: Vec<&str> = items.iter().map(|i| i.key.as_str()).collect();
                let mut sorted = seqs.clone();
                sorted.sort_unstable(); // key order == chunk seq == row order
                assert_eq!(seqs, sorted, "heat order follows row order under Zipf");
            }
            // Full coverage, exactly once.
            let total: usize = assignment.iter().map(|v| v.len()).sum();
            assert_eq!(total, 8, "hosts={hosts}");
        }
    }

    #[test]
    fn priority_plan_hot_fraction_bounds_the_hot_set() {
        let chain = vec![manifest_with_chunks(0, &[100; 8])];
        let heat = RowHeat::zipf(&[64], 1.05);
        // Top 25% of 64 rows = 16 rows = the 2 hottest chunks.
        let assignment = plan_priority(&chain, 2, &heat, 0.25);
        let hot: Vec<&str> = assignment
            .iter()
            .flatten()
            .filter(|i| i.hot)
            .map(|i| i.key.as_str())
            .collect();
        assert_eq!(hot.len(), 2, "hot set is chunk-granular top-K");
        // Everything hot at fraction 1.0; nothing at 0.0.
        let all = plan_priority(&chain, 2, &heat, 1.0);
        assert!(all.iter().flatten().all(|i| i.hot));
        let none = plan_priority(&chain, 2, &heat, 0.0);
        assert!(none.iter().flatten().all(|i| !i.hot));
    }

    #[test]
    fn priority_plan_treats_unranked_chunks_as_hottest() {
        let mut chain = vec![manifest_with_chunks(0, &[100; 4])];
        // A chunk of a table the heat model does not cover.
        chain[0].chunks[3].table = 1;
        let heat = RowHeat::zipf(&[64], 1.05);
        let assignment = plan_priority(&chain, 1, &heat, 0.1);
        assert_eq!(
            assignment[0][0].key, chain[0].chunks[3].key,
            "unranked chunk must fetch first"
        );
        assert!(assignment[0][0].hot, "unranked chunks cannot be deferred");
    }

    #[test]
    fn priority_plan_is_deterministic_and_covers_every_chunk() {
        let chain = vec![
            manifest_with_chunks(0, &[100, 300, 50, 200]),
            manifest_with_chunks(1, &[40, 60]),
        ];
        let heat = RowHeat::zipf(&[64], 1.0);
        for hosts in [1usize, 2, 4] {
            let a = plan_priority(&chain, hosts, &heat, 0.5);
            assert_eq!(a, plan_priority(&chain, hosts, &heat, 0.5));
            let mut keys: Vec<&str> =
                a.iter().flatten().map(|i| i.key.as_str()).collect();
            keys.sort_unstable();
            let mut expected: Vec<&str> = chain
                .iter()
                .flat_map(|m| m.chunks.iter().map(|c| c.key.as_str()))
                .collect();
            expected.sort_unstable();
            assert_eq!(keys, expected, "hosts={hosts}");
        }
    }

    #[test]
    fn heat_sources_compose() {
        let mut heat = RowHeat::uniform(&[8]);
        let mut trace = AccessTrace::new();
        trace.record(0, 0, 6);
        trace.record(1, 0, 6);
        heat.observe_trace(&trace, 1.0);
        let mut cov = CoverageAnalyzer::new(&[8]);
        cov.observe(0, 2);
        heat.boost_covered(&cov, 0.5);
        // Row 6 (trace, +2.0) outranks row 2 (coverage, +0.5) outranks the
        // uniform rest.
        assert!(heat.score_range(0, 6, 6) > heat.score_range(0, 2, 2));
        assert!(heat.score_range(0, 2, 2) > heat.score_range(0, 3, 3));
        assert_eq!(heat.score_range(1, 0, 0), None, "unknown table");
    }
}
