//! Property-based tests over the core data structures and codecs.

use check_n_run::core::manifest::ChunkPayload;
use check_n_run::core::predictor;
use check_n_run::quant::bitpack::{mask_for, pack, packed_len, unpack};
use check_n_run::quant::codec::QuantizedRow;
use check_n_run::quant::uniform::{dequantize, quantize_asymmetric, quantize_with_range};
use check_n_run::quant::QuantScheme;
use check_n_run::tracking::BitVec;
use proptest::prelude::*;

proptest! {
    /// Bit-packing roundtrips for every width and any codes that fit.
    #[test]
    fn bitpack_roundtrip(bits in 1u8..=16, seed in any::<u64>(), n in 0usize..300) {
        let mask = mask_for(bits) as u64;
        let codes: Vec<u16> = (0..n)
            .map(|i| ((seed.wrapping_mul(i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15) >> 13) & mask) as u16)
            .collect();
        let packed = pack(&codes, bits);
        prop_assert_eq!(packed.len(), packed_len(n, bits));
        let unpacked = unpack(&packed, bits, n).unwrap();
        prop_assert_eq!(codes, unpacked);
    }

    /// Asymmetric quantization error is bounded by half the step size for
    /// in-range values.
    #[test]
    fn asymmetric_error_bound(
        values in prop::collection::vec(-100.0f32..100.0, 1..64),
        bits in 2u8..=8,
    ) {
        let (codes, params) = quantize_asymmetric(&values, bits);
        let back = dequantize(&codes, &params);
        let scale = match params {
            check_n_run::quant::QuantParams::Uniform { scale, .. } => scale,
            _ => unreachable!(),
        };
        for (x, y) in values.iter().zip(&back) {
            prop_assert!(
                (x - y).abs() <= scale / 2.0 + scale * 1e-3 + 1e-6,
                "error {} exceeds half-step {}", (x - y).abs(), scale / 2.0
            );
        }
    }

    /// Clipped quantization never produces values outside the clip range
    /// (modulo float rounding).
    #[test]
    fn clipped_range_is_respected(
        values in prop::collection::vec(-10.0f32..10.0, 1..64),
        lo in -5.0f32..0.0,
        width in 0.1f32..5.0,
        bits in 2u8..=8,
    ) {
        let hi = lo + width;
        let (codes, params) = quantize_with_range(&values, lo, hi, bits);
        for v in dequantize(&codes, &params) {
            prop_assert!(v >= lo - width * 1e-3 && v <= hi + width * 1e-3);
        }
    }

    /// Every quantized-row encoding decodes back to itself.
    #[test]
    fn row_codec_roundtrip(
        values in prop::collection::vec(-2.0f32..2.0, 0..64),
        scheme_idx in 0usize..4,
        bits in 2u8..=8,
    ) {
        let scheme = match scheme_idx {
            0 => QuantScheme::Fp32,
            1 => QuantScheme::Symmetric { bits },
            2 => QuantScheme::Asymmetric { bits },
            _ => QuantScheme::KMeans { bits: bits.min(6) },
        };
        let q = scheme.quantize_row(&values);
        let mut buf = Vec::new();
        q.encode_into(&mut buf);
        prop_assert_eq!(buf.len(), q.byte_size());
        let mut slice = buf.as_slice();
        let back = QuantizedRow::decode_from(&mut slice).unwrap();
        prop_assert!(slice.is_empty());
        prop_assert_eq!(back, q);
    }

    /// Chunk payloads roundtrip with and without optimizer state.
    #[test]
    fn chunk_roundtrip(
        rows in prop::collection::vec(prop::collection::vec(-1.0f32..1.0, 8), 0..20),
        with_acc in any::<bool>(),
        table in 0u16..8,
    ) {
        let scheme = QuantScheme::Asymmetric { bits: 4 };
        let chunk = ChunkPayload {
            table,
            row_indices: (0..rows.len() as u32).map(|i| i * 3).collect(),
            optimizer_state: with_acc.then(|| rows.iter().map(|r| r[0].abs()).collect()),
            rows: rows.iter().map(|r| scheme.quantize_row(r)).collect(),
        };
        let bytes = chunk.encode_enveloped();
        let back = ChunkPayload::decode(&bytes).unwrap();
        prop_assert_eq!(back, chunk);
    }

    /// Flipping any byte of a stored (enveloped) chunk is detected.
    #[test]
    fn chunk_corruption_detected(
        flip_at_fraction in 0.0f64..1.0,
        n_rows in 1usize..10,
    ) {
        let scheme = QuantScheme::Asymmetric { bits: 4 };
        let rows: Vec<Vec<f32>> = (0..n_rows)
            .map(|i| (0..8).map(|j| (i * 8 + j) as f32 * 0.01).collect())
            .collect();
        let chunk = ChunkPayload {
            table: 0,
            row_indices: (0..n_rows as u32).collect(),
            optimizer_state: None,
            rows: rows.iter().map(|r| scheme.quantize_row(r)).collect(),
        };
        let mut bytes = chunk.encode_enveloped();
        let idx = ((bytes.len() - 1) as f64 * flip_at_fraction) as usize;
        bytes[idx] ^= 0x5A;
        prop_assert!(ChunkPayload::decode(&bytes).is_err());
    }

    /// BitVec set-union-count algebra.
    #[test]
    fn bitvec_union_count(
        a in prop::collection::vec(any::<bool>(), 1..200),
        flip in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let n = a.len().min(flip.len());
        let mut va = BitVec::new(n);
        let mut vb = BitVec::new(n);
        let mut expected_union = 0usize;
        for i in 0..n {
            if a[i] { va.set(i); }
            if flip[i] { vb.set(i); }
            if a[i] || flip[i] { expected_union += 1; }
        }
        let mut u = va.clone();
        u.union_with(&vb);
        prop_assert_eq!(u.count_ones(), expected_union);
        // iter_ones agrees with count and get.
        let ones: Vec<usize> = u.iter_ones().collect();
        prop_assert_eq!(ones.len(), expected_union);
        for i in &ones {
            prop_assert!(u.get(*i));
        }
    }

    /// The intermittent predictor decision equals the paper inequality
    /// computed directly.
    #[test]
    fn predictor_matches_inequality(
        history in prop::collection::vec(0.01f64..1.5, 0..20),
    ) {
        let decision = predictor::should_take_full(&history);
        let expected = match history.last() {
            None => false,
            Some(&last) => {
                let fc = 1.0 + history.iter().sum::<f64>();
                let ic = (history.len() as f64 + 1.0) * last;
                fc <= ic
            }
        };
        prop_assert_eq!(decision, expected);
    }

    /// Dequantize(quantize(x)) is idempotent: re-quantizing a dequantized
    /// row with the same parameters reproduces it exactly. This is why a
    /// restore from a quantized checkpoint does not compound error when
    /// re-checkpointed before further training.
    #[test]
    fn quantization_is_idempotent(
        values in prop::collection::vec(-1.0f32..1.0, 1..32),
        bits in 2u8..=8,
    ) {
        let scheme = QuantScheme::Asymmetric { bits };
        let once = scheme.quantize_row(&values).dequantize();
        let twice = scheme.quantize_row(&once).dequantize();
        prop_assert_eq!(once, twice);
    }

    /// The adaptive greedy search never loses to naive asymmetric on the ℓ2
    /// metric it optimizes (it starts from the naive range and keeps the
    /// best candidate).
    #[test]
    fn adaptive_never_worse_than_naive(
        values in prop::collection::vec(-3.0f32..3.0, 2..48),
        bits in 2u8..=4,
        bins in 2u32..30,
    ) {
        use check_n_run::quant::error::row_l2_error;
        let naive = QuantScheme::Asymmetric { bits }.quantize_row(&values);
        let adaptive = QuantScheme::AdaptiveAsymmetric { bits, num_bins: bins, ratio: 1.0 }
            .quantize_row(&values);
        let e_naive = row_l2_error(&values, &naive.dequantize());
        let e_adaptive = row_l2_error(&values, &adaptive.dequantize());
        prop_assert!(e_adaptive <= e_naive + 1e-9,
            "adaptive {e_adaptive} worse than naive {e_naive}");
    }

    /// Synthetic datasets are deterministic functions of (spec, index) for
    /// arbitrary spec parameters.
    #[test]
    fn dataset_is_deterministic(
        seed in any::<u64>(),
        rows in 1u64..500,
        hot in 1usize..4,
        exponent in 0.5f64..1.5,
        batch_size in 1usize..16,
        index in 0u64..1000,
    ) {
        use check_n_run::workload::{DatasetSpec, SyntheticDataset, TableAccessSpec};
        let spec = DatasetSpec {
            seed,
            batch_size,
            dense_dim: 3,
            tables: vec![TableAccessSpec::new(rows, hot, exponent)],
            concept_seed: None,
        };
        let a = SyntheticDataset::new(spec.clone()).batch(index);
        let b = SyntheticDataset::new(spec).batch(index);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.validate().is_ok());
        prop_assert!(a.sparse[0].iter().all(|&r| (r as u64) < rows));
    }

    /// Active fractions bound the reachable row set for any parameters.
    #[test]
    fn active_fraction_bounds_reach(
        rows in 10u64..300,
        fraction_pct in 1u32..=100,
    ) {
        use check_n_run::workload::{DatasetSpec, SyntheticDataset, TableAccessSpec};
        let fraction = fraction_pct as f64 / 100.0;
        let spec = DatasetSpec {
            seed: 5,
            batch_size: 8,
            dense_dim: 2,
            tables: vec![
                TableAccessSpec::new(rows, 1, 0.7).with_active_fraction(fraction),
            ],
            concept_seed: None,
        };
        let ds = SyntheticDataset::new(spec);
        let mut seen = std::collections::HashSet::new();
        for i in 0..50 {
            for &r in &ds.batch(i).sparse[0] {
                seen.insert(r);
            }
        }
        let max_active = ((rows as f64 * fraction).round() as usize).max(1);
        prop_assert!(seen.len() <= max_active,
            "saw {} distinct rows, active cap {max_active}", seen.len());
    }

    /// The reader tier reproduces the dataset stream exactly for any
    /// sequence of budget extensions.
    #[test]
    fn reader_stream_matches_dataset_for_any_budgets(
        budgets in prop::collection::vec(1u64..6, 1..5),
    ) {
        use check_n_run::reader::{ReaderConfig, ReaderMaster};
        use check_n_run::workload::{DatasetSpec, SyntheticDataset};
        let ds = SyntheticDataset::new(DatasetSpec::tiny(99));
        let reader = ReaderMaster::new(ds.clone(), ReaderConfig::default());
        let mut next = 0u64;
        for b in budgets {
            reader.extend_budget(b);
            for _ in 0..b {
                let batch = reader.next_batch();
                prop_assert_eq!(&batch, &ds.batch(next));
                next += 1;
            }
            prop_assert_eq!(reader.collect_state().next_batch, next);
        }
    }
}
