//! Kernel rates, measured on the run's own data: `cnr_quant` on the run's
//! rows and scheme, `envelope::crc32` and `wire::checksum` on the run's
//! stored chunk bytes. Each pass is a `cnr_obs` span; the rate is the
//! median over passes.

use crate::trace::Tracer;
use bytes::Bytes;
use cnr_quant::QuantScheme;
use std::hint::black_box;
use std::time::Instant;

/// Timed passes per kernel.
const PASSES: usize = 3;
/// Rows per quantize/dequantize pass.
const SAMPLE_ROWS: usize = 32_768;
/// Chunk bytes per checksum pass.
const SAMPLE_BYTES: usize = 32 << 20;

/// Median ns per row of `scheme.quantize_row` and of `dequantize`, over
/// the first rows of `data` (row-major, `dim` wide).
pub fn quant_ns_per_row(
    data: &[f32],
    dim: usize,
    scheme: QuantScheme,
    tracer: &Tracer,
) -> (f64, f64) {
    let rows: Vec<&[f32]> = data.chunks_exact(dim).take(SAMPLE_ROWS).collect();
    let quantized: Vec<_> = rows.iter().map(|r| scheme.quantize_row(r)).collect();
    let per_row = |nanos: u128| nanos as f64 / rows.len().max(1) as f64;
    let mut q = Vec::with_capacity(PASSES);
    let mut d = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let span = tracer
            .obs()
            .span("quant.quantize_row")
            .attr("rows", rows.len().to_string());
        let t0 = Instant::now();
        for r in &rows {
            black_box(scheme.quantize_row(black_box(r)));
        }
        q.push(per_row(t0.elapsed().as_nanos()));
        span.finish();

        let span = tracer
            .obs()
            .span("quant.dequantize")
            .attr("rows", rows.len().to_string());
        let t0 = Instant::now();
        for r in &quantized {
            black_box(black_box(r).dequantize());
        }
        d.push(per_row(t0.elapsed().as_nanos()));
        span.finish();
    }
    (crate::median(&q), crate::median(&d))
}

/// Median MB/s of `envelope::crc32` and of `wire::checksum` over the
/// first [`SAMPLE_BYTES`] of `chunks`.
pub fn checksum_mb_s(chunks: &[Bytes], tracer: &Tracer) -> (f64, f64) {
    let mut sample: Vec<&[u8]> = Vec::new();
    let mut bytes = 0usize;
    for c in chunks {
        if bytes >= SAMPLE_BYTES {
            break;
        }
        sample.push(c);
        bytes += c.len();
    }
    let mb = bytes as f64 / 1e6;
    let mut crc = Vec::with_capacity(PASSES);
    let mut fnv = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let span = tracer
            .obs()
            .span("envelope.crc32")
            .attr("bytes", bytes.to_string());
        let t0 = Instant::now();
        for c in &sample {
            black_box(cnr_storage::envelope::crc32(black_box(c)));
        }
        crc.push(mb / t0.elapsed().as_secs_f64());
        span.finish();

        let span = tracer
            .obs()
            .span("wire.checksum")
            .attr("bytes", bytes.to_string());
        let t0 = Instant::now();
        for c in &sample {
            black_box(cnr_core::wire::checksum(black_box(c)));
        }
        fnv.push(mb / t0.elapsed().as_secs_f64());
        span.finish();
    }
    (crate::median(&crc), crate::median(&fnv))
}
