//! Wall-clock wire-path benchmark (`BENCH_wall_wire.json`).
//!
//! Unlike the figure harnesses, which report *virtual* time from the
//! link and device models, this module times the host process itself:
//! real requests/sec and p50/p99 latency of the wire path, per framing
//! strategy (a copy per chunk and per frame vs pooled views with
//! in-place reassembly) at 256 B, 64 KiB and 1 MiB payloads.
//!
//! The `wall` binary renders the table and writes it as
//! `BENCH_wall_wire.json`; the nightly `wall-bench` CI job uploads it
//! and gates pooled framing at no slower than the copying path at every
//! payload size. (The VM engines are timed by `haocl-perf`, whose
//! `clc.vm.*` rows the same job gates per kernel.)

use std::time::Instant;

use haocl_net::frame::{
    encode_frame, encode_frame_pooled, segment, segment_pooled, FrameAssembler,
};
use haocl_net::pool::{BufferPool, PooledBytes};

/// Wall-clock latency distribution over one measured loop.
#[derive(Debug, Clone, Copy)]
pub struct LatencyStats {
    /// Requests measured.
    pub requests: u64,
    /// Total wall time across all requests, nanoseconds.
    pub total_nanos: u64,
    /// Median per-request latency, nanoseconds.
    pub p50_nanos: u64,
    /// 99th-percentile per-request latency, nanoseconds.
    pub p99_nanos: u64,
}

impl LatencyStats {
    /// Collapses raw per-request samples into the distribution.
    fn from_samples(mut samples: Vec<u64>) -> Self {
        assert!(!samples.is_empty(), "no samples measured");
        let total: u64 = samples.iter().sum();
        samples.sort_unstable();
        let pct = |p: f64| {
            let idx = ((samples.len() - 1) as f64 * p).round() as usize;
            samples[idx]
        };
        LatencyStats {
            requests: samples.len() as u64,
            total_nanos: total.max(1),
            p50_nanos: pct(0.50),
            p99_nanos: pct(0.99),
        }
    }

    /// Sustained throughput over the measured loop.
    pub fn requests_per_sec(&self) -> f64 {
        self.requests as f64 / (self.total_nanos as f64 / 1e9)
    }
}

/// Deterministic pseudo-random stream (SplitMix64) for input data; the
/// bench must not depend on a seeded RNG crate.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One (payload size, framing strategy) measurement of the wire layer.
#[derive(Debug, Clone)]
pub struct WireRow {
    /// `"small"` (256 B), `"bulk"` (64 KiB) or `"mib"` (1 MiB).
    pub payload: &'static str,
    /// Payload bytes per request.
    pub payload_bytes: usize,
    /// `"copy"` (a copy per chunk and per reassembled frame) or
    /// `"pooled"` (views of recycled storage; one copy to collect a
    /// frame that spans chunks).
    pub path: &'static str,
    /// Frame round-trip (encode → segment → reassemble) distribution.
    pub stats: LatencyStats,
    /// FNV-1a digest of the last reassembled frame (copy and pooled
    /// must agree per payload size).
    pub digest: u64,
}

/// Measures encode → MTU segmentation → reassembly round trips through
/// both framing strategies at a single-chunk, a 44-chunk and a 700-chunk
/// payload size (the last is where reassembly, not encoding, dominates).
pub fn wire_rows(iters: usize) -> Vec<WireRow> {
    let mut out = Vec::new();
    for (payload, payload_bytes) in [("small", 256usize), ("bulk", 64 * 1024), ("mib", 1 << 20)] {
        let mut rng = Mix(7);
        let body: Vec<u8> = (0..payload_bytes).map(|_| rng.next() as u8).collect();

        // Historic path: every frame is a fresh Vec, every chunk and
        // every reassembled frame a copy.
        let mut asm = FrameAssembler::new();
        let mut samples = Vec::with_capacity(iters);
        let mut digest = 0;
        for _ in 0..iters {
            let t0 = Instant::now();
            let frame = encode_frame(&body);
            let mut frames = Vec::new();
            for chunk in segment(&frame) {
                frames.extend(asm.push(chunk).expect("clean stream"));
            }
            samples.push(t0.elapsed().as_nanos() as u64);
            digest = fnv1a(&frames[0]);
        }
        out.push(WireRow {
            payload,
            payload_bytes,
            path: "copy",
            stats: LatencyStats::from_samples(samples),
            digest,
        });

        // Pooled path: the frame is built in recycled storage and its
        // chunks are views of it; the reassembled frame is a view of the
        // chunk when it arrived whole, else of the (recycled) buffer it
        // was collected in.
        let pool = BufferPool::new();
        let mut asm = FrameAssembler::new();
        let mut samples = Vec::with_capacity(iters);
        let mut pooled_digest = 0;
        for _ in 0..iters {
            let t0 = Instant::now();
            let frame = encode_frame_pooled(&pool, |v| v.extend_from_slice(&body));
            let mut frames: Vec<PooledBytes> = Vec::new();
            for chunk in segment_pooled(&frame) {
                frames.extend(asm.push_pooled(&chunk).expect("clean stream"));
            }
            samples.push(t0.elapsed().as_nanos() as u64);
            pooled_digest = fnv1a(&frames[0]);
            drop(frames);
            drop(frame);
        }
        assert_eq!(
            digest, pooled_digest,
            "{payload}: pooled reassembly diverged from the copying path"
        );
        out.push(WireRow {
            payload,
            payload_bytes,
            path: "pooled",
            stats: LatencyStats::from_samples(samples),
            digest: pooled_digest,
        });
    }
    out
}

/// FNV-1a (same parameters as the ablation digests).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_paths_agree_and_report_sane_stats() {
        let rows = wire_rows(16);
        assert_eq!(rows.len(), 6);
        for size in ["small", "bulk", "mib"] {
            let find = |path: &str| {
                rows.iter()
                    .find(|r| r.payload == size && r.path == path)
                    .unwrap()
            };
            assert_eq!(find("copy").digest, find("pooled").digest);
        }
    }
}
