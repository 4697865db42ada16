//! The statistics every reported number goes through.
//!
//! A run is a sequence of equal *blocks* of a fixed operation count.
//! Each rate and percentile is computed per block and the block 5 % in
//! from the fast end is reported (see [`fast_end`] for why not the
//! median).

use std::time::Duration;

/// Median of an unsorted sample (mean of the two middle values for an
/// even count). Panics on an empty sample — every caller measured at
/// least one thing.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending sample, `q` in `(0, 1]`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile a sample of `n` supports: the highest of
/// p99.9 / p99 / p90 that still has at least ten samples beyond it.
/// Below twenty samples no percentile above the median qualifies and the
/// median itself is returned.
pub fn tail_quantile(n: usize) -> f64 {
    // Per-mille integers: `100.0 * (1.0 - 0.9)` is 9.999… in floats.
    [999usize, 990, 900]
        .into_iter()
        .find(|permille| n * (1000 - permille) / 1000 >= 10)
        .map_or(0.5, |permille| permille as f64 / 1000.0)
}

/// What one block measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub ops: usize,
    pub wall_s: f64,
    pub p50_us: f64,
    pub tail_us: f64,
    /// The percentile `tail_us` is (see [`tail_quantile`]).
    pub tail_q: f64,
}

impl Block {
    /// Collapses one block's per-op latencies and its wall time.
    pub fn from_latencies(lat_ns: &mut [u64], wall: Duration) -> Block {
        lat_ns.sort_unstable();
        let tail_q = tail_quantile(lat_ns.len());
        Block {
            ops: lat_ns.len(),
            wall_s: wall.as_secs_f64(),
            p50_us: percentile(lat_ns, 0.5) as f64 / 1e3,
            tail_us: percentile(lat_ns, tail_q) as f64 / 1e3,
            tail_q,
        }
    }
}

/// How far in from the fast end [`fast_end`] reads.
const FAST_END: f64 = 0.05;

/// The value 5 % in from the *fast* end of a sample: the 5th percentile
/// of a lower-is-better sample, the 95th of a higher-is-better one (the
/// best value itself for ten samples or fewer).
///
/// The reference box alternates, for seconds at a time, between two CPU
/// speed states about 1.3x apart (a busy SMT sibling, by the look of
/// it), and on a bad quarter of an hour spends as little as 5–20 % of a
/// run in the fast one. The noise only ever adds time, so the fast end
/// of the blocks is the code's own cost and repeats; the median block
/// lands in whichever state held for most of the run and flips from run
/// to run. Over 8 pinned 10 s runs of `small_launch` the range of
/// `op_p50_us` was 35 % for the median block, 8 % for the 20th
/// percentile and 3 % for the 5th; a systematic slowdown moves the fast
/// state itself, so it still shows.
pub fn fast_end(values: &[f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "fast end of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let from_fast_end = ((v.len() - 1) as f64 * FAST_END).round() as usize;
    if higher_is_better {
        v[v.len() - 1 - from_fast_end]
    } else {
        v[from_fast_end]
    }
}

/// The fast-end block's value of a lower-is-better figure.
pub fn block_fast_end(blocks: &[Block], figure: impl Fn(&Block) -> f64) -> f64 {
    fast_end(&blocks.iter().map(figure).collect::<Vec<_>>(), false)
}

/// A layer's self time: its own duration minus the part its children
/// cover, floored at zero (a child measured in a separate loop can come
/// out longer than the parent it is subtracted from; the excess then
/// shows up in the residual instead of as negative time).
pub fn self_time(whole: f64, children: &[f64]) -> f64 {
    (whole - children.iter().sum::<f64>()).max(0.0)
}

/// How far a ledger is from adding back up: `|whole − Σ parts| ÷ whole`.
pub fn residual_frac(whole: f64, parts: &[f64]) -> f64 {
    (whole - parts.iter().sum::<f64>()).abs() / whole
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method) — the driver's repeatability check uses exactly this.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let pos = i * (m + 1);
        let j = (pos / 4).clamp(1, m - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[9.0]), 9.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(5), 0.5);
        assert_eq!(tail_quantile(99), 0.5);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(999), 0.9);
        assert_eq!(tail_quantile(1_000), 0.99);
        assert_eq!(tail_quantile(2_048), 0.99);
        assert_eq!(tail_quantile(10_000), 0.999);
    }

    #[test]
    fn fast_end_sits_in_the_fast_state_of_a_bimodal_run() {
        // 10 % of the blocks in the fast state, 90 % in a 1.3x slower one.
        let times: Vec<f64> = (0..100)
            .map(|i| if i % 10 == 0 { 24.0 } else { 32.0 })
            .collect();
        assert_eq!(median(&times), 32.0);
        assert_eq!(fast_end(&times, false), 24.0);
        let rates: Vec<f64> = times.iter().map(|t| 1e6 / t).collect();
        assert_eq!(fast_end(&rates, true), 1e6 / 24.0);
        // Ranks, not interpolation: the value is one that was measured,
        // and it is not the single best of a large sample.
        let ramp: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(fast_end(&ramp, false), 6.0);
        assert_eq!(fast_end(&ramp, true), 96.0);
        // Ten samples or fewer: the best one.
        assert_eq!(fast_end(&[5.0, 3.0, 4.0], false), 3.0);
        assert_eq!(fast_end(&[5.0, 3.0, 4.0], true), 5.0);
        assert_eq!(fast_end(&[7.0], true), 7.0);
    }

    #[test]
    fn block_fast_end_ignores_slow_blocks() {
        let mk = |p50_us: f64| Block {
            ops: 1_000,
            wall_s: p50_us / 1e3,
            p50_us,
            tail_us: 2.0 * p50_us,
            tail_q: 0.99,
        };
        let blocks = [
            mk(100.0),
            mk(101.0),
            mk(250.0),
            mk(99.0),
            mk(100.5),
            mk(180.0),
        ];
        assert_eq!(block_fast_end(&blocks, |b| b.p50_us), 99.0);
        assert_eq!(block_fast_end(&blocks, |b| b.wall_s), 0.099);
    }

    #[test]
    fn block_from_latencies_sorts_and_picks_the_supported_tail() {
        let mut lat: Vec<u64> = (1..=1_000u64).rev().map(|i| i * 1_000).collect();
        let b = Block::from_latencies(&mut lat, Duration::from_millis(500));
        assert_eq!(b.ops, 1_000);
        assert_eq!(b.p50_us, 500.0);
        assert_eq!(b.tail_q, 0.99);
        assert_eq!(b.tail_us, 990.0);
        assert_eq!(b.wall_s, 0.5);
    }

    #[test]
    fn self_time_subtracts_children_and_floors_at_zero() {
        assert_eq!(self_time(100.0, &[19.0, 7.0]), 74.0);
        assert_eq!(self_time(10.0, &[8.0, 5.0]), 0.0);
        assert_eq!(self_time(10.0, &[]), 10.0);
    }

    #[test]
    fn residual_is_the_unexplained_share() {
        assert!((residual_frac(100.0, &[80.0, 11.0]) - 0.09).abs() < 1e-12);
        assert!((residual_frac(100.0, &[80.0, 30.0]) - 0.10).abs() < 1e-12);
        assert_eq!(residual_frac(50.0, &[50.0]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
