//! Seeded input generation.
//!
//! Every input the benchmark hands the program under test — buffer
//! contents, scalar arguments, workload `seed` fields, corpus order,
//! per-build source constants — is drawn from one [`Rng`] stream keyed
//! by `--seed`, so the same seed always produces the same inputs.

/// SplitMix64: a tiny, well-mixed deterministic stream. The benchmark
/// must not depend on a seeded RNG crate (the workspace only vendors a
/// shim of `rand`).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated by `lane` so independent inputs of
    /// one run do not share a prefix.
    pub fn new(seed: u64, lane: u64) -> Rng {
        let mut rng = Rng(seed ^ lane.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A float in `[lo, hi)` on a 1/1024 grid, so products and sums of a
    /// few of them stay exactly representable for long enough that host
    /// references do not depend on rounding order.
    pub fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * (self.below(1024) as f32 / 1024.0)
    }

    pub fn f32s(&mut self, n: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..n).map(|_| self.f32_in(lo, hi)).collect()
    }

    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n + 8);
        while out.len() < n {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(n);
        out
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

pub fn f32s_to_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_lanes_differ() {
        let take = |seed, lane| {
            let mut rng = Rng::new(seed, lane);
            [rng.next_u64(), rng.next_u64(), rng.next_u64()]
        };
        let (a, b, c) = (take(7, 1), take(7, 1), take(7, 2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<u32> = (0..50).collect();
        Rng::new(1, 0).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(items, sorted);
    }
}
