//! Offline drop-in subset of the `rand` crate.
//!
//! Provides the [`Rng`] / [`RngCore`] / [`SeedableRng`] traits and
//! [`rngs::StdRng`] — everything the HaoCL workload generators and seed
//! derivation use. `StdRng` here is xoshiro256++ seeded via splitmix64;
//! the generated streams differ from upstream `rand`'s ChaCha-based
//! `StdRng`, which is fine because the workspace only promises
//! determinism for a fixed build, never a fixed stream across rand
//! versions (upstream makes the same non-guarantee).

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Minimal core RNG interface: a source of uniform 64-bit words.
pub trait RngCore {
    /// The next uniformly distributed 64-bit word.
    fn next_u64(&mut self) -> u64;

    /// The next uniformly distributed 32-bit word.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Types that can be sampled uniformly from the full value domain
/// (the `Standard` distribution in upstream terms).
pub trait Standard: Sized {
    /// Draws one uniformly distributed value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($t:ty),*) => {
        $(
            impl Standard for $t {
                fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*
    };
}

standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits scaled into [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges that [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

// Unbiased-enough integer range sampling: 64-bit multiply-shift. The
// modulo bias of a plain `% span` is avoided by widening to u128.
fn sample_u64_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! range_int {
    ($($t:ty),*) => {
        $(
            impl SampleRange<$t> for Range<$t> {
                fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + sample_u64_below(rng, span) as i128) as $t
                }
            }

            impl SampleRange<$t> for RangeInclusive<$t> {
                fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                    let (start, end) = self.into_inner();
                    assert!(start <= end, "cannot sample empty range");
                    let span = (end as i128 - start as i128) as u128 + 1;
                    let v = ((rng.next_u64() as u128).wrapping_mul(span) >> 64) as i128;
                    (start as i128 + v) as $t
                }
            }
        )*
    };
}

range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! range_float {
    ($($t:ty),*) => {
        $(
            impl SampleRange<$t> for Range<$t> {
                fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    let unit = <$t as Standard>::sample_standard(rng);
                    self.start + unit * (self.end - self.start)
                }
            }

            impl SampleRange<$t> for RangeInclusive<$t> {
                fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                    let (start, end) = self.into_inner();
                    assert!(start <= end, "cannot sample empty range");
                    let unit = <$t as Standard>::sample_standard(rng);
                    start + unit * (end - start)
                }
            }
        )*
    };
}

range_float!(f32, f64);

/// Convenience sampling methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Draws one value from the full domain of `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Draws one value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "p={p} outside [0, 1]");
        <f64 as Standard>::sample_standard(self) < p
    }
}

impl<R: RngCore> Rng for R {}

/// RNGs that can be constructed from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Concrete generators.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++.
    ///
    /// Small, fast, and passes BigCrush — more than adequate for workload
    /// synthesis in a simulation (no cryptographic claims).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // Expand the seed with splitmix64 per the xoshiro authors'
            // recommendation; guarantees a non-zero state.
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn seeds_separate_streams() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = r.gen_range(10..20u32);
            assert!((10..20).contains(&v));
            let w = r.gen_range(-5..=5i64);
            assert!((-5..=5).contains(&w));
            let f = r.gen_range(-1.0..1.0f32);
            assert!((-1.0..1.0).contains(&f));
            let u = r.gen::<f64>();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = StdRng::seed_from_u64(4);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }

    #[test]
    fn inclusive_range_hits_endpoints() {
        let mut r = StdRng::seed_from_u64(5);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[r.gen_range(0..=2usize)] = true;
        }
        assert_eq!(seen, [true, true, true]);
    }
}
