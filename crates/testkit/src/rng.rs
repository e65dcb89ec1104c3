//! Deterministic pseudo-random number generation.
//!
//! [`TestRng`] is xoshiro256** seeded through SplitMix64 — the standard
//! construction for expanding a 64-bit seed into a full 256-bit state
//! without correlated lanes. The [`Rng`] trait mirrors the `rand`
//! surface the workspace actually uses so call sites migrate with a
//! `use` swap: `gen_range` over half-open and inclusive integer ranges,
//! `gen_bool`, `gen::<T>()` for primitive types, and `fill_bytes`.

use std::ops::{Range, RangeInclusive};

/// SplitMix64: a tiny, well-mixed 64-bit generator used to expand seeds.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a SplitMix64 stream from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The workhorse generator: xoshiro256**.
///
/// Fast, 256 bits of state, passes BigCrush; identical output on every
/// platform and toolchain (no `HashMap`-style per-process randomness).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Expands a 64-bit seed into a full generator state via SplitMix64.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        TestRng { s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()] }
    }

}

impl Rng for TestRng {
    fn next_u64(&mut self) -> u64 {
        let out = self.s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }
}

/// The `rand`-mirroring generator surface.
pub trait Rng {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        // 53 bits of precision, like rand's Bernoulli.
        let threshold = (p * (1u64 << 53) as f64) as u64;
        (self.next_u64() >> 11) < threshold
    }

    /// A uniformly random value of a primitive type.
    fn gen<T: Arbitrary>(&mut self) -> T
    where
        Self: Sized,
    {
        T::arbitrary(self)
    }

    /// A uniform value in `range` (`a..b` or `a..=b`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T: SampleUniform, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        let (lo, hi) = range.bounds_inclusive();
        T::sample_inclusive(self, lo, hi)
    }
}

/// Uniform draw of `span + 1` values (i.e. `0..=span`) without modulo
/// bias, by rejection against a power-of-two mask.
pub(crate) fn draw_below_inclusive<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    if span == 0 {
        // A single-value span draws nothing: `1u64.next_power_of_two()`
        // is 1, whose mask of 0 the loop below would mistake for "all
        // 64 bits", waiting for a full-width draw to land on 0.
        return 0;
    }
    if span == u64::MAX {
        return rng.next_u64();
    }
    let n = span + 1;
    let mask = n.next_power_of_two().wrapping_sub(1);
    loop {
        let v = rng.next_u64() & mask;
        if v < n {
            return v;
        }
    }
}

/// Types with a full-width uniform distribution.
pub trait Arbitrary: Sized {
    /// Draws a uniformly random value.
    fn arbitrary<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Integer types that support uniform range sampling.
pub trait SampleUniform: Copy + PartialOrd {
    /// A uniform value in `lo..=hi`.
    fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Predecessor, for converting `a..b` into `a..=b-1`.
    fn prev(self) -> Self;
}

macro_rules! uniform_unsigned {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                lo.wrapping_add(draw_below_inclusive(rng, span) as $t)
            }
            fn prev(self) -> Self { self - 1 }
        }
    )*};
}
uniform_unsigned!(u8, u16, u32, u64, usize);

macro_rules! uniform_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as $u).wrapping_sub(lo as $u) as u64;
                lo.wrapping_add(draw_below_inclusive(rng, span) as $t)
            }
            fn prev(self) -> Self { self - 1 }
        }
    )*};
}
uniform_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

/// Ranges acceptable to [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// The inclusive `(lo, hi)` bounds.
    fn bounds_inclusive(self) -> (T, T);
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn bounds_inclusive(self) -> (T, T) {
        (self.start, self.end.prev())
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn bounds_inclusive(self) -> (T, T) {
        self.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_clones() {
        let mut a = TestRng::seed_from_u64(42);
        let mut b = TestRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn degenerate_spans_terminate() {
        // `span == 0` must return immediately (a mask of 0 bits), not
        // reject full-width draws until one lands on 0.
        let mut rng = TestRng::seed_from_u64(3);
        for _ in 0..64 {
            assert_eq!(draw_below_inclusive(&mut rng, 0), 0);
        }
        assert_eq!(rng.gen_range(9u64..=9), 9);
        assert_eq!(rng.gen_range(-5i32..=-5), -5);
    }

    #[test]
    fn known_splitmix_vector() {
        // Reference values for SplitMix64 with seed 1234567
        // (from the public-domain reference implementation).
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next_u64(), 6457827717110365317);
        assert_eq!(sm.next_u64(), 3203168211198807973);
    }

    #[test]
    fn ranges_are_bounded_and_cover() {
        let mut rng = TestRng::seed_from_u64(7);
        let mut seen = [false; 6];
        for _ in 0..500 {
            let v = rng.gen_range(1u32..6);
            assert!((1..6).contains(&v));
            seen[v as usize] = true;
            let s = rng.gen_range(-32i8..=31);
            assert!((-32..=31).contains(&s));
        }
        assert!(seen[1..5].iter().all(|&b| b));
    }

    #[test]
    fn full_width_signed_range() {
        let mut rng = TestRng::seed_from_u64(9);
        for _ in 0..100 {
            let _: i64 = rng.gen_range(i64::MIN..=i64::MAX);
            let _: u64 = rng.gen_range(0u64..=u64::MAX);
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = TestRng::seed_from_u64(3);
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(0.0));
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "p=0.5 gave {heads}/10000");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = TestRng::seed_from_u64(11);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn parse_seed_formats() {
        assert_eq!(crate::parse_seed("42"), Some(42));
        assert_eq!(crate::parse_seed("0x2a"), Some(42));
        assert_eq!(crate::parse_seed(" 0X2A "), Some(42));
        assert_eq!(crate::parse_seed("nope"), None);
    }
}
