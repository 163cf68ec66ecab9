//! Seedable, portable pseudo-randomness.
//!
//! The generator is xoshiro256++ (Blackman & Vigna), seeded through
//! SplitMix64 exactly as its authors recommend. All derived draws go
//! through fixed-width integer arithmetic, so every seed produces the same
//! stream on every platform — the property the whole synthetic-corpus
//! pipeline rests on.
//!
//! The API mirrors the subset of `rand` the workspace uses: construction
//! via [`Xoshiro256pp::seed_from_u64`] / [`Xoshiro256pp::from_seed`], draws
//! via [`Xoshiro256pp::gen_range`], [`Xoshiro256pp::gen_bool`] and
//! [`Xoshiro256pp::gen`], and slice helpers via the [`SliceRandom`]
//! extension trait.

/// SplitMix64 step: the seed expander recommended for xoshiro state init.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The xoshiro256++ generator: 256 bits of state, period 2^256 − 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seeds the full 256-bit state from a single `u64` via SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Xoshiro256pp {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Seeds from 32 raw bytes (little-endian words). The all-zero seed —
    /// the one state xoshiro cannot leave — is remapped through SplitMix64.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        let mut s = [0u64; 4];
        for (i, chunk) in seed.chunks_exact(8).enumerate() {
            s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        if s == [0; 4] {
            return Self::seed_from_u64(0);
        }
        Xoshiro256pp { s }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
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

    /// A uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// A uniform value of a primitive type (`u64`, `u32`, `usize`, `f64`
    /// over `[0, 1)`, or `bool`).
    pub fn gen<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// A uniform draw from a half-open or inclusive range.
    ///
    /// # Panics
    ///
    /// Panics on an empty range, matching `rand`.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Uniform integer in `[0, bound)` via 128-bit multiply-shift.
    fn bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Types [`Xoshiro256pp::gen`] can produce.
pub trait FromRng {
    /// Draws one uniform value.
    fn from_rng(rng: &mut Xoshiro256pp) -> Self;
}

impl FromRng for u64 {
    fn from_rng(rng: &mut Xoshiro256pp) -> Self {
        rng.next_u64()
    }
}

impl FromRng for u32 {
    fn from_rng(rng: &mut Xoshiro256pp) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl FromRng for usize {
    fn from_rng(rng: &mut Xoshiro256pp) -> Self {
        rng.next_u64() as usize
    }
}

impl FromRng for bool {
    fn from_rng(rng: &mut Xoshiro256pp) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl FromRng for f64 {
    fn from_rng(rng: &mut Xoshiro256pp) -> Self {
        rng.next_f64()
    }
}

/// Primitive types [`Xoshiro256pp::gen_range`] can draw uniformly.
///
/// Implemented once, generically over ranges, so an integer literal like
/// `rng.gen_range(0..5)` infers its type from the call site exactly the
/// way `rand`'s equivalent trait does.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)`, or `[lo, hi]` when `inclusive`.
    /// Callers guarantee the range is non-empty.
    fn sample_between(rng: &mut Xoshiro256pp, lo: Self, hi: Self, inclusive: bool) -> Self;
}

macro_rules! int_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between(
                rng: &mut Xoshiro256pp,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                let extra = u128::from(inclusive);
                let span = (hi as i128 - lo as i128) as u128 + extra;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t; // full u64-width range
                }
                (lo as i128 + rng.bounded(span as u64) as i128) as $t
            }
        }
    )*};
}

int_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_between(rng: &mut Xoshiro256pp, lo: Self, hi: Self, inclusive: bool) -> Self {
        let v = lo + rng.next_f64() * (hi - lo);
        // Guard against rounding up to an excluded upper endpoint.
        if !inclusive && v >= hi {
            lo
        } else {
            v
        }
    }
}

impl SampleUniform for f32 {
    fn sample_between(rng: &mut Xoshiro256pp, lo: Self, hi: Self, inclusive: bool) -> Self {
        let v = f64::sample_between(rng, f64::from(lo), f64::from(hi), inclusive) as f32;
        if !inclusive && v >= hi {
            lo
        } else {
            v
        }
    }
}

/// Ranges [`Xoshiro256pp::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut Xoshiro256pp) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample(self, rng: &mut Xoshiro256pp) -> T {
        assert!(self.start < self.end, "gen_range on empty range");
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample(self, rng: &mut Xoshiro256pp) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range on empty range");
        T::sample_between(rng, lo, hi, true)
    }
}

/// Slice helpers in the style of `rand::seq::SliceRandom`.
pub trait SliceRandom {
    /// Element type of the slice.
    type Item;

    /// Uniform in-place Fisher–Yates shuffle.
    fn shuffle(&mut self, rng: &mut Xoshiro256pp);

    /// A uniform element reference, or `None` on an empty slice.
    fn choose(&self, rng: &mut Xoshiro256pp) -> Option<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle(&mut self, rng: &mut Xoshiro256pp) {
        for i in (1..self.len()).rev() {
            let j = rng.bounded(i as u64 + 1) as usize;
            self.swap(i, j);
        }
    }

    fn choose(&self, rng: &mut Xoshiro256pp) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.bounded(self.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference outputs for seed_from_u64(0): SplitMix64(0..) expands to
    /// the state, then xoshiro256++ runs. Locks the stream across
    /// platforms and future refactors.
    #[test]
    fn stream_is_pinned() {
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let mut again = Xoshiro256pp::seed_from_u64(0);
        let second: Vec<u64> = (0..4).map(|_| again.next_u64()).collect();
        assert_eq!(first, second);
        // Value pin: recompute SplitMix64 state expansion by hand.
        let mut sm = 0u64;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        let expected0 = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        assert_eq!(first[0], expected0);
    }

    #[test]
    fn distinct_seeds_distinct_streams() {
        let a: Vec<u64> =
            (0..8).scan(Xoshiro256pp::seed_from_u64(1), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> =
            (0..8).scan(Xoshiro256pp::seed_from_u64(2), |r, _| Some(r.next_u64())).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn zero_seed_bytes_are_remapped() {
        let mut rng = Xoshiro256pp::from_seed([0u8; 32]);
        // Must not be stuck on zero output forever.
        assert!((0..4).any(|_| rng.next_u64() != 0));
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3usize..11);
            assert!((3..11).contains(&v));
            let f = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
            let i = rng.gen_range(0..=5u32);
            assert!(i <= 5);
            let neg = rng.gen_range(-5i32..-1);
            assert!((-5..-1).contains(&neg));
        }
    }

    #[test]
    fn gen_range_covers_every_value() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // A 50-element shuffle virtually never returns identity.
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_is_deterministic_per_seed() {
        let shuffle_with = |seed| {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let mut v: Vec<usize> = (0..20).collect();
            v.shuffle(&mut rng);
            v
        };
        assert_eq!(shuffle_with(5), shuffle_with(5));
        assert_ne!(shuffle_with(5), shuffle_with(6));
    }

    #[test]
    fn choose_stays_in_slice() {
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(items.choose(&mut rng).unwrap()));
        }
        let empty: [i32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn next_f64_stays_in_unit_interval() {
        let mut rng = Xoshiro256pp::seed_from_u64(23);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }
}
