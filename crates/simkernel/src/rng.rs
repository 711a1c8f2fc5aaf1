//! Deterministic randomness for simulations.
//!
//! A single [`SimRng`] per simulation keeps runs reproducible: identical
//! seeds and identical event orders yield identical draws. Distributions
//! beyond `rand`'s core (exponential, normal, Poisson) are implemented
//! here so the workspace stays within its vetted dependency set.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Seeded, deterministic random number generator.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
    /// Cached second normal deviate from Box–Muller.
    spare_normal: Option<f64>,
    /// Primitive draws taken from the underlying stream so far. The
    /// causality sanitizer folds this into its per-window ledger: two
    /// runs of the same seed must consume every shard's stream at the
    /// same rate, or their schedules have already diverged.
    draws: u64,
}

impl SimRng {
    /// Create from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
            spare_normal: None,
            draws: 0,
        }
    }

    /// Primitive draws consumed from the stream since creation.
    /// Deterministic: a pure function of the call sequence.
    pub fn draw_count(&self) -> u64 {
        self.draws
    }

    /// Derive an independent child generator (e.g. one per experiment
    /// run) so parallel runs never share a stream.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        self.draws += 1;
        let s = self.inner.gen::<u64>() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::new(s)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        self.draws += 1;
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.draws += 1;
        self.inner.gen_range(lo..hi)
    }

    /// Fill `out` with `map` of `out.len()` consecutive
    /// [`range_u64(lo, hi)`](Self::range_u64) draws: the same values in
    /// the same order, and the same stream position and draw count
    /// afterwards, as one call per slot — but the range is checked and
    /// the count advanced once, and nothing is called per draw.
    pub fn fill_range_u64<T>(
        &mut self,
        lo: u64,
        hi: u64,
        out: &mut [T],
        mut map: impl FnMut(u64) -> T,
    ) {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.draws += out.len() as u64;
        for slot in out {
            *slot = map(self.inner.gen_range(lo..hi));
        }
    }

    /// Advance the stream past `n` draws without producing them: the
    /// same stream position and draw count afterwards as `n` calls of
    /// [`range_u64`](Self::range_u64), each of which takes exactly one
    /// word from the stream. A skip is a jump, not a walk: the
    /// generator steps the low byte of `n` and jumps each nonzero hex
    /// digit above it in about 256 steps, so a 64×48 frame's 3 072
    /// noise draws cost one pass.
    pub fn skip(&mut self, n: u64) {
        self.draws += n;
        self.inner.advance(n);
    }

    /// Uniform usize in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() over empty collection");
        self.draws += 1;
        self.inner.gen_range(0..n)
    }

    /// Bernoulli draw. `p` is clamped to `[0, 1]`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.draws += 1;
            self.inner.gen::<f64>() < p
        }
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform bounds inverted: [{lo}, {hi})");
        lo + (hi - lo) * self.f64()
    }

    /// Exponential deviate with the given mean (inverse-transform).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        // Guard the log: f64() may return exactly 0.
        let u = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Standard normal deviate (Box–Muller, with deviate caching).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        let u1 = self.f64().max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal deviate with mean and standard deviation.
    pub fn normal(&mut self, mean: f64, stddev: f64) -> f64 {
        assert!(stddev >= 0.0, "stddev must be non-negative");
        mean + stddev * self.standard_normal()
    }

    /// Poisson deviate (Knuth's product method; fine for the small means
    /// used by the passenger-arrival models).
    pub fn poisson(&mut self, mean: f64) -> u64 {
        assert!(mean >= 0.0, "poisson mean must be non-negative");
        if mean == 0.0 {
            return 0;
        }
        if mean > 30.0 {
            // Normal approximation for large means to bound loop length.
            return self.normal(mean, mean.sqrt()).round().max(0.0) as u64;
        }
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Geometric deviate: the number of independent Bernoulli(`p`)
    /// failures before the first success, sampled by inversion from a
    /// single uniform (`floor(ln(1-U) / ln(1-p))`). Equivalent to
    /// counting `chance(p)` calls until one returns true, but O(1).
    ///
    /// Requires `0 < p <= 1`; `p >= 1` returns 0 without touching the
    /// stream.
    #[inline]
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0, "geometric requires p > 0");
        if p >= 1.0 {
            return 0;
        }
        self.geometric_ln((1.0 - p).ln())
    }

    /// [`geometric(p)`](Self::geometric) for `0 < p < 1`, given
    /// `ln_q = (1.0 - p).ln()`: a caller drawing many deviates at one
    /// `p` computes that logarithm once. Draw for draw the same values.
    #[inline]
    pub fn geometric_ln(&mut self, ln_q: f64) -> u64 {
        // Guard the log: f64() may return exactly 0.
        let u = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let g = (u.ln() / ln_q).floor();
        if g >= u64::MAX as f64 {
            u64::MAX
        } else {
            g as u64
        }
    }

    /// Binomial deviate: successes in `n` Bernoulli(`p`) trials,
    /// sampled by geometric skips between successes (or between
    /// failures when `p > 1/2`), so the expected number of uniforms is
    /// `n·min(p, 1-p) + 1` rather than `n`. `p <= 0` and `p >= 1`
    /// never touch the stream.
    pub fn binomial(&mut self, n: u64, p: f64) -> u64 {
        if p <= 0.0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        // Count the rarer outcome by skipping over runs of the common
        // one; each skip consumes exactly one uniform.
        let (q, invert) = if p <= 0.5 {
            (p, false)
        } else {
            (1.0 - p, true)
        };
        let ln_q = (1.0 - q).ln();
        let mut rare = 0u64;
        let mut i = self.geometric_ln(ln_q); // trials before the first rare outcome
        while i < n {
            rare += 1;
            i += 1 + self.geometric_ln(ln_q);
        }
        if invert {
            n - rare
        } else {
            rare
        }
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.draws += 1;
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
    /// Takes one word per started 8 bytes, and counts each.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.draws += dest.len().div_ceil(8) as u64;
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.draws += dest.len().div_ceil(8) as u64;
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn determinism_same_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "independent streams should rarely collide");
    }

    #[test]
    fn fork_is_deterministic_but_distinct() {
        let mut parent1 = SimRng::new(5);
        let mut parent2 = SimRng::new(5);
        let mut c1 = parent1.fork(11);
        let mut c2 = parent2.fork(11);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut c3 = parent1.fork(12);
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_statistics() {
        let mut r = SimRng::new(99);
        let hits = (0..20_000).filter(|_| r.chance(0.3)).count() as f64;
        let p_hat = hits / 20_000.0;
        assert!((p_hat - 0.3).abs() < 0.02, "p_hat = {p_hat}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::new(13);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| r.exponential(2.5)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.5).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::new(17);
        let n = 50_000;
        let draws: Vec<f64> = (0..n).map(|_| r.normal(10.0, 3.0)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean = {mean}");
        assert!((var - 9.0).abs() < 0.5, "var = {var}");
    }

    #[test]
    fn poisson_mean() {
        let mut r = SimRng::new(23);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| r.poisson(4.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean = {mean}");
        assert_eq!(r.poisson(0.0), 0);
    }

    #[test]
    fn poisson_large_mean_uses_normal_approx() {
        let mut r = SimRng::new(29);
        let n = 5_000;
        let sum: u64 = (0..n).map(|_| r.poisson(100.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 100.0).abs() < 2.0, "mean = {mean}");
    }

    #[test]
    fn geometric_matches_bernoulli_mean() {
        let mut r = SimRng::new(41);
        let p = 0.2;
        let n = 50_000;
        let sum: u64 = (0..n).map(|_| r.geometric(p)).sum();
        let mean = sum as f64 / n as f64;
        // E[failures before first success] = (1-p)/p = 4.
        assert!((mean - 4.0).abs() < 0.1, "mean = {mean}");
        assert_eq!(r.geometric(1.0), 0);
    }

    #[test]
    fn binomial_moments() {
        let mut r = SimRng::new(43);
        let n_trials = 200u64;
        let p = 0.3;
        let reps = 20_000;
        let draws: Vec<u64> = (0..reps).map(|_| r.binomial(n_trials, p)).collect();
        let mean = draws.iter().sum::<u64>() as f64 / reps as f64;
        let var = draws
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / reps as f64;
        assert!((mean - 60.0).abs() < 0.5, "mean = {mean}"); // n·p
        assert!((var - 42.0).abs() < 2.0, "var = {var}"); // n·p·(1-p)
        assert!(draws.iter().all(|&x| x <= n_trials));
    }

    #[test]
    fn binomial_high_p_uses_inverted_skips() {
        let mut r = SimRng::new(47);
        let reps = 20_000;
        let sum: u64 = (0..reps).map(|_| r.binomial(100, 0.9)).sum();
        let mean = sum as f64 / reps as f64;
        assert!((mean - 90.0).abs() < 0.2, "mean = {mean}");
    }

    #[test]
    fn binomial_extremes_never_touch_the_stream() {
        let mut r = SimRng::new(53);
        let before = r.clone();
        assert_eq!(r.binomial(1000, 0.0), 0);
        assert_eq!(r.binomial(1000, -1.0), 0);
        assert_eq!(r.binomial(1000, 1.0), 1000);
        assert_eq!(r.binomial(1000, 2.0), 1000);
        let mut untouched = before;
        assert_eq!(r.next_u64(), untouched.next_u64(), "stream was consumed");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(31);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn draw_count_tracks_stream_consumption() {
        let mut a = SimRng::new(7);
        assert_eq!(a.draw_count(), 0);
        a.f64();
        a.range_u64(0, 10);
        a.chance(0.5);
        assert_eq!(a.draw_count(), 3);
        // Shortcut paths never touch the stream, so they never count.
        a.chance(0.0);
        a.chance(1.0);
        assert_eq!(a.binomial(100, 0.0), 0);
        assert_eq!(a.draw_count(), 3);
        // Identical call sequences consume identically.
        let mut b = SimRng::new(99);
        b.f64();
        b.range_u64(0, 10);
        b.chance(0.5);
        assert_eq!(a.draw_count(), b.draw_count());
    }

    /// A byte fill counts the words it takes: a twin that makes
    /// `draw_count` calls of `next_u64` ends at the same stream position.
    #[test]
    fn fill_bytes_counts_the_words_it_takes() {
        for len in [0, 1, 8, 9, 33] {
            let (mut filled, mut tried) = (SimRng::new(61), SimRng::new(61));
            filled.fill_bytes(&mut vec![0; len]);
            tried.try_fill_bytes(&mut vec![0; len]).unwrap();
            assert_eq!(filled.draw_count(), tried.draw_count());
            let mut twin = SimRng::new(61);
            for _ in 0..filled.draw_count() {
                twin.next_u64();
            }
            let next = twin.next_u64();
            assert_eq!(filled.next_u64(), next, "fill of {len} bytes");
            assert_eq!(tried.next_u64(), next, "try-fill of {len} bytes");
        }
    }

    #[test]
    fn uniform_bounds() {
        let mut r = SimRng::new(37);
        for _ in 0..1000 {
            let x = r.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&x));
        }
    }

    proptest! {
        /// The bulk draw is `n` single draws: values, draw count and
        /// the stream position afterwards.
        #[test]
        fn prop_fill_range_is_n_single_draws(
            seed in any::<u64>(),
            lo in 0u64..1 << 40,
            span in 1u64..1 << 40,
            n in 0usize..200,
        ) {
            let hi = lo + span;
            let mut bulk = SimRng::new(seed);
            let mut single = SimRng::new(seed);
            let mut got = vec![0u64; n];
            bulk.fill_range_u64(lo, hi, &mut got, |d| d);
            let want: Vec<u64> = (0..n).map(|_| single.range_u64(lo, hi)).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(bulk.draw_count(), single.draw_count());
            prop_assert_eq!(bulk.next_u64(), single.next_u64());
        }

        /// Skipping `n` draws is `n` single draws and `n` bulk draws:
        /// the draw count and the next value agree. A rand shim whose
        /// `gen_range` took more than one word per call would fail here
        /// rather than silently move every frame digest.
        #[test]
        fn prop_skip_is_n_single_draws(
            seed in any::<u64>(),
            span in 1u64..1 << 40,
            n in 0usize..5000,
        ) {
            let mut skipped = SimRng::new(seed);
            let mut bulk = SimRng::new(seed);
            let mut single = SimRng::new(seed);
            skipped.skip(n as u64);
            bulk.fill_range_u64(0, span, &mut vec![0u64; n], |d| d);
            for _ in 0..n {
                single.range_u64(0, span);
            }
            prop_assert_eq!(skipped.draw_count(), n as u64);
            prop_assert_eq!(skipped.draw_count(), bulk.draw_count());
            prop_assert_eq!(skipped.draw_count(), single.draw_count());
            let next = skipped.range_u64(0, span);
            prop_assert_eq!(next, bulk.range_u64(0, span));
            prop_assert_eq!(next, single.range_u64(0, span));
        }

        /// The precomputed-logarithm geometric is `geometric(p)`, draw
        /// for draw.
        #[test]
        fn prop_geometric_ln_is_geometric(seed in any::<u64>(), p_bits in 1u64..1 << 53) {
            let p = p_bits as f64 / (1u64 << 53) as f64;
            let ln_q = (1.0 - p).ln();
            let mut a = SimRng::new(seed);
            let mut b = SimRng::new(seed);
            for _ in 0..64 {
                prop_assert_eq!(a.geometric_ln(ln_q), b.geometric(p));
            }
            prop_assert_eq!(a.draw_count(), b.draw_count());
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
