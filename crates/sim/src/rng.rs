//! Deterministic pseudo-random number generation.
//!
//! Every experiment harness carries an explicit seed; all stochastic workload
//! decisions (request inter-arrival jitter, service times, domain
//! popularity) flow from a [`Rng`] derived from that seed, making every
//! figure regeneration byte-for-byte reproducible. Skewed popularity is
//! drawn through a [`Zipf`] table built once per distribution.
//!
//! The generator is xoshiro256\*\* (Blackman & Vigna), seeded through
//! SplitMix64 as its authors recommend. Both are implemented here directly so
//! the simulation core has no external dependencies.

/// A deterministic xoshiro256\*\* pseudo-random number generator.
///
/// # Example
///
/// ```
/// use xc_sim::rng::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: [u64; 4],
}

/// SplitMix64 step, used for seeding and for hash-style stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Any seed (including zero) produces a valid, full-period stream: the
    /// internal state is expanded through SplitMix64, which never yields the
    /// all-zero state for four consecutive outputs.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Creates the `stream`-th generator of the family rooted at `seed`
    /// (SplitMix64 stream-splitting).
    ///
    /// Parallel experiment runners hand shard `i` of a sharded experiment
    /// `Rng::substream(seed, i)`: every shard gets a decorrelated stream
    /// that depends only on `(seed, stream)`, never on which worker thread
    /// runs it or in what order — so sharded results merge bit-for-bit
    /// identically regardless of parallelism.
    ///
    /// `substream(seed, s)` never equals `Rng::new(seed)` for any `s`:
    /// the stream index is pushed through an extra SplitMix64 scramble
    /// before seeding.
    pub fn substream(seed: u64, stream: u64) -> Rng {
        // Scramble the stream index on its own first, then mix with the
        // seed through a second SplitMix64 pass. Two rounds decorrelate
        // (seed, stream) pairs that differ in few bits (0, 1, 2, …).
        let mut s = stream.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let scrambled = splitmix64(&mut s);
        let mut mixed = seed ^ scrambled.rotate_left(23);
        Rng::new(splitmix64(&mut mixed))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        // Lemire 2019: unbiased bounded generation.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_inclusive requires lo <= hi");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fills `out` with uniform `f64`s in `[0, 1)` — the exact sequence
    /// `out.len()` calls to [`Rng::next_f64`] would produce, drawn in
    /// one pass. Hot loops that consume one uniform per event (e.g. the
    /// closed-loop service jitter) refill a small slab through this
    /// instead of paying a generator round-trip per draw.
    #[inline]
    pub fn next_f64_batch(&mut self, out: &mut [f64]) {
        for slot in out {
            *slot = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        }
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Exponentially distributed value with the given mean.
    ///
    /// Used for open-loop arrival processes (Poisson arrivals).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean >= 0.0);
        // Avoid ln(0); next_f64 is in [0,1) so 1-x is in (0,1].
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.next_below(items.len() as u64) as usize]
    }

    /// Samples an index according to a slice of non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "pick_weighted from empty weights");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "pick_weighted requires positive total weight");
        let mut x = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

/// Number of 53-bit draws: `next_u64() >> 11` is always below it.
const DRAWS: u64 = 1 << 53;

/// Skewed rank selection over `n` items, tabulated once per `(n, θ)`.
///
/// The distribution is `P(rank < k) = (k/n)^(1−θ)` for `k` in `1..=n`,
/// with `θ` clamped to `[0, 0.999]`; `θ = 0` is uniform. Inverse-power
/// sampling gives it: a 53-bit draw `m`, read as `u = m·2⁻⁵³`, has rank
/// `min(⌊n·u^(1/(1−θ))⌋, n − 1)`.
///
/// That closed form costs a `powf` and a division per draw, so `Zipf`
/// evaluates it only when it is built. For each rank `k` in `1..n` it
/// stores the *cut*: the smallest draw whose closed-form rank is at least
/// `k`, found by bisecting the draw space with the closed form itself as
/// the test. [`sample`](Zipf::sample) takes one `next_u64` and counts the
/// cuts at or below its draw, which is the rank the closed form returns
/// for that draw on this platform. Away from a cut, `n·u^(1/(1−θ))` is
/// far from an integer compared with `powf`'s rounding error, so the floor
/// cannot flip; the tests compare the draws around every cut one by one.
///
/// # Example
///
/// ```
/// use xc_sim::rng::{Rng, Zipf};
///
/// let domains = Zipf::new(24, 0.2); // built once
/// let mut rng = Rng::new(7);
/// let hits = (0..1_000).filter(|_| domains.sample(&mut rng) < 12).count();
/// assert!(hits > 500); // the first half of the ranks draws more than half
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Zipf {
    /// `cuts[k − 1]` is the smallest 53-bit draw whose rank is at least
    /// `k` (`DRAWS` if no draw reaches it).
    cuts: Vec<u64>,
}

impl Zipf {
    /// Tabulates the distribution over `n` items with skew `theta`,
    /// clamped to `[0, 0.999]` (so `±∞` clamps to an end).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is NaN.
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n > 0, "zipf over empty domain");
        assert!(!theta.is_nan(), "zipf skew theta is NaN");
        let theta = theta.clamp(0.0, 0.999);
        let exp = 1.0 / (1.0 - theta);
        let cuts = (1..n)
            .map(|k| {
                let guess = (k as f64 / n as f64).powf(1.0 - theta) * DRAWS as f64;
                first_reaching(guess as u64, |m| {
                    m == DRAWS || closed_form_rank(n, exp, m) >= k
                })
            })
            .collect();
        Zipf { cuts }
    }

    /// Draws a rank in `[0, n)`, consuming exactly one `next_u64`.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let m = rng.next_u64() >> 11;
        self.cuts.partition_point(|&cut| cut <= m) as u64
    }
}

/// Inverse-power rank of the 53-bit draw `m` over `n` items, with the
/// arithmetic of `Rng::next_f64` and exponent `exp = 1/(1−θ)`.
fn closed_form_rank(n: u64, exp: f64, m: u64) -> u64 {
    let u = m as f64 * (1.0 / DRAWS as f64);
    let rank = ((n as f64) * u.powf(exp)).floor() as u64;
    rank.min(n - 1)
}

/// Smallest `m` in `[0, DRAWS]` for which `reaches(m)` holds, given that
/// `reaches` is monotone, false at 0 and true at `DRAWS`. Widens a window
/// around `guess` until it brackets the answer, then bisects.
fn first_reaching(guess: u64, reaches: impl Fn(u64) -> bool) -> u64 {
    let mut step = 1;
    let (mut lo, mut hi) = loop {
        let (lo, hi) = (guess.saturating_sub(step), (guess + step).min(DRAWS));
        if !reaches(lo) && reaches(hi) {
            break (lo, hi);
        }
        step *= 2;
    };
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if reaches(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    impl Rng {
        /// The per-draw closed form [`Zipf`] tabulates: the reference
        /// every `Zipf` test compares against.
        fn zipf(&mut self, n: u64, theta: f64) -> u64 {
            assert!(n > 0, "zipf over empty domain");
            let u = self.next_f64();
            let exp = 1.0 / (1.0 - theta.clamp(0.0, 0.999));
            let rank = ((n as f64) * u.powf(exp)).floor() as u64;
            rank.min(n - 1)
        }
    }

    /// A generator whose next `next_u64` returns `x`: xoshiro256** outputs
    /// `rotl(s1·5, 7)·9`, and 5 and 9 are invertible mod 2⁶⁴.
    fn yielding(x: u64) -> Rng {
        const INV9: u64 = 0x8e38_e38e_38e3_8e39;
        const INV5: u64 = 0xcccc_cccc_cccc_cccd;
        let s1 = x.wrapping_mul(INV9).rotate_right(7).wrapping_mul(INV5);
        let rng = Rng {
            state: [1, s1, 2, 3],
        };
        assert_eq!(rng.clone().next_u64(), x);
        rng
    }

    /// Checks every draw within ±4 096 of each cut against the reference,
    /// and that rank `k` really starts at `cuts[k − 1]`.
    fn assert_exact_around_cuts(n: u64, theta: f64) {
        let z = Zipf::new(n, theta);
        assert_eq!(z.cuts.len() as u64, n - 1);
        for (k, &cut) in (1..).zip(&z.cuts) {
            assert!(
                yielding((cut - 1) << 11).zipf(n, theta) < k,
                "cut {k} too late"
            );
            assert!(yielding(cut << 11).zipf(n, theta) >= k, "cut {k} too early");
            for m in cut - 4_096..=(cut + 4_096).min(DRAWS - 1) {
                // The low 11 bits are discarded; vary them anyway.
                let x = m << 11 | (m & 0x7ff);
                assert_eq!(
                    z.sample(&mut yielding(x)),
                    yielding(x).zipf(n, theta),
                    "({n}, {theta}): draw {m} near cut {k} at {cut}"
                );
            }
        }
    }

    #[test]
    fn deterministic_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be nearly disjoint");
    }

    #[test]
    fn substreams_are_deterministic_and_disjoint() {
        let mut a = Rng::substream(2019, 3);
        let mut b = Rng::substream(2019, 3);
        let mut c = Rng::substream(2019, 4);
        let mut d = Rng::substream(2020, 3);
        let mut same_c = 0;
        let mut same_d = 0;
        for _ in 0..64 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64(), "same (seed, stream) must agree");
            if x == c.next_u64() {
                same_c += 1;
            }
            if x == d.next_u64() {
                same_d += 1;
            }
        }
        assert!(same_c < 4, "adjacent streams must be nearly disjoint");
        assert!(same_d < 4, "adjacent seeds must be nearly disjoint");
    }

    #[test]
    fn substream_is_not_the_root_stream() {
        let first = Rng::new(7).next_u64();
        for stream in 0..32 {
            assert_ne!(
                Rng::substream(7, stream).next_u64(),
                first,
                "stream {stream} collides with Rng::new"
            );
        }
    }

    #[test]
    fn bounded_values_in_range() {
        let mut r = Rng::new(5);
        for _ in 0..10_000 {
            assert!(r.next_below(10) < 10);
            let v = r.range_inclusive(5, 9);
            assert!((5..=9).contains(&v));
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(11);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn bounded_uniformity_rough() {
        let mut r = Rng::new(17);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.next_below(8) as usize] += 1;
        }
        for c in counts {
            // Each bucket expects 10_000; allow 5% deviation.
            assert!((9_500..10_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn exponential_mean_rough() {
        let mut r = Rng::new(23);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.exponential(250.0)).sum();
        let mean = sum / n as f64;
        assert!((240.0..260.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut r = Rng::new(31);
        let z = Zipf::new(1000, 0.9);
        let mut head = 0u32;
        for _ in 0..10_000 {
            let v = z.sample(&mut r);
            assert!(v < 1000);
            if v < 100 {
                head += 1;
            }
        }
        // With strong skew, the top decile should absorb most draws.
        assert!(head > 5_000, "head draws {head}");
    }

    #[test]
    fn zipf_table_is_exact_around_every_cut() {
        assert_exact_around_cuts(24, 0.2); // cluster_study
        assert_exact_around_cuts(6, 0.2); // cluster_study --quick
    }

    #[test]
    fn uniform_zipf_matches_reference_at_exact_boundaries() {
        for n in [2, 3, 6, 7, 24, 100, 511] {
            let z = Zipf::new(n, 0.0);
            for k in 1..n {
                let first = (k << 53).div_ceil(n);
                for m in [first - 1, first] {
                    assert_eq!(
                        z.sample(&mut yielding(m << 11)),
                        yielding(m << 11).zipf(n, 0.0),
                        "n {n}, k {k}, draw {m}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_item_zipf_has_no_cuts() {
        for theta in [0.0, 0.2, 0.999] {
            let z = Zipf::new(1, theta);
            assert!(z.cuts.is_empty());
            for x in [0, 0x0123_4567_89ab_cdef, u64::MAX] {
                assert_eq!(z.sample(&mut yielding(x)), 0);
            }
        }
    }

    #[test]
    fn zipf_sample_consumes_one_draw() {
        let z = Zipf::new(24, 0.2);
        let mut sampled = Rng::new(5);
        let mut advanced = sampled.clone();
        for _ in 0..100 {
            z.sample(&mut sampled);
            advanced.next_u64();
            assert_eq!(sampled, advanced);
        }
    }

    #[test]
    fn zipf_clamps_theta() {
        assert_eq!(Zipf::new(24, f64::INFINITY), Zipf::new(24, 0.999));
        assert_eq!(Zipf::new(24, 1.5), Zipf::new(24, 0.999));
        assert_eq!(Zipf::new(24, f64::NEG_INFINITY), Zipf::new(24, 0.0));
        assert_eq!(Zipf::new(24, -0.5), Zipf::new(24, 0.0));
    }

    #[test]
    #[should_panic(expected = "zipf over empty domain")]
    fn zipf_over_no_items_panics() {
        let _ = Zipf::new(0, 0.2);
    }

    #[test]
    #[should_panic(expected = "zipf skew theta is NaN")]
    fn zipf_rejects_nan_theta() {
        let _ = Zipf::new(24, f64::NAN);
    }

    proptest! {
        /// Any table size and skew, both clamps included, ranks a stream
        /// of draws exactly as the closed form does.
        #[test]
        fn zipf_sample_matches_closed_form(
            n in 1u64..=512,
            theta in -0.5f64..1.5,
            seed in any::<u64>(),
        ) {
            let z = Zipf::new(n, theta);
            let mut sampled = Rng::new(seed);
            let mut reference = sampled.clone();
            for _ in 0..256 {
                prop_assert_eq!(z.sample(&mut sampled), reference.zipf(n, theta));
            }
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(41);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_pick_respects_weights() {
        let mut r = Rng::new(43);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[r.pick_weighted(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((2.7..3.3).contains(&ratio), "ratio {ratio}");
    }
}
