//! Deterministic random numbers.
//!
//! Every stochastic choice in the emulator (workload key selection, device
//! self-test jitter, fault injection) draws from a [`DetRng`] seeded at system
//! construction. Identical seeds therefore reproduce identical event traces —
//! the property the rest of the test suite leans on.

/// A seeded deterministic RNG with convenience helpers and cheap splitting.
///
/// Splitting derives an independent child stream from the parent, so each
/// device can own a private RNG without global draw-order coupling: adding a
/// draw in one device does not perturb another device's stream.
///
/// The generator is xoshiro256++ seeded through a SplitMix64 expansion —
/// self-contained, allocation-free, and identical across platforms, which is
/// exactly the reproducibility property the test suite leans on.
pub struct DetRng {
    state: [u64; 4],
    seed: u64,
}

/// SplitMix64 step: advances `x` and returns a well-mixed output word.
#[inline]
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // Expand the 64-bit seed into 256 bits of state via SplitMix64, the
        // construction recommended by the xoshiro authors. The state of a
        // SplitMix64-seeded xoshiro256++ is never all-zero.
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { state, seed }
    }

    /// The seed this stream was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream identified by `salt`.
    ///
    /// The same `(seed, salt)` pair always yields the same child stream.
    pub fn split(&self, salt: u64) -> DetRng {
        // SplitMix64 finalizer mixes seed and salt into a well-distributed
        // child seed; this is the standard construction for seed derivation.
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(salt.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        DetRng::new(z)
    }

    /// A uniform `u64` (xoshiro256++ output function).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "DetRng::below(0)");
        // Widening-multiply rejection (Lemire): unbiased and nearly always a
        // single draw for the bounds we use.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "DetRng::range: empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 high bits scaled into [0, 1): the standard double conversion.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Fills `buf` with uniform bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let w = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&w[..rem.len()]);
        }
    }
}

/// A Zipfian rank sampler over `[0, n)` with exponent `theta`: the classic
/// YCSB generator (Gray et al.'s approximation), accurate enough for
/// workload-skew modelling and allocation-free. `theta = 0` degenerates to
/// uniform; YCSB's default skew is `theta = 0.99`.
///
/// The harmonic number ζ(n, θ) costs `min(n, 10 000)` `powf` calls, so every
/// constant that depends only on `(n, θ)` is computed once here and a draw
/// is O(1). The constants are derived state: holders rebuild the sampler
/// from `(n, θ)` instead of snapshotting it.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    /// `None` for `theta ≈ 0`, where draws are uniform.
    skew: Option<Skew>,
}

#[derive(Debug, Clone)]
struct Skew {
    zeta: f64,
    alpha: f64,
    eta: f64,
    /// `1 + 0.5^θ`: below this (scaled) the draw is rank 1.
    rank1_below: f64,
}

impl Zipf {
    /// A sampler for `n` ranks with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is outside `[0, 1)` (see
    /// [`Zipf::try_new`]).
    pub fn new(n: u64, theta: f64) -> Self {
        Self::try_new(n, theta).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Zipf::new`] for parameters read from outside the program (a
    /// checkpoint): the rejection comes back as a message instead of a
    /// panic.
    ///
    /// `theta = 1` makes `alpha = 1 / (1 - theta)` infinite and the
    /// `n > 10 000` tail of ζ NaN, and the generator is not defined above
    /// it, so only `[0, 1)` is accepted (NaN is not).
    pub fn try_new(n: u64, theta: f64) -> Result<Self, String> {
        if n == 0 {
            return Err("Zipf: n must be at least 1, got 0".into());
        }
        if !(0.0..1.0).contains(&theta) {
            return Err(format!("Zipf: theta must be in [0, 1), got {theta}"));
        }
        let skew = (theta > f64::EPSILON).then(|| {
            let zeta_n = zeta(n, theta);
            Skew {
                zeta: zeta_n,
                alpha: 1.0 / (1.0 - theta),
                eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2, theta) / zeta_n),
                rank1_below: 1.0 + 0.5f64.powf(theta),
            }
        });
        Ok(Zipf { n, skew })
    }

    /// Draws one rank in `[0, n)`, consuming exactly one draw of `rng`.
    #[inline]
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        let Some(s) = &self.skew else {
            return rng.below(self.n);
        };
        let u = rng.unit();
        let uz = u * s.zeta;
        if uz < 1.0 {
            return 0;
        }
        if uz < s.rank1_below {
            return 1;
        }
        ((self.n as f64 * (s.eta * u - s.eta + 1.0).powf(s.alpha)) as u64).min(self.n - 1)
    }
}

/// Harmonic number H_{n,theta}, capped for cost: beyond the cap the tail
/// contribution is negligible for the skews we use.
fn zeta(n: u64, theta: f64) -> f64 {
    let cap = n.min(10_000);
    let mut sum = 0.0;
    for i in 1..=cap {
        sum += 1.0 / (i as f64).powf(theta);
    }
    if n > cap {
        // Integral approximation of the tail.
        let a = cap as f64;
        let b = n as f64;
        sum += (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta);
    }
    sum
}

impl lastcpu_snap::Snapshot for DetRng {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        for s in self.state {
            w.put_u64(s);
        }
        w.put_u64(self.seed);
    }
}

impl lastcpu_snap::Restore for DetRng {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        let mut state = [0u64; 4];
        for s in &mut state {
            *s = r.u64()?;
        }
        self.seed = r.u64()?;
        self.state = state;
        Ok(())
    }
}

impl std::fmt::Debug for DetRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DetRng(seed={})", self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn split_is_deterministic_and_independent() {
        let parent = DetRng::new(99);
        let mut c1 = parent.split(5);
        let mut c2 = parent.split(5);
        let c3 = parent.split(6);
        assert_eq!(c1.next_u64(), c2.next_u64());
        assert_ne!(c1.seed(), c3.seed());
    }

    #[test]
    fn below_stays_in_bounds() {
        let mut r = DetRng::new(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        // Out-of-range probabilities are clamped, not UB.
        assert!(r.chance(2.0));
        assert!(!r.chance(-1.0));
    }

    /// The generator as it was before [`Zipf`]: every constant recomputed
    /// per draw. Kept only as the oracle the sampler must match bit for
    /// bit, because every seeded artifact in the repo depends on the
    /// sequence.
    fn zipf_per_draw(rng: &mut DetRng, n: u64, theta: f64) -> u64 {
        if theta <= f64::EPSILON {
            return rng.below(n);
        }
        let n_f = n as f64;
        let zeta_n = zeta(n, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n_f).powf(1.0 - theta)) / (1.0 - zeta(2, theta) / zeta_n);
        let u = rng.unit();
        let uz = u * zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(theta) {
            return 1;
        }
        ((n_f * (eta * u - eta + 1.0).powf(alpha)) as u64).min(n - 1)
    }

    fn draws(seed: u64, n: u64, theta: f64, count: usize) -> Vec<u64> {
        let z = Zipf::new(n, theta);
        let mut r = DetRng::new(seed);
        (0..count).map(|_| z.sample(&mut r)).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn zipf_matches_per_draw_oracle(seed: u64, n in 1u64..=50_000, theta in 0.0f64..0.999) {
            let z = Zipf::new(n, theta);
            let mut a = DetRng::new(seed);
            let mut b = DetRng::new(seed);
            for i in 0..16 {
                proptest::prop_assert_eq!(
                    z.sample(&mut a),
                    zipf_per_draw(&mut b, n, theta),
                    "draw {} of (seed {}, n {}, theta {})", i, seed, n, theta
                );
            }
            // Same number of generator steps consumed.
            proptest::prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zipf_matches_oracle_around_the_uniform_cutoff() {
        for theta in [0.0, f64::EPSILON, 2.0 * f64::EPSILON, 1e-9] {
            for n in [1, 2, 3, 400, 10_001] {
                let mut b = DetRng::new(17);
                let want: Vec<u64> = (0..64).map(|_| zipf_per_draw(&mut b, n, theta)).collect();
                assert_eq!(draws(17, n, theta, 64), want, "n {n} theta {theta}");
            }
        }
    }

    // Recorded from the per-draw generator at the commit before `Zipf`.
    #[test]
    fn zipf_golden_draws_ycsb_shape() {
        assert_eq!(
            draws(5, 400, 0.99, 32),
            [
                3, 29, 0, 0, 16, 54, 10, 0, 183, 150, 214, 189, 256, 8, 27, 353, 68, 41, 0, 18, 10,
                2, 50, 11, 0, 41, 11, 238, 1, 239, 0, 325
            ]
        );
        // n past the 10 000-term cap takes the integral tail of zeta.
        assert_eq!(
            draws(9, 50_000, 0.5, 32),
            [
                18002, 9295, 2013, 39081, 254, 926, 8888, 2367, 33427, 26366, 45519, 22823, 6142,
                3706, 10690, 39586, 16677, 39605, 9058, 1880, 48718, 2084, 13133, 2781, 3577, 1163,
                10495, 35783, 8925, 30603, 212, 614
            ]
        );
    }

    #[test]
    fn zipf_golden_draws_uniform_branch() {
        assert_eq!(
            draws(5, 400, 0.0, 32),
            [
                116, 244, 39, 23, 210, 281, 183, 27, 353, 341, 362, 355, 373, 175, 239, 392, 294,
                264, 34, 216, 186, 95, 276, 187, 28, 264, 191, 368, 62, 369, 23, 387
            ]
        );
    }

    #[test]
    fn zipf_skews_towards_small_ranks() {
        let n = 1000u64;
        let all = draws(5, n, 0.99, 20_000);
        assert!(all.iter().all(|&v| v < n));
        let head = all.iter().filter(|&&v| v < n / 10).count();
        // With theta=0.99 the hottest 10% of keys should receive well over
        // half the draws; uniform would give ~10%.
        assert!(
            head as f64 / all.len() as f64 > 0.5,
            "head share {head}/{}",
            all.len()
        );
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let mut counts = [0u32; 10];
        for v in draws(6, 10, 0.0, 10_000) {
            counts[v as usize] += 1;
        }
        for &c in &counts {
            assert!((600..1500).contains(&c), "count {c} far from uniform");
        }
    }

    #[test]
    fn zipf_rejects_bad_parameters_loudly() {
        assert!(Zipf::try_new(0, 0.5).unwrap_err().contains("n must be"));
        for theta in [1.0, 1.5, -0.1, f64::NAN, f64::INFINITY] {
            let e = Zipf::try_new(400, theta).unwrap_err();
            assert!(e.contains("theta must be in [0, 1)"), "{theta}: {e}");
        }
        assert!(Zipf::try_new(1, 0.0).is_ok());
        assert!(Zipf::try_new(u64::MAX, 0.999_999).is_ok());
    }

    #[test]
    #[should_panic(expected = "theta must be in [0, 1), got 1")]
    fn zipf_new_panics_on_theta_one() {
        let _ = Zipf::new(400, 1.0);
    }
}
