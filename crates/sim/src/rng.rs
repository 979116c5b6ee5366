//! Deterministic random-number plumbing.
//!
//! Every stochastic decision in RAMP (trace generation, fault injection,
//! Monte-Carlo trials) derives from a single root seed through
//! [`SimRng`], so whole experiments replay bit-for-bit. Child generators are
//! derived with a stream label so that adding randomness to one component
//! never perturbs another.
//!
//! The generator is implemented in-tree (xoshiro256++ state, expanded from
//! the seed with SplitMix64) so the workspace builds with zero external
//! dependencies and the streams are stable across toolchains forever.

/// The xoshiro256++ core: 256 bits of state, public-domain algorithm by
/// Blackman and Vigna. Small, fast, and passes BigCrush — more than enough
/// for simulation workloads.
#[derive(Debug, Clone)]
struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seeds the state with four successive SplitMix64 outputs, the
    /// initialization the xoshiro authors recommend.
    fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            *slot = mix64(x);
        }
        Xoshiro256pp { s }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
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
        out
    }
}

/// A labeled, deterministic random-number generator.
///
/// ```
/// use ramp_sim::rng::SimRng;
/// let mut a = SimRng::from_seed(42);
/// let mut b = SimRng::from_seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Children with different labels are decorrelated but reproducible.
/// let mut c1 = SimRng::from_seed(42).child("traces");
/// let mut c2 = SimRng::from_seed(42).child("faults");
/// assert_ne!(c1.next_u64(), c2.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    inner: Xoshiro256pp,
}

impl SimRng {
    /// Creates a generator from a root seed.
    pub fn from_seed(seed: u64) -> Self {
        SimRng {
            seed,
            inner: Xoshiro256pp::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator for the component `label`.
    ///
    /// The child's stream depends only on the parent's *seed* and the label,
    /// never on how much randomness the parent has already consumed.
    pub fn child(&self, label: &str) -> SimRng {
        let child_seed = splitmix(self.seed ^ fnv1a(label.as_bytes()));
        SimRng::from_seed(child_seed)
    }

    /// Derives an independent child generator for an indexed component
    /// (e.g. per-core trace streams).
    pub fn child_indexed(&self, label: &str, index: u64) -> SimRng {
        let child_seed = splitmix(self.seed ^ fnv1a(label.as_bytes()) ^ splitmix(index));
        SimRng::from_seed(child_seed)
    }

    /// The root seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The full generator state `(seed, xoshiro words)`, for
    /// checkpointing. Restoring via [`SimRng::from_state`] resumes the
    /// stream exactly where it left off.
    pub fn state(&self) -> (u64, [u64; 4]) {
        (self.seed, self.inner.s)
    }

    /// Rebuilds a generator from a state captured by [`SimRng::state`].
    pub fn from_state(seed: u64, s: [u64; 4]) -> Self {
        SimRng {
            seed,
            inner: Xoshiro256pp { s },
        }
    }

    /// A uniformly random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// A uniformly random value in `[0, bound)` (Lemire's unbiased
    /// multiply-and-reject method).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Widening multiply maps next_u64 onto [0, bound); rejecting the
        // low-product tail removes the modulo bias. The rejection threshold
        // (2^64 mod bound) is below `bound`, so a draw whose low half is at
        // least `bound` is accepted without computing the threshold — the
        // division runs only on the ~bound/2^64 tail, not per call.
        let mut m = (self.inner.next_u64() as u128) * (bound as u128);
        if (m as u64) < bound {
            let threshold = bound.wrapping_neg() % bound;
            while (m as u64) < threshold {
                m = (self.inner.next_u64() as u128) * (bound as u128);
            }
        }
        (m >> 64) as u64
    }

    /// A uniformly random `f64` in `[0, 1)` (53 high bits of a `u64`).
    pub fn unit(&mut self) -> f64 {
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// A Poisson-distributed sample with mean `lambda`.
    ///
    /// Uses Knuth's product method for small lambda and a normal
    /// approximation (clamped at zero) for large lambda; adequate for fault
    /// arrival counts where lambda spans many orders of magnitude.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(lambda >= 0.0, "poisson mean must be non-negative");
        if lambda == 0.0 {
            return 0;
        }
        if lambda < 30.0 {
            let l = (-lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= self.unit();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            // Normal approximation N(lambda, lambda).
            let z = self.standard_normal();
            let v = lambda + z * lambda.sqrt();
            if v < 0.0 {
                0
            } else {
                v.round() as u64
            }
        }
    }

    /// A standard normal sample (Box-Muller).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = self.unit().max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Samples a geometric-like burst length in `[1, max]` with mean roughly
    /// `mean` (clamped). Useful for modeling bursty access runs.
    pub fn burst_len(&mut self, mean: f64, max: u64) -> u64 {
        assert!(max >= 1);
        let p = (1.0 / mean.max(1.0)).clamp(1e-9, 1.0);
        let mut n = 1;
        while n < max && !self.chance(p) {
            n += 1;
        }
        n
    }
}

/// A Zipf(α) sampler over `0..n` using inverse-CDF on a precomputed table.
///
/// Rank 0 is the most popular element. Used for skewed page popularity in
/// the synthetic workload generator.
///
/// ```
/// use ramp_sim::rng::{SimRng, Zipf};
/// let z = Zipf::new(100, 1.0);
/// let mut rng = SimRng::from_seed(7);
/// let mut hits0 = 0;
/// for _ in 0..1000 {
///     if z.sample(&mut rng) == 0 {
///         hits0 += 1;
///     }
/// }
/// assert!(hits0 > 100); // rank 0 dominates
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// Bucket index over `u`: `bucket[b]` is the first rank whose CDF value
    /// is `>= b / (bucket.len() - 1)`. Narrows the inverse-CDF search to a
    /// handful of ranks (usually zero or one comparison). Empty when the
    /// CDF is not strictly increasing, in which case `sample` falls back to
    /// the plain binary search.
    bucket: Vec<u32>,
}

impl Zipf {
    /// Buckets per rank in the index (clamped to [`Zipf::MAX_BUCKETS`]).
    const BUCKETS_PER_RANK: usize = 2;
    /// Upper bound on index size, to cap memory for huge rank counts.
    const MAX_BUCKETS: usize = 1 << 18;

    /// Builds a sampler over `n` ranks with exponent `alpha`.
    ///
    /// `alpha == 0` degenerates to the uniform distribution.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `alpha < 0`.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(alpha >= 0.0, "zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        let strict = cdf.windows(2).all(|w| w[0] < w[1]);
        let bucket = if strict && n <= u32::MAX as usize {
            // Power-of-two bucket count: `u * k` and the edges `b / k` are
            // then exact in f64 (pure exponent scaling), so the computed
            // bucket is exactly floor(u * k) — no edge corrections needed
            // in `sample`.
            let k = (n * Self::BUCKETS_PER_RANK)
                .next_power_of_two()
                .min(Self::MAX_BUCKETS);
            let mut bucket = Vec::with_capacity(k + 1);
            // One merge walk: both the edges b/k and the CDF are ascending,
            // so each bucket[b] = partition_point(cdf, < b/k) is found by
            // advancing a single cursor.
            let mut i = 0usize;
            for b in 0..=k {
                let edge = b as f64 / k as f64;
                while i < n && cdf[i] < edge {
                    i += 1;
                }
                bucket.push(i as u32);
            }
            bucket
        } else {
            Vec::new()
        };
        Zipf { cdf, bucket }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// `true` if the sampler has a single rank.
    pub fn is_empty(&self) -> bool {
        false // construction guarantees n > 0
    }

    /// Draws a rank in `0..n`.
    ///
    /// With a strictly increasing CDF the answer is the partition point of
    /// `cdf[i] < u`, which the bucket index brackets to `[lo, hi]`; the
    /// narrowed search returns the identical rank the full binary search
    /// would (the partition point is unique), it just skips the cold
    /// probes of a large CDF table.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.unit();
        let last = self.cdf.len() - 1;
        if !self.bucket.is_empty() {
            // k is a power of two, so `u * k` is exact and truncation is
            // exactly floor(u * k): with u in [0, 1), b is in [0, k) and
            // the bucket's edges bracket u by construction.
            let k = self.bucket.len() - 1;
            let b = (u * k as f64) as usize;
            let lo = self.bucket[b] as usize;
            let hi = self.bucket[b + 1] as usize;
            let i = lo + self.cdf[lo..hi].partition_point(|&p| p < u);
            return i.min(last);
        }
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).unwrap_or(std::cmp::Ordering::Less))
        {
            Ok(i) => i,
            Err(i) => i.min(last),
        }
    }

    /// Probability mass of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

fn splitmix(x: u64) -> u64 {
    mix64(x.wrapping_add(0x9e37_79b9_7f4a_7c15))
}

/// The SplitMix64 finalizer: a strong 64-bit bijective mixer. Exposed so
/// other subsystems (e.g. [`crate::exec`]'s per-task seed derivation) can
/// decorrelate integer streams the same way [`SimRng::child_indexed`] does.
pub fn mix64(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_streams() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn children_independent_of_parent_consumption() {
        let mut parent1 = SimRng::from_seed(9);
        let parent2 = SimRng::from_seed(9);
        let _ = parent1.next_u64(); // consume some randomness
        let mut c1 = parent1.child("x");
        let mut c2 = parent2.child("x");
        assert_eq!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn indexed_children_distinct() {
        let root = SimRng::from_seed(5);
        let mut a = root.child_indexed("core", 0);
        let mut b = root.child_indexed("core", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_in_range() {
        let mut rng = SimRng::from_seed(3);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn below_zero_panics() {
        SimRng::from_seed(0).below(0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::from_seed(11);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn poisson_mean_is_close() {
        let mut rng = SimRng::from_seed(13);
        for &lambda in &[0.5, 5.0, 100.0] {
            let n = 20_000;
            let sum: u64 = (0..n).map(|_| rng.poisson(lambda)).sum();
            let mean = sum as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.1,
                "lambda={lambda} mean={mean}"
            );
        }
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn zipf_is_monotonically_skewed() {
        let z = Zipf::new(50, 1.2);
        let mut rng = SimRng::from_seed(17);
        let mut counts = vec![0u64; 50];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[40]);
        // pmf sums to one.
        let total: f64 = (0..50).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_alpha_zero_is_uniformish() {
        let z = Zipf::new(10, 0.0);
        let mut rng = SimRng::from_seed(23);
        let mut counts = vec![0u64; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 1_500.0);
        }
    }

    #[test]
    fn zipf_bucket_index_matches_plain_binary_search() {
        // The bucket index must return exactly the rank the unindexed
        // binary search would, for every draw.
        for &(n, alpha) in &[(1usize, 1.0), (3, 0.0), (50, 1.2), (4096, 0.8)] {
            let indexed = Zipf::new(n, alpha);
            assert!(
                n == 1 || !indexed.bucket.is_empty(),
                "strictly-increasing CDF must build an index (n={n})"
            );
            let mut plain = indexed.clone();
            plain.bucket = Vec::new();
            let mut rng_a = SimRng::from_seed(0xfeed);
            let mut rng_b = SimRng::from_seed(0xfeed);
            for _ in 0..20_000 {
                assert_eq!(indexed.sample(&mut rng_a), plain.sample(&mut rng_b));
            }
        }
    }

    #[test]
    fn burst_len_bounds() {
        let mut rng = SimRng::from_seed(29);
        for _ in 0..100 {
            let b = rng.burst_len(4.0, 16);
            assert!((1..=16).contains(&b));
        }
    }
}
