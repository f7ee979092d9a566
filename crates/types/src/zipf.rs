//! Skewed access-pattern generation (the workload model of §5.1).
//!
//! The paper drives both the client read pattern and the server update
//! pattern from Zipf distributions with parameter `θ` over sub-ranges of
//! the broadcast set, with an *offset* parameter that shifts one
//! distribution relative to the other to model disagreement between what
//! clients read and what the server updates.
//!
//! [`ZipfSampler`] samples ranks from a finite Zipf distribution;
//! [`AccessPattern`] maps sampled ranks onto item identifiers within a
//! range and applies the offset shift.

use std::sync::Arc;

use rand::Rng;

use crate::error::BpushError;
use crate::ids::ItemId;

/// A finite Zipf(θ) distribution over ranks `0..n` (rank 0 hottest).
///
/// Probability of rank `i` is proportional to `1 / (i + 1)^θ`. `θ = 0`
/// degenerates to the uniform distribution; the paper's default is
/// `θ = 0.95`. Sampling is `O(log n)` by binary search over the
/// precomputed CDF. The CDF is shared: a clone costs a reference count,
/// so every client of a simulation draws from one table.
///
/// # Example
/// ```
/// use bpush_types::zipf::ZipfSampler;
/// use rand::SeedableRng;
///
/// let zipf = ZipfSampler::new(100, 0.95)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 100);
/// # Ok::<(), bpush_types::BpushError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfSampler {
    /// Cumulative distribution; `cdf[i]` is `P(rank <= i)`, `cdf[n-1] == 1`.
    cdf: Arc<[f64]>,
    theta: f64,
}

impl ZipfSampler {
    /// Builds a Zipf sampler over `n` ranks with skew `theta`.
    ///
    /// # Errors
    /// Returns [`BpushError::InvalidConfig`] if `n == 0`, or if `theta` is
    /// negative or not finite.
    pub fn new(n: usize, theta: f64) -> Result<Self, BpushError> {
        if n == 0 {
            return Err(BpushError::invalid_config("zipf range must be non-empty"));
        }
        if !theta.is_finite() || theta < 0.0 {
            return Err(BpushError::invalid_config(
                "zipf theta must be finite and non-negative",
            ));
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        // lint: allow(panic) — n == 0 was rejected above
        let total = *cdf.last().expect("n > 0");
        for p in &mut cdf {
            *p /= total;
        }
        Ok(ZipfSampler {
            cdf: cdf.into(),
            theta,
        })
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the distribution has a single rank.
    pub fn is_empty(&self) -> bool {
        false // construction guarantees n > 0; kept for C-ITER symmetry
    }

    /// The skew parameter θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Whether `self` and `other` draw from one shared CDF table.
    pub fn shares_table_with(&self, other: &ZipfSampler) -> bool {
        Arc::ptr_eq(&self.cdf, &other.cdf)
    }

    /// Probability mass of `rank`.
    ///
    /// # Panics
    /// Panics if `rank` is out of range.
    pub fn pmf(&self, rank: usize) -> f64 {
        if rank == 0 {
            self.cdf[0]
        } else {
            self.cdf[rank] - self.cdf[rank - 1]
        }
    }

    /// Samples a rank in `0..self.len()`, rank 0 being the hottest.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // partition_point returns the first index whose cdf >= u.
        self.cdf.partition_point(|&p| p < u).min(self.cdf.len() - 1)
    }
}

/// A Zipf access pattern over a contiguous range of items with an offset
/// shift, as used for both client reads and server writes in §5.1.
///
/// Rank `r` (0 = hottest) maps to item `(r + offset) mod range_len`.
/// With `offset = 0` the hottest item of this pattern is item 0 — the same
/// as every other zero-offset pattern, which models maximum overlap
/// between the client read set and the server update set; increasing
/// `offset` shifts the hot spot away.
///
/// # Example
/// ```
/// use bpush_types::zipf::AccessPattern;
/// use rand::SeedableRng;
///
/// let reads = AccessPattern::new(500, 0.95, 0)?;
/// let writes = AccessPattern::new(500, 0.95, 100)?;
/// assert_eq!(reads.hottest().index(), 0);
/// assert_eq!(writes.hottest().index(), 100);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// assert!(reads.sample(&mut rng).index() < 500);
/// # Ok::<(), bpush_types::BpushError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AccessPattern {
    zipf: ZipfSampler,
    range_len: u32,
    offset: u32,
}

impl AccessPattern {
    /// Builds an access pattern over items `0..range_len` with skew
    /// `theta`, hot spot shifted by `offset` positions.
    ///
    /// # Errors
    /// Returns [`BpushError::InvalidConfig`] if `range_len == 0` or
    /// `theta` is invalid (see [`ZipfSampler::new`]).
    pub fn new(range_len: u32, theta: f64, offset: u32) -> Result<Self, BpushError> {
        let zipf = ZipfSampler::new(range_len as usize, theta)?;
        Ok(AccessPattern {
            zipf,
            range_len,
            offset: offset % range_len,
        })
    }

    /// The item a given rank maps to.
    ///
    /// # Panics
    /// Panics if `rank >= self.range_len()`.
    pub fn item_at_rank(&self, rank: u32) -> ItemId {
        assert!(rank < self.range_len, "rank out of range");
        ItemId::new((rank + self.offset) % self.range_len)
    }

    /// The most frequently accessed item.
    pub fn hottest(&self) -> ItemId {
        self.item_at_rank(0)
    }

    /// Number of distinct items this pattern can produce.
    pub fn range_len(&self) -> u32 {
        self.range_len
    }

    /// The configured hot-spot shift.
    pub fn offset(&self) -> u32 {
        self.offset
    }

    /// The skew parameter θ.
    pub fn theta(&self) -> f64 {
        self.zipf.theta()
    }

    /// Whether `self` and `other` draw from one shared Zipf table (see
    /// [`ZipfSampler::shares_table_with`]).
    pub fn shares_table_with(&self, other: &AccessPattern) -> bool {
        self.zipf.shares_table_with(&other.zipf)
    }

    /// Probability that a single access hits `item`.
    pub fn access_probability(&self, item: ItemId) -> f64 {
        if item.index() >= self.range_len {
            return 0.0;
        }
        let rank = ((u64::from(item.index()) + u64::from(self.range_len) - u64::from(self.offset))
            % u64::from(self.range_len)) as u32;
        self.zipf.pmf(rank as usize)
    }

    /// Samples one item access.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> ItemId {
        self.item_at_rank(self.zipf.sample(rng) as u32)
    }

    /// Samples `n` *distinct* items, hottest-biased, in sample order.
    ///
    /// This is used to draw a query's readset and a server transaction's
    /// write set. Rejection sampling is fine because `n` is always far
    /// smaller than the range in the paper's parameter space.
    ///
    /// # Panics
    /// Panics if `n` exceeds the range length (a distinct draw would never
    /// terminate).
    pub fn sample_distinct<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<ItemId> {
        assert!(
            n <= self.range_len as usize,
            "cannot draw {n} distinct items from a range of {}",
            self.range_len
        );
        let mut out = Vec::with_capacity(n);
        // Membership-only set: BTreeSet keeps the whole sampling path
        // free of hash-order dependence (and off the L11 taint radar).
        let mut seen = std::collections::BTreeSet::new();
        // Guard against pathological rejection by falling back to a sweep
        // once we have rejected too many times (only reachable when n is
        // close to the range length).
        let mut rejections = 0usize;
        while out.len() < n {
            let x = self.sample(rng);
            if seen.insert(x) {
                out.push(x);
            } else {
                rejections += 1;
                if rejections > 64 * n + 1024 {
                    for raw in 0..self.range_len {
                        let x = ItemId::new(raw);
                        if out.len() < n && seen.insert(x) {
                            out.push(x);
                        }
                    }
                }
            }
        }
        out
    }
}

/// Degree of overlap between two access patterns: the probability mass
/// that pattern `a` places on the `k` hottest items of pattern `b`.
///
/// Used by experiments to report the read/update overlap that Figure 5
/// (right) sweeps via the offset parameter.
pub fn overlap(a: &AccessPattern, b: &AccessPattern, k: u32) -> f64 {
    (0..k.min(b.range_len()))
        .map(|rank| a.access_probability(b.item_at_rank(rank)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_rejects_bad_params() {
        assert!(ZipfSampler::new(0, 0.95).is_err());
        assert!(ZipfSampler::new(10, -1.0).is_err());
        assert!(ZipfSampler::new(10, f64::NAN).is_err());
        assert!(ZipfSampler::new(10, f64::INFINITY).is_err());
    }

    #[test]
    fn zipf_cdf_is_normalized_and_monotone() {
        let z = ZipfSampler::new(100, 0.95).unwrap();
        assert_eq!(z.len(), 100);
        assert!((z.cdf.last().unwrap() - 1.0).abs() < 1e-12);
        for w in z.cdf.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn zipf_pmf_sums_to_one_and_decreases() {
        let z = ZipfSampler::new(50, 0.95).unwrap();
        let total: f64 = (0..50).map(|i| z.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for i in 1..50 {
            assert!(z.pmf(i) < z.pmf(i - 1));
        }
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let z = ZipfSampler::new(10, 0.0).unwrap();
        for i in 0..10 {
            assert!((z.pmf(i) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_sampling_respects_skew() {
        let z = ZipfSampler::new(100, 0.95).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = [0usize; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Hottest rank must dominate a mid and a cold rank decisively.
        assert!(counts[0] > counts[10] && counts[10] > counts[90]);
        // Empirical mass of rank 0 within 20% of pmf.
        let emp = counts[0] as f64 / 50_000.0;
        assert!((emp - z.pmf(0)).abs() < 0.2 * z.pmf(0));
    }

    #[test]
    fn pattern_offset_shifts_hot_spot() {
        let p = AccessPattern::new(500, 0.95, 100).unwrap();
        assert_eq!(p.hottest(), ItemId::new(100));
        assert_eq!(p.item_at_rank(1), ItemId::new(101));
        // wraps around the range
        assert_eq!(p.item_at_rank(499), ItemId::new(99));
        assert_eq!(p.offset(), 100);
        assert_eq!(p.range_len(), 500);
    }

    #[test]
    fn pattern_offset_wraps_modulo_range() {
        let p = AccessPattern::new(100, 0.5, 250).unwrap();
        assert_eq!(p.offset(), 50);
    }

    #[test]
    fn access_probability_matches_rank_pmf() {
        let p = AccessPattern::new(100, 0.95, 30).unwrap();
        let z = ZipfSampler::new(100, 0.95).unwrap();
        assert!((p.access_probability(ItemId::new(30)) - z.pmf(0)).abs() < 1e-12);
        assert!((p.access_probability(ItemId::new(31)) - z.pmf(1)).abs() < 1e-12);
        assert_eq!(p.access_probability(ItemId::new(100)), 0.0);
    }

    #[test]
    fn sample_distinct_yields_unique_items() {
        let p = AccessPattern::new(50, 0.95, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let items = p.sample_distinct(&mut rng, 20);
        assert_eq!(items.len(), 20);
        let set: std::collections::HashSet<_> = items.iter().collect();
        assert_eq!(set.len(), 20);
    }

    #[test]
    fn sample_distinct_full_range_terminates() {
        let p = AccessPattern::new(16, 1.2, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let items = p.sample_distinct(&mut rng, 16);
        let set: std::collections::HashSet<_> = items.iter().collect();
        assert_eq!(set.len(), 16);
    }

    #[test]
    #[should_panic(expected = "distinct items")]
    fn sample_distinct_overdraw_panics() {
        let p = AccessPattern::new(4, 0.95, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let _ = p.sample_distinct(&mut rng, 5);
    }

    #[test]
    fn overlap_decreases_with_offset() {
        let reads = AccessPattern::new(500, 0.95, 0).unwrap();
        let w0 = AccessPattern::new(500, 0.95, 0).unwrap();
        let w100 = AccessPattern::new(500, 0.95, 100).unwrap();
        let w250 = AccessPattern::new(500, 0.95, 250).unwrap();
        let o0 = overlap(&reads, &w0, 50);
        let o100 = overlap(&reads, &w100, 50);
        let o250 = overlap(&reads, &w250, 50);
        assert!(o0 > o100, "offset 0 must overlap most: {o0} vs {o100}");
        assert!(
            o100 > o250,
            "overlap must fall with offset: {o100} vs {o250}"
        );
    }
}
