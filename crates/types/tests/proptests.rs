//! Property tests for the workload and statistics substrate.

// Integration tests are exempt from the panic-freedom policy
// (mirrors `allow-unwrap-in-tests` in clippy.toml and the `#[cfg(test)]`
// carve-out in `cargo xtask lint`).
#![allow(clippy::unwrap_used)]
use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bpush_types::seed::SeedSequence;
use bpush_types::stats::{Ratio, Summary};
use bpush_types::zipf::{AccessPattern, ZipfSampler};
use bpush_types::ItemId;

proptest! {
    /// The Zipf pmf is a proper, monotonically decreasing distribution
    /// for any valid (n, θ).
    #[test]
    fn zipf_is_a_distribution(n in 1usize..300, theta in 0.0f64..2.0) {
        let z = ZipfSampler::new(n, theta).expect("valid");
        let total: f64 = (0..n).map(|i| z.pmf(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
        for i in 1..n {
            prop_assert!(z.pmf(i) <= z.pmf(i - 1) + 1e-12);
        }
    }

    /// Samples always fall in range, and the pattern's offset is a pure
    /// rotation: access probabilities are a permutation of the pmf.
    #[test]
    fn pattern_offset_is_a_rotation(
        range in 1u32..200,
        theta in 0.0f64..1.5,
        offset in 0u32..500,
        seed in 0u64..1000,
    ) {
        let p = AccessPattern::new(range, theta, offset).expect("valid");
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert!(p.sample(&mut rng).index() < range);
        }
        let total: f64 = (0..range).map(|i| p.access_probability(ItemId::new(i))).sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
        // the hottest item carries the rank-0 mass
        let z = ZipfSampler::new(range as usize, theta).expect("valid");
        prop_assert!((p.access_probability(p.hottest()) - z.pmf(0)).abs() < 1e-12);
    }

    /// `sample_distinct` returns exactly-n distinct in-range items for
    /// any feasible n.
    #[test]
    fn sample_distinct_properties(
        range in 1u32..64,
        theta in 0.0f64..1.5,
        frac in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let n = ((f64::from(range) * frac) as usize).max(1).min(range as usize);
        let p = AccessPattern::new(range, theta, 0).expect("valid");
        let mut rng = StdRng::seed_from_u64(seed);
        let items = p.sample_distinct(&mut rng, n);
        prop_assert_eq!(items.len(), n);
        let set: std::collections::HashSet<_> = items.iter().collect();
        prop_assert_eq!(set.len(), n);
        prop_assert!(items.iter().all(|x| x.index() < range));
    }

    /// Summary::merge is associative-enough: merging any split equals the
    /// sequential summary (mean/variance/extremes).
    #[test]
    fn summary_merge_equals_sequential(
        xs in proptest::collection::vec(-1e6f64..1e6, 0..200),
        split in 0usize..200,
    ) {
        let split = split.min(xs.len());
        let whole: Summary = xs.iter().copied().collect();
        let mut left: Summary = xs[..split].iter().copied().collect();
        let right: Summary = xs[split..].iter().copied().collect();
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!(
            (left.variance() - whole.variance()).abs()
                <= 1e-5 * (1.0 + whole.variance().abs())
        );
        prop_assert_eq!(left.min(), whole.min());
        prop_assert_eq!(left.max(), whole.max());
    }

    /// Ratio bookkeeping is exact under merging.
    #[test]
    fn ratio_merge_is_exact(
        a in proptest::collection::vec(proptest::bool::ANY, 0..100),
        b in proptest::collection::vec(proptest::bool::ANY, 0..100),
    ) {
        let mut ra = Ratio::new();
        for &x in &a { ra.record(x); }
        let mut rb = Ratio::new();
        for &x in &b { rb.record(x); }
        ra.merge(&rb);
        let hits = a.iter().chain(&b).filter(|&&x| x).count() as u64;
        prop_assert_eq!(ra.hits(), hits);
        prop_assert_eq!(ra.total(), (a.len() + b.len()) as u64);
    }

    /// Seed derivation: distinct paths (under a shared root) never
    /// collide in practice, and derivation is stable.
    #[test]
    fn seed_paths_do_not_collide(root in 0u64..10_000, a in 0u32..500, b in 0u32..500) {
        prop_assume!(a != b);
        let seq = SeedSequence::new(root);
        let sa = seq.derive(&["client", &a.to_string()]);
        let sb = seq.derive(&["client", &b.to_string()]);
        prop_assert_ne!(sa, sb);
        prop_assert_eq!(sa, SeedSequence::new(root).derive(&["client", &a.to_string()]));
    }
}

/// The skews the differential tests cover: uniform, mild, the paper's
/// default, steep, and one so steep that the CDF reaches exactly 1.0
/// long before its last rank.
const THETAS: [f64; 5] = [0.0, 0.5, 0.95, 1.5, 50.0];

/// The reference inversion: a binary search over the whole CDF.
fn full_search(z: &ZipfSampler, u: f64) -> usize {
    z.cdf().partition_point(|&p| p < u).min(z.len() - 1)
}

/// Steps `x` by `ulps` representable values (`x` finite and positive).
fn ulps(x: f64, ulps: i64) -> f64 {
    f64::from_bits(x.to_bits().wrapping_add_signed(ulps))
}

/// The reference distinct draw: rejection over a `BTreeSet`, with the
/// same fallback sweep.
fn distinct_reference(p: &AccessPattern, rng: &mut StdRng, n: usize) -> Vec<ItemId> {
    let mut out = Vec::with_capacity(n);
    let mut seen = BTreeSet::new();
    let mut rejections = 0usize;
    while out.len() < n {
        let x = p.sample(rng);
        if seen.insert(x) {
            out.push(x);
        } else {
            rejections += 1;
            if rejections > 64 * n + 1024 {
                for raw in 0..p.range_len() {
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

proptest! {
    /// The guide table inverts the CDF exactly as a search over all of
    /// it does: at arbitrary draws, at every `k/m` for
    /// `m = n.next_power_of_two()` (every bucket edge, and the middle of
    /// every bucket) and one ulp either side, and at every CDF entry, one
    /// ulp either side and the neighbouring draws the generator can make
    /// (multiples of 2^-53).
    #[test]
    fn guide_table_matches_the_full_search(
        n in 1usize..5000,
        t in 0usize..5,
        pow2 in proptest::bool::ANY,
        u in 0.0f64..1.0,
        seed in 0u64..u64::MAX,
    ) {
        let n = if pow2 { n.next_power_of_two().min(4096) } else { n };
        let z = ZipfSampler::new(n, THETAS[t]).unwrap();
        prop_assert_eq!(z.rank_at(u), full_search(&z, u));
        let m = n.next_power_of_two();
        for k in 0..=m {
            let edge = k as f64 / m as f64;
            for v in [edge, ulps(edge, -1), ulps(edge, 1)] {
                prop_assert_eq!(z.rank_at(v), full_search(&z, v), "edge {}/{} at {}", k, m, v);
            }
        }
        let grid = (1u64 << 53) as f64;
        for &c in z.cdf() {
            let on_grid = (c * grid).floor() / grid;
            for v in [c, ulps(c, -1), ulps(c, 1), on_grid, on_grid - 1.0 / grid, on_grid + 1.0 / grid] {
                prop_assert_eq!(z.rank_at(v), full_search(&z, v), "cdf entry {} at {}", c, v);
            }
        }
        // `sample` is `rank_at` of the generator's next draw.
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let u: f64 = rng.clone().gen();
            prop_assert_eq!(z.sample(&mut rng), full_search(&z, u));
        }
    }

    /// The bitset distinct draw returns what the `BTreeSet` one did and
    /// leaves the generator where it left it, fallback sweep included.
    #[test]
    fn sample_distinct_matches_the_btreeset_draw(
        range in 1u32..3000,
        t in 0usize..5,
        offset in 0u32..3000,
        frac in 0.0f64..1.0,
        full in proptest::bool::ANY,
        seed in 0u64..u64::MAX,
    ) {
        let p = AccessPattern::new(range, THETAS[t], offset).unwrap();
        let n = if full {
            range as usize
        } else {
            ((f64::from(range) * frac) as usize).min(range as usize)
        };
        let mut fast = StdRng::seed_from_u64(seed);
        let mut slow = StdRng::seed_from_u64(seed);
        prop_assert_eq!(p.sample_distinct(&mut fast, n), distinct_reference(&p, &mut slow, n));
        prop_assert_eq!(fast.gen::<u64>(), slow.gen::<u64>());
    }
}

/// The fallback sweep runs when the tail is out of reach: at θ = 50 a
/// full-range draw rejects until the sweep fills the rest in item order.
#[test]
fn sample_distinct_sweep_matches_the_btreeset_draw() {
    for range in [1u32, 2, 63, 64, 65, 200, 1000] {
        let p = AccessPattern::new(range, 50.0, range / 3).unwrap();
        let mut fast = StdRng::seed_from_u64(u64::from(range));
        let mut slow = StdRng::seed_from_u64(u64::from(range));
        let n = range as usize;
        assert_eq!(
            p.sample_distinct(&mut fast, n),
            distinct_reference(&p, &mut slow, n)
        );
        assert_eq!(fast.gen::<u64>(), slow.gen::<u64>());
    }
}
