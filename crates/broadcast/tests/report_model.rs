//! The report constructors against a model: `InvalidationReport` and
//! `AugmentedReport` keep a strictly ascending entry list as it arrives
//! and deduplicate anything else through an ordered map; both routes
//! must build the report a plain `BTreeMap` describes — same entries,
//! same bucket collapse, same verdicts, same `Debug` rendering (model
//! checker dedup keys hash it).
//!
//! The model is also the one oracle of the readset probes
//! (`any_stale`, `any_invalidated`, `matches_in`), the galloping merges
//! every client runs against every report. Report entries and readsets
//! both reach into a far id range (`100_000..100_008`), so a gallop has
//! to cross a gap of 100 000 ids in either sequence.

// Integration tests are exempt from the panic-freedom policy
// (mirrors `allow-unwrap-in-tests` in clippy.toml and the `#[cfg(test)]`
// carve-out in `cargo xtask lint`).
#![allow(clippy::unwrap_used)]
use std::collections::{BTreeMap, BTreeSet};

use proptest::collection::btree_set as set_of;
use proptest::prelude::*;

use bpush_broadcast::{AugmentedReport, InvalidationReport};
use bpush_types::{BucketId, Cycle, Granularity, ItemId, TxnId};

/// What `try_with_dated` must build, the obvious way: the latest date
/// per item, and per bucket the latest date of its items.
struct DatedModel {
    items: BTreeMap<ItemId, Cycle>,
    buckets: BTreeMap<BucketId, Cycle>,
}

impl DatedModel {
    fn of(entries: &[(ItemId, Cycle)], items_per_bucket: u32) -> Self {
        let mut items = BTreeMap::new();
        let mut buckets = BTreeMap::new();
        for &(x, c) in entries {
            let at = items.entry(x).or_insert(c);
            *at = (*at).max(c);
            let at = buckets
                .entry(BucketId::new(x.index() / items_per_bucket))
                .or_insert(c);
            *at = (*at).max(c);
        }
        DatedModel { items, buckets }
    }
}

fn strictly_ascending<V>(entries: &[(ItemId, V)]) -> bool {
    entries.windows(2).all(|w| w[0].0 < w[1].0)
}

/// The inputs one arbitrary entry list is tried as: itself (unsorted and
/// duplicated more often than not), its strictly ascending form (the
/// map-free route), and two that can only take the map route whenever
/// there is anything to reorder or merge — reversed, and stuttered (every
/// entry twice in a row: ascending, not strictly).
fn routes<V: Copy>(
    arbitrary: &[(ItemId, V)],
    ascending: Vec<(ItemId, V)>,
) -> Vec<Vec<(ItemId, V)>> {
    assert!(strictly_ascending(&ascending));
    let reversed: Vec<(ItemId, V)> = ascending.iter().rev().copied().collect();
    let stuttered: Vec<(ItemId, V)> = ascending.iter().flat_map(|&e| [e, e]).collect();
    assert!(ascending.len() < 2 || !strictly_ascending(&reversed));
    assert!(ascending.is_empty() || !strictly_ascending(&stuttered));
    vec![arbitrary.to_vec(), ascending, reversed, stuttered]
}

/// A sorted readset of near ids (`0..100`, beside the report's `0..96`)
/// and far ids (`100_000..100_008`).
fn readset_of(near: BTreeSet<u32>, far: BTreeSet<u32>) -> Vec<ItemId> {
    near.into_iter().chain(far).map(ItemId::new).collect()
}

proptest! {
    #[test]
    fn try_with_dated_equals_the_ordered_map_model(
        raw in proptest::collection::vec((0u32..96, 0u64..12), 0..40),
        far in proptest::collection::vec((100_000u32..100_008, 0u64..12), 0..3),
        items_per_bucket in 1u32..9,
        bucket in proptest::bool::ANY,
        near_reads in set_of(0u32..100, 0..12),
        far_reads in set_of(100_000u32..100_008, 0..3),
    ) {
        let granularity = if bucket { Granularity::Bucket } else { Granularity::Item };
        let cycle = Cycle::new(12);
        let arbitrary: Vec<(ItemId, Cycle)> = raw
            .iter()
            .chain(&far)
            .map(|&(x, c)| (ItemId::new(x), Cycle::new(c)))
            .collect();
        let model = DatedModel::of(&arbitrary, items_per_bucket);
        let ascending: Vec<(ItemId, Cycle)> = model.items.iter().map(|(&x, &c)| (x, c)).collect();
        let model_items = ascending.clone();
        let model_buckets: Vec<(BucketId, Cycle)> =
            model.buckets.iter().map(|(&b, &c)| (b, c)).collect();
        let rendering = format!(
            "InvalidationReport {{ cycle: {cycle:?}, window: 4, granularity: {granularity:?}, \
             items_per_bucket: {items_per_bucket}, items: {model_items:?}, \
             buckets: {model_buckets:?} }}"
        );
        let readset = readset_of(near_reads, far_reads);

        for input in routes(&arbitrary, ascending) {
            let report =
                InvalidationReport::try_with_dated(cycle, 4, input, granularity, items_per_bucket)
                    .unwrap();
            prop_assert_eq!(report.dated_items().to_vec(), model_items.clone());
            prop_assert_eq!(
                report
                    .buckets()
                    .map(|b| (b, report.bucket_update_cycle(b).unwrap()))
                    .collect::<Vec<_>>(),
                model_buckets.clone()
            );
            prop_assert_eq!(format!("{report:?}"), rendering.clone());
            // the update date the model records for `x`'s entry
            // (granularity-aware), if it has one
            let date = |x: ItemId| match granularity {
                Granularity::Item => model.items.get(&x),
                Granularity::Bucket => {
                    model.buckets.get(&BucketId::new(x.index() / items_per_bucket))
                }
            };
            prop_assert_eq!(
                report.any_invalidated(&readset),
                readset.iter().any(|&x| date(x).is_some())
            );
            for state in (0..13).map(Cycle::new) {
                let verdict = |x: ItemId| date(x).is_some_and(|&u| u >= state);
                for &x in &readset {
                    prop_assert_eq!(report.stale_at(x, state), verdict(x));
                }
                let any = readset.iter().any(|&x| verdict(x));
                prop_assert_eq!(report.any_stale(&readset, state), any);
            }
        }
    }

    #[test]
    fn augmented_new_equals_the_ordered_map_model(
        raw in proptest::collection::vec((0u32..96, 0u32..8), 0..40),
        far in proptest::collection::vec((100_000u32..100_008, 0u32..8), 0..3),
        near_reads in set_of(0u32..100, 0..12),
        far_reads in set_of(100_000u32..100_008, 0..3),
    ) {
        let cycle = Cycle::new(7);
        let arbitrary: Vec<(ItemId, TxnId)> = raw
            .iter()
            .chain(&far)
            .map(|&(x, seq)| (ItemId::new(x), TxnId::new(cycle, seq)))
            .collect();
        // map-collect semantics: the last entry of an item wins
        let model: BTreeMap<ItemId, TxnId> = arbitrary.iter().copied().collect();
        let ascending: Vec<(ItemId, TxnId)> = model.iter().map(|(&x, &t)| (x, t)).collect();
        let model_entries = ascending.clone();
        let rendering =
            format!("AugmentedReport {{ cycle: {cycle:?}, first_writers: {model_entries:?} }}");
        let readset = readset_of(near_reads, far_reads);
        let matches: Vec<(ItemId, TxnId)> = readset
            .iter()
            .filter_map(|x| model.get(x).map(|&t| (*x, t)))
            .collect();

        for input in routes(&arbitrary, ascending) {
            let report = AugmentedReport::new(cycle, input);
            prop_assert_eq!(report.entries().to_vec(), model_entries.clone());
            prop_assert_eq!(format!("{report:?}"), rendering.clone());
            prop_assert_eq!(report.matches_in(&readset).collect::<Vec<_>>(), matches.clone());
            for &x in &readset {
                prop_assert_eq!(report.first_writer(x), model.get(&x).copied());
            }
        }
    }
}
