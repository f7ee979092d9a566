//! Property tests for broadcast organizations and the size model.

// Integration tests are exempt from the panic-freedom policy
// (mirrors `allow-unwrap-in-tests` in clippy.toml and the `#[cfg(test)]`
// carve-out in `cargo xtask lint`).
#![allow(clippy::unwrap_used)]
use proptest::collection::btree_set as set_of;
use proptest::prelude::*;
use std::collections::HashMap;

use bpush_broadcast::organization::{
    BroadcastDisks, DiskSpec, Flat, MultiversionClustered, MultiversionOverflow, OldVersions,
};
use bpush_broadcast::size_model::{SizeModel, SizeParams};
use bpush_broadcast::{ControlInfo, ItemRecord};
use bpush_types::{Cycle, ItemId, ItemValue, TxnId};

/// Random database content: per item, a chain of version cycles
/// (ascending), the last being current.
fn contents() -> impl Strategy<Value = Vec<Vec<u64>>> {
    proptest::collection::vec(set_of(1u64..12, 0..4), 1..24).prop_map(|items| {
        items
            .into_iter()
            .map(|set| {
                let mut v: Vec<u64> = vec![0];
                v.extend(set);
                v
            })
            .collect()
    })
}

fn value_at(version: u64) -> ItemValue {
    if version == 0 {
        ItemValue::initial()
    } else {
        ItemValue::written_by(TxnId::new(Cycle::new(version - 1), 0))
    }
}

fn build_parts(chains: &[Vec<u64>]) -> (Vec<ItemRecord>, OldVersions) {
    let mut records = Vec::new();
    let mut old = OldVersions::default();
    for (i, chain) in chains.iter().enumerate() {
        let item = ItemId::new(i as u32);
        let current = *chain.last().expect("nonempty");
        records.push(ItemRecord::new(item, value_at(current), None));
        let mut versions: Vec<ItemValue> = chain[..chain.len() - 1]
            .iter()
            .rev()
            .map(|&v| value_at(v))
            .collect();
        versions.dedup();
        old.add_chain(item, versions);
    }
    (records, old)
}

/// The ground-truth multiversion read rule over the raw chains.
fn oracle_best(chain: &[u64], state: u64) -> Option<u64> {
    chain.iter().copied().filter(|&v| v <= state).max()
}

proptest! {
    /// Both multiversion organizations implement the §3.2 read rule
    /// exactly: `best_version_at_most` equals the chain maximum `≤ state`.
    #[test]
    fn multiversion_read_rule_is_exact(chains in contents(), state in 0u64..14) {
        let (records, old) = build_parts(&chains);
        let cycle = Cycle::new(14);
        let ctrl = ControlInfo::empty(cycle);
        for org in 0..2 {
            let bcast = if org == 0 {
                MultiversionOverflow::new(1).assemble(cycle, ctrl.clone(), records.clone(), old.clone())
            } else {
                MultiversionClustered::new().assemble(cycle, ctrl.clone(), records.clone(), old.clone())
            };
            for (i, chain) in chains.iter().enumerate() {
                let item = ItemId::new(i as u32);
                let got = bcast
                    .best_version_at_most(item, Cycle::new(state))
                    .map(|(_, v)| v.version().number());
                prop_assert_eq!(got, oracle_best(chain, state), "org {} item {}", org, i);
            }
        }
    }

    /// Every organization transmits every current version exactly at the
    /// slots it reports, within the bcast bounds, and fixed-position
    /// organizations put items in id order.
    #[test]
    fn occurrences_are_in_bounds_and_ordered(chains in contents()) {
        let (records, old) = build_parts(&chains);
        let cycle = Cycle::new(14);
        let flat = Flat::new(1).assemble(cycle, ControlInfo::empty(cycle), records.clone());
        let over = MultiversionOverflow::new(1).assemble(cycle, ControlInfo::empty(cycle), records.clone(), old.clone());
        for bcast in [&flat, &over] {
            let mut last = None;
            for (i, _) in chains.iter().enumerate() {
                let item = ItemId::new(i as u32);
                let slot = bcast.slot_of_current(item).expect("on air");
                prop_assert!(slot >= bcast.data_start());
                prop_assert!(slot < bcast.data_start() + bcast.data_slots());
                if let Some(prev) = last {
                    prop_assert!(slot > prev, "fixed positions follow item order");
                }
                last = Some(slot);
            }
        }
        // total length is consistent
        prop_assert_eq!(
            over.total_slots(),
            over.control_slots() + over.data_slots() + over.overflow_slots()
        );
    }

    /// The clustered organization's on-air directory always agrees with
    /// the actual positions.
    #[test]
    fn clustered_directory_is_truthful(chains in contents()) {
        let (records, old) = build_parts(&chains);
        let cycle = Cycle::new(14);
        let bcast = MultiversionClustered::new().assemble(
            cycle,
            ControlInfo::empty(cycle),
            records,
            old,
        );
        let dir = bcast.directory().expect("clustered has a directory");
        for i in 0..chains.len() {
            let item = ItemId::new(i as u32);
            let via_dir = dir.slot_of(item).map(|rel| bcast.data_start() + rel);
            prop_assert_eq!(via_dir, bcast.slot_of_current(item));
        }
    }

    /// Broadcast disks: every item appears exactly `rel_freq` times per
    /// major cycle (with the regular chunk schedule used here), all
    /// within the data segment.
    #[test]
    fn disks_frequencies_hold(
        hot in 1u32..6,
        cold in 1u32..12,
        freq in 2u32..5,
    ) {
        let n = hot + cold;
        let records: Vec<ItemRecord> = (0..n)
            .map(|i| ItemRecord::new(ItemId::new(i), ItemValue::initial(), None))
            .collect();
        let org = BroadcastDisks::new(vec![
            DiskSpec { items: hot, rel_freq: freq },
            DiskSpec { items: cold, rel_freq: 1 },
        ]);
        let bcast = org.assemble(Cycle::ZERO, ControlInfo::empty(Cycle::ZERO), records);
        for i in 0..hot {
            prop_assert_eq!(bcast.occurrences_of(ItemId::new(i)).len(), freq as usize);
        }
        for i in hot..n {
            prop_assert_eq!(bcast.occurrences_of(ItemId::new(i)).len(), 1);
        }
        // no slot is double-booked
        let mut seen = HashMap::new();
        for i in 0..n {
            for &s in bcast.occurrences_of(ItemId::new(i)) {
                prop_assert!(seen.insert(s, i).is_none(), "slot {} double-booked", s);
            }
        }
    }

    /// Size model monotonicity: every method's extra cost is
    /// non-decreasing in the update volume, and the multiversion methods
    /// in the span.
    #[test]
    fn size_model_monotone(u1 in 1u32..400, u2 in 1u32..400, s1 in 1u32..10, s2 in 1u32..10) {
        let (ulo, uhi) = (u1.min(u2), u1.max(u2));
        let (slo, shi) = (s1.min(s2), s1.max(s2));
        let m = SizeModel::new(1000, SizeParams::default());
        prop_assert!(m.invalidation_only_extra(ulo) <= m.invalidation_only_extra(uhi));
        prop_assert!(m.multiversion_overflow_extra(ulo, slo) <= m.multiversion_overflow_extra(uhi, slo));
        prop_assert!(m.multiversion_overflow_extra(ulo, slo) <= m.multiversion_overflow_extra(ulo, shi));
        prop_assert!(m.multiversion_clustered_extra(ulo, slo) <= m.multiversion_clustered_extra(uhi, shi));
        prop_assert!(m.multiversion_caching_extra(ulo, slo) <= m.multiversion_caching_extra(uhi, shi));
        prop_assert!(m.sgt_extra(10, 25, ulo) <= m.sgt_extra(10, 25, uhi));
    }
}
