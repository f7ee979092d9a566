//! `Bcast` against a model: every accessor of a bcast assembled by each of
//! the five organizations is compared with plain `BTreeMap`s the test
//! lays out itself, slot by slot in on-air order — the obvious way, not
//! the dense way the crate stores them. The three current-version layouts
//! run fixed id sets; the two multiversion layouts run proptests over one
//! strategy of random ids and old-version chains.

// Integration tests are exempt from the panic-freedom policy
// (mirrors `allow-unwrap-in-tests` in clippy.toml and the `#[cfg(test)]`
// carve-out in `cargo xtask lint`).
#![allow(clippy::unwrap_used)]
use std::collections::{BTreeMap, BTreeSet};

use proptest::collection::{btree_set as set_of, vec};
use proptest::prelude::*;

use bpush_broadcast::organization::{
    BroadcastDisks, DiskSpec, Flat, IndexedFlat, MultiversionClustered, MultiversionOverflow,
    OldVersions,
};
use bpush_broadcast::{Bcast, ControlInfo, ItemRecord};
use bpush_types::{Cycle, ItemId, ItemValue, TxnId};

const NOW: u64 = 6;

/// What a bcast should answer, keyed the slow and obvious way.
#[derive(Debug, Default)]
struct Model {
    records: BTreeMap<ItemId, ItemRecord>,
    occurrences: BTreeMap<ItemId, Vec<u64>>,
    old_versions: BTreeMap<ItemId, Vec<(u64, ItemValue)>>,
}

impl Model {
    fn air(&mut self, rec: ItemRecord, slot: u64) {
        self.records.insert(rec.item(), rec);
        self.occurrences.entry(rec.item()).or_default().push(slot);
    }

    fn air_old(&mut self, item: ItemId, slot: u64, value: ItemValue) {
        self.old_versions
            .entry(item)
            .or_default()
            .push((slot, value));
    }
}

/// A value first broadcast at cycle `version` (0 = the initial load).
fn version(version: u64) -> ItemValue {
    match version.checked_sub(1) {
        None => ItemValue::initial(),
        Some(c) => ItemValue::written_by(TxnId::new(Cycle::new(c), 0)),
    }
}

/// Records for `ids` (ascending); every third one was rewritten recently.
fn records(ids: &[u32]) -> Vec<ItemRecord> {
    ids.iter()
        .enumerate()
        .map(|(n, &i)| {
            let value = version(if n % 3 == 0 { NOW - 1 } else { 0 });
            ItemRecord::new(ItemId::new(i), value, None)
        })
        .collect()
}

fn control() -> ControlInfo {
    ControlInfo::empty(Cycle::new(NOW))
}

/// Compares every per-item accessor, for the items on air and for a
/// handful that are not, and the whole-bcast ones.
fn assert_matches(label: &str, b: &Bcast, model: &Model) {
    assert_eq!(b.item_count(), model.records.len(), "{label}");
    assert_eq!(
        b.records().copied().collect::<Vec<_>>(),
        model.records.values().copied().collect::<Vec<_>>(),
        "{label}: records() in item order"
    );
    let absent = [0, 1, 4, 8, 999, 1001, u32::MAX].map(ItemId::new);
    let on_air = model.records.keys().copied();
    for item in on_air.chain(absent) {
        let occ = model.occurrences.get(&item).cloned().unwrap_or_default();
        let old = model.old_versions.get(&item).cloned().unwrap_or_default();
        assert_eq!(b.current(item), model.records.get(&item), "{label} {item}");
        assert_eq!(b.occurrences_of(item), occ.as_slice(), "{label} {item}");
        assert_eq!(b.old_versions_of(item), old.as_slice(), "{label} {item}");
        assert_eq!(
            b.slot_of_current(item),
            occ.first().copied(),
            "{label} {item}"
        );
        for not_before in 0..=b.total_slots() {
            assert_eq!(
                b.next_slot_of_current(item, not_before),
                occ.iter().copied().find(|&s| s >= not_before),
                "{label} {item} not before {not_before}"
            );
        }
        for bound in (0..=NOW + 1).map(Cycle::new) {
            let current = model
                .records
                .get(&item)
                .map(|r| (occ[0], r.value()))
                .filter(|(_, v)| v.version() <= bound);
            let best = match (model.records.get(&item), current) {
                (None, _) => None,
                (_, Some(hit)) => Some(hit),
                _ => old.iter().copied().find(|(_, v)| v.version() <= bound),
            };
            assert_eq!(
                b.best_version_at_most(item, bound),
                best,
                "{label} {item} at most {bound}"
            );
        }
    }
}

const DENSE: [u32; 10] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9];
const SPARSE: [u32; 3] = [3, 7, 1000];
/// Dense up to a hole: the direct index is right for some items only.
const HOLED: [u32; 6] = [0, 1, 2, 4, 5, 9];

#[test]
fn flat_matches_model() {
    for (ids, ipb) in [
        (&DENSE[..], 1),
        (&DENSE[..], 4),
        (&SPARSE[..], 2),
        (&HOLED[..], 1),
    ] {
        let recs = records(ids);
        let b = Flat::new(ipb).assemble(Cycle::new(NOW), control(), recs.clone());
        let mut model = Model::default();
        for (idx, rec) in recs.iter().enumerate() {
            model.air(*rec, b.data_start() + idx as u64 / u64::from(ipb));
        }
        assert_matches(&format!("flat {ids:?}/{ipb}"), &b, &model);
    }
}

#[test]
fn indexed_flat_matches_model() {
    for (ids, segments, ipb) in [(&DENSE[..], 3, 1), (&DENSE[..], 4, 2), (&SPARSE[..], 2, 1)] {
        let recs = records(ids);
        let org = IndexedFlat::new(segments, ipb);
        let b = org.assemble(Cycle::new(NOW), control(), recs.clone());
        let chunk = recs.len().div_ceil(segments as usize);
        let mut model = Model::default();
        let mut slot = b.data_start();
        let mut index_slots = Vec::new();
        for chunk in recs.chunks(chunk) {
            index_slots.push(slot);
            slot += org.index_copy_slots(recs.len());
            for (i, rec) in chunk.iter().enumerate() {
                model.air(*rec, slot + i as u64 / u64::from(ipb));
            }
            slot += (chunk.len() as u64).div_ceil(u64::from(ipb));
        }
        assert_eq!(b.index_slots(), index_slots.as_slice());
        assert_eq!(b.total_slots(), slot);
        assert_matches(&format!("indexed {ids:?}/{segments}/{ipb}"), &b, &model);
    }
}

/// Records for `ids`, and old-version chains for the items whose coin
/// came up: chain `i` (ascending versions) goes to `ids[i]` newest first,
/// under a current version one past its newest.
fn multiversion_parts(
    ids: &[u32],
    chains: &[(bool, BTreeSet<u64>)],
) -> (Vec<ItemRecord>, BTreeMap<ItemId, Vec<ItemValue>>) {
    let mut recs = Vec::new();
    let mut old = BTreeMap::new();
    for (&i, (has_chain, versions)) in ids.iter().zip(chains) {
        let item = ItemId::new(i);
        let newest = versions.last().copied().unwrap_or(0);
        recs.push(ItemRecord::new(item, version(newest + 1), None));
        if *has_chain {
            old.insert(item, versions.iter().rev().map(|&v| version(v)).collect());
        }
    }
    (recs, old)
}

/// The column of the model's chains, in item order.
fn column(old: &BTreeMap<ItemId, Vec<ItemValue>>) -> OldVersions {
    let mut column = OldVersions::default();
    for (item, chain) in old {
        column.add_chain(*item, chain.iter().copied());
    }
    column
}

/// The overflow layout of `recs` and `old`, `ipb` to a bucket, laid out
/// slot by slot and compared with `b`.
fn assert_overflow_layout(
    b: &Bcast,
    recs: &[ItemRecord],
    old: &BTreeMap<ItemId, Vec<ItemValue>>,
    ipb: u64,
) {
    let overflow_start = b.data_start() + (recs.len() as u64).div_ceil(ipb);
    let mut model = Model::default();
    let mut entry = 0u64;
    let mut ptrs = BTreeMap::new();
    for (item, chain) in old {
        ptrs.insert(*item, entry);
        for v in chain {
            model.air_old(*item, overflow_start + entry / ipb, *v);
            entry += 1;
        }
    }
    for (idx, rec) in recs.iter().enumerate() {
        let rec = match ptrs.get(&rec.item()) {
            Some(&ptr) => rec.with_overflow_ptr(ptr),
            None => *rec,
        };
        model.air(rec, b.data_start() + idx as u64 / ipb);
    }
    assert_eq!(b.overflow_slots(), entry.div_ceil(ipb));
    assert_eq!(b.total_slots(), overflow_start + entry.div_ceil(ipb));
    assert_matches(&format!("overflow {ipb}"), b, &model);
}

/// The clustered layout of `recs` and `old`, laid out slot by slot and
/// compared with `b`, directory included.
fn assert_clustered_layout(b: &Bcast, recs: &[ItemRecord], old: &BTreeMap<ItemId, Vec<ItemValue>>) {
    let mut model = Model::default();
    let mut slot = b.data_start();
    for rec in recs {
        model.air(*rec, slot);
        slot += 1;
        for v in old.get(&rec.item()).into_iter().flatten() {
            model.air_old(rec.item(), slot, *v);
            slot += 1;
        }
    }
    assert_eq!(b.total_slots(), slot);
    let dir = b.directory().expect("clustered broadcasts a directory");
    assert_eq!(dir.len(), recs.len());
    for (item, slots) in &model.occurrences {
        assert_eq!(
            dir.slot_of(*item).map(|s| s + b.data_start()),
            Some(slots[0])
        );
    }
    assert_matches("clustered", b, &model);
}

/// The inputs both multiversion layouts run on: dense, sparse or holed
/// ids, and chains of 1–4 strictly descending versions on a random
/// subset of the items.
fn multiversion_case() -> impl Strategy<Value = (Vec<ItemRecord>, BTreeMap<ItemId, Vec<ItemValue>>)>
{
    (
        0usize..3,
        1u32..14,
        set_of(0u32..2000, 1..14),
        set_of(0u32..14, 0..5),
        vec((proptest::bool::ANY, set_of(0u64..NOW - 1, 1..5)), 14..15),
    )
        .prop_map(|(shape, n, sparse, holes, chains)| {
            let ids: Vec<u32> = match shape {
                0 => (0..n).collect(),
                1 => sparse.into_iter().collect(),
                _ => (0..n).filter(|i| !holes.contains(i)).collect(),
            };
            multiversion_parts(&ids, &chains)
        })
}

proptest! {
    /// The overflow layout against the model, 1–4 items to a bucket.
    #[test]
    fn overflow_matches_model(case in multiversion_case(), ipb in 1u32..5) {
        let (recs, old) = case;
        let b = MultiversionOverflow::new(ipb).assemble(Cycle::new(NOW), control(), recs.clone(), column(&old));
        assert_overflow_layout(&b, &recs, &old, u64::from(ipb));
    }

    /// The clustered layout against the model; it airs one entry a slot
    /// whatever the packing.
    #[test]
    fn clustered_matches_model(case in multiversion_case()) {
        let (recs, old) = case;
        let b = MultiversionClustered::new().assemble(Cycle::new(NOW), control(), recs.clone(), column(&old));
        assert_clustered_layout(&b, &recs, &old);
    }
}

#[test]
fn disks_match_model() {
    let spec = |items, rel_freq| DiskSpec { items, rel_freq };
    let cases: [(&[u32], Vec<DiskSpec>); 5] = [
        (&DENSE[..], vec![spec(2, 4), spec(3, 2), spec(5, 1)]),
        // a disk with fewer items than chunks: some chunks are all padding
        (&DENSE[..], vec![spec(1, 1), spec(2, 3), spec(7, 1)]),
        (&DENSE[..], vec![spec(10, 1)]),
        (&SPARSE[..], vec![spec(1, 3), spec(2, 2)]),
        (&HOLED[..], vec![spec(2, 2), spec(4, 1)]),
    ];
    for (ids, disks) in cases {
        let recs = records(ids);
        let org = BroadcastDisks::new(disks.clone());
        let b = org.assemble(Cycle::new(NOW), control(), recs.clone());

        // walk the schedule as it airs: minor cycle by minor cycle, one
        // (padded) chunk of every disk each
        let l = disks.iter().fold(1u64, |l, d| {
            let f = u64::from(d.rel_freq);
            let gcd = (1..=l.min(f)).rev().find(|g| l % g == 0 && f % g == 0);
            l / gcd.unwrap() * f
        });
        let mut model = Model::default();
        let mut slot = b.data_start();
        for minor in 0..l {
            let mut first = 0usize;
            for d in &disks {
                let disk = &recs[first..first + d.items as usize];
                first += d.items as usize;
                let num_chunks = l / u64::from(d.rel_freq);
                let chunk_size = (disk.len() as u64).div_ceil(num_chunks) as usize;
                let chunk = (minor % num_chunks) as usize;
                for (i, rec) in disk.iter().enumerate() {
                    if i / chunk_size == chunk {
                        model.air(*rec, slot + (i % chunk_size) as u64);
                    }
                }
                slot += chunk_size as u64;
            }
        }
        assert_eq!(b.total_slots(), slot);
        for (d, rec) in disks
            .iter()
            .flat_map(|d| std::iter::repeat(d).take(d.items as usize))
            .zip(&recs)
        {
            let times = model.occurrences[&rec.item()].len();
            assert_eq!(
                times,
                d.rel_freq as usize,
                "{} airs rel_freq times",
                rec.item()
            );
        }
        assert_matches(&format!("disks {ids:?} {disks:?}"), &b, &model);
    }
}
