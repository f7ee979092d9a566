//! Oracle-based soundness property test for the client cache: whatever
//! sequence of reports, fetches, autoprefetches, gaps and lookups occurs,
//! a candidate returned for database state `s` must carry **exactly the
//! value that was current at state `s`** according to an independently
//! maintained ground truth.

// Integration tests are exempt from the panic-freedom policy
// (mirrors `allow-unwrap-in-tests` in clippy.toml and the `#[cfg(test)]`
// carve-out in `cargo xtask lint`).
#![allow(clippy::unwrap_used)]
use proptest::prelude::*;
use std::collections::HashMap;

use bpush_broadcast::organization::Flat;
use bpush_broadcast::{Bcast, ControlInfo, InvalidationReport, ItemRecord};
use bpush_client::{CacheParams, ClientCache};
use bpush_core::CacheMode;
use bpush_types::{Cycle, Granularity, ItemId, ItemValue, TxnId};

const N_ITEMS: u32 = 12;

/// Ground truth: every item's version chain (ascending version cycles).
#[derive(Debug, Default)]
struct Oracle {
    chains: HashMap<ItemId, Vec<ItemValue>>,
}

impl Oracle {
    fn new() -> Self {
        let mut chains = HashMap::new();
        for i in 0..N_ITEMS {
            chains.insert(ItemId::new(i), vec![ItemValue::initial()]);
        }
        Oracle { chains }
    }

    fn update(&mut self, item: ItemId, committed_during: Cycle) {
        let chain = self.chains.get_mut(&item).expect("known item");
        let value = ItemValue::written_by(TxnId::new(committed_during, item.index()));
        if chain.last().map(|v| v.version()) != Some(value.version()) {
            chain.push(value);
        }
    }

    fn current(&self, item: ItemId) -> ItemValue {
        *self.chains[&item].last().expect("nonempty")
    }

    fn value_at(&self, item: ItemId, state: Cycle) -> Option<ItemValue> {
        self.chains[&item]
            .iter()
            .rev()
            .find(|v| v.version() <= state)
            .copied()
    }

    fn bcast(&self, cycle: Cycle, updated: &[ItemId]) -> Bcast {
        let records: Vec<ItemRecord> = (0..N_ITEMS)
            .map(|i| {
                let item = ItemId::new(i);
                ItemRecord::new(item, self.current(item), None)
            })
            .collect();
        let report =
            InvalidationReport::new(cycle, 1, updated.iter().copied(), Granularity::Item, 1);
        let ctrl = ControlInfo::new(cycle, report, None, None);
        Flat::new(1).assemble(cycle, ctrl, records)
    }
}

/// One simulated cycle: which items the server updates, which items the
/// client demand-fetches, which items it looks up (and at which relative
/// past state), and whether the client misses the cycle.
#[derive(Debug, Clone)]
struct CycleScript {
    updates: Vec<u32>,
    fetches: Vec<u32>,
    lookups: Vec<(u32, u64)>,
    connected: bool,
}

fn cycle_script() -> impl Strategy<Value = CycleScript> {
    (
        proptest::collection::vec(0..N_ITEMS, 0..4),
        proptest::collection::vec(0..N_ITEMS, 0..4),
        proptest::collection::vec((0..N_ITEMS, 0u64..6), 0..6),
        proptest::bool::weighted(0.85),
    )
        .prop_map(|(updates, fetches, lookups, connected)| CycleScript {
            updates,
            fetches,
            lookups,
            connected,
        })
}

fn run_script(mode: CacheMode, capacity: u32, old_capacity: u32, script: &[CycleScript]) {
    let mut oracle = Oracle::new();
    let mut cache = ClientCache::new(CacheParams {
        mode,
        current_capacity: capacity,
        old_capacity,
        items_per_bucket: 1,
    });
    let mut pending_updates: Vec<ItemId> = Vec::new();

    for (n, step) in script.iter().enumerate() {
        let cycle = Cycle::new(n as u64);
        // the bcast for this cycle reflects all previous commits; the
        // report lists the items updated during the previous cycle
        let bcast = oracle.bcast(cycle, &pending_updates);

        if step.connected {
            cache.on_report(bcast.control().invalidation());
            cache.autoprefetch(&bcast);
            for &raw in &step.fetches {
                let item = ItemId::new(raw);
                let rec = bcast.current(item).expect("all items on air");
                cache.insert_from_broadcast(rec, cycle);
            }
            for &(raw, back) in &step.lookups {
                let item = ItemId::new(raw);
                let state = Cycle::new((n as u64).saturating_sub(back));
                if let Some(candidate) = cache.lookup(item, state) {
                    let expect = oracle.value_at(item, state);
                    assert_eq!(
                        Some(candidate.value),
                        expect,
                        "cycle {n}: cache served a wrong value for {item} at {state}"
                    );
                }
            }
        } else {
            cache.on_missed_cycle(cycle);
        }

        // the server commits this cycle's updates (visible next cycle)
        pending_updates.clear();
        for &raw in &step.updates {
            let item = ItemId::new(raw);
            oracle.update(item, cycle);
            pending_updates.push(item);
        }
        pending_updates.sort();
        pending_updates.dedup();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Plain-mode cache: every candidate it ever returns is the exact
    /// value current at the requested state.
    #[test]
    fn plain_cache_never_serves_wrong_values(
        script in proptest::collection::vec(cycle_script(), 1..20),
        capacity in 1u32..10,
    ) {
        run_script(CacheMode::Plain, capacity, 0, &script);
    }

    /// Versioned-mode cache: same soundness, including stale-but-tagged
    /// candidates served for pinned past states.
    #[test]
    fn versioned_cache_never_serves_wrong_values(
        script in proptest::collection::vec(cycle_script(), 1..20),
        capacity in 1u32..10,
    ) {
        run_script(CacheMode::Versioned, capacity, 0, &script);
    }

    /// Multiversion-mode cache: old-partition candidates must also be
    /// exactly right for the requested past state.
    #[test]
    fn multiversion_cache_never_serves_wrong_values(
        script in proptest::collection::vec(cycle_script(), 1..20),
        capacity in 1u32..10,
        old_capacity in 1u32..8,
    ) {
        run_script(CacheMode::Multiversion, capacity, old_capacity, &script);
    }
}
