//! Oracle-based soundness property test for the client cache: whatever
//! sequence of reports, fetches, autoprefetches, gaps and lookups occurs,
//! a candidate returned for database state `s` must carry **exactly the
//! value that was current at state `s`** according to an independently
//! maintained ground truth. A fixed-seed script pins, beside soundness,
//! which lookups the cache answers at all.

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
    n_items: u32,
}

impl Oracle {
    fn new(n_items: u32) -> Self {
        let mut chains = HashMap::new();
        for i in 0..n_items {
            chains.insert(ItemId::new(i), vec![ItemValue::initial()]);
        }
        Oracle { chains, n_items }
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
        let records: Vec<ItemRecord> = (0..self.n_items)
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

/// Runs `script` over `n_items` items, asserting that every answer is
/// the oracle's value, and returns what the cache did: every lookup's
/// answer (value, bounds, source) and, after each cycle, its counters.
fn run_script(
    mode: CacheMode,
    (capacity, old_capacity): (u32, u32),
    n_items: u32,
    script: &[CycleScript],
) -> Vec<String> {
    let mut oracle = Oracle::new(n_items);
    let mut seen = Vec::new();
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
                let answer = cache.lookup(item, state);
                if let Some(candidate) = answer {
                    let expect = oracle.value_at(item, state);
                    assert_eq!(
                        Some(candidate.value),
                        expect,
                        "cycle {n}: cache served a wrong value for {item} at {state}"
                    );
                }
                seen.push(format!("{item} {state} {answer:?}"));
            }
        } else {
            cache.on_missed_cycle(cycle);
        }
        seen.push(format!(
            "{:?} {} {}",
            cache.stats(),
            cache.len(),
            cache.old_len()
        ));

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
    seen
}

/// A fixed-seed script: `cycles` cycles over `n_items` items, drawn from
/// an xorshift64* stream so the script never depends on a crate's RNG.
fn pinned_script(seed: u64, cycles: usize, n_items: u32) -> Vec<CycleScript> {
    let mut state = seed;
    let mut next = |bound: u64| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound
    };
    let n = u64::from(n_items);
    (0..cycles)
        .map(|_| CycleScript {
            updates: (0..next(7)).map(|_| next(n) as u32).collect(),
            fetches: (0..next(5)).map(|_| next(n) as u32).collect(),
            lookups: (0..next(7)).map(|_| (next(n) as u32, next(6))).collect(),
            connected: next(100) < 85,
        })
        .collect()
}

/// Which lookups the cache answers, and with what, is pinned: a
/// fixed-seed script of reports, gaps, fetches, autoprefetches and
/// lookups over 40 items runs in the plain, versioned and multiversion
/// modes at capacities 1, 4 and 31, and every answer, the statistics,
/// `len()` and `old_len()` after each cycle fold into one FNV-64 digest.
/// The oracle tests below prove soundness only — a cache that never hit
/// would pass them; this one holds a faster cache to the hits of the
/// two-`BTreeMap` LRU it replaced, whose run computed the literal.
#[test]
fn cache_answers_are_pinned() {
    let script = pinned_script(0x5eed_cafe, 300, 40);
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    let mut hits = 0;
    for mode in [
        CacheMode::Plain,
        CacheMode::Versioned,
        CacheMode::Multiversion,
    ] {
        for capacity in [1, 4, 31] {
            let old_capacity = if mode == CacheMode::Multiversion {
                capacity
            } else {
                0
            };
            for line in run_script(mode, (capacity, old_capacity), 40, &script) {
                hits += usize::from(line.contains("Some("));
                for b in line.bytes().chain([b'\n']) {
                    digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }
    assert_eq!(hits, 1525, "the script exercises hits");
    assert_eq!(digest, 0x1e07_619c_ed4b_f1fa);
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
        run_script(CacheMode::Plain, (capacity, 0), N_ITEMS, &script);
    }

    /// Versioned-mode cache: same soundness, including stale-but-tagged
    /// candidates served for pinned past states.
    #[test]
    fn versioned_cache_never_serves_wrong_values(
        script in proptest::collection::vec(cycle_script(), 1..20),
        capacity in 1u32..10,
    ) {
        run_script(CacheMode::Versioned, (capacity, 0), N_ITEMS, &script);
    }

    /// Multiversion-mode cache: old-partition candidates must also be
    /// exactly right for the requested past state.
    #[test]
    fn multiversion_cache_never_serves_wrong_values(
        script in proptest::collection::vec(cycle_script(), 1..20),
        capacity in 1u32..10,
        old_capacity in 1u32..8,
    ) {
        run_script(CacheMode::Multiversion, (capacity, old_capacity), N_ITEMS, &script);
    }
}
