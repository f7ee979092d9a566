//! Property tests for the serializability validators over random serial
//! histories: the interval check against a brute-force prefix oracle,
//! the conflict-graph batch against the §2.2 criterion written out.

// Integration tests are exempt from the panic-freedom policy
// (mirrors `allow-unwrap-in-tests` in clippy.toml and the `#[cfg(test)]`
// carve-out in `cargo xtask lint`).
#![allow(clippy::unwrap_used)]
use proptest::prelude::*;
use std::collections::HashMap;

use bpush_core::validator::{ReadRecord, SerializabilityBatch, SerializabilityValidator};
use bpush_server::WriteHistory;
use bpush_sgraph::{GraphDiff, Node, SerializationGraph};
use bpush_types::{Cycle, ItemId, ItemValue, TxnId};

const N_ITEMS: u32 = 6;

/// A random serial history: a sequence of writes `(item, join)`, each by
/// a new transaction unless `join` is 1 and the previous write's
/// transaction has not written the item yet — so one transaction can
/// both overwrite one value a readset holds and write another. Returns
/// the history plus, per item, the full version chain (initial value
/// first).
fn build_history(writes: &[(u32, u32)]) -> (WriteHistory, HashMap<ItemId, Vec<ItemValue>>) {
    let mut h = WriteHistory::new();
    let mut chains: HashMap<ItemId, Vec<ItemValue>> = (0..N_ITEMS)
        .map(|i| (ItemId::new(i), vec![ItemValue::initial()]))
        .collect();
    let mut pos = 0u64;
    let mut written: Vec<ItemId> = Vec::new();
    for (i, &(raw, join)) in writes.iter().enumerate() {
        let item = ItemId::new(raw % N_ITEMS);
        if i > 0 && (join == 0 || written.contains(&item)) {
            // strictly increasing serial order
            pos += 1;
            written.clear();
        }
        written.push(item);
        let value = ItemValue::written_by(TxnId::new(Cycle::new(pos), 0));
        h.record(item, value);
        chains.get_mut(&item).expect("known").push(value);
    }
    (h, chains)
}

/// The transaction `build_history` commits at serial position `pos`.
fn txn(pos: u64) -> TxnId {
    TxnId::new(Cycle::new(pos), 0)
}

/// The graph a server replay of these conflict edges builds: one diff
/// per target, committing it with its in-edges, pushed in target order.
/// A back edge makes its diff malformed, which `GraphDiff::new` admits
/// only in release builds.
fn replayed(mut edges: Vec<(TxnId, TxnId)>) -> SerializationGraph {
    edges.sort_unstable_by_key(|&(from, to)| (to, from));
    edges.dedup();
    let mut graph = SerializationGraph::new();
    let mut rest = edges.as_slice();
    while let Some(&(_, to)) = rest.first() {
        let (into, tail) = rest.split_at(rest.iter().take_while(|e| e.1 == to).count());
        graph.push(&GraphDiff::new(to.cycle(), vec![to], into.to_vec()));
        rest = tail;
    }
    graph
}

/// Brute-force oracle: a readset is prefix-consistent iff there is a
/// prefix length `k` of the serial history at which every read value is
/// the latest write (or initial load) among the first `k` writes.
fn oracle_prefix_consistent(
    chains: &HashMap<ItemId, Vec<ItemValue>>,
    total_writes: usize,
    reads: &[ReadRecord],
) -> bool {
    'prefix: for k in 0..=total_writes {
        for r in reads {
            let current = chains[&r.item]
                .iter()
                .rev()
                .find(|v| match v.writer() {
                    None => true,
                    Some(w) => (w.cycle().number() as usize) < k,
                })
                .copied()
                .expect("initial value always qualifies");
            if current != r.value {
                continue 'prefix;
            }
        }
        return true;
    }
    false
}

/// Readsets over `chains`: per pick, one version of one (distinct) item.
fn build_readsets(
    chains: &HashMap<ItemId, Vec<ItemValue>>,
    picks: &[Vec<(u32, usize)>],
) -> Vec<Vec<ReadRecord>> {
    picks
        .iter()
        .map(|picks| {
            let mut used = std::collections::HashSet::new();
            picks
                .iter()
                .map(|&(raw, vidx)| (ItemId::new(raw % N_ITEMS), vidx))
                .filter(|&(item, _)| used.insert(item))
                .map(|(item, vidx)| {
                    ReadRecord::new(item, chains[&item][vidx % chains[&item].len()])
                })
                .collect()
        })
        .collect()
}

/// The criterion of §2.2 written out: a readset closes a cycle through
/// the query iff some first overwriter of a value read is, or reaches,
/// the writer of a value read.
fn satisfies_criterion(h: &WriteHistory, graph: &SerializationGraph, reads: &[ReadRecord]) -> bool {
    let writers = || reads.iter().filter_map(|r| r.value.writer());
    !reads
        .iter()
        .filter_map(|r| h.next_overwrite(r.item, r.value)?.writer())
        .any(|o| writers().any(|w| o == w || graph.path_exists(Node::Txn(o), Node::Txn(w))))
}

/// The differential at the heart of the audit: one batch, every readset
/// checked twice in a row and then again in a shuffled order, each
/// verdict equal to the criterion's. Scratch reused across calls must
/// not leak from one readset into the next.
fn assert_batch_matches_criterion(
    h: &WriteHistory,
    graph: &SerializationGraph,
    readsets: &[Vec<ReadRecord>],
    shuffle: &[usize],
) -> Result<(), TestCaseError> {
    let mut batch = SerializabilityBatch::new(h, graph);
    for reads in readsets {
        let want = satisfies_criterion(h, graph, reads);
        prop_assert_eq!(
            batch.check(reads).is_ok(),
            want,
            "first check of {:?}",
            reads
        );
        prop_assert_eq!(batch.check(reads).is_ok(), want, "re-check of {:?}", reads);
    }
    for &i in shuffle {
        let reads = &readsets[i % readsets.len()];
        let want = satisfies_criterion(h, graph, reads);
        prop_assert_eq!(
            batch.check(reads).is_ok(),
            want,
            "shuffled check of {:?}",
            reads
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Batch vs criterion on commit-ordered graphs — every edge old →
    /// new, the only shape the server's conflict tracker emits, where the
    /// batch cuts its traversal at the readset's newest writer.
    #[test]
    fn batch_matches_criterion_on_commit_ordered_graphs(
        writes in proptest::collection::vec((0u32..N_ITEMS, 0u32..2), 1..24),
        edges in proptest::collection::vec((0u64..24, 0u64..24), 0..40),
        picks in proptest::collection::vec(
            proptest::collection::vec((0u32..N_ITEMS, 0usize..32), 0..5), 1..8),
        shuffle in proptest::collection::vec(0usize..64, 0..16),
    ) {
        let (h, chains) = build_history(&writes);
        let n = writes.len() as u64;
        let edges = edges.iter().map(|&(a, b)| (a % n, b % n)).filter(|(a, b)| a != b);
        let graph = replayed(edges.map(|(a, b)| (txn(a.min(b)), txn(a.max(b)))).collect());
        let readsets = build_readsets(&chains, &picks);
        assert_batch_matches_criterion(&h, &graph, &readsets, &shuffle)?;
    }

    /// Batch vs criterion on arbitrary graphs — back edges, cycles and
    /// transactions the history never mentions included — for which the
    /// batch has no order to lean on and must traverse unbounded. The
    /// back edges come in malformed diffs, so debug builds keep only the
    /// forward ones.
    #[test]
    fn batch_matches_criterion_on_arbitrary_graphs(
        writes in proptest::collection::vec((0u32..N_ITEMS, 0u32..2), 1..24),
        edges in proptest::collection::vec((0u64..30, 0u64..30), 0..40),
        picks in proptest::collection::vec(
            proptest::collection::vec((0u32..N_ITEMS, 0usize..32), 0..5), 1..8),
        shuffle in proptest::collection::vec(0usize..64, 0..16),
    ) {
        let (h, chains) = build_history(&writes);
        let edges = edges.iter().filter(|(a, b)| a < b || (a > b && !cfg!(debug_assertions)));
        let graph = replayed(edges.map(|&(a, b)| (txn(a), txn(b))).collect());
        let readsets = build_readsets(&chains, &picks);
        assert_batch_matches_criterion(&h, &graph, &readsets, &shuffle)?;
    }

    /// The interval check agrees with the brute-force prefix oracle for
    /// arbitrary histories and arbitrary (possibly torn) readsets.
    #[test]
    fn interval_check_matches_prefix_oracle(
        writes in proptest::collection::vec((0u32..N_ITEMS, 0u32..2), 0..24),
        picks in proptest::collection::vec((0u32..N_ITEMS, 0usize..32), 0..5),
    ) {
        let (h, chains) = build_history(&writes);
        let validator = SerializabilityValidator::new(&h);
        // a readset picking, per chosen item, some version index
        let reads = build_readsets(&chains, std::slice::from_ref(&picks)).remove(0);
        let got = validator.check(&reads).is_ok();
        let want = oracle_prefix_consistent(&chains, writes.len(), &reads);
        prop_assert_eq!(got, want, "reads {:?}", reads);
    }

    /// Snapshot readsets (all values as of one prefix point) always pass
    /// the interval check, the criterion and the batch.
    #[test]
    fn snapshots_always_pass(
        writes in proptest::collection::vec((0u32..N_ITEMS, 0u32..2), 0..24),
        point_frac in 0.0f64..1.0,
        subset in proptest::collection::vec(0u32..N_ITEMS, 1..4),
    ) {
        let (h, chains) = build_history(&writes);
        let validator = SerializabilityValidator::new(&h);
        let k = (writes.len() as f64 * point_frac) as usize;
        let mut reads = Vec::new();
        let mut used = std::collections::HashSet::new();
        for &raw in &subset {
            let item = ItemId::new(raw);
            if !used.insert(item) {
                continue;
            }
            let v = chains[&item]
                .iter()
                .rev()
                .find(|v| match v.writer() {
                    None => true,
                    Some(w) => (w.cycle().number() as usize) < k,
                })
                .copied()
                .expect("initial always qualifies");
            reads.push(ReadRecord::new(item, v));
        }
        prop_assert!(validator.check(&reads).is_ok());
        // the graph check is weaker, so it must pass too (empty graph:
        // with no conflict edges, only direct writer==overwriter pairs
        // could fail, which a snapshot never contains)
        let graph = SerializationGraph::new();
        prop_assert!(satisfies_criterion(&h, &graph, &reads));
        prop_assert!(SerializabilityBatch::new(&h, &graph).check(&reads).is_ok());
    }

    /// The graph criterion is never *stricter* than the interval check:
    /// any prefix-consistent readset satisfies it, and passes the batch,
    /// over the full serial-order conflict graph (completeness of the
    /// weaker criterion).
    #[test]
    fn graph_check_is_weaker(
        writes in proptest::collection::vec((0u32..N_ITEMS, 0u32..2), 1..24),
        point_frac in 0.0f64..1.0,
    ) {
        let (h, chains) = build_history(&writes);
        let validator = SerializabilityValidator::new(&h);
        let k = (writes.len() as f64 * point_frac) as usize;
        let reads: Vec<ReadRecord> = (0..N_ITEMS)
            .map(|i| {
                let item = ItemId::new(i);
                let v = chains[&item]
                    .iter()
                    .rev()
                    .find(|v| match v.writer() {
                        None => true,
                        Some(w) => (w.cycle().number() as usize) < k,
                    })
                    .copied()
                    .expect("initial always qualifies");
                ReadRecord::new(item, v)
            })
            .collect();
        // build the *full* serial-order conflict graph: an edge between
        // consecutive writers of the same item
        let edges = chains
            .values()
            .flat_map(|chain| chain.windows(2))
            .filter_map(|w| Some((w[0].writer()?, w[1].writer()?)));
        let graph = replayed(edges.collect());
        prop_assert!(validator.check(&reads).is_ok());
        prop_assert!(satisfies_criterion(&h, &graph, &reads));
        prop_assert!(SerializabilityBatch::new(&h, &graph).check(&reads).is_ok());
    }
}
