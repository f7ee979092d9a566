//! Property tests for the serialization graphs: the server's
//! append-only history graph and the client's window, each against the
//! linked `BTreeMap` baseline.

// Integration tests are exempt from the panic-freedom policy
// (mirrors `allow-unwrap-in-tests` in clippy.toml and the `#[cfg(test)]`
// carve-out in `cargo xtask lint`).
#![allow(clippy::unwrap_used)]
use proptest::prelude::*;

mod baseline;

use baseline::BaselineGraph;
use std::sync::Arc;

use bpush_sgraph::{GraphDiff, Node, SerializationGraph, Window};
use bpush_types::{Cycle, QueryId, TxnId};

/// Strategy: a random "server history" of edges that always point from an
/// earlier transaction to a later one — strict histories can produce
/// nothing else (Claim 1).
fn forward_edges() -> impl Strategy<Value = Vec<(TxnId, TxnId)>> {
    proptest::collection::vec((0u64..8, 0u32..4, 0u64..8, 0u32..4), 0..64).prop_map(|raw| {
        raw.into_iter()
            .filter_map(|(c1, s1, c2, s2)| {
                let a = TxnId::new(Cycle::new(c1), s1);
                let b = TxnId::new(Cycle::new(c2), s2);
                match a.cmp(&b) {
                    std::cmp::Ordering::Less => Some((a, b)),
                    std::cmp::Ordering::Greater => Some((b, a)),
                    std::cmp::Ordering::Equal => None,
                }
            })
            .collect()
    })
}

proptest! {
    /// A pure server graph (one well-formed diff per cycle, every edge
    /// from an older to a newer transaction) puts no node on a cycle —
    /// the serialization-theorem precondition the SGT method relies on.
    #[test]
    fn forward_only_graphs_are_acyclic(edges in forward_edges()) {
        let mut g = SerializationGraph::new();
        for cycle in (0..8).map(Cycle::new) {
            let into = edges.iter().filter(|(_, to)| to.cycle() == cycle).copied();
            g.push(&well_formed(cycle, Vec::new(), into.collect()));
        }
        for n in g.nodes() {
            prop_assert!(!g.path_exists(n, n), "{} lies on a cycle", n);
        }
    }

    /// Differential test of the append-only history graph: pushing a
    /// stream of diffs leaves it indistinguishable from the linked
    /// [`BaselineGraph`] applying the same diffs — `Debug` text, counts,
    /// node order, successor lists and reachability between every pair of
    /// nodes, after every diff. The diffs come in any cycle order and now
    /// and then name a transaction far from the rest (a sequence number
    /// of 5 000 or `u32::MAX`, or in release builds a cycle of 100 000),
    /// so new nodes land anywhere in the sorted table; in release builds
    /// the diffs may also be malformed — new → old,
    /// self, duplicate or off-cycle edges, targets missing from the
    /// commits, commits and targets out of order — which `GraphDiff::new`
    /// only rejects under `debug_assertions`.
    #[test]
    fn interned_graph_agrees_with_baseline(diffs in proptest::collection::vec(diff(), 0..24)) {
        let mut fast = SerializationGraph::new();
        let mut slow = BaselineGraph::new();
        for diff in diffs {
            fast.push(&diff);
            slow.apply_diff(&diff);
            assert_same(&fast, &slow)?;
        }
    }

    /// The counts are the graph's: after every pushed diff of an
    /// arbitrary stream (malformed diffs included in release builds),
    /// `edge_count` is the total length of the successor lists and
    /// `node_count` the length of `nodes()`, which lists each node once in
    /// ascending order; every successor is a node, and neither count ever
    /// falls — the history graph drops nothing.
    #[test]
    fn counts_stay_consistent(diffs in proptest::collection::vec(diff(), 0..24)) {
        let mut g = SerializationGraph::new();
        let (mut nodes_before, mut edges_before) = (0, 0);
        for diff in diffs {
            g.push(&diff);
            let nodes: Vec<Node> = g.nodes().collect();
            prop_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "nodes out of order");
            prop_assert_eq!(g.node_count(), nodes.len());
            let truth: usize = nodes.iter().map(|&n| g.successors(n).count()).sum();
            prop_assert_eq!(g.edge_count(), truth);
            for &n in &nodes {
                for m in g.successors(n) {
                    prop_assert!(nodes.binary_search(&m).is_ok(), "dangling edge target {}", m);
                }
            }
            for &t in diff.committed() {
                prop_assert!(nodes.binary_search(&Node::Txn(t)).is_ok(), "commit {} lost", t);
            }
            prop_assert!(g.node_count() >= nodes_before && g.edge_count() >= edges_before);
            (nodes_before, edges_before) = (g.node_count(), g.edge_count());
        }
    }

    /// Differential test of the per-cycle `firsts` slots, the one-guess
    /// lookup of a replay in cycle order: pushed diffs of cycles that rise
    /// by gaps of up to 80 — so the slots now extend and now stop short of
    /// a cycle past `FIRSTS_GAP` — with now and then a diff of an earlier
    /// cycle or a transaction far from the rest (see `txn_id`), leave the
    /// graph indistinguishable from the `BTreeMap`-indexed
    /// [`BaselineGraph`] applying the same diffs: `Debug` text, counts,
    /// node order, successor lists and reachability, after every diff.
    #[test]
    fn slotted_graph_agrees_with_the_indexed_model(
        steps in proptest::collection::vec(
            (
                0u8..10,
                0u64..80,
                proptest::collection::vec(0u32..4, 0..4),
                proptest::collection::vec((txn_id(), 0u32..4, 0u8..5, txn_id()), 0..8),
            ),
            0..24,
        ),
    ) {
        let mut fast = SerializationGraph::new();
        let mut model = BaselineGraph::new();
        let mut last = 0u64;
        for (kind, gap, seqs, raw) in steps {
            let cycle = match kind {
                0 => gap % 8, // maybe earlier than the last
                1..=5 => last + 1,
                _ => last + gap,
            };
            last = last.max(cycle);
            // sources of cycles 0–7 count back from the diff's cycle
            let back = |t: TxnId| match t.cycle().number() {
                c if c < 8 => TxnId::new(Cycle::new(cycle.saturating_sub(c)), t.seq()),
                _ => t,
            };
            let raw = raw.into_iter().map(|(from, seq, anywhere, to)| (back(from), seq, anywhere, to));
            let diff = diff_of(Cycle::new(cycle), seqs, raw.collect());
            fast.push(&diff);
            model.apply_diff(&diff);
            assert_same(&fast, &model)?;
        }
    }
}

proptest! {
    /// Lemma-1 pruning keeps what the window's queries need: in the
    /// client's [`Window`] over a history of forward-only edges (one
    /// well-formed diff per cycle, listing every transaction of its cycle
    /// the history names), moving the window start to `bound` changes no
    /// answer of `path_exists` between transactions at or after `bound` —
    /// a path between them only passes through newer transactions — and
    /// before the move every answer is the history graph's.
    #[test]
    fn prune_preserves_window_reachability(
        edges in forward_edges(),
        bound in 0u64..8,
    ) {
        let mut window = Window::new();
        let mut history = SerializationGraph::new();
        let mut named: Vec<TxnId> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
        named.sort_unstable();
        named.dedup();
        for cycle in (0..8).map(Cycle::new) {
            let seqs = named.iter().filter(|t| t.cycle() == cycle).map(|t| t.seq()).collect();
            let into = edges.iter().filter(|(_, to)| to.cycle() == cycle).copied();
            let diff = well_formed(cycle, seqs, into.collect());
            history.push(&diff);
            window.advance(Some(Cycle::ZERO), Some(&Arc::new(diff)));
        }
        let bound = Cycle::new(bound);
        let retained: Vec<TxnId> = named.into_iter().filter(|t| t.cycle() >= bound).collect();
        let reach = |w: &Window| -> Vec<Vec<bool>> {
            retained
                .iter()
                .map(|&a| retained.iter().map(|&b| w.path_exists(a, b)).collect())
                .collect()
        };
        let before = reach(&window);
        let truth: Vec<Vec<bool>> = retained
            .iter()
            .map(|&a| {
                retained
                    .iter()
                    .map(|&b| history.path_exists(Node::Txn(a), Node::Txn(b)))
                    .collect()
            })
            .collect();
        prop_assert_eq!(&before, &truth);
        window.advance(Some(bound), None);
        prop_assert_eq!(reach(&window), before);
    }

    /// Window-first integration is apply-then-prune: for a server stream
    /// of well-formed diffs of rising cycles (sources are earlier
    /// commits), query edges added in between, and window starts that
    /// move both ways, pass every node or vanish, `advance(b, Some(d))`
    /// leaves the [`Window`] that `advance(Some(ZERO), Some(d));
    /// advance(b, None)` leaves — same canonical rendering, same counts,
    /// same reachability — and both agree with the [`BaselineGraph`]
    /// doing `apply_diff(d); prune_before(b)`, or starting over when there
    /// is no window.
    #[test]
    fn windowed_diff_equals_apply_then_prune(
        steps in proptest::collection::vec(
            (
                // the diff: its cycle's rise, committed seqs, (source
                // pick, target seq) edges
                (1u64..3, proptest::collection::vec(0u32..4, 0..4)),
                proptest::collection::vec((0usize..64, 0u32..4), 0..8),
                // the window start back from the diff's cycle (5 = past
                // it, 6 = no window), and a query-edge operation
                // (kind, query, transaction pick) before the diff arrives
                0u64..7,
                (0u8..3, 0u64..3, 0usize..64),
            ),
            0..24,
        ),
    ) {
        let mut windowed = Window::new();
        let mut reference = Window::new();
        let mut baseline = BaselineGraph::new();
        // every commit the server made
        let mut history: Vec<TxnId> = Vec::new();
        let mut n = 0u64;
        for ((rise, mut seqs), raw_edges, back, (op, q, pick)) in steps {
            n += rise;
            let cycle = Cycle::new(n);
            let mut edges = Vec::new();
            for (from_pick, ts) in raw_edges {
                let to = TxnId::new(cycle, ts);
                let from = if from_pick % 5 == 0 && ts > 0 {
                    TxnId::new(cycle, ts - 1) // a same-cycle source
                } else if let Some(&from) = history.get(from_pick % history.len().max(1)) {
                    from
                } else {
                    continue;
                };
                seqs.extend([from, to].iter().filter(|t| t.cycle() == cycle).map(|t| t.seq()));
                edges.push((from, to));
            }
            let diff = well_formed(cycle, seqs, edges);
            let bound = match back {
                0..=4 => Some(Cycle::new(n.saturating_sub(back))),
                5 => Some(Cycle::new(n + 1)),
                _ => None,
            };

            let named: Vec<TxnId> = history.iter().chain(diff.committed()).copied().collect();
            let query = QueryId::new(q);
            if let Some(&txn) = named.get(pick % named.len().max(1)) {
                match op {
                    0 => {
                        let added = windowed.add_precedence(query, txn);
                        prop_assert_eq!(added, reference.add_precedence(query, txn));
                        let edge = (Node::Query(query), Node::Txn(txn));
                        prop_assert_eq!(added, baseline.add_edge(edge.0, edge.1));
                    }
                    1 => {
                        let added = windowed.add_dependency(txn, query);
                        prop_assert_eq!(added, reference.add_dependency(txn, query));
                        let edge = (Node::Txn(txn), Node::Query(query));
                        prop_assert_eq!(added, baseline.add_edge(edge.0, edge.1));
                    }
                    _ => {}
                }
            }
            history.extend_from_slice(diff.committed());

            let diff = Arc::new(diff);
            windowed.advance(bound, Some(&diff));
            reference.advance(Some(Cycle::ZERO), Some(&diff));
            reference.advance(bound, None);
            match bound {
                Some(bound) => {
                    baseline.apply_diff(&diff);
                    baseline.prune_before(bound);
                }
                None => baseline = BaselineGraph::new(),
            }

            prop_assert_eq!(format!("{windowed:?}"), format!("{reference:?}"));
            prop_assert_eq!(format!("{windowed:?}"), baseline.rendering());
            prop_assert_eq!(windowed.node_count(), reference.node_count());
            prop_assert_eq!(windowed.edge_count(), reference.edge_count());
            prop_assert_eq!(windowed.node_count(), baseline.node_count());
            prop_assert_eq!(windowed.edge_count(), baseline.edge_count());
            let live: Vec<TxnId> = baseline.nodes().filter_map(Node::as_txn).collect();
            for &a in &live {
                for &b in &live {
                    let truth = baseline.path_exists(Node::Txn(a), Node::Txn(b));
                    prop_assert_eq!(windowed.path_exists(a, b), truth, "{} ->* {}", a, b);
                    prop_assert_eq!(reference.path_exists(a, b), truth, "{} ->* {}", a, b);
                }
            }
        }
    }
}

/// One cycle of [`window_agrees_with_the_linked_baseline`]: whether the
/// client misses the cycle's diff, the commits' sequence numbers, the
/// edges `(source pick, target seq)`, the window start, and the query
/// operations `(kind, query, transaction pick)` before the diff arrives.
type WindowStep = (bool, Vec<u32>, Vec<(usize, u32)>, u8, Vec<(u8, u64, usize)>);

proptest! {
    /// Differential test of the SGT client's window: the [`Window`] of
    /// shared chunks and the linked [`BaselineGraph`] doing `apply_diff;
    /// prune_before` (or starting over when there is no window) stay
    /// indistinguishable — `Debug` text, counts, the acceptance test for
    /// every live transaction against every query, and reachability
    /// between every ordered pair of live transactions — under a server
    /// stream of well-formed diffs whose sources are earlier commits,
    /// missed cycles, window starts that move both ways, vanish or pass
    /// every node, and query edges to transactions inside, below, above
    /// and beside the window (a missed cycle's, or one whose chunk has not
    /// come yet).
    #[test]
    fn window_agrees_with_the_linked_baseline(
        steps in proptest::collection::vec(
            (
                proptest::bool::weighted(0.2),
                proptest::collection::vec(0u32..4, 0..4),
                proptest::collection::vec((0usize..64, 0u32..4), 0..8),
                0u8..8,
                proptest::collection::vec((0u8..5, 0u64..3, 0usize..64), 0..4),
            ),
            0..24,
        ),
    ) {
        let steps: Vec<WindowStep> = steps;
        let mut window = Window::new();
        let mut baseline = BaselineGraph::new();
        // every commit the server made, heard or not
        let mut history: Vec<TxnId> = Vec::new();
        for (n, (missed, mut seqs, raw_edges, start, ops)) in (1u64..).zip(steps) {
            let cycle = Cycle::new(n);
            let mut edges = Vec::new();
            for (pick, ts) in raw_edges {
                let to = TxnId::new(cycle, ts);
                let from = if pick % 5 == 0 && ts > 0 {
                    TxnId::new(cycle, ts - 1) // a same-cycle source
                } else if let Some(&from) = history.get(pick % history.len().max(1)) {
                    from
                } else {
                    continue;
                };
                seqs.extend([from, to].iter().filter(|t| t.cycle() == cycle).map(|t| t.seq()));
                edges.push((from, to));
            }
            let diff = well_formed(cycle, seqs, edges);
            let named: Vec<TxnId> = history.iter().chain(diff.committed()).copied().collect();
            for (kind, q, pick) in ops {
                let query = QueryId::new(q);
                let Some(&t) = named.get(pick % named.len().max(1)) else {
                    continue;
                };
                match kind {
                    0 => prop_assert_eq!(
                        window.add_precedence(query, t),
                        baseline.add_edge(Node::Query(query), Node::Txn(t))
                    ),
                    1 => prop_assert_eq!(
                        window.add_dependency(t, query),
                        baseline.add_edge(Node::Txn(t), Node::Query(query))
                    ),
                    2 => {
                        window.remove_query(query);
                        baseline.remove_query(query);
                    }
                    _ => prop_assert_eq!(
                        window.would_close_cycle(t, query),
                        baseline.would_close_cycle(Node::Txn(t), Node::Query(query))
                    ),
                }
            }
            history.extend_from_slice(diff.committed());
            if !missed {
                let start = match start {
                    0..=4 => Some(Cycle::new(n.saturating_sub(u64::from(start)))),
                    5 => Some(Cycle::new(n + 1)),
                    6 => Some(Cycle::ZERO),
                    _ => None,
                };
                window.advance(start, Some(&Arc::new(diff.clone())));
                match start {
                    Some(start) => {
                        baseline.apply_diff(&diff);
                        baseline.prune_before(start);
                    }
                    None => baseline = BaselineGraph::new(),
                }
            }
            prop_assert_eq!(format!("{window:?}"), baseline.rendering());
            prop_assert_eq!(window.node_count(), baseline.node_count());
            prop_assert_eq!(window.edge_count(), baseline.edge_count());
            let live: Vec<TxnId> = baseline.nodes().filter_map(Node::as_txn).collect();
            for &t in &live {
                for &u in &live {
                    prop_assert_eq!(
                        window.path_exists(t, u),
                        baseline.path_exists(Node::Txn(t), Node::Txn(u)),
                        "{} ->* {}",
                        t,
                        u
                    );
                }
                for q in (0..3).map(QueryId::new) {
                    prop_assert_eq!(
                        window.would_close_cycle(t, q),
                        baseline.would_close_cycle(Node::Txn(t), Node::Query(q)),
                        "{} -> {}",
                        t,
                        q
                    );
                }
            }
        }
    }
}

/// A transaction of cycles 0–7, now and then one far past them: a
/// sequence number of 5 000 or `u32::MAX`, or a cycle of 100 000.
fn txn_id() -> impl Strategy<Value = TxnId> {
    (0u8..10, 0u64..8, 0u8..10, 0u32..4).prop_map(|(far, c, big, s)| {
        let cycle = if far == 0 { 100_000 } else { c };
        let seq = match big {
            0 => 5_000,
            1 => u32::MAX,
            _ => s,
        };
        TxnId::new(Cycle::new(cycle), seq)
    })
}

/// The diff of `cycle` a server would send with these commits and
/// edges: commits ascending and holding every target, edges grouped by
/// ascending target (in their order within a group), none twice.
fn well_formed(cycle: Cycle, seqs: Vec<u32>, mut edges: Vec<(TxnId, TxnId)>) -> GraphDiff {
    let mut committed: Vec<TxnId> = seqs.into_iter().map(|s| TxnId::new(cycle, s)).collect();
    committed.extend(edges.iter().map(|&(_, to)| to));
    committed.sort_unstable();
    committed.dedup();
    edges.sort_by_key(|&(_, to)| to);
    let mut seen = std::collections::BTreeSet::new();
    edges.retain(|&e| seen.insert(e));
    GraphDiff::new(cycle, committed, edges)
}

/// A diff of a cycle 0–7: see [`diff_of`].
fn diff() -> impl Strategy<Value = GraphDiff> {
    (
        0u64..8,
        proptest::collection::vec(0u32..4, 0..4),
        proptest::collection::vec((txn_id(), 0u32..4, 0u8..5, txn_id()), 0..8),
    )
        .prop_map(|(cycle, seqs, raw)| diff_of(Cycle::new(cycle), seqs, raw))
}

/// The diff of `cycle` committing `seqs`, with an edge per
/// `(from, seq, anywhere, to)`: into the commit `seq` of `cycle`, or when
/// `anywhere` is 0 — as a malformed diff may carry — into `to`, in any
/// order. Debug builds keep only what `GraphDiff::new` admits there.
fn diff_of(cycle: Cycle, seqs: Vec<u32>, raw: Vec<(TxnId, u32, u8, TxnId)>) -> GraphDiff {
    let mut edges: Vec<(TxnId, TxnId)> = raw
        .into_iter()
        .map(|(from, seq, anywhere, to)| match anywhere {
            0 => (from, to),
            _ => (from, TxnId::new(cycle, seq)),
        })
        .collect();
    if cfg!(debug_assertions) {
        edges.retain(|&(from, to)| from < to && to.cycle() == cycle);
        return well_formed(cycle, seqs, edges);
    }
    let committed = seqs.into_iter().map(|s| TxnId::new(cycle, s)).collect();
    GraphDiff::new(cycle, committed, edges)
}

/// Everything observable about the two graphs is equal: the canonical
/// `Debug` text (what mc hashes), the counts, the node order, each
/// node's successors, and reachability between every pair of nodes.
fn assert_same(fast: &SerializationGraph, slow: &BaselineGraph) -> Result<(), TestCaseError> {
    prop_assert_eq!(format!("{fast:?}"), slow.rendering());
    prop_assert_eq!(fast.node_count(), slow.node_count());
    prop_assert_eq!(fast.edge_count(), slow.edge_count());
    let nodes: Vec<Node> = fast.nodes().collect();
    prop_assert_eq!(&nodes, &slow.nodes().collect::<Vec<Node>>());
    for &a in &nodes {
        prop_assert_eq!(
            fast.successors(a).collect::<Vec<Node>>(),
            slow.successors(a)
        );
        for &b in &nodes {
            prop_assert_eq!(
                fast.path_exists(a, b),
                slow.path_exists(a, b),
                "{} ->* {}",
                a,
                b
            );
        }
    }
    Ok(())
}

/// Malformed diffs — which only `debug_assertions` keep out of
/// `GraphDiff::new`, and which a decoded segment could still carry — move
/// the graph exactly as they move the baseline, without a panic: a new →
/// old edge, a duplicate edge, a target missing from the commits, and a
/// target of another cycle than the diff's. `GraphDiff::new` admits none of them
/// under `debug_assertions`, so the cases run in release builds.
#[test]
fn malformed_diffs_match_the_model() {
    let t = |c: u64, s: u32| TxnId::new(Cycle::new(c), s);
    let c3 = Cycle::new(3);
    // (what is wrong, commits, edges)
    let cases = [
        (
            "new -> old edge",
            vec![t(3, 0), t(3, 1)],
            vec![(t(3, 1), t(3, 0)), (t(3, 0), t(2, 0))],
        ),
        (
            "duplicate edge",
            vec![t(3, 0)],
            vec![(t(2, 0), t(3, 0)), (t(2, 0), t(3, 0))],
        ),
        (
            "target missing from the commits",
            vec![t(3, 0)],
            vec![(t(2, 0), t(3, 1))],
        ),
        (
            "target of another cycle",
            vec![t(3, 0)],
            vec![(t(2, 0), t(5, 0)), (t(2, 1), t(1, 0))],
        ),
    ];
    for (label, committed, edges) in cases {
        if cfg!(debug_assertions) {
            continue;
        }
        let diff = GraphDiff::new(c3, committed, edges);
        let older = GraphDiff::new(Cycle::new(2), vec![t(2, 0)], vec![(t(1, 0), t(2, 0))]);
        let mut fast = SerializationGraph::new();
        let mut model = BaselineGraph::new();
        for diff in [&older, &diff, &diff] {
            fast.push(diff);
            model.apply_diff(diff);
            if let Err(e) = assert_same(&fast, &model) {
                panic!("{label}: {e:?}");
            }
        }
    }
}
