//! Property tests for the serialization graph.

// Integration tests are exempt from the panic-freedom policy
// (mirrors `allow-unwrap-in-tests` in clippy.toml and the `#[cfg(test)]`
// carve-out in `cargo xtask lint`).
#![allow(clippy::unwrap_used)]
use proptest::prelude::*;

mod baseline;
mod indexed;

use baseline::BaselineGraph;
use std::sync::Arc;

use bpush_sgraph::{GraphDiff, Node, SerializationGraph, Window};
use bpush_types::{Cycle, QueryId, TxnId};
use indexed::IndexedGraph;

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
    /// A pure server graph (edges only from older to newer transactions)
    /// is always acyclic — the serialization-theorem precondition the SGT
    /// method relies on.
    #[test]
    fn forward_only_graphs_are_acyclic(edges in forward_edges()) {
        let mut g = SerializationGraph::new();
        for (a, b) in edges {
            g.add_edge(Node::Txn(a), Node::Txn(b));
        }
        prop_assert!(g.is_acyclic());
    }

    /// Adding only the edges that close no cycle (`b` does not reach
    /// `a`) never lets the graph become cyclic, whatever edges are
    /// attempted (including backward ones).
    #[test]
    fn guarded_add_edge_preserves_acyclicity(
        raw in proptest::collection::vec((0u64..6, 0u32..3, 0u64..6, 0u32..3), 0..64),
    ) {
        let mut g = SerializationGraph::new();
        for (c1, s1, c2, s2) in raw {
            let a = Node::Txn(TxnId::new(Cycle::new(c1), s1));
            let b = Node::Txn(TxnId::new(Cycle::new(c2), s2));
            if a != b && !g.path_exists(b, a) {
                g.add_edge(a, b);
            }
            prop_assert!(g.is_acyclic());
        }
    }

    /// Pruning below the earliest cycle touched by any path query never
    /// changes the outcome of path queries within the retained window.
    #[test]
    fn prune_preserves_window_reachability(
        edges in forward_edges(),
        bound in 0u64..8,
    ) {
        let mut g = SerializationGraph::new();
        for (a, b) in &edges {
            g.add_edge(Node::Txn(*a), Node::Txn(*b));
        }
        // record all pairwise reachability among retained nodes
        let bound = Cycle::new(bound);
        let retained: Vec<Node> = g
            .nodes()
            .filter(|n| n.as_txn().map_or(true, |t| t.cycle() >= bound))
            .collect();
        let before: Vec<Vec<bool>> = retained
            .iter()
            .map(|&a| retained.iter().map(|&b| g.path_exists(a, b)).collect())
            .collect();
        g.advance(Some(bound), None);
        // Forward-only edges mean any path between retained (>= bound)
        // nodes only traverses retained nodes, so reachability must match.
        let after: Vec<Vec<bool>> = retained
            .iter()
            .map(|&a| retained.iter().map(|&b| g.path_exists(a, b)).collect())
            .collect();
        prop_assert_eq!(before, after);
    }

    /// Edge and node counts stay consistent under arbitrary interleavings
    /// of inserts (both directions) and prunes.
    #[test]
    fn counts_stay_consistent(
        ops in proptest::collection::vec((0u8..3, 0u64..6, 0u32..3, 0u64..6), 0..80),
    ) {
        let mut g = SerializationGraph::new();
        for (op, c, s, d) in ops {
            let a = Node::Txn(TxnId::new(Cycle::new(c), s));
            let b = Node::Txn(TxnId::new(Cycle::new(d), s));
            match op {
                0 => {
                    g.add_edge(a, b);
                }
                1 => {
                    g.add_edge(b, a);
                }
                _ => g.advance(Some(Cycle::new(c)), None),
            }
            // recount ground truth
            let truth: usize = g.nodes().map(|n| g.successors(n).count()).sum();
            prop_assert_eq!(g.edge_count(), truth);
            // no dangling successors
            for n in g.nodes() {
                for m in g.successors(n) {
                    prop_assert!(g.contains(m), "dangling edge target {m}");
                }
            }
        }
    }

    /// Differential test: the interned graph and the original
    /// `BTreeMap`-based [`BaselineGraph`] answer every query identically
    /// under arbitrary interleavings of `add_edge` (both directions, and
    /// a refused query end), path queries and window moves (`advance`
    /// without a diff against the baseline's `prune_before`). This is the
    /// conformance argument for the interning rewrite: same operation
    /// sequence, same observable state, edge by edge.
    #[test]
    fn interned_graph_agrees_with_baseline(
        ops in proptest::collection::vec((0u8..5, 0u64..6, 0u32..3, 0u64..6), 0..100),
    ) {
        let mut fast = SerializationGraph::new();
        let mut slow = BaselineGraph::new();
        for (op, c, s, d) in ops {
            let txn = Node::Txn(TxnId::new(Cycle::new(c), s));
            // possibly backward: both must agree even on edges a real
            // history can't produce
            let other = Node::Txn(TxnId::new(Cycle::new(d), s));
            match op {
                0 => {
                    prop_assert_eq!(fast.add_edge(txn, other), slow.add_edge(txn, other));
                }
                1 => {
                    prop_assert_eq!(fast.add_edge(other, txn), slow.add_edge(other, txn));
                }
                2 => {
                    // the graph holds transactions only
                    prop_assert!(!fast.add_edge(txn, Node::Query(QueryId::new(d))));
                }
                3 => {
                    fast.advance(Some(Cycle::new(c)), None);
                    slow.prune_before(Cycle::new(c));
                }
                _ => {
                    prop_assert_eq!(fast.path_exists(other, txn), slow.path_exists(other, txn));
                }
            }
            // observable state matches after every step
            prop_assert_eq!(fast.node_count(), slow.node_count());
            prop_assert_eq!(fast.edge_count(), slow.edge_count());
            prop_assert_eq!(fast.earliest_cycle(), slow.earliest_cycle());
            prop_assert_eq!(fast.is_acyclic(), slow.is_acyclic());
            let fast_nodes: Vec<Node> = fast.nodes().collect();
            let slow_nodes: Vec<Node> = slow.nodes().collect();
            prop_assert_eq!(&fast_nodes, &slow_nodes, "node sets diverged");
            for n in fast_nodes {
                prop_assert_eq!(
                    fast.successors(n).collect::<Vec<Node>>(),
                    slow.successors(n),
                    "successor lists diverged at {}",
                    n
                );
                prop_assert_eq!(fast.path_exists(n, txn), slow.path_exists(n, txn));
            }
        }
    }

    /// Window-first integration is apply-then-prune: for random diffs,
    /// transaction edges added in between, and window starts that move
    /// both ways or vanish, `advance(b, Some(d))` leaves the graph
    /// `advance(Some(ZERO), Some(d)); advance(b, None)` leaves — same
    /// canonical rendering (node set and successor order), same counts —
    /// and both agree with the [`BaselineGraph`] doing `apply_diff(d);
    /// prune_before(b)`, or starting over when there is no window.
    #[test]
    fn windowed_diff_equals_apply_then_prune(
        steps in proptest::collection::vec(
            (
                // the diff: its cycle, committed seqs, (from cycle, from seq, to seq) edges
                (1u64..8, proptest::collection::vec(0u32..4, 0..4)),
                proptest::collection::vec((0u64..8, 0u32..4, 0u32..4), 0..10),
                // the window start (9 = no window), and a query-edge
                // operation in between
                0u64..10,
                (0u8..4, 0u64..3, 0u64..8, 0u32..4),
            ),
            0..24,
        ),
    ) {
        let mut windowed = SerializationGraph::new();
        let mut reference = SerializationGraph::new();
        let mut baseline = BaselineGraph::new();
        for ((cycle, seqs), raw_edges, bound, (op, q, c, s)) in steps {
            let cycle = Cycle::new(cycle);
            let edges: Vec<(TxnId, TxnId)> = raw_edges
                .into_iter()
                .map(|(fc, fs, ts)| (TxnId::new(Cycle::new(fc), fs), TxnId::new(cycle, ts)))
                .filter(|(from, to)| from < to)
                .collect();
            let diff = well_formed(cycle, seqs, edges);
            let bound = (bound < 9).then(|| Cycle::new(bound));

            let other = Node::Txn(TxnId::new(Cycle::new(q), s));
            let txn = Node::Txn(TxnId::new(Cycle::new(c), s));
            match op {
                0 => {
                    windowed.add_edge(other, txn);
                    reference.add_edge(other, txn);
                    baseline.add_edge(other, txn);
                }
                1 => {
                    windowed.add_edge(txn, other);
                    reference.add_edge(txn, other);
                    baseline.add_edge(txn, other);
                }
                _ => {}
            }

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
            prop_assert_eq!(windowed.node_count(), reference.node_count());
            prop_assert_eq!(windowed.edge_count(), reference.edge_count());
            prop_assert_eq!(windowed.earliest_cycle(), reference.earliest_cycle());
            prop_assert_eq!(windowed.node_count(), baseline.node_count());
            prop_assert_eq!(windowed.edge_count(), baseline.edge_count());
            prop_assert_eq!(windowed.earliest_cycle(), baseline.earliest_cycle());
            let nodes: Vec<Node> = windowed.nodes().collect();
            prop_assert_eq!(&nodes, &baseline.nodes().collect::<Vec<Node>>());
            for n in nodes {
                prop_assert_eq!(windowed.successors(n).collect::<Vec<Node>>(), baseline.successors(n));
            }
        }
    }

    /// Differential test of the per-cycle slots: the graph and the
    /// `BTreeMap`-indexed [`IndexedGraph`] it replaced stay
    /// indistinguishable under random sequences of `add_edge` (both
    /// directions, duplicates), window moves with a diff (`start` forward,
    /// backward and past every node) and `advance(None, _)`. Transaction
    /// ids now and then fall outside the slots' reach (a sequence number
    /// past it, a cycle far beyond the base); in release builds the diffs
    /// may also be malformed — new → old, duplicate or off-cycle edges,
    /// targets missing from the commits, commits and targets out of order
    /// — which `GraphDiff::new` only rejects under `debug_assertions`.
    #[test]
    fn slotted_graph_agrees_with_the_indexed_model(
        steps in proptest::collection::vec(step(), 0..40),
    ) {
        let mut fast = SerializationGraph::new();
        let mut model = IndexedGraph::new();
        for step in steps {
            match step {
                Step::Edge(from, to) => {
                    prop_assert_eq!(fast.add_edge(from, to), model.add_edge(from, to));
                }
                Step::Advance(start, diff) => {
                    fast.advance(start, Some(&diff));
                    model.advance(start, Some(&diff));
                }
            }
            assert_same(&fast, &model)?;
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
    /// indistinguishable — `Debug` text, counts, and the acceptance test
    /// for every live transaction against every query — under a server
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
            for t in baseline.nodes().filter_map(Node::as_txn) {
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

/// One operation of [`slotted_graph_agrees_with_the_indexed_model`].
#[derive(Debug, Clone)]
enum Step {
    Edge(Node, Node),
    Advance(Option<Cycle>, GraphDiff),
}

/// A transaction of cycles 0–7, now and then one the slots cannot hold:
/// a sequence number past their reach, or a cycle far past any base.
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

fn node() -> impl Strategy<Value = Node> {
    txn_id().prop_map(Node::Txn)
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

/// A diff of a cycle 0–7: its commits, and edges into them or — as a
/// malformed diff may carry — anywhere, in any order. Debug builds keep
/// only what `GraphDiff::new` admits there.
fn diff() -> impl Strategy<Value = GraphDiff> {
    (
        0u64..8,
        proptest::collection::vec(0u32..4, 0..4),
        proptest::collection::vec((txn_id(), 0u32..4, 0u8..5, txn_id()), 0..8),
    )
        .prop_map(|(cycle, seqs, raw)| {
            let cycle = Cycle::new(cycle);
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
        })
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..9, node(), node(), 0u8..11, diff()).prop_map(|(op, a, b, start, diff)| {
        // a window start of cycle 0–8, one past every node, or none at all
        let start = match start {
            9 => Some(Cycle::new(100_001)),
            10 => None,
            c => Some(Cycle::new(u64::from(c))),
        };
        match op {
            0..=4 => Step::Edge(a, b),
            _ => Step::Advance(start, diff),
        }
    })
}

/// Everything observable about the two graphs is equal: the canonical
/// `Debug` text (what mc hashes), the counts, the node order, and
/// reachability between every pair of live nodes.
fn assert_same(fast: &SerializationGraph, model: &IndexedGraph) -> Result<(), TestCaseError> {
    prop_assert_eq!(format!("{fast:?}"), format!("{model:?}"));
    prop_assert_eq!(fast.node_count(), model.node_count());
    prop_assert_eq!(fast.edge_count(), model.edge_count());
    prop_assert_eq!(fast.is_empty(), model.is_empty());
    prop_assert_eq!(fast.earliest_cycle(), model.earliest_cycle());
    prop_assert_eq!(fast.is_acyclic(), model.is_acyclic());
    let nodes: Vec<Node> = fast.nodes().collect();
    prop_assert_eq!(&nodes, &model.nodes().collect::<Vec<Node>>());
    for &a in &nodes {
        prop_assert!(fast.contains(a));
        for &b in &nodes {
            prop_assert_eq!(
                fast.path_exists(a, b),
                model.path_exists(a, b),
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
/// the graph exactly as they move the model, without a panic: a new → old
/// edge (whose target is then dropped while its source stays, so only
/// the reverse entry the edge keeps can detach it), a duplicate edge, a
/// target missing from the commits, and a target of another cycle than
/// the diff's. `GraphDiff::new` admits none of them under
/// `debug_assertions`, so the cases run in release builds.
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
        let mut fast = SerializationGraph::new();
        let mut model = IndexedGraph::new();
        let older = Node::Txn(t(1, 0));
        let script: [(Option<u64>, Option<&GraphDiff>); 5] = [
            (Some(1), None),
            (Some(1), Some(&diff)),
            (Some(3), None),
            (Some(2), Some(&diff)),
            (Some(4), None),
        ];
        for (start, diff) in script {
            fast.add_edge(older, Node::Txn(t(2, 0)));
            model.add_edge(older, Node::Txn(t(2, 0)));
            fast.advance(start.map(Cycle::new), diff);
            model.advance(start.map(Cycle::new), diff);
            if let Err(e) = assert_same(&fast, &model) {
                panic!("{label}: {e:?}");
            }
        }
    }
}
