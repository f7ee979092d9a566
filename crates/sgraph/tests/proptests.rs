//! Property tests for the serialization graph.

// Integration tests are exempt from the panic-freedom policy
// (mirrors `allow-unwrap-in-tests` in clippy.toml and the `#[cfg(test)]`
// carve-out in `cargo xtask lint`).
#![allow(clippy::unwrap_used)]
use proptest::prelude::*;

mod baseline;
mod indexed;

use baseline::BaselineGraph;
use bpush_sgraph::{GraphDiff, Node, SerializationGraph};
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

    /// Adding only the edges `would_close_cycle` clears never lets the
    /// graph become cyclic, whatever edges are attempted (including
    /// backward ones).
    #[test]
    fn guarded_add_edge_preserves_acyclicity(
        raw in proptest::collection::vec((0u64..6, 0u32..3, 0u64..6, 0u32..3), 0..64),
    ) {
        let mut g = SerializationGraph::new();
        for (c1, s1, c2, s2) in raw {
            let a = Node::Txn(TxnId::new(Cycle::new(c1), s1));
            let b = Node::Txn(TxnId::new(Cycle::new(c2), s2));
            if !g.would_close_cycle(a, b) {
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
    /// of inserts, query removals and prunes.
    #[test]
    fn counts_stay_consistent(
        ops in proptest::collection::vec((0u8..4, 0u64..6, 0u32..3, 0u64..6), 0..80),
    ) {
        let mut g = SerializationGraph::new();
        for (op, c, s, q) in ops {
            match op {
                0 => {
                    g.add_edge(
                        Node::Txn(TxnId::new(Cycle::new(c), s)),
                        Node::Query(QueryId::new(q)),
                    );
                }
                1 => {
                    g.add_edge(
                        Node::Query(QueryId::new(q)),
                        Node::Txn(TxnId::new(Cycle::new(c), s)),
                    );
                }
                2 => g.remove_query(QueryId::new(q)),
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
    /// under arbitrary interleavings of `add_edge`, `would_close_cycle`,
    /// `remove_query` and window moves (`advance` without a diff against
    /// the baseline's `prune_before`). This is the conformance
    /// argument for the interning rewrite: same operation sequence, same
    /// observable state, edge by edge.
    #[test]
    fn interned_graph_agrees_with_baseline(
        ops in proptest::collection::vec((0u8..6, 0u64..6, 0u32..3, 0u64..6), 0..100),
    ) {
        let mut fast = SerializationGraph::new();
        let mut slow = BaselineGraph::new();
        for (op, c, s, q) in ops {
            let txn = Node::Txn(TxnId::new(Cycle::new(c), s));
            let query = Node::Query(QueryId::new(q));
            match op {
                0 => {
                    prop_assert_eq!(fast.add_edge(txn, query), slow.add_edge(txn, query));
                }
                1 => {
                    prop_assert_eq!(fast.add_edge(query, txn), slow.add_edge(query, txn));
                }
                2 => {
                    // server-to-server conflict edge (possibly backward —
                    // both must agree even on edges a real history can't
                    // produce)
                    let other = Node::Txn(TxnId::new(Cycle::new(q), s));
                    prop_assert_eq!(fast.add_edge(txn, other), slow.add_edge(txn, other));
                }
                3 => {
                    fast.remove_query(QueryId::new(q));
                    slow.remove_query(QueryId::new(q));
                }
                4 => {
                    fast.advance(Some(Cycle::new(c)), None);
                    slow.prune_before(Cycle::new(c));
                }
                _ => {
                    prop_assert_eq!(
                        fast.would_close_cycle(txn, query),
                        slow.would_close_cycle(txn, query)
                    );
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
    /// query edges added and removed in between, and window starts that
    /// move both ways or vanish, `advance(b, Some(d))` leaves the graph
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
            let committed: Vec<TxnId> = seqs.into_iter().map(|s| TxnId::new(cycle, s)).collect();
            let edges: Vec<(TxnId, TxnId)> = raw_edges
                .into_iter()
                .map(|(fc, fs, ts)| (TxnId::new(Cycle::new(fc), fs), TxnId::new(cycle, ts)))
                .filter(|(from, to)| from < to)
                .collect();
            let diff = GraphDiff::new(cycle, committed, edges);
            let bound = (bound < 9).then(|| Cycle::new(bound));

            let query = Node::Query(QueryId::new(q));
            let txn = Node::Txn(TxnId::new(Cycle::new(c), s));
            match op {
                0 => {
                    windowed.add_edge(query, txn);
                    reference.add_edge(query, txn);
                    baseline.add_edge(query, txn);
                }
                1 => {
                    windowed.add_edge(txn, query);
                    reference.add_edge(txn, query);
                    baseline.add_edge(txn, query);
                }
                2 => {
                    windowed.remove_query(QueryId::new(q));
                    reference.remove_query(QueryId::new(q));
                    baseline.remove_query(QueryId::new(q));
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
    /// directions, duplicates, query ↔ transaction), window moves with a
    /// diff (`start` forward, backward and past every node), `advance(None,
    /// _)` and `remove_query`. Transaction ids now and then fall outside the
    /// slots' reach (a sequence number past it, a cycle far beyond the
    /// base); in release builds the diffs may also be malformed — new →
    /// old, duplicate or off-cycle edges, targets missing from the commits
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
                Step::RemoveQuery(q) => {
                    fast.remove_query(q);
                    model.remove_query(q);
                }
            }
            assert_same(&fast, &model)?;
        }
    }
}

/// One operation of [`slotted_graph_agrees_with_the_indexed_model`].
#[derive(Debug, Clone)]
enum Step {
    Edge(Node, Node),
    Advance(Option<Cycle>, GraphDiff),
    RemoveQuery(QueryId),
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
    (0u8..4, txn_id(), 0u64..3).prop_map(|(kind, t, q)| match kind {
        0 => Node::Query(QueryId::new(q)),
        _ => Node::Txn(t),
    })
}

/// A diff of a cycle 0–7: its commits, and edges into them or — as a
/// malformed diff may carry — anywhere. Debug builds keep only what
/// `GraphDiff::new` admits there.
fn diff() -> impl Strategy<Value = GraphDiff> {
    (
        0u64..8,
        proptest::collection::vec(0u32..4, 0..4),
        proptest::collection::vec((txn_id(), 0u32..4, 0u8..5, txn_id()), 0..8),
    )
        .prop_map(|(cycle, seqs, raw)| {
            let cycle = Cycle::new(cycle);
            let committed = seqs.into_iter().map(|s| TxnId::new(cycle, s)).collect();
            let mut edges: Vec<(TxnId, TxnId)> = raw
                .into_iter()
                .map(|(from, seq, anywhere, to)| match anywhere {
                    0 => (from, to),
                    _ => (from, TxnId::new(cycle, seq)),
                })
                .collect();
            if cfg!(debug_assertions) {
                edges.retain(|&(from, to)| from < to && to.cycle() == cycle);
            }
            GraphDiff::new(cycle, committed, edges)
        })
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..10, node(), node(), 0u8..11, diff()).prop_map(|(op, a, b, start, diff)| {
        // a window start of cycle 0–8, one past every node, or none at all
        let start = match start {
            9 => Some(Cycle::new(100_001)),
            10 => None,
            c => Some(Cycle::new(u64::from(c))),
        };
        match (op, b) {
            (0..=4, _) => Step::Edge(a, b),
            (5..=8, _) => Step::Advance(start, diff),
            (_, Node::Query(q)) => Step::RemoveQuery(q),
            _ => Step::RemoveQuery(QueryId::new(0)),
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
/// the diff's. Release builds run every case; debug builds the ones
/// `GraphDiff::new` admits.
#[test]
fn malformed_diffs_match_the_model() {
    let t = |c: u64, s: u32| TxnId::new(Cycle::new(c), s);
    let c3 = Cycle::new(3);
    // (what is wrong, whether `GraphDiff::new` admits it in debug builds,
    // commits, edges) — built only where it is admitted
    let cases = [
        (
            "new -> old edge",
            false,
            vec![t(3, 0), t(3, 1)],
            vec![(t(3, 1), t(3, 0)), (t(3, 0), t(2, 0))],
        ),
        (
            "duplicate edge",
            true,
            vec![t(3, 0)],
            vec![(t(2, 0), t(3, 0)), (t(2, 0), t(3, 0))],
        ),
        (
            "target missing from the commits",
            true,
            vec![t(3, 0)],
            vec![(t(2, 0), t(3, 1))],
        ),
        (
            "target of another cycle",
            false,
            vec![t(3, 0)],
            vec![(t(2, 0), t(5, 0)), (t(2, 1), t(1, 0))],
        ),
    ];
    for (label, admitted_in_debug, committed, edges) in cases {
        if cfg!(debug_assertions) && !admitted_in_debug {
            continue;
        }
        let diff = GraphDiff::new(c3, committed, edges);
        let mut fast = SerializationGraph::new();
        let mut model = IndexedGraph::new();
        let query = Node::Query(QueryId::new(0));
        let script: [(Option<u64>, Option<&GraphDiff>); 5] = [
            (Some(1), None),
            (Some(1), Some(&diff)),
            (Some(3), None),
            (Some(2), Some(&diff)),
            (Some(4), None),
        ];
        for (start, diff) in script {
            fast.add_edge(query, Node::Txn(t(2, 0)));
            model.add_edge(query, Node::Txn(t(2, 0)));
            fast.advance(start.map(Cycle::new), diff);
            model.advance(start.map(Cycle::new), diff);
            if let Err(e) = assert_same(&fast, &model) {
                panic!("{label}: {e:?}");
            }
        }
    }
}
