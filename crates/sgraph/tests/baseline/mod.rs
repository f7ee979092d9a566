//! The pre-interning `BTreeMap`-based serialization graph.
//!
//! This is the original linked serialization graph, query nodes and
//! Lemma-1 pruning included, kept as the **differential oracle**: the
//! property tests in `proptests.rs` replay random diff streams against it
//! and both [`bpush_sgraph::SerializationGraph`] (the append-only history
//! graph) and [`bpush_sgraph::Window`] (the client's window), and require
//! identical answers. Nothing outside those tests uses it.

use std::collections::{BTreeMap, BTreeSet};

use bpush_sgraph::{GraphDiff, Node};
use bpush_types::{Cycle, QueryId, TxnId};

/// A conflict serialization graph (§3.3) on ordered maps — the reference
/// implementation the history graph and the window are held to.
///
/// `remove_query` and `prune_before` scan every adjacency list
/// (O(V·E)); `path_exists` allocates a fresh visited set per call. Those
/// costs are exactly what the interned graph removes.
#[derive(Debug, Clone, Default)]
pub(crate) struct BaselineGraph {
    /// Outgoing adjacency. Presence in the map also records node
    /// membership (nodes may have no edges).
    out_edges: BTreeMap<Node, Vec<Node>>,
    /// Commit-cycle index of transaction nodes, for pruning.
    by_cycle: BTreeMap<Cycle, Vec<TxnId>>,
    /// Total number of directed edges.
    edge_count: usize,
}

impl BaselineGraph {
    /// Creates an empty graph.
    pub(crate) fn new() -> Self {
        BaselineGraph::default()
    }

    /// Number of nodes currently in the graph.
    pub(crate) fn node_count(&self) -> usize {
        self.out_edges.len()
    }

    /// Number of directed edges currently in the graph.
    pub(crate) fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether `node` is present.
    pub(crate) fn contains(&self, node: Node) -> bool {
        self.out_edges.contains_key(&node)
    }

    /// Inserts a node (idempotent).
    pub(crate) fn add_node(&mut self, node: Node) {
        if self.out_edges.contains_key(&node) {
            return;
        }
        self.out_edges.insert(node, Vec::new());
        if let Node::Txn(t) = node {
            self.by_cycle.entry(t.cycle()).or_default().push(t);
        }
    }

    /// Inserts a directed edge `from → to`, inserting the endpoints if
    /// needed. Returns `true` if the edge is new.
    pub(crate) fn add_edge(&mut self, from: Node, to: Node) -> bool {
        self.add_node(from);
        self.add_node(to);
        let succ = self
            .out_edges
            .get_mut(&from)
            .expect("endpoint inserted above");
        if succ.contains(&to) {
            return false;
        }
        succ.push(to);
        self.edge_count += 1;
        true
    }

    /// The successors of `node`, or an empty slice for unknown nodes.
    pub(crate) fn successors(&self, node: Node) -> &[Node] {
        self.out_edges.get(&node).map_or(&[], Vec::as_slice)
    }

    /// Whether a directed path `from →* to` exists (`path_exists(n, n)`
    /// is `true` only when `n` lies on a cycle).
    pub(crate) fn path_exists(&self, from: Node, to: Node) -> bool {
        if !self.contains(from) || !self.contains(to) {
            return false;
        }
        let mut stack: Vec<Node> = self.successors(from).to_vec();
        let mut visited: BTreeSet<Node> = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if visited.insert(n) {
                stack.extend_from_slice(self.successors(n));
            }
        }
        false
    }

    /// Whether inserting the edge `from → to` would close a cycle —
    /// the SGT acceptance test. The edge is *not* inserted.
    pub(crate) fn would_close_cycle(&self, from: Node, to: Node) -> bool {
        if from == to {
            return true;
        }
        self.path_exists(to, from)
    }

    /// Applies a broadcast [`GraphDiff`]: inserts the newly committed
    /// transactions and their conflict edges.
    pub(crate) fn apply_diff(&mut self, diff: &GraphDiff) {
        for &t in diff.committed() {
            self.add_node(Node::Txn(t));
        }
        for &(from, to) in diff.edges() {
            self.add_edge(Node::Txn(from), Node::Txn(to));
        }
    }

    /// Removes a query node and all its incident edges, by scanning every
    /// adjacency list.
    pub(crate) fn remove_query(&mut self, query: QueryId) {
        let node = Node::Query(query);
        if let Some(succ) = self.out_edges.remove(&node) {
            self.edge_count -= succ.len();
        }
        for succ in self.out_edges.values_mut() {
            let before = succ.len();
            succ.retain(|&n| n != node);
            self.edge_count -= before - succ.len();
        }
    }

    /// Lemma-1 pruning: drops every transaction committed before `bound`
    /// together with its incident edges, by scanning every adjacency
    /// list.
    pub(crate) fn prune_before(&mut self, bound: Cycle) {
        let stale: Vec<TxnId> = {
            let mut stale = Vec::new();
            for (&cycle, txns) in self.by_cycle.range(..bound) {
                debug_assert!(cycle < bound);
                stale.extend_from_slice(txns);
            }
            stale
        };
        if stale.is_empty() {
            return;
        }
        let stale_nodes: BTreeSet<Node> = stale.iter().map(|&t| Node::Txn(t)).collect();
        for node in &stale_nodes {
            if let Some(succ) = self.out_edges.remove(node) {
                self.edge_count -= succ.len();
            }
        }
        for succ in self.out_edges.values_mut() {
            let before = succ.len();
            succ.retain(|n| !stale_nodes.contains(n));
            self.edge_count -= before - succ.len();
        }
        self.by_cycle = self.by_cycle.split_off(&bound);
    }

    /// The graph as `SerializationGraph`'s `Debug` prints it: the sorted
    /// map of successor lists.
    pub(crate) fn rendering(&self) -> String {
        format!("{:?}", self.out_edges)
    }

    /// Iterates over all nodes in sorted order.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        self.out_edges.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nt(cycle: u64, seq: u32) -> Node {
        Node::Txn(TxnId::new(Cycle::new(cycle), seq))
    }

    fn nq(q: u64) -> Node {
        Node::Query(QueryId::new(q))
    }

    #[test]
    fn baseline_keeps_the_original_semantics() {
        let mut g = BaselineGraph::new();
        assert!(g.add_edge(nt(0, 0), nt(1, 0)));
        assert!(!g.add_edge(nt(0, 0), nt(1, 0)));
        g.add_edge(nq(1), nt(0, 0));
        assert_eq!(g.edge_count(), 2);
        assert!(g.would_close_cycle(nt(1, 0), nq(1)));
        assert!(!g.path_exists(nt(1, 0), nt(1, 0)));
        g.remove_query(QueryId::new(1));
        assert_eq!(g.edge_count(), 1);
        g.prune_before(Cycle::new(1));
        assert_eq!(g.node_count(), 1);
        assert_eq!(
            g.rendering(),
            "{Txn(TxnId { cycle: Cycle(1), seq: 0 }): []}"
        );
    }
}
