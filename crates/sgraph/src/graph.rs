//! The server's whole-history serialization graph, on a dense node
//! interner.

use std::fmt;

use bpush_types::TxnId;

use crate::diff::GraphDiff;
use crate::node::Node;

/// How many cycles past the last one `firsts` reaches a new node may be
/// and still extend it; a node further out (only a malformed diff names
/// one) is found by search.
const FIRSTS_GAP: u64 = 64;

/// A conflict serialization graph (§3.3) over committed server
/// transactions, linked and append-only.
///
/// An edge `a → b` means one of `a`'s operations precedes and conflicts
/// with one of `b`'s. This is the graph the server replays for the
/// end-of-run audit ([`SerializationGraph::push`] once per cycle's diff),
/// and the graph the judge reads; it never drops anything. An SGT client
/// and the monitors keep a Lemma-1 window of the diffs they heard as a
/// [`crate::Window`] instead.
///
/// # Representation
///
/// Transactions are interned to dense `u32` ids in the order they are
/// first named; ids are never freed. Beside the intern table sits one
/// table of `(transaction, id)` sorted by transaction, which lists the
/// nodes in order and answers any lookup by binary search. A replay of
/// well-formed diffs, one per cycle in cycle order, interns each cycle's
/// commits `0, 1, …` in a row and names no transaction newer than them,
/// so its new nodes append to the sorted table and `(c, s)` has id
/// `firsts[c] + s`: a lookup is one guess, checked against the intern
/// table, before it searches. Each id keeps one forward list of
/// successor ids in insertion order; nothing reads predecessors.
///
/// Every structure is insertion-ordered, key-sorted or indexed by cycle —
/// behavior is a pure function of the diffs pushed, which keeps
/// replay-based checking (`cargo xtask mc`) exact.
#[derive(Clone, Default)]
pub struct SerializationGraph {
    /// Intern table: dense id → transaction.
    nodes: Vec<TxnId>,
    /// Every node with its id, sorted by transaction.
    index: Vec<(TxnId, u32)>,
    /// `firsts[c]`: the id interned first among cycle `c`'s transactions,
    /// for the cycles the interner reached in order, a short gap at a
    /// time; a cycle skipped in a gap holds the next cycle's.
    firsts: Vec<u32>,
    /// Forward adjacency by id (successor ids, in insertion order).
    out_ids: Vec<Vec<u32>>,
    /// Total number of directed edges.
    edge_count: usize,
}

impl fmt::Debug for SerializationGraph {
    /// Prints the *logical* graph only — nodes in sorted order with their
    /// successor lists in insertion order, in exactly the text a
    /// `BTreeMap<Node, Vec<Node>>` prints. Id values are excluded, so
    /// equal graphs always print equally; the model checker deduplicates
    /// states by this text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for &(t, id) in &self.index {
            map.entry(&Node::Txn(t), &SuccessorList(self, id));
        }
        map.finish()
    }
}

/// One node's successors, printed as the `[a, b]` list a `Vec<Node>`
/// prints.
struct SuccessorList<'a>(&'a SerializationGraph, u32);

impl fmt::Debug for SuccessorList<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.0.successor_nodes(self.1))
            .finish()
    }
}

impl SerializationGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        SerializationGraph::default()
    }

    /// Number of nodes in the graph.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed edges in the graph.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Where `t` is, or would go, in the sorted table.
    fn position(&self, t: TxnId) -> Result<usize, usize> {
        match self.index.last() {
            Some(&(last, _)) if last < t => Err(self.index.len()),
            _ => self.index.binary_search_by_key(&t, |&(k, _)| k),
        }
    }

    /// The id of `t` if it is a node: `firsts[c] + s` when the intern
    /// table agrees, else by search.
    fn lookup(&self, t: TxnId) -> Result<u32, usize> {
        let first = usize::try_from(t.cycle().number())
            .ok()
            .and_then(|c| self.firsts.get(c));
        let guess = first.and_then(|first| first.checked_add(t.seq()));
        if let Some(id) = guess.filter(|&id| self.nodes.get(id as usize) == Some(&t)) {
            return Ok(id);
        }
        let at = self.position(t)?;
        self.index.get(at).map(|&(_, id)| id).ok_or(at)
    }

    /// The id of a node.
    fn id_of(&self, node: Node) -> Option<u32> {
        self.lookup(node.as_txn()?).ok()
    }

    /// Interns `t`, returning its id; `None` only once the graph holds
    /// `u32::MAX + 1` nodes, when nothing more is added.
    fn intern(&mut self, t: TxnId) -> Option<u32> {
        let at = match self.lookup(t) {
            Ok(id) => return Some(id),
            Err(at) => at,
        };
        let id = u32::try_from(self.nodes.len()).ok()?;
        self.nodes.push(t);
        self.out_ids.push(Vec::new());
        self.index.insert(at, (t, id));
        let reached = self.firsts.len() as u64;
        if let Some(gap) = t
            .cycle()
            .number()
            .checked_sub(reached)
            .filter(|&g| g < FIRSTS_GAP)
        {
            self.firsts.resize(self.firsts.len() + gap as usize + 1, id);
        }
        Some(id)
    }

    /// Adds one cycle's diff: its commits become nodes, and each of its
    /// edges is linked unless it exists, interning both ends.
    pub fn push(&mut self, diff: &GraphDiff) {
        for &t in diff.committed() {
            self.intern(t);
        }
        for &(from, to) in diff.edges() {
            let (Some(f), Some(t)) = (self.intern(from), self.intern(to)) else {
                continue;
            };
            if let Some(succ_ids) = self.out_ids.get_mut(f as usize) {
                if !succ_ids.contains(&t) {
                    succ_ids.push(t);
                    self.edge_count += 1;
                }
            }
        }
    }

    /// The successors of id `id`, in insertion order.
    fn successor_nodes(&self, id: u32) -> impl Iterator<Item = Node> + '_ {
        let ids = self.out_ids.get(id as usize);
        ids.into_iter()
            .flatten()
            .filter_map(|&s| self.nodes.get(s as usize).copied().map(Node::Txn))
    }

    /// The successors of `node` in insertion order; none for unknown
    /// nodes.
    pub fn successors(&self, node: Node) -> impl Iterator<Item = Node> + '_ {
        self.id_of(node)
            .into_iter()
            .flat_map(|id| self.successor_nodes(id))
    }

    /// Whether a directed path `from →* to` exists (including the trivial
    /// path when `from == to` only if a real cycle through it exists —
    /// i.e. `path_exists(n, n)` is `true` only when `n` lies on a cycle).
    /// The plain reference query: a depth-first search with a visited
    /// array of its own.
    pub fn path_exists(&self, from: Node, to: Node) -> bool {
        let (Some(from), Some(to)) = (self.id_of(from), self.id_of(to)) else {
            return false;
        };
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![from];
        while let Some(id) = stack.pop() {
            for &s in self.out_ids.get(id as usize).into_iter().flatten() {
                if s == to {
                    return true;
                }
                if let Some(seen @ false) = seen.get_mut(s as usize) {
                    *seen = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Iterates over all nodes in sorted order: transactions by commit
    /// cycle and in-cycle position — the order `Debug` prints them in.
    pub fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        self.index.iter().map(|&(t, _)| Node::Txn(t))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use bpush_types::Cycle;

    fn t(cycle: u64, seq: u32) -> TxnId {
        TxnId::new(Cycle::new(cycle), seq)
    }

    fn nt(cycle: u64, seq: u32) -> Node {
        Node::Txn(t(cycle, seq))
    }

    /// A graph of one diff per listed cycle, each committing its edges'
    /// targets.
    fn graph(edges: &[(TxnId, TxnId)]) -> SerializationGraph {
        let mut g = SerializationGraph::new();
        for &(from, to) in edges {
            g.push(&GraphDiff::new(to.cycle(), vec![to], vec![(from, to)]));
        }
        g
    }

    #[test]
    fn empty_graph_properties() {
        let g = SerializationGraph::new();
        assert_eq!((g.node_count(), g.edge_count()), (0, 0));
        assert!(!g.path_exists(nt(0, 0), nt(0, 1)));
        assert_eq!(format!("{g:?}"), "{}");
    }

    #[test]
    fn apply_diff_inserts_nodes_and_edges() {
        let mut g = SerializationGraph::new();
        let diff = GraphDiff::new(
            Cycle::new(2),
            vec![t(2, 0), t(2, 1)],
            vec![(t(1, 0), t(2, 0)), (t(2, 0), t(2, 1))],
        );
        g.push(&diff);
        assert_eq!(
            g.nodes().collect::<Vec<_>>(),
            [nt(1, 0), nt(2, 0), nt(2, 1)]
        );
        assert_eq!(g.edge_count(), 2);
        assert!(g.successors(nt(1, 0)).eq([nt(2, 0)]));
        assert!(g.path_exists(nt(1, 0), nt(2, 1)));
        // pushing it again adds nothing: edges are deduplicated
        g.push(&diff);
        assert_eq!((g.node_count(), g.edge_count()), (3, 2));
    }

    #[test]
    fn add_edge_dedupes() {
        // an edge linked once is not linked again, whether a later diff
        // repeats it or — malformed, in release builds only — the same
        // diff names it twice
        let mut g = graph(&[(t(0, 0), t(1, 0)), (t(0, 0), t(1, 0))]);
        assert_eq!((g.node_count(), g.edge_count()), (2, 1));
        assert!(g.successors(nt(0, 0)).eq([nt(1, 0)]));
        if !cfg!(debug_assertions) {
            let twice = vec![(t(1, 0), t(2, 0)), (t(1, 0), t(2, 0))];
            g.push(&GraphDiff::new(Cycle::new(2), vec![t(2, 0)], twice));
            assert_eq!((g.node_count(), g.edge_count()), (3, 2));
            assert!(g.successors(nt(1, 0)).eq([nt(2, 0)]));
        }
    }

    #[test]
    fn no_window_resets_everything() {
        // the client's window with no window keeps nothing, not even the
        // diff handed in; the history graph fed the same diffs keeps all
        use std::sync::Arc;
        let diffs = [
            GraphDiff::new(Cycle::new(1), vec![t(1, 0)], vec![(t(0, 0), t(1, 0))]),
            GraphDiff::new(Cycle::new(2), vec![t(2, 0)], vec![(t(1, 0), t(2, 0))]),
        ];
        let mut g = SerializationGraph::new();
        let mut w = crate::Window::new();
        for diff in &diffs {
            g.push(diff);
        }
        w.advance(Some(Cycle::ZERO), Some(&Arc::new(diffs[0].clone())));
        assert_eq!((w.node_count(), w.edge_count()), (2, 1));
        w.advance(None, Some(&Arc::new(diffs[1].clone())));
        assert!(w.is_empty());
        assert_eq!(w.edge_count(), 0);
        assert!(!w.path_exists(t(1, 0), t(2, 0)));
        assert_eq!((g.node_count(), g.edge_count()), (3, 2));
        assert!(g.path_exists(nt(0, 0), nt(2, 0)));
    }

    #[test]
    fn slots_and_side_table_print_in_node_order() {
        // commits interned in cycle order take the `firsts` slots; a
        // source below them, a sequence number no slot offset reaches and
        // a cycle past `FIRSTS_GAP` are found by search in the sorted
        // table alone; `Debug` and `nodes()` list them all in node order
        let mut g = SerializationGraph::new();
        g.push(&GraphDiff::new(Cycle::new(2), vec![t(2, 0)], vec![]));
        g.push(&GraphDiff::new(
            Cycle::new(3),
            vec![t(3, 0), t(3, 1), t(3, u32::MAX)],
            vec![
                (t(2, 0), t(3, 0)),
                (t(3, 0), t(3, 1)),
                (t(2, 0), t(3, u32::MAX)),
            ],
        ));
        let far = 3 + FIRSTS_GAP + 1;
        g.push(&GraphDiff::new(
            Cycle::new(far),
            vec![t(far, 0)],
            vec![(t(1, 0), t(far, 0)), (t(3, 1), t(far, 0))],
        ));
        assert_eq!(g.firsts, [0, 0, 0, 1], "the far cycle is past the slots");
        assert_ne!(
            g.nodes.iter().map(|&t| Node::Txn(t)).collect::<Vec<_>>(),
            g.nodes().collect::<Vec<_>>(),
            "ids are not in node order"
        );
        let model: BTreeMap<Node, Vec<Node>> = [
            (nt(1, 0), vec![nt(far, 0)]),
            (nt(2, 0), vec![nt(3, 0), nt(3, u32::MAX)]),
            (nt(3, 0), vec![nt(3, 1)]),
            (nt(3, 1), vec![nt(far, 0)]),
            (nt(3, u32::MAX), vec![]),
            (nt(far, 0), vec![]),
        ]
        .into();
        assert_eq!(format!("{g:?}"), format!("{model:?}"));
        assert!(g.nodes().eq(model.keys().copied()));
        assert_eq!((g.node_count(), g.edge_count()), (6, 5));
        assert!(g.path_exists(nt(2, 0), nt(far, 0)));
        assert!(!g.path_exists(nt(3, u32::MAX), nt(far, 0)));
    }

    #[test]
    fn nodes_iterator_covers_all() {
        // a transaction named after newer ones is listed in node order
        let mut g = graph(&[(t(1, 0), t(3, 0))]);
        g.push(&GraphDiff::new(
            Cycle::new(4),
            vec![t(4, 0)],
            vec![(t(2, u32::MAX), t(4, 0))],
        ));
        let want = [nt(1, 0), nt(2, u32::MAX), nt(3, 0), nt(4, 0)];
        assert_eq!(g.nodes().collect::<Vec<_>>(), want);
        assert_eq!(g.node_count(), 4);
    }

    #[test]
    fn query_ends_are_not_added() {
        // diffs carry transactions only: a query is never a node
        let g = graph(&[(t(0, 0), t(1, 0))]);
        let q = Node::Query(bpush_types::QueryId::new(0));
        assert!(!g.path_exists(q, nt(1, 0)) && !g.path_exists(nt(0, 0), q));
        assert!(g.successors(q).next().is_none());
        assert!(g.nodes().all(Node::is_txn));
    }

    #[test]
    fn self_edge_is_a_cycle() {
        // only a malformed diff, which `GraphDiff::new` admits in release
        // builds alone, carries a self edge
        if cfg!(debug_assertions) {
            return;
        }
        let mut g = SerializationGraph::new();
        g.push(&GraphDiff::new(
            Cycle::new(0),
            vec![t(0, 0)],
            vec![(t(0, 0), t(0, 0))],
        ));
        assert!(g.path_exists(nt(0, 0), nt(0, 0)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn path_queries() {
        let mut g = graph(&[(t(0, 0), t(1, 0)), (t(1, 0), t(2, 0)), (t(2, 0), t(3, 0))]);
        g.push(&GraphDiff::new(Cycle::new(9), vec![t(9, 9)], vec![]));
        assert!(g.path_exists(nt(0, 0), nt(3, 0)));
        assert!(!g.path_exists(nt(3, 0), nt(0, 0)));
        assert!(!g.path_exists(nt(0, 0), nt(9, 9)));
        assert!(!g.path_exists(nt(0, 0), nt(4, 0)), "not a node");
        // no self-path without a cycle
        assert!(!g.path_exists(nt(1, 0), nt(1, 0)));
    }

    #[test]
    fn debug_output_is_the_sorted_map_of_successor_lists() {
        // nodes print sorted, successors in insertion order, in exactly
        // the text a `BTreeMap<Node, Vec<Node>>` prints: mc's state
        // hashes are taken over it
        let g = graph(&[(t(1, 0), t(3, 0)), (t(1, 0), t(4, 0)), (t(2, 0), t(4, 0))]);
        let model: BTreeMap<Node, Vec<Node>> = [
            (nt(1, 0), vec![nt(3, 0), nt(4, 0)]),
            (nt(2, 0), vec![nt(4, 0)]),
            (nt(3, 0), vec![]),
            (nt(4, 0), vec![]),
        ]
        .into();
        assert_eq!(format!("{g:?}"), format!("{model:?}"));
        assert_eq!(format!("{g:#?}"), format!("{model:#?}"));
        assert!(g.nodes().eq(model.keys().copied()));
    }

    #[test]
    fn debug_output_is_logical_and_canonical() {
        // the same graph reached through different diffs, in a different
        // order, interns different ids and prints identically
        let a = graph(&[(t(5, 5), t(6, 1)), (t(6, 0), t(7, 0)), (t(6, 1), t(7, 0))]);
        let mut b = SerializationGraph::new();
        b.push(&GraphDiff::new(
            Cycle::new(7),
            vec![t(7, 0)],
            vec![(t(6, 0), t(7, 0)), (t(6, 1), t(7, 0))],
        ));
        b.push(&GraphDiff::new(
            Cycle::new(6),
            vec![t(6, 1)],
            vec![(t(5, 5), t(6, 1))],
        ));
        assert_ne!(a.nodes, b.nodes, "different interning histories");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn clone_is_independent_and_equal() {
        let g = graph(&[(t(0, 0), t(1, 0))]);
        let mut c = g.clone();
        assert_eq!(format!("{g:?}"), format!("{c:?}"));
        c.push(&GraphDiff::new(
            Cycle::new(2),
            vec![t(2, 0)],
            vec![(t(1, 0), t(2, 0))],
        ));
        assert_eq!((g.edge_count(), c.edge_count()), (1, 2));
    }
}
