//! The serialization graph proper, on a dense node interner.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;

use bpush_types::{Cycle, QueryId, TxnId};

use crate::diff::GraphDiff;
use crate::node::Node;

/// Reusable depth-first-search state: an epoch-stamped visited array plus
/// an explicit stack, so path queries allocate nothing once the graph has
/// reached its steady-state size.
#[derive(Debug, Default)]
struct DfsScratch {
    /// `visited[id] == epoch` marks `id` as seen by the current search.
    visited: Vec<u32>,
    /// Bumped once per search; wraps by zero-filling `visited`.
    epoch: u32,
    stack: Vec<u32>,
}

impl DfsScratch {
    /// Sizes the visited array and opens a fresh epoch.
    fn begin(&mut self, nodes: usize) -> u32 {
        if self.visited.len() < nodes {
            // bpush-lint: allow(hot-alloc) — amortized: grows only until the graph's steady-state size, then never again
            self.visited.resize(nodes, 0);
        }
        if self.epoch == u32::MAX {
            self.visited.iter_mut().for_each(|v| *v = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.stack.clear();
        self.epoch
    }
}

/// A conflict serialization graph (§3.3).
///
/// Nodes are committed server transactions plus, in client copies, the
/// client's active read-only queries. An edge `a → b` means one of `a`'s
/// operations precedes and conflicts with one of `b`'s. The sorted node
/// index is the per-cycle index: transaction ids order by commit cycle
/// and sort before every query node, so the index lists `SG^0, SG^1, …`
/// in order. That is what the paper's space optimization (Lemma 1) needs:
/// only the subgraphs `SG^k` with `k ≥ c_o` — the cycle when the oldest
/// active query first had an item overwritten — are retained, and
/// [`SerializationGraph::advance`] is the one place that rule is applied.
///
/// Cycle checks are the paper's acceptance test: a read creating edge
/// `T_l → R` is accepted iff no path `R →* T_l` exists
/// ([`SerializationGraph::would_close_cycle`]).
///
/// # Representation
///
/// Nodes are interned to dense `u32` ids; forward *and* reverse adjacency
/// are `Vec`-indexed by id and hold ids only, so the validation hot paths
/// run on integer arrays rather than tree lookups:
///
/// * [`SerializationGraph::path_exists`] /
///   [`SerializationGraph::would_close_cycle`] walk id-based successor
///   lists with an epoch-stamped visited array — no per-call allocation
///   and no ordered-set probes;
/// * [`SerializationGraph::remove_query`] unlinks a node touching only
///   its in- and out-neighbors (the reverse index replaces the old
///   scan over every adjacency list);
/// * [`SerializationGraph::advance`] drops whole per-cycle subgraphs the
///   same way, popping the front of the sorted node index.
///
/// Freed ids are recycled LIFO, so long-running clients that steadily
/// intern new transactions while pruning old ones keep a bounded intern
/// table. Every structure is insertion-ordered or key-sorted — behavior
/// is a pure function of the operation sequence, which keeps replay-based
/// checking (`cargo xtask mc`) exact.
///
/// # Thread safety
///
/// The interior-mutable search scratch makes this type [`Send`] but
/// **not [`Sync`]**: `&self` path queries mutate the shared scratch, so
/// concurrent shared reads from multiple threads are unsound and the
/// compiler rejects them. A client validates on one thread in this
/// design (each simulated client owns its graph); to share one across
/// threads, wrap it in a `Mutex` — or `clone()` it, which starts the
/// clone with fresh scratch.
#[derive(Default)]
pub struct SerializationGraph {
    /// Intern table: dense id → node. Entries of freed ids are stale
    /// until the id is reused; `index` is the source of liveness.
    nodes: Vec<Node>,
    /// Node → dense id, for the live nodes only. Sorted, so transactions
    /// come first in commit-cycle order: the per-cycle index.
    index: BTreeMap<Node, u32>,
    /// Forward adjacency by id (successor ids, in insertion order).
    out_ids: Vec<Vec<u32>>,
    /// Reverse adjacency by id (predecessor ids).
    in_ids: Vec<Vec<u32>>,
    /// Freed ids available for reuse, LIFO.
    free: Vec<u32>,
    /// Total number of directed edges.
    edge_count: usize,
    /// Search scratch; interior-mutable so `&self` path queries reuse it.
    scratch: RefCell<DfsScratch>,
}

impl Clone for SerializationGraph {
    fn clone(&self) -> Self {
        SerializationGraph {
            nodes: self.nodes.clone(),
            index: self.index.clone(),
            out_ids: self.out_ids.clone(),
            in_ids: self.in_ids.clone(),
            free: self.free.clone(),
            edge_count: self.edge_count,
            // search scratch is not logical state; the clone starts fresh
            scratch: RefCell::new(DfsScratch::default()),
        }
    }
}

impl fmt::Debug for SerializationGraph {
    /// Prints the *logical* graph only — nodes in sorted order with their
    /// successor lists in insertion order. Scratch state and interning
    /// accidents (id values, free-list contents) are deliberately
    /// excluded so equal graphs always print equally; the model checker
    /// deduplicates states by this text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for &node in self.index.keys() {
            map.entry(&node, &SuccessorList(self, node));
        }
        map.finish()
    }
}

/// One node's successors, printed as the `[a, b]` list a `Vec<Node>`
/// prints.
struct SuccessorList<'a>(&'a SerializationGraph, Node);

impl fmt::Debug for SuccessorList<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.successors(self.1)).finish()
    }
}

impl SerializationGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        SerializationGraph::default()
    }

    /// Number of nodes currently in the graph.
    pub fn node_count(&self) -> usize {
        self.index.len()
    }

    /// Number of directed edges currently in the graph.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `node` is present.
    pub fn contains(&self, node: Node) -> bool {
        self.index.contains_key(&node)
    }

    /// Interns `node`, returning its dense id (idempotent).
    fn intern(&mut self, node: Node) -> u32 {
        if let Some(&id) = self.index.get(&node) {
            return id;
        }
        let id = match self.free.pop() {
            Some(id) => {
                self.nodes[id as usize] = node; // bpush-lint: allow(panic-reach) — id came off the free list, always a live arena slot < nodes.len()
                id
            }
            None => {
                let id = u32::try_from(self.nodes.len())
                    // lint: allow(panic) — a graph of 2^32 live nodes exceeds any Lemma-1 window
                    .expect("node interner overflow");
                self.nodes.push(node);
                self.out_ids.push(Vec::new());
                self.in_ids.push(Vec::new());
                id
            }
        };
        self.index.insert(node, id);
        id
    }

    /// Unlinks one live node: detaches its incident edges by walking the
    /// forward and reverse adjacency of the node itself — O(out-degree +
    /// Σ out-degree of in-neighbors) — and recycles the id.
    fn unlink(&mut self, id: u32) {
        let node = self.nodes[id as usize]; // bpush-lint: allow(panic-reach) — id is a live arena slot < nodes.len() by the free-list invariant
        let outs = std::mem::take(&mut self.out_ids[id as usize]); // bpush-lint: allow(panic-reach) — id is a live arena slot < nodes.len() by the free-list invariant
        self.edge_count -= outs.len();
        for s in outs {
            if s != id {
                self.in_ids[s as usize].retain(|&p| p != id); // bpush-lint: allow(panic-reach) — s is a recorded neighbor id, always a live arena slot
            }
        }
        let ins = std::mem::take(&mut self.in_ids[id as usize]); // bpush-lint: allow(panic-reach) — id is a live arena slot < nodes.len() by the free-list invariant
        for p in ins {
            if p == id {
                continue; // the self-loop was accounted with the out edges
            }
            let succ_ids = &mut self.out_ids[p as usize]; // bpush-lint: allow(panic-reach) — p is a recorded neighbor id, always a live arena slot
            if let Some(pos) = succ_ids.iter().position(|&s| s == id) {
                succ_ids.remove(pos);
                self.edge_count -= 1;
            }
        }
        self.index.remove(&node);
        // bpush-lint: allow(hot-alloc) — amortized: the free list's capacity is bounded by the intern table and is reused LIFO
        self.free.push(id);
    }

    /// Inserts a directed edge `from → to`, inserting the endpoints if
    /// needed. Returns `true` if the edge is new.
    pub fn add_edge(&mut self, from: Node, to: Node) -> bool {
        let f = self.intern(from);
        let t = self.intern(to);
        self.link(f, t)
    }

    /// Appends the edge between two interned ids unless it exists.
    /// Returns `true` if the edge is new.
    fn link(&mut self, f: u32, t: u32) -> bool {
        // bpush-lint: allow(panic-reach) — f is an interned id, so f < nodes.len()
        if self.out_ids[f as usize].contains(&t) {
            return false;
        }
        self.out_ids[f as usize].push(t); // bpush-lint: allow(panic-reach) — f is an interned id, so f < nodes.len()
        self.in_ids[t as usize].push(f); // bpush-lint: allow(panic-reach) — t is an interned id, so t < nodes.len()
        self.edge_count += 1;
        true
    }

    /// The successors of `node` in insertion order; none for unknown
    /// nodes.
    pub fn successors(&self, node: Node) -> impl Iterator<Item = Node> + '_ {
        let ids = self
            .index
            .get(&node)
            .and_then(|&id| self.out_ids.get(id as usize));
        ids.into_iter()
            .flatten()
            .filter_map(|&s| self.nodes.get(s as usize).copied())
    }

    /// Whether a directed path `from →* to` exists (including the trivial
    /// path when `from == to` only if a real cycle through it exists —
    /// i.e. `path_exists(n, n)` is `true` only when `n` lies on a cycle).
    // bpush-lint: hot_path — per-read SGT acceptance probe (PR-3 allocation-freedom contract)
    pub fn path_exists(&self, from: Node, to: Node) -> bool {
        let (from, to) = match (self.index.get(&from), self.index.get(&to)) {
            (Some(&f), Some(&t)) => (f, t),
            _ => return false,
        };
        let mut scratch = self.scratch.borrow_mut();
        let epoch = scratch.begin(self.nodes.len());
        let DfsScratch { visited, stack, .. } = &mut *scratch;
        // bpush-lint: allow(hot-alloc) — amortized: the reusable scratch stack grows to its high-water mark once
        stack.extend_from_slice(&self.out_ids[from as usize]); // bpush-lint: allow(panic-reach) — from is an interned id < nodes.len()
        while let Some(id) = stack.pop() {
            if id == to {
                return true;
            }
            // bpush-lint: allow(panic-reach) — visited is sized to nodes.len() by scratch.begin
            if visited[id as usize] != epoch {
                // bpush-lint: allow(panic-reach) — visited is sized to nodes.len() by scratch.begin
                visited[id as usize] = epoch;
                // bpush-lint: allow(hot-alloc, panic-reach) — amortized reusable scratch stack; id is always a live arena slot
                stack.extend_from_slice(&self.out_ids[id as usize]);
            }
        }
        false
    }

    /// Whether inserting the edge `from → to` would close a cycle —
    /// the SGT acceptance test. The edge is *not* inserted.
    // bpush-lint: hot_path — the SGT acceptance test itself (PR-3 allocation-freedom contract)
    pub fn would_close_cycle(&self, from: Node, to: Node) -> bool {
        if from == to {
            return true;
        }
        self.path_exists(to, from)
    }

    /// Whether the whole graph is acyclic (serialization theorem check).
    pub fn is_acyclic(&self) -> bool {
        // Iterative three-color DFS over ids. Not a validation hot path;
        // the color array is allocated per call.
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let mut color = vec![WHITE; self.nodes.len()];
        for &start in self.index.values() {
            if color[start as usize] != WHITE {
                continue;
            }
            // stack of (node id, next-successor-index)
            let mut stack: Vec<(u32, usize)> = vec![(start, 0)];
            color[start as usize] = GRAY;
            while let Some(&mut (n, ref mut idx)) = stack.last_mut() {
                let succ = &self.out_ids[n as usize];
                if *idx < succ.len() {
                    let next = succ[*idx];
                    *idx += 1;
                    match color[next as usize] {
                        GRAY => return false,
                        WHITE => {
                            color[next as usize] = GRAY;
                            stack.push((next, 0));
                        }
                        _ => {}
                    }
                } else {
                    color[n as usize] = BLACK;
                    stack.pop();
                }
            }
        }
        true
    }

    /// Removes a query node and all its incident edges, in O(out-degree +
    /// in-degree·neighbor-list-length) via the reverse index.
    // bpush-lint: hot_path — per-commit/abort cleanup on the client validation path
    pub fn remove_query(&mut self, query: QueryId) {
        if let Some(&id) = self.index.get(&Node::Query(query)) {
            self.unlink(id);
        }
    }

    /// Moves the Lemma-1 window to start at commit cycle `start`, then
    /// integrates the part of a broadcast [`GraphDiff`] inside it.
    ///
    /// With `Some(start)`, every transaction committed before `start` is
    /// dropped with its incident edges; then a commit or edge endpoint of
    /// `diff` is interned only if its cycle is `≥ start`, and an edge is
    /// linked only if both of its ends are. Query nodes are never dropped
    /// here. `Some(Cycle::ZERO)` keeps everything: the whole-history
    /// graph is the window that starts at cycle 0.
    ///
    /// With `None` the caller has no live query, so nothing is kept: the
    /// graph returns to an empty one — intern table and search scratch
    /// included, so a long-lived client returns to zero footprint (the
    /// paper's "if no items are updated, there is no space or processing
    /// overhead") — and `diff` is ignored.
    ///
    /// Edges between server transactions always point from earlier to
    /// later commits (Claim 1: strict histories admit no edges *into* a
    /// previous cycle's subgraph), so cycles through an active query that
    /// was first invalidated at cycle `c_o` only involve transactions of
    /// cycles `≥ c_o`; a window starting at or below `min c_o` keeps the
    /// acceptance test exact. See
    /// [`SerializationGraph::would_close_cycle`].
    ///
    /// Dropping pops the front of the sorted node index, so its work is
    /// proportional to the dropped subgraphs' own degree and it allocates
    /// nothing.
    pub fn advance(&mut self, start: Option<Cycle>, diff: Option<&GraphDiff>) {
        let Some(start) = start else {
            *self = SerializationGraph::default();
            return;
        };
        let first_kept = Node::Txn(TxnId::new(start, 0));
        while let Some((&node, &id)) = self.index.first_key_value() {
            if node >= first_kept {
                break;
            }
            self.unlink(id);
        }
        let Some(diff) = diff else {
            return;
        };
        for &t in diff.committed() {
            if t.cycle() >= start {
                self.intern(Node::Txn(t));
            }
        }
        // The server emits a commit's edges contiguously, so the target
        // is looked up once per run of equal `to`, not once per edge.
        let mut run: Option<(TxnId, u32)> = None;
        for &(from, to) in diff.edges() {
            let f = (from.cycle() >= start).then(|| self.intern(Node::Txn(from)));
            if to.cycle() < start {
                continue;
            }
            let t = match run {
                Some((txn, id)) if txn == to => id,
                _ => self.intern(Node::Txn(to)),
            };
            run = Some((to, t));
            if let Some(f) = f {
                self.link(f, t);
            }
        }
    }

    /// Iterates over all nodes in unspecified order.
    pub fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        self.index.keys().copied()
    }

    /// The earliest commit cycle still retained, if any transaction nodes
    /// exist.
    pub fn earliest_cycle(&self) -> Option<Cycle> {
        self.index.keys().next()?.as_txn().map(TxnId::cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(cycle: u64, seq: u32) -> TxnId {
        TxnId::new(Cycle::new(cycle), seq)
    }

    fn nt(cycle: u64, seq: u32) -> Node {
        Node::Txn(t(cycle, seq))
    }

    fn nq(q: u64) -> Node {
        Node::Query(QueryId::new(q))
    }

    #[test]
    fn empty_graph_properties() {
        let g = SerializationGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_acyclic());
        assert!(!g.path_exists(nt(0, 0), nt(0, 1)));
        assert_eq!(g.earliest_cycle(), None);
    }

    #[test]
    fn add_edge_dedupes() {
        let mut g = SerializationGraph::new();
        assert!(g.add_edge(nt(0, 0), nt(1, 0)));
        assert!(!g.add_edge(nt(0, 0), nt(1, 0)));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.node_count(), 2);
        assert!(g.successors(nt(0, 0)).eq([nt(1, 0)]));
    }

    #[test]
    fn path_queries() {
        let mut g = SerializationGraph::new();
        g.add_edge(nt(0, 0), nt(1, 0));
        g.add_edge(nt(1, 0), nt(2, 0));
        g.add_edge(nt(2, 0), nt(3, 0));
        g.intern(nt(9, 9));
        assert!(g.path_exists(nt(0, 0), nt(3, 0)));
        assert!(!g.path_exists(nt(3, 0), nt(0, 0)));
        assert!(!g.path_exists(nt(0, 0), nt(9, 9)));
        // no self-path without a cycle
        assert!(!g.path_exists(nt(1, 0), nt(1, 0)));
    }

    #[test]
    fn would_close_cycle_matches_paper_scenario() {
        // Figure 3: R read x from T_k; T_f (cycle o) overwrote an item R
        // had read; a conflict path T_f ->* T_l exists; reading from T_l
        // must be rejected.
        let mut g = SerializationGraph::new();
        let r = nq(0);
        let t_f = nt(2, 0);
        let mid = nt(3, 1);
        let t_l = nt(4, 0);
        g.add_edge(t_f, mid);
        g.add_edge(mid, t_l);
        g.add_edge(r, t_f); // precedence: T_f overwrote an item R read
        assert!(g.would_close_cycle(t_l, r), "dependency edge closes cycle");
        // a writer not reachable from T_f is fine
        let other = nt(4, 1);
        g.intern(other);
        assert!(!g.would_close_cycle(other, r));
    }

    #[test]
    fn self_edge_is_a_cycle() {
        let g = SerializationGraph::new();
        assert!(g.would_close_cycle(nt(0, 0), nt(0, 0)));
    }

    #[test]
    fn would_close_cycle_rejects_and_preserves() {
        let mut g = SerializationGraph::new();
        g.add_edge(nt(0, 0), nt(1, 0));
        assert!(g.would_close_cycle(nt(1, 0), nt(0, 0)));
        assert_eq!(g.edge_count(), 1);
        assert!(!g.would_close_cycle(nt(0, 0), nt(2, 0)));
        assert!(g.add_edge(nt(0, 0), nt(2, 0)));
        assert!(g.is_acyclic());
    }

    #[test]
    fn is_acyclic_detects_long_cycle() {
        let mut g = SerializationGraph::new();
        g.add_edge(nt(0, 0), nt(1, 0));
        g.add_edge(nt(1, 0), nt(2, 0));
        assert!(g.is_acyclic());
        g.add_edge(nt(2, 0), nt(0, 0));
        assert!(!g.is_acyclic());
    }

    #[test]
    fn remove_query_drops_incident_edges() {
        let mut g = SerializationGraph::new();
        g.add_edge(nq(1), nt(1, 0));
        g.add_edge(nt(0, 0), nq(1));
        g.add_edge(nt(0, 0), nt(1, 0));
        assert_eq!(g.edge_count(), 3);
        g.remove_query(QueryId::new(1));
        assert_eq!(g.edge_count(), 1);
        assert!(!g.contains(nq(1)));
        assert!(g.contains(nt(0, 0)) && g.contains(nt(1, 0)));
    }

    #[test]
    fn advance_drops_old_cycles_only() {
        let mut g = SerializationGraph::new();
        g.add_edge(nt(0, 0), nt(1, 0));
        g.add_edge(nt(1, 0), nt(2, 0));
        g.add_edge(nt(2, 0), nt(3, 0));
        g.advance(Some(Cycle::new(2)), None);
        assert!(!g.contains(nt(0, 0)));
        assert!(!g.contains(nt(1, 0)));
        assert!(g.contains(nt(2, 0)) && g.contains(nt(3, 0)));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.earliest_cycle(), Some(Cycle::new(2)));
        // path query within the retained window is unaffected
        assert!(g.path_exists(nt(2, 0), nt(3, 0)));
    }

    #[test]
    fn advance_is_a_noop_when_nothing_is_old() {
        let mut g = SerializationGraph::new();
        g.add_edge(nt(5, 0), nt(6, 0));
        let edges = g.edge_count();
        g.advance(Some(Cycle::new(3)), None);
        assert_eq!(g.edge_count(), edges);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn prune_keeps_query_nodes() {
        let mut g = SerializationGraph::new();
        g.add_edge(nq(0), nt(1, 0));
        g.advance(Some(Cycle::new(5)), None);
        assert!(g.contains(nq(0)), "query nodes are never pruned by cycle");
        assert!(!g.contains(nt(1, 0)));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn no_window_resets_everything() {
        // no window at all: nothing is kept, not even the diff handed in
        let mut g = SerializationGraph::new();
        g.add_edge(nt(0, 0), nt(1, 0));
        g.add_edge(nq(0), nt(1, 0));
        let diff = GraphDiff::new(Cycle::new(2), vec![t(2, 0)], vec![(t(1, 0), t(2, 0))]);
        g.advance(None, Some(&diff));
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.earliest_cycle(), None);
        assert!(g.nodes.is_empty(), "the intern table goes too");
    }

    #[test]
    fn the_window_starts_at_the_first_transaction_of_its_cycle() {
        // the range key `T(b, 0)`: the last possible id of cycle b − 1 is
        // dropped, the first of cycle b and every query node stay
        let mut g = SerializationGraph::new();
        g.add_edge(nt(2, u32::MAX), nt(3, 0));
        g.add_edge(nq(0), nt(2, u32::MAX));
        g.add_edge(nt(3, 0), nq(u64::MAX));
        g.advance(Some(Cycle::new(3)), None);
        assert!(!g.contains(nt(2, u32::MAX)));
        assert!(g.contains(nt(3, 0)) && g.contains(nq(0)) && g.contains(nq(u64::MAX)));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.earliest_cycle(), Some(Cycle::new(3)));
        // a window past every transaction leaves the query nodes alone
        g.advance(Some(Cycle::new(u64::MAX)), None);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.earliest_cycle(), None);
    }

    #[test]
    fn apply_diff_inserts_nodes_and_edges() {
        let mut g = SerializationGraph::new();
        let diff = GraphDiff::new(
            Cycle::new(2),
            vec![t(2, 0), t(2, 1)],
            vec![(t(1, 0), t(2, 0)), (t(2, 0), t(2, 1))],
        );
        g.advance(Some(Cycle::ZERO), Some(&diff));
        assert!(g.contains(nt(2, 0)) && g.contains(nt(2, 1)) && g.contains(nt(1, 0)));
        assert_eq!(g.edge_count(), 2);
        assert!(g.path_exists(nt(1, 0), nt(2, 1)));
        // re-applying is idempotent
        g.advance(Some(Cycle::ZERO), Some(&diff));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn advance_interns_only_the_window() {
        let diff = GraphDiff::new(
            Cycle::new(3),
            vec![t(3, 0), t(3, 1)],
            vec![
                (t(1, 0), t(3, 0)),
                (t(2, 0), t(3, 0)),
                (t(3, 0), t(3, 1)),
                (t(2, 1), t(3, 1)),
            ],
        );
        let mut g = SerializationGraph::new();
        g.advance(Some(Cycle::new(2)), Some(&diff));
        assert!(!g.contains(nt(1, 0)), "cycle 1 is before the window");
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert!(g.successors(nt(2, 0)).eq([nt(3, 0)]));
        assert_eq!(g.earliest_cycle(), Some(Cycle::new(2)));
        // a window that starts after the diff's cycle takes nothing of it
        let mut h = SerializationGraph::new();
        h.advance(Some(Cycle::new(4)), Some(&diff));
        assert!(h.is_empty());
    }

    #[test]
    fn nodes_iterator_covers_all() {
        let mut g = SerializationGraph::new();
        g.add_edge(nt(0, 0), nq(0));
        let mut nodes: Vec<Node> = g.nodes().collect();
        nodes.sort();
        assert_eq!(nodes, vec![nt(0, 0), nq(0)]);
    }

    #[test]
    fn ids_are_recycled_after_pruning() {
        let mut g = SerializationGraph::new();
        for round in 0..64u64 {
            g.add_edge(nt(round, 0), nt(round + 1, 0));
            g.advance(Some(Cycle::new(round + 1)), None);
        }
        // the intern table stays bounded by the live window, not the
        // total number of transactions ever seen
        assert!(g.node_count() <= 2);
        assert!(
            g.nodes.len() <= 4,
            "freed ids must be reused, table grew to {}",
            g.nodes.len()
        );
    }

    #[test]
    fn debug_output_is_logical_and_canonical() {
        // two graphs with the same logical content but different
        // interning histories print identically
        let mut a = SerializationGraph::new();
        a.add_edge(nt(0, 0), nt(1, 0));
        let mut b = SerializationGraph::new();
        b.add_edge(nq(7), nt(5, 5));
        b.add_edge(nt(0, 0), nt(1, 0));
        b.remove_query(QueryId::new(7));
        b.advance(Some(Cycle::ZERO), None); // no-op, but exercises bookkeeping
        b.advance(Some(Cycle::new(6)), None);
        b.add_edge(nt(0, 0), nt(1, 0));
        // b now holds exactly a's content (T5.5 pruned, query removed)
        let _ = b.path_exists(nt(0, 0), nt(1, 0)); // dirty the scratch
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn debug_output_is_the_sorted_map_of_successor_lists() {
        // nodes print sorted, successors in insertion order, in exactly
        // the text a `BTreeMap<Node, Vec<Node>>` prints: mc's state
        // hashes are taken over it
        let mut g = SerializationGraph::new();
        g.add_edge(nt(1, 0), nt(3, 0));
        g.add_edge(nt(1, 0), nt(2, 0));
        g.add_edge(nq(4), nt(1, 0));
        let model: BTreeMap<Node, Vec<Node>> = [
            (nt(1, 0), vec![nt(3, 0), nt(2, 0)]),
            (nt(2, 0), vec![]),
            (nt(3, 0), vec![]),
            (nq(4), vec![nt(1, 0)]),
        ]
        .into();
        assert_eq!(format!("{g:?}"), format!("{model:?}"));
        assert_eq!(format!("{g:#?}"), format!("{model:#?}"));
    }

    #[test]
    fn clone_is_independent_and_equal() {
        let mut g = SerializationGraph::new();
        g.add_edge(nt(0, 0), nt(1, 0));
        g.add_edge(nq(1), nt(0, 0));
        let mut c = g.clone();
        assert_eq!(format!("{g:?}"), format!("{c:?}"));
        c.add_edge(nt(1, 0), nt(2, 0));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(c.edge_count(), 3);
    }
}
