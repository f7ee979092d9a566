//! The `BTreeMap`-indexed serialization graph the per-cycle slots
//! replaced.
//!
//! This is [`bpush_sgraph::SerializationGraph`] as it stood before its
//! transactions found their ids through per-cycle slot vectors: one
//! sorted `index: BTreeMap<Node, u32>` over every live node, adjacency
//! buffers dropped with the ids they belonged to, and a reverse entry for
//! every edge. It is kept as the **differential model** for
//! `proptests.rs`, which replays random operation sequences — malformed
//! diffs included — against both graphs and requires the same `Debug`
//! text, counts, node order and reachability after every step. Nothing
//! outside the tests uses it.

#![allow(dead_code)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;

use bpush_sgraph::{GraphDiff, Node};
use bpush_types::{Cycle, QueryId, TxnId};

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

/// A conflict serialization graph (§3.3) indexed by one sorted map. See
/// [`bpush_sgraph::SerializationGraph`] for the semantics; the two are
/// observationally identical.
#[derive(Default)]
pub(crate) struct IndexedGraph {
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

impl Clone for IndexedGraph {
    fn clone(&self) -> Self {
        IndexedGraph {
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

impl fmt::Debug for IndexedGraph {
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
struct SuccessorList<'a>(&'a IndexedGraph, Node);

impl fmt::Debug for SuccessorList<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.successors(self.1)).finish()
    }
}

impl IndexedGraph {
    /// Creates an empty graph.
    pub(crate) fn new() -> Self {
        IndexedGraph::default()
    }

    /// Number of nodes currently in the graph.
    pub(crate) fn node_count(&self) -> usize {
        self.index.len()
    }

    /// Number of directed edges currently in the graph.
    pub(crate) fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether the graph has no nodes.
    pub(crate) fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `node` is present.
    pub(crate) fn contains(&self, node: Node) -> bool {
        self.index.contains_key(&node)
    }

    /// Interns `node`, returning its dense id (idempotent).
    fn intern(&mut self, node: Node) -> u32 {
        if let Some(&id) = self.index.get(&node) {
            return id;
        }
        let id = match self.free.pop() {
            Some(id) => {
                self.nodes[id as usize] = node;
                id
            }
            None => {
                let id = u32::try_from(self.nodes.len()).expect("node interner overflow");
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
        let node = self.nodes[id as usize];
        let outs = std::mem::take(&mut self.out_ids[id as usize]);
        self.edge_count -= outs.len();
        for s in outs {
            if s != id {
                self.in_ids[s as usize].retain(|&p| p != id);
            }
        }
        let ins = std::mem::take(&mut self.in_ids[id as usize]);
        for p in ins {
            if p == id {
                continue; // the self-loop was accounted with the out edges
            }
            let succ_ids = &mut self.out_ids[p as usize];
            if let Some(pos) = succ_ids.iter().position(|&s| s == id) {
                succ_ids.remove(pos);
                self.edge_count -= 1;
            }
        }
        self.index.remove(&node);
        self.free.push(id);
    }

    /// Inserts a directed edge `from → to`, inserting the endpoints if
    /// needed. Returns `true` if the edge is new.
    pub(crate) fn add_edge(&mut self, from: Node, to: Node) -> bool {
        let f = self.intern(from);
        let t = self.intern(to);
        self.link(f, t)
    }

    /// Appends the edge between two interned ids unless it exists.
    /// Returns `true` if the edge is new.
    fn link(&mut self, f: u32, t: u32) -> bool {
        if self.out_ids[f as usize].contains(&t) {
            return false;
        }
        self.out_ids[f as usize].push(t);
        self.in_ids[t as usize].push(f);
        self.edge_count += 1;
        true
    }

    /// The successors of `node` in insertion order; none for unknown
    /// nodes.
    pub(crate) fn successors(&self, node: Node) -> impl Iterator<Item = Node> + '_ {
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
    pub(crate) fn path_exists(&self, from: Node, to: Node) -> bool {
        let (from, to) = match (self.index.get(&from), self.index.get(&to)) {
            (Some(&f), Some(&t)) => (f, t),
            _ => return false,
        };
        let mut scratch = self.scratch.borrow_mut();
        let epoch = scratch.begin(self.nodes.len());
        let DfsScratch { visited, stack, .. } = &mut *scratch;
        stack.extend_from_slice(&self.out_ids[from as usize]);
        while let Some(id) = stack.pop() {
            if id == to {
                return true;
            }
            if visited[id as usize] != epoch {
                visited[id as usize] = epoch;
                stack.extend_from_slice(&self.out_ids[id as usize]);
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

    /// Whether the whole graph is acyclic (serialization theorem check).
    pub(crate) fn is_acyclic(&self) -> bool {
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
    pub(crate) fn remove_query(&mut self, query: QueryId) {
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
    /// `would_close_cycle`.
    ///
    /// Dropping pops the front of the sorted node index, so its work is
    /// proportional to the dropped subgraphs' own degree and it allocates
    /// nothing.
    pub(crate) fn advance(&mut self, start: Option<Cycle>, diff: Option<&GraphDiff>) {
        let Some(start) = start else {
            *self = IndexedGraph::default();
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
    pub(crate) fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        self.index.keys().copied()
    }

    /// The earliest commit cycle still retained, if any transaction nodes
    /// exist.
    pub(crate) fn earliest_cycle(&self) -> Option<Cycle> {
        self.index.keys().next()?.as_txn().map(TxnId::cycle)
    }
}
