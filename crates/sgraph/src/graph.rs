//! The serialization graph proper, on a dense node interner.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use bpush_types::{Cycle, TxnId};

use crate::diff::GraphDiff;
use crate::node::Node;

/// A slot no live transaction holds.
const VACANT: u32 = u32::MAX;

/// How many cycles from the window base the slots reach. A transaction
/// further out — only a hand-built graph or a whole-history replay that
/// long names one — lives in the side table.
const SLOT_CYCLES: u64 = 1 << 16;

/// How many transactions of one cycle the slots hold (`seq <
/// SLOT_SEQS`); a later one lives in the side table.
const SLOT_SEQS: u32 = 1 << 10;

/// Whether the edge `from → to` keeps a reverse entry at `to`. An edge
/// that runs old → new does not: the window only ever drops a prefix of
/// the transaction order, so by the time `to` leaves it `from` has left
/// too — in the same [`advance`] — and nobody reads `to`'s list of such
/// predecessors. A new → old or self edge, which only `add_edge` or a
/// malformed diff supplies, keeps one.
///
/// [`advance`]: SerializationGraph::advance
fn keeps_reverse(from: TxnId, to: TxnId) -> bool {
    from >= to
}

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

/// Search scratch is not logical state: a clone starts fresh.
impl Clone for DfsScratch {
    fn clone(&self) -> Self {
        DfsScratch::default()
    }
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

/// A conflict serialization graph (§3.3) over committed server
/// transactions, linked.
///
/// An edge `a → b` means one of `a`'s operations precedes and conflicts
/// with one of `b`'s. Transaction ids order by commit cycle, so the nodes
/// in order list `SG^0, SG^1, …`, and [`SerializationGraph::advance`] is
/// the one place the Lemma-1 window is applied. This is the graph the
/// server replays for the end-of-run audit and the monitors keep; an SGT
/// client keeps the diffs it heard as a [`crate::Window`] instead, with
/// its query nodes. Query nodes have no place here: an edge with a query
/// end is not added.
///
/// # Representation
///
/// Nodes are interned to dense `u32` ids; forward and reverse adjacency
/// are `Vec`-indexed by id and hold ids only, so the validation hot paths
/// run on integer arrays rather than tree lookups:
///
/// * a transaction of the window finds its id in a per-cycle slot
///   vector (`seq → id`), held in a deque that starts at the window base
///   — the `start` of the last [`SerializationGraph::advance`]. A small
///   ordered side table holds the transactions the slots do not cover:
///   transactions interned below the base and anything out of the slots'
///   reach;
/// * [`SerializationGraph::path_exists`] walks id-based successor lists
///   with an epoch-stamped visited array — no per-call allocation and no
///   ordered-set probes;
/// * [`SerializationGraph::advance`] drops whole per-cycle subgraphs,
///   touching only the dropped nodes' in- and out-neighbors: the side
///   table's front and the slot vectors in front of the new start, which
///   are cleared and kept for the cycles to come.
///   An edge between two transactions that runs old → new keeps no
///   reverse entry, since the window drops a prefix of the transaction
///   order and so drops its source no later than its target.
///
/// Freed ids are recycled LIFO with their adjacency buffers, so
/// long-running clients that steadily intern new transactions while
/// pruning old ones keep a bounded intern table and stop allocating.
/// Every structure is insertion-ordered or key-sorted — behavior is a
/// pure function of the operation sequence, which keeps replay-based
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
#[derive(Clone, Default)]
pub struct SerializationGraph {
    /// Intern table: dense id → transaction. Entries of freed ids are
    /// stale until the id is reused; the slots and the side table are the
    /// source of liveness.
    nodes: Vec<TxnId>,
    /// Forward adjacency by id (successor ids, in insertion order).
    out_ids: Vec<Vec<u32>>,
    /// Reverse adjacency by id (predecessor ids), except for old → new
    /// transaction edges ([`keeps_reverse`]).
    in_ids: Vec<Vec<u32>>,
    /// Freed ids available for reuse, LIFO.
    free: Vec<u32>,
    /// Total number of directed edges.
    edge_count: usize,
    /// The commit cycle of `slots[0]`; `None` until the first
    /// [`SerializationGraph::advance`] places the window.
    base: Option<Cycle>,
    /// `slots[k][seq]` is the id of transaction `(base + k, seq)`, or
    /// `VACANT`.
    slots: VecDeque<Vec<u32>>,
    /// Slot vectors dropped off the front, cleared, for reuse.
    spare: Vec<Vec<u32>>,
    /// The live transactions the slots do not cover, sorted.
    side: BTreeMap<TxnId, u32>,
    /// Search scratch; interior-mutable so `&self` path queries reuse it.
    scratch: RefCell<DfsScratch>,
}

impl fmt::Debug for SerializationGraph {
    /// Prints the *logical* graph only — nodes in sorted order with their
    /// successor lists in insertion order. Scratch state and interning
    /// accidents (id values, free-list contents, which nodes sit in the
    /// slots) are deliberately excluded so equal graphs always print
    /// equally; the model checker deduplicates states by this text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for (t, id) in self.entries() {
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

    /// Number of nodes currently in the graph.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Number of directed edges currently in the graph.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// Whether `node` is present.
    pub fn contains(&self, node: Node) -> bool {
        self.id_of(node).is_some()
    }

    /// The transaction an id was last interned for.
    fn node(&self, id: u32) -> Option<TxnId> {
        self.nodes.get(id as usize).copied()
    }

    /// The id of a live node.
    fn id_of(&self, node: Node) -> Option<u32> {
        self.txn_id(node.as_txn()?)
    }

    /// Where the slots would hold `t`: its cycle's offset from the base
    /// and its seq, if it is within their reach.
    fn reach(&self, t: TxnId) -> Option<(usize, usize)> {
        let k = t.cycle().number().checked_sub(self.base?.number())?;
        (k < SLOT_CYCLES && t.seq() < SLOT_SEQS).then_some((k as usize, t.seq() as usize))
    }

    /// The id of a live transaction: in its slot if the slots cover its
    /// cycle, else in the side table.
    fn txn_id(&self, t: TxnId) -> Option<u32> {
        match self.reach(t) {
            Some((k, seq)) if k < self.slots.len() => {
                let id = self.slots.get(k)?.get(seq).copied();
                id.filter(|&id| id != VACANT)
            }
            _ => self.side.get(&t).copied(),
        }
    }

    /// The slot of `t`, made if `t` is within the slots' reach (they grow
    /// to its cycle); `None` when `t` belongs in the side table.
    fn slot_mut(&mut self, t: TxnId) -> Option<&mut u32> {
        let (k, seq) = self.reach(t)?;
        if k >= self.slots.len() {
            self.grow(k);
        }
        let ids = self.slots.get_mut(k)?;
        if ids.len() <= seq {
            ids.resize(seq + 1, VACANT);
        }
        ids.get_mut(seq)
    }

    /// Extends the slots through offset `k` from the base and moves into
    /// them every side-table transaction they now cover.
    fn grow(&mut self, k: usize) {
        let Some(base) = self.base else {
            return;
        };
        let first = base.plus(self.slots.len() as u64);
        let last = base.plus(k as u64);
        while self.slots.len() <= k {
            let ids = self.spare.pop().unwrap_or_default();
            self.slots.push_back(ids);
        }
        let covered = TxnId::new(first, 0)..=TxnId::new(last, SLOT_SEQS - 1);
        let moving: Vec<(TxnId, u32)> = self
            .side
            .range(covered)
            .filter(|(t, _)| t.seq() < SLOT_SEQS)
            .map(|(&t, &id)| (t, id))
            .collect();
        for (t, id) in moving {
            self.side.remove(&t);
            if let Some(slot) = self.slot_mut(t) {
                *slot = id;
            }
        }
    }

    /// Interns a transaction: in its slot when the slots reach it, else
    /// in the side table.
    fn intern_txn(&mut self, t: TxnId) -> u32 {
        if let Some(id) = self.txn_id(t) {
            return id;
        }
        let id = self.alloc(t);
        match self.slot_mut(t) {
            Some(slot) => *slot = id,
            None => {
                self.side.insert(t, id);
            }
        }
        id
    }

    /// A fresh id for `node`: a freed one if any, with the adjacency
    /// buffers it kept.
    fn alloc(&mut self, node: TxnId) -> u32 {
        if let Some(id) = self.free.pop() {
            if let Some(slot) = self.nodes.get_mut(id as usize) {
                *slot = node;
                return id;
            }
        }
        let id = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&id| id != VACANT)
            // lint: allow(panic) — a graph of 2^32 − 1 live nodes exceeds any Lemma-1 window
            .expect("node interner overflow");
        self.nodes.push(node);
        self.out_ids.push(Vec::new());
        self.in_ids.push(Vec::new());
        id
    }

    /// Unlinks one live node: detaches its incident edges by walking the
    /// forward and reverse adjacency of the node itself — O(out-degree +
    /// Σ out-degree of in-neighbors) — and recycles the id. Its adjacency
    /// buffers are cleared in place, so the id's next node reuses them.
    /// The caller has taken the node out of the slots or the side table.
    fn unlink(&mut self, id: u32) {
        let Some(node) = self.node(id) else {
            return;
        };
        let at = id as usize;
        let mut outs = self
            .out_ids
            .get_mut(at)
            .map(std::mem::take)
            .unwrap_or_default();
        self.edge_count -= outs.len();
        for &s in &outs {
            // an old → new source leaves no entry at its target, which
            // may already have been dropped in the same window move
            let reverse = s != id && self.node(s).is_some_and(|to| keeps_reverse(node, to));
            if let Some(preds) = self.in_ids.get_mut(s as usize).filter(|_| reverse) {
                preds.retain(|&p| p != id);
            }
        }
        outs.clear();
        let mut ins = self
            .in_ids
            .get_mut(at)
            .map(std::mem::take)
            .unwrap_or_default();
        for &p in &ins {
            if p == id {
                continue; // the self-loop was accounted with the out edges
            }
            if let Some(succ_ids) = self.out_ids.get_mut(p as usize) {
                if let Some(pos) = succ_ids.iter().position(|&s| s == id) {
                    succ_ids.remove(pos);
                    self.edge_count -= 1;
                }
            }
        }
        ins.clear();
        if let Some(buffer) = self.out_ids.get_mut(at) {
            *buffer = outs;
        }
        if let Some(buffer) = self.in_ids.get_mut(at) {
            *buffer = ins;
        }
        // bpush-lint: allow(hot-alloc) — amortized: the free list's capacity is bounded by the intern table and is reused LIFO
        self.free.push(id);
    }

    /// Inserts a directed edge `from → to` between two transactions,
    /// inserting the endpoints if needed. Returns `true` if the edge is
    /// new; an edge with a query end is not added.
    pub fn add_edge(&mut self, from: Node, to: Node) -> bool {
        let (Node::Txn(from), Node::Txn(to)) = (from, to) else {
            return false;
        };
        let f = self.intern_txn(from);
        let t = self.intern_txn(to);
        self.link(f, t, keeps_reverse(from, to))
    }

    /// Appends the edge between two interned ids unless it exists, with
    /// a reverse entry if `reverse`. Returns `true` if the edge is new.
    fn link(&mut self, f: u32, t: u32, reverse: bool) -> bool {
        let Some(succ_ids) = self.out_ids.get_mut(f as usize) else {
            return false;
        };
        if succ_ids.contains(&t) {
            return false;
        }
        succ_ids.push(t);
        if let Some(preds) = self.in_ids.get_mut(t as usize).filter(|_| reverse) {
            preds.push(f);
        }
        self.edge_count += 1;
        true
    }

    /// The successors of id `id`, in insertion order.
    fn successor_nodes(&self, id: u32) -> impl Iterator<Item = Node> + '_ {
        let ids = self.out_ids.get(id as usize);
        ids.into_iter()
            .flatten()
            .filter_map(|&s| self.node(s).map(Node::Txn))
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
    // bpush-lint: hot_path — per-read SGT acceptance probe (PR-3 allocation-freedom contract)
    pub fn path_exists(&self, from: Node, to: Node) -> bool {
        let (Some(from), Some(to)) = (self.id_of(from), self.id_of(to)) else {
            return false;
        };
        let mut scratch = self.scratch.borrow_mut();
        let epoch = scratch.begin(self.nodes.len());
        let DfsScratch { visited, stack, .. } = &mut *scratch;
        if let Some(succ_ids) = self.out_ids.get(from as usize) {
            // bpush-lint: allow(hot-alloc) — amortized: the reusable scratch stack grows to its high-water mark once
            stack.extend_from_slice(succ_ids);
        }
        while let Some(id) = stack.pop() {
            if id == to {
                return true;
            }
            let Some(seen) = visited.get_mut(id as usize) else {
                continue;
            };
            if *seen != epoch {
                *seen = epoch;
                if let Some(succ_ids) = self.out_ids.get(id as usize) {
                    // bpush-lint: allow(hot-alloc) — amortized: the reusable scratch stack grows to its high-water mark once
                    stack.extend_from_slice(succ_ids);
                }
            }
        }
        false
    }

    /// Whether the whole graph is acyclic (serialization theorem check).
    pub fn is_acyclic(&self) -> bool {
        // Iterative three-color DFS over ids. Not a validation hot path;
        // the color array is allocated per call.
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let mut color = vec![WHITE; self.nodes.len()];
        for (_, start) in self.entries() {
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

    /// Moves the Lemma-1 window to start at commit cycle `start`, then
    /// integrates the part of a broadcast [`GraphDiff`] inside it.
    ///
    /// With `Some(start)`, every transaction committed before `start` is
    /// dropped with its incident edges; then a commit or edge endpoint of
    /// `diff` is interned only if its cycle is `≥ start`, and an edge is
    /// linked only if both of its ends are. `Some(Cycle::ZERO)` keeps
    /// everything: the whole-history graph is the window that starts at
    /// cycle 0.
    ///
    /// With `None` nothing is kept: the graph returns to an empty one —
    /// intern table, adjacency buffers, slot vectors and search scratch
    /// included — and `diff` is ignored.
    ///
    /// Edges between server transactions always point from earlier to
    /// later commits (Claim 1: strict histories admit no edges *into* a
    /// previous cycle's subgraph), so a window starting at `start` keeps
    /// every path between the transactions it holds.
    ///
    /// Dropping takes the transactions below `start` off the front of the
    /// side table and pops the slot vectors in front of `start`, so its
    /// work is proportional to the dropped subgraphs' own degree; the
    /// popped vectors are cleared and kept for the cycles the slots reach
    /// next. `start` becomes the slots' base unless it lies below a base
    /// they still hold cycles from; the diff's transactions then find
    /// their slots by offset, so integrating a diff costs its edges, not
    /// a search per endpoint.
    pub fn advance(&mut self, start: Option<Cycle>, diff: Option<&GraphDiff>) {
        let Some(start) = start else {
            *self = SerializationGraph::default();
            return;
        };
        let first_kept = TxnId::new(start, 0);
        while let Some(entry) = self.side.first_entry() {
            if *entry.key() >= first_kept {
                break;
            }
            let id = entry.remove();
            self.unlink(id);
        }
        while self.base.is_some_and(|base| base < start) {
            let Some(mut ids) = self.slots.pop_front() else {
                break;
            };
            for &id in &ids {
                if id != VACANT {
                    self.unlink(id);
                }
            }
            ids.clear();
            self.spare.push(ids);
            self.base = self.base.map(Cycle::next);
        }
        if self.slots.is_empty() {
            self.base = Some(start);
        }
        let Some(diff) = diff else {
            return;
        };
        for &t in diff.committed() {
            if t.cycle() >= start {
                self.intern_txn(t);
            }
        }
        for &(from, to) in diff.edges() {
            let f = (from.cycle() >= start).then(|| self.intern_txn(from));
            let t = (to.cycle() >= start).then(|| self.intern_txn(to));
            if let (Some(f), Some(t)) = (f, t) {
                self.link(f, t, from >= to);
            }
        }
    }

    /// Every live node with its id, in node order: the transactions of
    /// the side table and the slots merged by id.
    fn entries(&self) -> impl Iterator<Item = (TxnId, u32)> + '_ {
        let base = self.base.unwrap_or(Cycle::ZERO);
        let mut slotted = self
            .slots
            .iter()
            .zip(0..)
            .flat_map(move |(ids, k)| {
                let cycle = base.plus(k);
                ids.iter()
                    .zip(0..)
                    .filter(|&(&id, _)| id != VACANT)
                    .map(move |(&id, seq)| (TxnId::new(cycle, seq), id))
            })
            .peekable();
        let mut side = self.side.iter().map(|(&t, &id)| (t, id)).peekable();
        std::iter::from_fn(move || match (side.peek(), slotted.peek()) {
            (Some(a), Some(b)) if b.0 < a.0 => slotted.next(),
            (Some(_), _) => side.next(),
            (None, _) => slotted.next(),
        })
    }

    /// Iterates over all nodes in sorted order: transactions by commit
    /// cycle and in-cycle position — the order `Debug` prints them in.
    pub fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        self.entries().map(|(t, _)| Node::Txn(t))
    }

    /// The earliest commit cycle still retained, if any transaction nodes
    /// exist.
    pub fn earliest_cycle(&self) -> Option<Cycle> {
        self.entries().next().map(|(t, _)| t.cycle())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpush_types::QueryId;

    fn t(cycle: u64, seq: u32) -> TxnId {
        TxnId::new(Cycle::new(cycle), seq)
    }

    fn nt(cycle: u64, seq: u32) -> Node {
        Node::Txn(t(cycle, seq))
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
    fn query_ends_are_not_added() {
        // an SGT client keeps its query nodes in a `Window`, not here
        let mut g = SerializationGraph::new();
        let q = Node::Query(QueryId::new(0));
        assert!(!g.add_edge(nt(0, 0), q));
        assert!(!g.add_edge(q, nt(0, 0)));
        assert!(g.is_empty());
        assert!(!g.contains(q));
        assert!(!g.path_exists(q, nt(0, 0)));
    }

    #[test]
    fn path_queries() {
        let mut g = SerializationGraph::new();
        g.add_edge(nt(0, 0), nt(1, 0));
        g.add_edge(nt(1, 0), nt(2, 0));
        g.add_edge(nt(2, 0), nt(3, 0));
        g.intern_txn(t(9, 9));
        assert!(g.path_exists(nt(0, 0), nt(3, 0)));
        assert!(!g.path_exists(nt(3, 0), nt(0, 0)));
        assert!(!g.path_exists(nt(0, 0), nt(9, 9)));
        // no self-path without a cycle
        assert!(!g.path_exists(nt(1, 0), nt(1, 0)));
        g.add_edge(nt(3, 0), nt(1, 0));
        assert!(g.path_exists(nt(1, 0), nt(1, 0)));
    }

    #[test]
    fn self_edge_is_a_cycle() {
        let mut g = SerializationGraph::new();
        g.add_edge(nt(0, 0), nt(0, 0));
        assert!(g.path_exists(nt(0, 0), nt(0, 0)));
        assert!(!g.is_acyclic());
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
    fn no_window_resets_everything() {
        // no window at all: nothing is kept, not even the diff handed in
        let mut g = SerializationGraph::new();
        g.add_edge(nt(0, 0), nt(1, 0));
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
        // dropped, the first of cycle b stays
        let mut g = SerializationGraph::new();
        g.add_edge(nt(2, u32::MAX), nt(3, 0));
        g.add_edge(nt(3, 0), nt(3, 1));
        g.advance(Some(Cycle::new(3)), None);
        assert!(!g.contains(nt(2, u32::MAX)));
        assert!(g.contains(nt(3, 0)) && g.contains(nt(3, 1)));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.earliest_cycle(), Some(Cycle::new(3)));
        // a window past every transaction leaves nothing
        g.advance(Some(Cycle::new(u64::MAX)), None);
        assert!(g.is_empty());
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
        g.add_edge(nt(1, 0), nt(0, 0));
        assert_eq!(g.nodes().collect::<Vec<_>>(), vec![nt(0, 0), nt(1, 0)]);
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
        a.add_edge(nt(6, 0), nt(7, 0));
        let mut b = SerializationGraph::new();
        b.add_edge(nt(5, 5), nt(6, 1));
        b.add_edge(nt(6, 0), nt(7, 0));
        b.advance(Some(Cycle::ZERO), None); // no-op, but exercises bookkeeping
        b.advance(Some(Cycle::new(6)), None);
        b.add_edge(nt(6, 0), nt(7, 0));
        // b now holds a's content and T6.1 (T5.5 pruned)
        a.add_edge(nt(6, 1), nt(7, 0));
        b.add_edge(nt(6, 1), nt(7, 0));
        let _ = b.path_exists(nt(6, 0), nt(7, 0)); // dirty the scratch
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
        g.add_edge(nt(4, 0), nt(1, 0));
        let model: BTreeMap<Node, Vec<Node>> = [
            (nt(1, 0), vec![nt(3, 0), nt(2, 0)]),
            (nt(2, 0), vec![]),
            (nt(3, 0), vec![]),
            (nt(4, 0), vec![nt(1, 0)]),
        ]
        .into();
        assert_eq!(format!("{g:?}"), format!("{model:?}"));
        assert_eq!(format!("{g:#?}"), format!("{model:#?}"));
    }

    #[test]
    fn clone_is_independent_and_equal() {
        let mut g = SerializationGraph::new();
        g.add_edge(nt(0, 0), nt(1, 0));
        g.add_edge(nt(2, 0), nt(0, 0));
        let mut c = g.clone();
        assert_eq!(format!("{g:?}"), format!("{c:?}"));
        c.add_edge(nt(1, 0), nt(2, 0));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(c.edge_count(), 3);
    }

    #[test]
    fn slots_and_side_table_print_in_node_order() {
        // a transaction below the base and a sequence number past the
        // slots' reach live in the side table, the window's commits in
        // the slots; `Debug` and `nodes()` merge them in node order
        let mut g = SerializationGraph::new();
        let diff = GraphDiff::new(
            Cycle::new(3),
            vec![t(3, 0), t(3, 1), t(3, SLOT_SEQS)],
            vec![
                (t(2, 0), t(3, 0)),
                (t(3, 0), t(3, 1)),
                (t(2, 0), t(3, SLOT_SEQS)),
            ],
        );
        g.advance(Some(Cycle::new(2)), Some(&diff));
        g.add_edge(nt(1, 0), nt(3, 1)); // below the window: in the side table
        assert_eq!(g.base, Some(Cycle::new(2)));
        assert_eq!(
            g.side.keys().copied().collect::<Vec<_>>(),
            vec![t(1, 0), t(3, SLOT_SEQS)]
        );
        let model: BTreeMap<Node, Vec<Node>> = [
            (nt(1, 0), vec![nt(3, 1)]),
            (nt(2, 0), vec![nt(3, 0), nt(3, SLOT_SEQS)]),
            (nt(3, 0), vec![nt(3, 1)]),
            (nt(3, 1), vec![]),
            (nt(3, SLOT_SEQS), vec![]),
        ]
        .into();
        assert_eq!(format!("{g:?}"), format!("{model:?}"));
        assert!(g.nodes().eq(model.keys().copied()));
        assert_eq!(g.earliest_cycle(), Some(Cycle::new(1)));
        assert_eq!(g.node_count(), 5);
    }

    #[test]
    fn side_table_entries_move_into_the_slots_that_reach_them() {
        // interned before any window exists, T3.0 sits in the side table;
        // once the slots grow to cycle 3 the diff must find it there, not
        // intern it twice
        let mut g = SerializationGraph::new();
        g.add_edge(nt(3, 0), nt(3, 1));
        assert_eq!(g.side.len(), 2);
        let diff = GraphDiff::new(Cycle::new(4), vec![t(4, 0)], vec![(t(3, 0), t(4, 0))]);
        g.advance(Some(Cycle::new(2)), Some(&diff));
        assert!(g.side.is_empty(), "T3.0 and T3.1 moved into their slots");
        assert_eq!(g.node_count(), 3);
        assert!(g.path_exists(nt(3, 0), nt(4, 0)));
        // a window start moving back below a base the slots still hold
        // cycles from leaves the base; what is interned below it goes to
        // the side table and is found there
        g.advance(
            Some(Cycle::new(1)),
            Some(&GraphDiff::new(Cycle::new(1), vec![t(1, 0)], vec![])),
        );
        assert_eq!(g.base, Some(Cycle::new(2)));
        assert_eq!(g.side.keys().copied().collect::<Vec<_>>(), vec![t(1, 0)]);
        assert!(!g.add_edge(nt(3, 0), nt(4, 0)), "found in its slot");
        g.advance(Some(Cycle::new(4)), None);
        assert!(g.side.is_empty());
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn popped_slot_vectors_are_cleared_and_reused() {
        let mut g = SerializationGraph::new();
        for n in 1..6u64 {
            let diff = GraphDiff::new(
                Cycle::new(n),
                vec![t(n, 0), t(n, 1)],
                vec![(t(n - 1, 0), t(n, 0)), (t(n, 0), t(n, 1))],
            );
            g.advance(Some(Cycle::new(n.saturating_sub(1))), Some(&diff));
            assert!(
                g.spare.iter().all(Vec::is_empty),
                "spare slot vectors hold no ids"
            );
        }
        // two cycles of slots live; earlier vectors were recycled, not
        // grown anew
        assert_eq!(g.slots.len(), 2);
        assert!(g.slots.len() + g.spare.len() <= 3);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn freed_ids_keep_their_adjacency_buffers() {
        let mut g = SerializationGraph::new();
        g.advance(Some(Cycle::ZERO), None);
        g.add_edge(nt(0, 0), nt(1, 0));
        g.add_edge(nt(0, 1), nt(0, 0));
        g.advance(Some(Cycle::new(1)), None);
        let freed = g.free.clone();
        assert!(!freed.is_empty());
        for id in freed {
            assert!(g.out_ids[id as usize].is_empty() && g.in_ids[id as usize].is_empty());
        }
        assert!(
            g.out_ids
                .iter()
                .chain(&g.in_ids)
                .any(|ids| ids.is_empty() && ids.capacity() > 0),
            "a freed id keeps the capacity its node grew"
        );
        // no window at all still returns to zero footprint
        g.advance(None, None);
        assert!(
            g.out_ids.is_empty() && g.in_ids.is_empty() && g.slots.is_empty() && g.spare.is_empty()
        );
    }

    #[test]
    fn old_to_new_transaction_edges_keep_no_reverse_entry() {
        let mut g = SerializationGraph::new();
        g.add_edge(nt(1, 0), nt(2, 0)); // old -> new: none
        g.add_edge(nt(2, 1), nt(2, 0)); // new -> old: kept
        g.add_edge(nt(2, 0), nt(2, 0)); // self edge: kept
        let id = |n: Node| g.id_of(n).unwrap();
        let preds: Vec<TxnId> = g.in_ids[id(nt(2, 0)) as usize]
            .iter()
            .map(|&p| g.nodes[p as usize])
            .collect();
        assert_eq!(preds, vec![t(2, 1), t(2, 0)]);
        // dropping the old source still detaches the edge, and dropping
        // the new -> old edge's target detaches it through the entry it
        // kept
        g.advance(Some(Cycle::new(2)), None);
        assert_eq!(g.edge_count(), 2);
        assert!(g.successors(nt(2, 1)).eq([nt(2, 0)]));
        g.advance(Some(Cycle::new(3)), None);
        assert!(g.is_empty() && g.edge_count() == 0);
    }
}
