//! The Lemma-1 window of an SGT client, or of the monitors' graph lane:
//! the diffs heard, kept as they arrived.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use bpush_types::{Cycle, QueryId, TxnId};

use crate::diff::GraphDiff;
use crate::node::Node;

/// One heard diff, shared with every other window that keeps it.
#[derive(Debug, Clone)]
struct Chunk {
    diff: Arc<GraphDiff>,
    /// The highest window start since the chunk was pushed: its edges
    /// whose source was committed before it are gone, as they would be
    /// from a linked graph that dropped their sources.
    floor: Cycle,
    /// How many chunks were pushed before this one.
    stamp: u64,
    /// `diff.edges_from(floor)`: the chunk's edges still in the graph.
    live: usize,
}

/// An edge with a query end: `R → T_f` (precedence) or `T_l → R`
/// (dependency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueryEdge {
    txn: TxnId,
    query: QueryId,
    /// `T_l → R` if set, else `R → T_f`.
    into_query: bool,
    /// How many chunks were pushed before this edge was added: it comes
    /// after the edges of those chunks in its source's successor order.
    stamp: u64,
}

impl QueryEdge {
    /// The edge as `(from, to)`.
    fn ends(&self) -> (Node, Node) {
        if self.into_query {
            (Node::Txn(self.txn), Node::Query(self.query))
        } else {
            (Node::Query(self.query), Node::Txn(self.txn))
        }
    }
}

/// Reusable backward-search state, sized by the mutators so the search
/// itself never allocates: an epoch-stamped open-addressing set of the
/// nodes seen, and a stack with room for every node.
#[derive(Debug, Default)]
struct Search {
    /// `(epoch, node)`; a slot holds a member only while its epoch is
    /// the current one. A power of two, at least twice the node count.
    seen: Vec<(u32, Node)>,
    epoch: u32,
    /// Room for every node plus the start; `top` entries are in use.
    stack: Vec<Node>,
    top: usize,
}

/// Search scratch is not logical state: a clone starts with an empty
/// scratch of the same size, so it can search at once.
impl Clone for Search {
    fn clone(&self) -> Self {
        let mut fresh = Search::default();
        fresh.fit(self.stack.len());
        fresh
    }
}

impl Search {
    /// Room for `nodes` distinct nodes.
    fn fit(&mut self, nodes: usize) {
        const EMPTY: Node = Node::Query(QueryId::new(0));
        if nodes == 0 {
            return;
        }
        if self.stack.len() < nodes {
            self.stack.resize(nodes, EMPTY);
        }
        let slots = (2 * nodes).next_power_of_two();
        if self.seen.len() < slots {
            self.seen = vec![(0, EMPTY); slots];
            self.epoch = 0;
        }
    }

    /// Opens a fresh epoch: every node unseen, the stack empty.
    fn open_epoch(&mut self) {
        if self.epoch == u32::MAX {
            self.seen.iter_mut().for_each(|(e, _)| *e = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.top = 0;
    }

    /// Marks `node` seen and stacks it if it was not yet. `None` if the
    /// scratch is full — which only a malformed diff naming more nodes
    /// than the window holds can cause.
    fn reach(&mut self, node: Node) -> Option<()> {
        let key = match node {
            Node::Txn(t) => t.cycle().number().rotate_left(20) ^ u64::from(t.seq()),
            Node::Query(q) => !q.number(),
        };
        let mask = self.seen.len().checked_sub(1)?;
        let mut at = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        for _ in 0..self.seen.len() {
            let slot = self.seen.get_mut(at)?;
            if slot.0 != self.epoch {
                *slot = (self.epoch, node);
                *self.stack.get_mut(self.top)? = node;
                self.top += 1;
                return Some(());
            }
            if slot.1 == node {
                return Some(());
            }
            at = (at + 1) & mask;
        }
        None
    }

    /// Pops the next stacked node.
    fn take_next(&mut self) -> Option<Node> {
        self.top = self.top.checked_sub(1)?;
        self.stack.get(self.top).copied()
    }
}

/// The Lemma-1 window of an SGT client's serialization graph (§3.3),
/// kept as the diffs the client heard rather than a linked copy of them.
///
/// Every edge of a diff ends in the diff's own cycle, and edges run old →
/// new (Claim 1), so a diff grouped by target is the in-edge list of its
/// cycle's transactions, and the window `SG^k, k ≥ start` is a suffix of
/// the diffs heard. The window is a deque of per-cycle **chunks**, each
/// an `Arc` of a broadcast [`GraphDiff`] — struct-fed, every client of a
/// simulation shares one per cycle; wire-fed, the client's own decoded
/// diff moves in — plus the **floor** it was admitted under, which every
/// later [`Window::advance`] raises to its start (floors only rise). A
/// chunk's edges from a source committed before its floor are gone, as
/// they would be from a linked graph that dropped their sources. Beside
/// the chunks sits a small **overlay** of the edges with a query end,
/// `R → T_f` and `T_l → R`, each stamped with the number of chunks
/// pushed before it.
///
/// The acceptance test ([`Window::would_close_cycle`]) asks whether the
/// dependency edge `T_l → R` closes a cycle, that is whether `R →* T_l`.
/// It runs **backward** from `T_l` — over the in-edges of its chunk, by
/// binary search, and the overlay — until it meets `R` or runs out of
/// window. So a client pays for the graph only when a read asks, and
/// nothing per offered edge. The monitors' graph lane keeps a window
/// too, with no query node, and asks [`Window::path_exists`] — the same
/// search with a transaction to meet.
///
/// The window is observationally the linked graph it replaces — an
/// interned graph that interns the part of each diff inside the window,
/// drops whatever falls out of it, and keeps query nodes until
/// [`Window::remove_query`]:
///
/// * **nodes** are the commits of the chunks; any transaction the overlay
///   names, or a live chunk edge names, whose own chunk is absent (a
///   missed cycle, or one below the start) — kept until the start passes
///   its cycle; and the query nodes, each kept from its first edge until
///   [`Window::remove_query`];
/// * **edges** are each chunk's edges whose source is at or above its
///   floor, counted per source cycle once per shared diff, plus the
///   overlay;
/// * `Debug` prints the nodes sorted, transactions first, each with its
///   successors in insertion order — chunk edges in push order merged
///   with overlay edges by stamp — in exactly the text a
///   `BTreeMap<Node, Vec<Node>>` prints.
///
/// Counts are kept incrementally, so [`Window::node_count`] and
/// [`Window::edge_count`] cost nothing.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use bpush_sgraph::{GraphDiff, Window};
/// use bpush_types::{Cycle, QueryId, TxnId};
///
/// let (t1, t2) = (TxnId::new(Cycle::new(1), 0), TxnId::new(Cycle::new(2), 0));
/// let r = QueryId::new(0);
/// let mut w = Window::new();
/// w.add_precedence(r, t1); // T1.0 overwrote something R read
/// w.advance(Some(Cycle::new(1)), Some(&Arc::new(GraphDiff::new(Cycle::new(1), vec![t1], vec![]))));
/// w.advance(Some(Cycle::new(1)), Some(&Arc::new(GraphDiff::new(Cycle::new(2), vec![t2], vec![(t1, t2)]))));
/// // reading what T2.0 wrote closes R → T1.0 → T2.0 → R
/// assert!(w.would_close_cycle(t2, r));
/// assert_eq!((w.node_count(), w.edge_count()), (3, 2));
/// ```
#[derive(Clone, Default)]
pub struct Window {
    /// The chunks, ascending by cycle.
    chunks: VecDeque<Chunk>,
    /// Chunks pushed since the window was last emptied.
    pushed: u64,
    /// The edges with a query end, in insertion order.
    overlay: Vec<QueryEdge>,
    /// The query nodes, sorted.
    queries: Vec<QueryId>,
    /// The transaction nodes no chunk of the window lists, sorted.
    orphans: Vec<TxnId>,
    /// Σ commits over the chunks.
    commits: usize,
    /// Σ live edges over the chunks.
    chunk_edges: usize,
    /// Search scratch; interior-mutable so the `&self` search reuses it.
    search: RefCell<Search>,
}

impl fmt::Debug for Window {
    /// Prints the logical graph: the text of the `BTreeMap<Node,
    /// Vec<Node>>` of every node's successors in insertion order. The
    /// model checker deduplicates states by it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map: BTreeMap<Node, Vec<Node>> = BTreeMap::new();
        let txns = self.chunks.iter().flat_map(|c| c.diff.committed());
        for &t in txns.chain(&self.orphans) {
            map.entry(Node::Txn(t)).or_default();
        }
        for &q in &self.queries {
            map.entry(Node::Query(q)).or_default();
        }
        // every edge in insertion order: each chunk's after the overlay
        // edges added before it was pushed
        let mut overlay = self.overlay.iter().peekable();
        let mut edges = Vec::with_capacity(self.edge_count());
        for chunk in &self.chunks {
            while let Some(e) = overlay.next_if(|e| e.stamp <= chunk.stamp) {
                edges.push(e.ends());
            }
            let live = chunk
                .diff
                .edges()
                .iter()
                .filter(|(from, _)| from.cycle() >= chunk.floor);
            edges.extend(live.map(|&(from, to)| (Node::Txn(from), Node::Txn(to))));
        }
        edges.extend(overlay.map(QueryEdge::ends));
        for (from, to) in edges {
            map.entry(from).or_default().push(to);
        }
        fmt::Debug::fmt(&map, f)
    }
}

impl Window {
    /// Creates an empty window.
    pub fn new() -> Self {
        Window::default()
    }

    /// Number of nodes in the graph the window holds.
    pub fn node_count(&self) -> usize {
        self.commits + self.orphans.len() + self.queries.len()
    }

    /// Number of directed edges in the graph the window holds.
    pub fn edge_count(&self) -> usize {
        self.chunk_edges + self.overlay.len()
    }

    /// Whether the window holds no node.
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// The chunk of `cycle`, if the window keeps one.
    fn chunk_of(&self, cycle: Cycle) -> Option<&Chunk> {
        let at = self
            .chunks
            .binary_search_by_key(&cycle, |c| c.diff.cycle())
            .ok()?;
        self.chunks.get(at)
    }

    /// Whether `t` is a node through a chunk that lists it.
    fn listed(&self, t: TxnId) -> bool {
        self.chunk_of(t.cycle()).is_some_and(|c| c.diff.commits(t))
    }

    /// Makes `t` a node: an orphan unless a chunk lists it.
    fn intern_txn(&mut self, t: TxnId) {
        if !self.listed(t) {
            if let Err(at) = self.orphans.binary_search(&t) {
                self.orphans.insert(at, t);
            }
        }
    }

    /// Makes `q` a node.
    fn intern_query(&mut self, q: QueryId) {
        if let Err(at) = self.queries.binary_search(&q) {
            self.queries.insert(at, q);
        }
    }

    /// Adds an edge with a query end unless it exists, interning both
    /// ends. Returns `true` if the edge is new.
    fn add_query_edge(&mut self, txn: TxnId, query: QueryId, into_query: bool) -> bool {
        let edge = |e: &QueryEdge| e.txn == txn && e.query == query && e.into_query == into_query;
        if self.overlay.iter().any(edge) {
            return false;
        }
        self.intern_query(query);
        self.intern_txn(txn);
        self.overlay.push(QueryEdge {
            txn,
            query,
            into_query,
            stamp: self.pushed,
        });
        let nodes = self.node_count();
        self.search.get_mut().fit(nodes + 1);
        true
    }

    /// Adds the precedence edge `R → T_f`: `T_f` overwrote an item the
    /// query read. Returns `true` if the edge is new.
    pub fn add_precedence(&mut self, query: QueryId, t_f: TxnId) -> bool {
        self.add_query_edge(t_f, query, false)
    }

    /// Adds the dependency edge `T_l → R`: the query read a value `T_l`
    /// wrote. Returns `true` if the edge is new.
    pub fn add_dependency(&mut self, t_l: TxnId, query: QueryId) -> bool {
        self.add_query_edge(t_l, query, true)
    }

    /// Whether adding the dependency edge `T_l → R` would close a cycle,
    /// that is whether `R →* T_l` — the SGT acceptance test. The edge is
    /// not added. `false` if `R` is not a node.
    // bpush-lint: hot_path — the SGT acceptance test itself (PR-3 allocation-freedom contract)
    pub fn would_close_cycle(&self, t_l: TxnId, query: QueryId) -> bool {
        // R has no edge, so no path leaves it
        self.queries.binary_search(&query).is_ok() && self.reaches_back(Node::Query(query), t_l)
    }

    /// Whether a directed path `from →* to` exists between two
    /// transactions (`path_exists(t, t)` only if `t` lies on a cycle):
    /// the monitors' reachability question. `false` if either end is not
    /// a node.
    // bpush-lint: hot_path — per-read reachability probe of the monitors' graph lane
    pub fn path_exists(&self, from: TxnId, to: TxnId) -> bool {
        self.holds(from) && self.holds(to) && self.reaches_back(Node::Txn(from), to)
    }

    /// Whether `t` is a transaction node.
    fn holds(&self, t: TxnId) -> bool {
        self.listed(t) || self.orphans.binary_search(&t).is_ok()
    }

    /// The nodes with an edge into `node`: overlay edges first, then, for
    /// a transaction, the in-edges its chunk lists from sources at or
    /// above the chunk's floor.
    fn predecessors(&self, node: Node) -> impl Iterator<Item = Node> + '_ {
        let overlay = self.overlay.iter().map(QueryEdge::ends);
        let chunk = node
            .as_txn()
            .and_then(|x| Some((self.chunk_of(x.cycle())?, x)));
        let chunk_edges = chunk.into_iter().flat_map(|(chunk, x)| {
            let live = chunk.diff.in_edges(x).iter();
            live.filter(move |(from, _)| from.cycle() >= chunk.floor)
                .map(|&(from, _)| Node::Txn(from))
        });
        overlay
            .filter(move |&(_, to)| to == node)
            .map(|(from, _)| from)
            .chain(chunk_edges)
    }

    /// Whether `target` reaches `to` over at least one edge. The search
    /// runs backward from `to` over [`Window::predecessors`] until it
    /// meets `target` or runs out of window. A diff malformed across
    /// cycles (a source its cycle's chunk does not list) can name more
    /// nodes than the scratch was sized for; the search then answers
    /// `true` — for the acceptance test an abort, never an unsound
    /// accept; for the monitors a path reported.
    fn reaches_back(&self, target: Node, to: TxnId) -> bool {
        // With no query edge every edge is a chunk edge, which runs old →
        // new (the server emits no other and the wire admits no other),
        // so no node older than a transaction lies on a path from it:
        // the search skips them.
        let floor = match target {
            Node::Txn(from) if self.overlay.is_empty() => from,
            _ => TxnId::new(Cycle::ZERO, 0),
        };
        let mut search = self.search.borrow_mut();
        search.open_epoch();
        let mut full = search.reach(Node::Txn(to)).is_none();
        while let Some(node) = search.take_next().filter(|_| !full) {
            for pred in self.predecessors(node) {
                if pred == target {
                    return true;
                }
                if pred >= Node::Txn(floor) {
                    full |= search.reach(pred).is_none();
                }
            }
        }
        full
    }

    /// Removes a query node and every edge with it as an end. The
    /// transactions those edges named stay nodes until the window start
    /// passes them.
    // bpush-lint: hot_path — per-commit/abort cleanup on the client validation path
    pub fn remove_query(&mut self, query: QueryId) {
        if let Ok(at) = self.queries.binary_search(&query) {
            self.queries.remove(at);
            self.overlay.retain(|e| e.query != query);
        }
    }

    /// Moves the window to start at commit cycle `start`, then keeps the
    /// broadcast `diff` as a chunk if its cycle is inside the window.
    ///
    /// With `Some(start)`: the chunks of cycles before `start` leave; every
    /// other chunk's floor rises to `start` (it never falls); overlay
    /// edges and orphan nodes whose transaction is older than `start`
    /// leave; query nodes stay. Then `diff`, if its cycle is at or after
    /// `start` and after the newest chunk's, is pushed with floor `start`:
    /// its sources whose own chunk is absent become nodes. A diff no newer
    /// than the newest chunk is ignored — feeds deliver cycles in order.
    ///
    /// With `None` the client has no live query, so nothing is kept: the
    /// window returns to an empty one, search scratch included (the
    /// paper's "if no items are updated, there is no space or processing
    /// overhead"), and `diff` is ignored.
    ///
    /// Returns whether `diff` was kept.
    pub fn advance(&mut self, start: Option<Cycle>, diff: Option<&Arc<GraphDiff>>) -> bool {
        let Some(start) = start else {
            *self = Window::default();
            return false;
        };
        while let Some(chunk) = self.chunks.front() {
            if chunk.diff.cycle() >= start {
                break;
            }
            self.commits -= chunk.diff.committed().len();
            self.chunk_edges -= chunk.live;
            self.chunks.pop_front();
        }
        for chunk in self.chunks.iter_mut().filter(|c| c.floor < start) {
            chunk.floor = start;
            let live = chunk.diff.edges_from(start);
            self.chunk_edges -= chunk.live - live;
            chunk.live = live;
        }
        self.overlay.retain(|e| e.txn.cycle() >= start);
        let below = self.orphans.partition_point(|t| t.cycle() < start);
        self.orphans.drain(..below);
        let Some(diff) = diff else { return false };
        let newer = match self.chunks.back() {
            Some(newest) => newest.diff.cycle() < diff.cycle(),
            None => true,
        };
        let keep = diff.cycle() >= start && newer;
        if keep {
            self.push_chunk(diff, start);
        }
        keep
    }

    /// Pushes `diff` as the newest chunk with floor `start`.
    fn push_chunk(&mut self, diff: &Arc<GraphDiff>, start: Cycle) {
        let cycle = diff.cycle();
        // transactions named before their chunk came are its nodes now
        self.orphans
            .retain(|&t| t.cycle() != cycle || !diff.commits(t));
        for source_cycle in diff.source_cycles().filter(|&c| c >= start && c < cycle) {
            if self.chunk_of(source_cycle).is_none() {
                for &(from, _) in diff.edges() {
                    if from.cycle() == source_cycle {
                        self.intern_txn(from);
                    }
                }
            }
        }
        let live = diff.edges_from(start);
        self.commits += diff.committed().len();
        self.chunk_edges += live;
        self.chunks.push_back(Chunk {
            diff: Arc::clone(diff),
            floor: start,
            stamp: self.pushed,
            live,
        });
        self.pushed += 1;
        let nodes = self.node_count();
        self.search.get_mut().fit(nodes + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(cycle: u64, seq: u32) -> TxnId {
        TxnId::new(Cycle::new(cycle), seq)
    }

    fn q(n: u64) -> QueryId {
        QueryId::new(n)
    }

    fn diff(cycle: u64, committed: &[TxnId], edges: &[(TxnId, TxnId)]) -> Arc<GraphDiff> {
        Arc::new(GraphDiff::new(
            Cycle::new(cycle),
            committed.to_vec(),
            edges.to_vec(),
        ))
    }

    fn at(cycle: u64) -> Option<Cycle> {
        Some(Cycle::new(cycle))
    }

    #[test]
    fn would_close_cycle_matches_paper_scenario() {
        // Figure 3: R read x from T_k; T_f (cycle 2) overwrote an item R
        // had read; a conflict path T_f ->* T_l exists; reading from T_l
        // must be rejected.
        let mut w = Window::new();
        let r = q(0);
        w.add_precedence(r, t(2, 0));
        w.advance(at(2), Some(&diff(2, &[t(2, 0)], &[])));
        w.advance(at(2), Some(&diff(3, &[t(3, 1)], &[(t(2, 0), t(3, 1))])));
        w.advance(
            at(2),
            Some(&diff(4, &[t(4, 0), t(4, 1)], &[(t(3, 1), t(4, 0))])),
        );
        assert!(
            w.would_close_cycle(t(4, 0), r),
            "dependency edge closes cycle"
        );
        // a writer not reachable from T_f is fine, and so is a query with
        // no edge at all
        assert!(!w.would_close_cycle(t(4, 1), r));
        assert!(!w.would_close_cycle(t(4, 0), q(1)));
    }

    #[test]
    fn would_close_cycle_rejects_and_preserves() {
        let mut w = Window::new();
        w.add_precedence(q(0), t(1, 0));
        w.advance(at(1), Some(&diff(1, &[t(1, 0)], &[])));
        let size = (w.node_count(), w.edge_count());
        assert!(w.would_close_cycle(t(1, 0), q(0)));
        assert_eq!(
            (w.node_count(), w.edge_count()),
            size,
            "the test adds nothing"
        );
        // an accepted read's edge leaves the test's answer for it alone
        assert!(!w.would_close_cycle(t(0, 5), q(0)));
        assert!(w.add_dependency(t(0, 5), q(0)));
        assert!(!w.add_dependency(t(0, 5), q(0)), "edges are deduplicated");
        assert!(!w.would_close_cycle(t(0, 5), q(0)));
        assert_eq!(w.edge_count(), 2);
    }

    #[test]
    fn remove_query_drops_incident_edges() {
        let mut w = Window::new();
        w.add_precedence(q(1), t(1, 0));
        w.add_dependency(t(0, 0), q(1));
        w.advance(at(0), Some(&diff(1, &[t(1, 0)], &[(t(0, 0), t(1, 0))])));
        assert_eq!((w.node_count(), w.edge_count()), (3, 3));
        w.remove_query(q(1));
        // the transactions the query's edges named stay nodes
        assert_eq!((w.node_count(), w.edge_count()), (2, 1));
        assert!(!w.would_close_cycle(t(1, 0), q(1)));
    }

    #[test]
    fn prune_keeps_query_nodes() {
        let mut w = Window::new();
        w.add_precedence(q(0), t(1, 0));
        w.advance(at(5), None);
        assert_eq!((w.node_count(), w.edge_count()), (1, 0));
        assert_eq!(format!("{w:?}"), "{Query(QueryId(0)): []}");
    }

    #[test]
    fn a_query_node_outlives_its_edges() {
        // a query's edges leave with the transactions they name; the
        // query stays a node until it is removed
        let mut w = Window::new();
        w.add_dependency(t(1, 0), q(0));
        w.advance(at(2), Some(&diff(2, &[t(2, 0)], &[(t(1, 0), t(2, 0))])));
        assert_eq!((w.node_count(), w.edge_count()), (2, 0));
        w.remove_query(q(0));
        assert_eq!((w.node_count(), w.edge_count()), (1, 0));
    }

    #[test]
    fn floors_only_rise() {
        // an edge dropped with its source does not come back when the
        // start falls again, as a linked graph does not relink it
        let mut w = Window::new();
        w.add_precedence(q(0), t(1, 0));
        w.advance(at(1), Some(&diff(1, &[t(1, 0)], &[])));
        w.advance(at(1), Some(&diff(2, &[t(2, 0)], &[(t(1, 0), t(2, 0))])));
        assert_eq!((w.node_count(), w.edge_count()), (3, 2));
        assert!(w.would_close_cycle(t(2, 0), q(0)));
        w.advance(at(2), None);
        assert_eq!((w.node_count(), w.edge_count()), (2, 0));
        w.advance(at(0), Some(&diff(3, &[t(3, 0)], &[(t(2, 0), t(3, 0))])));
        assert_eq!((w.node_count(), w.edge_count()), (3, 1));
        assert_eq!(
            format!("{w:?}"),
            "{Txn(TxnId { cycle: Cycle(2), seq: 0 }): [Txn(TxnId { cycle: Cycle(3), seq: 0 })], \
             Txn(TxnId { cycle: Cycle(3), seq: 0 }): [], Query(QueryId(0)): []}"
        );
    }

    #[test]
    fn sources_of_missed_cycles_are_nodes() {
        // cycle 2's diff never came: its commit is a node through the
        // edge that names it, until the start passes it
        let mut w = Window::new();
        w.add_precedence(q(0), t(1, 0));
        w.advance(at(1), Some(&diff(1, &[t(1, 0)], &[])));
        w.advance(
            at(1),
            Some(&diff(
                3,
                &[t(3, 0)],
                &[(t(1, 0), t(3, 0)), (t(2, 4), t(3, 0))],
            )),
        );
        assert_eq!((w.node_count(), w.edge_count()), (4, 3));
        w.advance(at(3), None);
        assert_eq!((w.node_count(), w.edge_count()), (2, 0));
    }

    #[test]
    fn successor_lists_merge_chunk_and_overlay_edges_by_stamp() {
        // T1.0 gets a chunk edge, then a read's edge, then another chunk
        // edge: it prints them in that order
        let mut w = Window::new();
        w.add_precedence(q(0), t(1, 0));
        w.advance(at(1), Some(&diff(1, &[t(1, 0)], &[])));
        w.advance(at(1), Some(&diff(2, &[t(2, 0)], &[(t(1, 0), t(2, 0))])));
        w.add_dependency(t(1, 0), q(1));
        w.advance(at(1), Some(&diff(3, &[t(3, 0)], &[(t(1, 0), t(3, 0))])));
        let map: BTreeMap<Node, Vec<Node>> = [
            (
                Node::Txn(t(1, 0)),
                vec![Node::Txn(t(2, 0)), Node::Query(q(1)), Node::Txn(t(3, 0))],
            ),
            (Node::Txn(t(2, 0)), vec![]),
            (Node::Txn(t(3, 0)), vec![]),
            (Node::Query(q(0)), vec![Node::Txn(t(1, 0))]),
            (Node::Query(q(1)), vec![]),
        ]
        .into();
        assert_eq!(format!("{w:?}"), format!("{map:?}"));
        assert_eq!(format!("{w:#?}"), format!("{map:#?}"));
    }

    #[test]
    fn chunks_are_shared_and_an_old_diff_is_ignored() {
        let d1 = diff(1, &[t(1, 0)], &[]);
        let mut a = Window::new();
        let mut b = Window::new();
        for w in [&mut a, &mut b] {
            w.add_precedence(q(0), t(1, 0));
            w.advance(at(1), Some(&d1));
        }
        assert_eq!(Arc::strong_count(&d1), 3, "one diff, two windows");
        // a diff no newer than the newest chunk is not kept
        a.advance(at(1), Some(&diff(1, &[t(1, 0), t(1, 1)], &[])));
        assert_eq!(a.node_count(), 2);
        drop(b);
        assert_eq!(Arc::strong_count(&d1), 2);
    }

    #[test]
    fn a_clone_searches_like_the_original() {
        let mut w = Window::new();
        w.add_precedence(q(0), t(1, 0));
        w.advance(at(1), Some(&diff(1, &[t(1, 0)], &[])));
        w.advance(
            at(1),
            Some(&diff(2, &[t(2, 0), t(2, 1)], &[(t(1, 0), t(2, 0))])),
        );
        let c = w.clone();
        assert_eq!(format!("{c:?}"), format!("{w:?}"));
        for t_l in [t(2, 0), t(2, 1), t(1, 0)] {
            assert_eq!(
                c.would_close_cycle(t_l, q(0)),
                w.would_close_cycle(t_l, q(0))
            );
        }
        assert!(!c.would_close_cycle(t(2, 1), q(0)));
    }

    #[test]
    fn advance_drops_old_cycles_only() {
        let mut w = Window::new();
        w.advance(at(0), Some(&diff(0, &[t(0, 0)], &[])));
        for n in 1..4 {
            w.advance(at(0), Some(&diff(n, &[t(n, 0)], &[(t(n - 1, 0), t(n, 0))])));
        }
        assert!(w.path_exists(t(0, 0), t(3, 0)));
        w.advance(at(2), None);
        assert_eq!((w.node_count(), w.edge_count()), (2, 1));
        // a path inside the window is unaffected; one from a dropped
        // transaction is gone with it
        assert!(w.path_exists(t(2, 0), t(3, 0)));
        assert!(!w.path_exists(t(1, 0), t(3, 0)));
    }

    #[test]
    fn advance_is_a_noop_when_nothing_is_old() {
        let mut w = Window::new();
        w.advance(at(5), Some(&diff(6, &[t(6, 0)], &[(t(5, 0), t(6, 0))])));
        let before = format!("{w:?}");
        w.advance(at(3), None);
        assert_eq!(format!("{w:?}"), before);
        assert_eq!((w.node_count(), w.edge_count()), (2, 1));
    }

    #[test]
    fn advance_interns_only_the_window() {
        let d = diff(
            3,
            &[t(3, 0), t(3, 1)],
            &[
                (t(1, 0), t(3, 0)),
                (t(2, 0), t(3, 0)),
                (t(3, 0), t(3, 1)),
                (t(2, 1), t(3, 1)),
            ],
        );
        let mut w = Window::new();
        w.advance(at(2), Some(&d));
        assert!(!w.holds(t(1, 0)), "cycle 1 is before the window");
        assert_eq!((w.node_count(), w.edge_count()), (4, 3));
        assert!(w.path_exists(t(2, 0), t(3, 1)));
        assert!(!w.path_exists(t(1, 0), t(3, 0)));
        // a window that starts after the diff's cycle takes nothing of it
        let mut v = Window::new();
        v.advance(at(4), Some(&d));
        assert!(v.is_empty());
    }

    #[test]
    fn the_window_starts_at_the_first_transaction_of_its_cycle() {
        // the last possible id of cycle b − 1 is dropped, the first of
        // cycle b stays
        let mut w = Window::new();
        let d = diff(
            3,
            &[t(3, 0), t(3, 1)],
            &[(t(2, u32::MAX), t(3, 0)), (t(3, 0), t(3, 1))],
        );
        w.advance(at(2), Some(&d));
        assert!(w.path_exists(t(2, u32::MAX), t(3, 1)));
        w.advance(at(3), None);
        assert!(!w.holds(t(2, u32::MAX)) && w.holds(t(3, 0)) && w.holds(t(3, 1)));
        assert_eq!(w.edge_count(), 1);
        // a window past every transaction leaves nothing
        w.advance(Some(Cycle::new(u64::MAX)), None);
        assert!(w.is_empty());
    }

    #[test]
    fn path_exists_needs_both_ends_as_nodes() {
        // an empty window, never sized, has no node to search from: the
        // search scratch's overflow answer must not leak out
        let mut w = Window::new();
        assert!(!w.path_exists(t(1, 0), t(1, 0)));
        w.advance(at(1), Some(&diff(1, &[t(1, 0)], &[])));
        w.advance(at(1), Some(&diff(2, &[t(2, 0)], &[(t(1, 0), t(2, 0))])));
        assert!(w.path_exists(t(1, 0), t(2, 0)));
        assert!(!w.path_exists(t(2, 0), t(1, 0)));
        // no self-path without a cycle
        assert!(!w.path_exists(t(2, 0), t(2, 0)));
        // an endpoint that is not a node
        assert!(!w.path_exists(t(0, 0), t(2, 0)));
        assert!(!w.path_exists(t(1, 0), t(2, 1)));
        // no window at all
        w.advance(None, Some(&diff(3, &[t(3, 0)], &[(t(2, 0), t(3, 0))])));
        assert!(!w.path_exists(t(2, 0), t(3, 0)));
        assert!(!w.path_exists(t(3, 0), t(3, 0)));
    }

    #[test]
    fn a_diff_malformed_across_cycles_answers_true() {
        // cycle 2's diff names sources of cycle 1 that cycle 1's chunk
        // does not list, so they are not nodes: a backward search reaches
        // more transactions than the window holds, and the documented
        // answer on overflowing the scratch is `true` — an abort for the
        // acceptance test, a reported path for the monitors
        let mut w = Window::new();
        w.add_precedence(q(0), t(1, 0));
        w.advance(at(1), Some(&diff(1, &[t(1, 0)], &[])));
        let sources: Vec<(TxnId, TxnId)> = (1..9).map(|s| (t(1, s), t(2, 0))).collect();
        w.advance(at(1), Some(&diff(2, &[t(2, 0)], &sources)));
        assert_eq!(w.node_count(), 3, "the unlisted sources are not nodes");
        assert!(w.would_close_cycle(t(2, 0), q(0)));
        assert!(w.path_exists(t(1, 0), t(2, 0)));
    }

    #[test]
    fn no_window_returns_to_zero_footprint() {
        let mut w = Window::new();
        w.add_precedence(q(0), t(1, 0));
        w.advance(at(1), Some(&diff(1, &[t(1, 0)], &[])));
        assert!(w.would_close_cycle(t(1, 0), q(0)));
        w.advance(None, Some(&diff(2, &[t(2, 0)], &[])));
        assert!(w.is_empty() && w.edge_count() == 0);
        assert!(w.chunks.is_empty() && w.overlay.is_empty());
        assert!(w.search.borrow().seen.is_empty() && w.search.borrow().stack.is_empty());
    }
}
