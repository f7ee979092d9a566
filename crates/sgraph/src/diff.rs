//! The per-cycle serialization-graph difference the server broadcasts.

use std::fmt;
use std::sync::OnceLock;

use bpush_types::{Cycle, TxnId};

/// The difference between consecutive server serialization graphs (§3.3):
/// the transactions committed during one broadcast cycle together with
/// their conflict edges to (earlier or same-cycle) committed transactions.
///
/// Because server histories are strict, all edges run from earlier to
/// later transactions in the serial order (Claim 1), so a diff never
/// carries an edge into a previous cycle's subgraph. A well-formed diff
/// lists its commits in ascending order and its edges grouped by
/// ascending target — the order the server's conflict tracker emits them,
/// one commit at a time — with every target a listed commit and no edge
/// twice. Read that way, a diff is the in-edge list of its own cycle's
/// transactions, which is how [`crate::Window`] keeps it.
///
/// # Example
/// ```
/// use bpush_sgraph::GraphDiff;
/// use bpush_types::{Cycle, TxnId};
/// let c = Cycle::new(3);
/// let t0 = TxnId::new(c, 0);
/// let t1 = TxnId::new(c, 1);
/// let diff = GraphDiff::new(c, vec![t0, t1], vec![(t0, t1)]);
/// assert_eq!(diff.cycle(), c);
/// assert_eq!(diff.committed().len(), 2);
/// assert_eq!(diff.edges(), &[(t0, t1)]);
/// assert_eq!(diff.in_edges(t1), &[(t0, t1)]);
/// ```
#[derive(Clone)]
pub struct GraphDiff {
    cycle: Cycle,
    committed: Vec<TxnId>,
    edges: Vec<(TxnId, TxnId)>,
    /// `(c, n)` ascending by `c`: `n` edges have a source committed at
    /// cycle `c` or later. Built on first use, so a diff no window keeps
    /// never pays for it, and a shared one pays once.
    source_counts: OnceLock<Vec<(Cycle, u32)>>,
}

/// The first rule a diff breaks, if any: commits outside `cycle` or not
/// strictly ascending, an edge not pointing forward into `cycle`, edges
/// not grouped by ascending target, a target that is not a listed
/// commit, or an edge listed twice.
fn malformation(
    cycle: Cycle,
    committed: &[TxnId],
    edges: &[(TxnId, TxnId)],
) -> Option<&'static str> {
    if committed.iter().any(|t| t.cycle() != cycle) {
        return Some("a commit outside the diff's cycle");
    }
    if committed
        .iter()
        .zip(committed.iter().skip(1))
        .any(|(a, b)| a >= b)
    {
        return Some("commits not strictly ascending");
    }
    if edges
        .iter()
        .any(|&(from, to)| from >= to || to.cycle() != cycle)
    {
        return Some("an edge not pointing forward into the diff's cycle");
    }
    if edges
        .iter()
        .zip(edges.iter().skip(1))
        .any(|(a, b)| a.1 > b.1)
    {
        return Some("edges not grouped by ascending target");
    }
    if edges
        .iter()
        .any(|(_, to)| committed.binary_search(to).is_err())
    {
        return Some("an edge target that is not a listed commit");
    }
    let mut sorted = edges.to_vec();
    sorted.sort_unstable();
    if sorted
        .iter()
        .zip(sorted.iter().skip(1))
        .any(|(a, b)| a == b)
    {
        return Some("an edge listed twice");
    }
    None
}

impl GraphDiff {
    /// Creates a diff for the transactions committed during `cycle`.
    ///
    /// # Panics
    /// In debug builds, panics if the diff is not well formed (see the
    /// type docs): commits outside `cycle` or out of order, an edge with
    /// `from >= to` or a target outside `cycle`, targets not grouped in
    /// ascending order, a target that is not a listed commit, or a
    /// repeated edge.
    pub fn new(cycle: Cycle, committed: Vec<TxnId>, edges: Vec<(TxnId, TxnId)>) -> Self {
        debug_assert_eq!(malformation(cycle, &committed, &edges), None);
        GraphDiff {
            cycle,
            committed,
            edges,
            source_counts: OnceLock::new(),
        }
    }

    /// An empty diff (a cycle with no commits).
    pub fn empty(cycle: Cycle) -> Self {
        GraphDiff::new(cycle, Vec::new(), Vec::new())
    }

    /// The broadcast cycle whose commits this diff describes.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Transactions committed during [`GraphDiff::cycle`].
    pub fn committed(&self) -> &[TxnId] {
        &self.committed
    }

    /// Conflict edges `(older, newer)` incident to the new commits.
    pub fn edges(&self) -> &[(TxnId, TxnId)] {
        &self.edges
    }

    /// Whether `t` is a listed commit (the commits are ascending).
    pub fn commits(&self, t: TxnId) -> bool {
        self.committed.binary_search(&t).is_ok()
    }

    /// The edges into `to`: the run of edges whose target is `to`, found
    /// by binary search since edges are grouped by ascending target.
    /// Empty if there is none (or, for a malformed diff, whatever run the
    /// search lands on — never a panic).
    pub fn in_edges(&self, to: TxnId) -> &[(TxnId, TxnId)] {
        let lo = self.edges.partition_point(|&(_, t)| t < to);
        let hi = self.edges.partition_point(|&(_, t)| t <= to);
        self.edges.get(lo..hi).unwrap_or(&[])
    }

    /// The per-source-cycle suffix counts, built on first use: by age
    /// below the diff's cycle in a small array when every source is that
    /// recent, as the Lemma-1 window keeps them, else by a sorted search.
    fn source_counts(&self) -> &[(Cycle, u32)] {
        const AGES: usize = 64;
        self.source_counts.get_or_init(|| {
            let age = |from: TxnId| self.cycle.number().checked_sub(from.cycle().number());
            let mut by_age = [0u32; AGES];
            let mut counts: Vec<(Cycle, u32)> = Vec::new();
            for &(from, _) in &self.edges {
                match age(from).and_then(|a| by_age.get_mut(a as usize)) {
                    Some(n) => *n += 1,
                    None => match counts.binary_search_by_key(&from.cycle(), |&(k, _)| k) {
                        Ok(at) => {
                            if let Some((_, n)) = counts.get_mut(at) {
                                *n += 1;
                            }
                        }
                        Err(at) => counts.insert(at, (from.cycle(), 1)),
                    },
                }
            }
            let recent = (0..AGES as u64).rev().zip(by_age.iter().rev());
            for (a, &n) in recent.filter(|&(_, &n)| n > 0) {
                // a counted age is at most the diff's cycle
                let Some(c) = self.cycle.checked_sub(a) else {
                    continue;
                };
                if let Err(at) = counts.binary_search_by_key(&c, |&(k, _)| k) {
                    counts.insert(at, (c, n));
                }
            }
            let mut above = 0;
            for (_, n) in counts.iter_mut().rev() {
                above += *n;
                *n = above;
            }
            counts
        })
    }

    /// How many edges have a source committed at cycle `floor` or later.
    pub fn edges_from(&self, floor: Cycle) -> usize {
        let counts = self.source_counts();
        let at = counts.partition_point(|&(c, _)| c < floor);
        counts.get(at).map_or(0, |&(_, n)| n as usize)
    }

    /// The distinct cycles the edges' sources were committed in,
    /// ascending.
    pub fn source_cycles(&self) -> impl Iterator<Item = Cycle> + '_ {
        self.source_counts().iter().map(|&(c, _)| c)
    }

    /// Whether the diff carries no information.
    pub fn is_empty(&self) -> bool {
        self.committed.is_empty() && self.edges.is_empty()
    }

    /// Broadcast size of this diff in abstract units, per the §3.3 size
    /// model: each edge is a pair of transaction identifiers; identifiers
    /// cost `log(N)` bits within a known cycle plus `log(S)` bits of cycle
    /// version, rounded up to whole units of size `tid_size`.
    pub fn size_units(&self, tid_size: u32) -> u64 {
        self.committed.len() as u64 * u64::from(tid_size)
            + self.edges.len() as u64 * 2 * u64::from(tid_size)
    }
}

/// The derived rendering of the three broadcast fields; the count cache
/// is not part of the value.
impl fmt::Debug for GraphDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GraphDiff")
            .field("cycle", &self.cycle)
            .field("committed", &self.committed)
            .field("edges", &self.edges)
            .finish()
    }
}

impl PartialEq for GraphDiff {
    fn eq(&self, other: &Self) -> bool {
        self.cycle == other.cycle && self.committed == other.committed && self.edges == other.edges
    }
}

impl Eq for GraphDiff {}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(cycle: u64, seq: u32) -> TxnId {
        TxnId::new(Cycle::new(cycle), seq)
    }

    #[test]
    fn empty_diff() {
        let d = GraphDiff::empty(Cycle::new(4));
        assert!(d.is_empty());
        assert_eq!(d.cycle(), Cycle::new(4));
        assert_eq!(d.size_units(1), 0);
    }

    #[test]
    fn accessors_and_size() {
        let d = GraphDiff::new(
            Cycle::new(2),
            vec![t(2, 0), t(2, 1)],
            vec![(t(1, 3), t(2, 0)), (t(2, 0), t(2, 1))],
        );
        assert!(!d.is_empty());
        assert_eq!(d.committed(), &[t(2, 0), t(2, 1)]);
        assert_eq!(d.edges().len(), 2);
        // 2 commits * 1 + 2 edges * 2 = 6 units at tid_size 1
        assert_eq!(d.size_units(1), 6);
        assert_eq!(d.size_units(2), 12);
    }

    #[test]
    fn edge_counts_by_source_cycle_and_in_edge_runs() {
        // sources of this cycle, recent ones and one far older than the
        // by-age array reaches
        let c = 100;
        let d = GraphDiff::new(
            Cycle::new(c),
            vec![t(c, 0), t(c, 1), t(c, 2)],
            vec![
                (t(3, 0), t(c, 0)),
                (t(c - 1, 4), t(c, 0)),
                (t(c - 1, 5), t(c, 1)),
                (t(c, 0), t(c, 1)),
                (t(c - 70, 1), t(c, 2)),
            ],
        );
        let from = |floor: u64| d.edges_from(Cycle::new(floor));
        assert_eq!((from(0), from(4), from(c - 70), from(c - 69)), (5, 4, 4, 3));
        assert_eq!((from(c - 1), from(c), from(c + 1)), (3, 1, 0));
        assert!(d.source_cycles().eq([3, c - 70, c - 1, c].map(Cycle::new)));
        assert_eq!(
            d.in_edges(t(c, 1)),
            &[(t(c - 1, 5), t(c, 1)), (t(c, 0), t(c, 1))]
        );
        assert!(d.in_edges(t(c, 3)).is_empty());
        assert!(d.commits(t(c, 2)) && !d.commits(t(c, 3)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn commits_out_of_order_are_checked_in_debug() {
        let _ = GraphDiff::new(Cycle::new(2), vec![t(2, 1), t(2, 0)], vec![]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn a_target_missing_from_the_commits_is_checked_in_debug() {
        let _ = GraphDiff::new(Cycle::new(2), vec![t(2, 0)], vec![(t(1, 0), t(2, 1))]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn edge_direction_invariant_checked_in_debug() {
        let _ = GraphDiff::new(Cycle::new(2), vec![t(2, 0)], vec![(t(2, 0), t(1, 0))]);
    }
}
