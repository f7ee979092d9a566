//! Conflict tracking among committed server transactions.
//!
//! The SGT method (§3.3) needs, each cycle, the *difference* of the
//! server's conflict serialization graph: for every transaction committed
//! during the cycle, the edges connecting it to previously committed
//! transactions, plus the augmented invalidation report mapping every
//! updated item to the *first* transaction that wrote it during the cycle
//! (Claim 2). [`ConflictTracker`] derives both from the committed
//! transactions as they are fed through it in serial order: live for SGT
//! control information, and in the replay of the audit's ground truth.
//!
//! Edge rules (standard conflict serializability, with histories strict
//! and serial):
//!
//! * dependency: `last_writer(x) → T` when `T` reads `x`,
//! * write–write: `last_writer(x) → T` when `T` writes `x`,
//! * precedence (anti-dependency): `R' → T` for every transaction `R'`
//!   that read `x` since its last write, when `T` writes `x`.

use bpush_sgraph::GraphDiff;
use bpush_types::{Cycle, ItemId, TxnId};

use crate::txn::ServerTxn;

/// What is tracked for an item some transaction has touched.
#[derive(Debug, Clone, Default)]
struct Touched {
    last_writer: Option<TxnId>,
    /// Readers since the last write (the writer first), in commit order.
    readers: Vec<TxnId>,
}

/// Derives per-cycle SGT control information from the serial commit
/// stream.
///
/// Transactions read over the whole database but touch little of it in a
/// run, so an item costs a 4-byte slot and only a touched one an entry.
/// Nothing sweeps the entries: a reader that committed before `floor`
/// induces no edge, so it is skipped when a write walks its list and
/// dropped when the next read extends it — a cycle costs its own
/// operations whatever the database size.
#[derive(Debug, Clone)]
pub struct ConflictTracker {
    /// `slot_of[x]` indexes `touched`, `u32::MAX` while `x` is untouched.
    slot_of: Vec<u32>,
    touched: Vec<Touched>,
    /// Closing cycle `c` raises `floor` to `c − reader_horizon`; any
    /// precedence edge an older reader could still induce would be pruned
    /// at the client anyway (Lemma 1 keeps only the last `S` subgraphs).
    reader_horizon: u32,
    floor: Cycle,
    // per-cycle accumulation
    cycle_edges: Vec<(TxnId, TxnId)>,
    cycle_committed: Vec<TxnId>,
    cycle_first_writers: Vec<(ItemId, TxnId)>,
    /// The committing transaction's edge sources, for deduplication.
    sources: Sources,
}

/// The entry of `x`, made on first touch.
fn entry<'a>(slot_of: &mut Vec<u32>, touched: &'a mut Vec<Touched>, x: ItemId) -> &'a mut Touched {
    if x.as_usize() >= slot_of.len() {
        slot_of.resize(x.as_usize() + 1, u32::MAX);
    }
    let slot = &mut slot_of[x.as_usize()];
    if *slot == u32::MAX {
        // one entry per item at most, and item ids are u32
        *slot = u32::try_from(touched.len()).unwrap_or(u32::MAX);
        touched.push(Touched::default());
    }
    &mut touched[*slot as usize]
}

/// The sources of the committing transaction's edges so far: an
/// open-addressed set emptied per commit by a new stamp, so deduplicating
/// an edge costs a probe, not a scan of the commit's edges.
#[derive(Debug, Clone, Default)]
struct Sources {
    /// `(stamp, source)`, probed linearly from the source's hash; a slot
    /// holds a member only while its stamp is the current one.
    slots: Vec<(u32, TxnId)>,
    /// Never 0 once a commit has begun, so zero-filled slots are empty.
    stamp: u32,
    len: usize,
    /// `64 − log2(slots.len())`.
    shift: u32,
}

impl Sources {
    /// Empties the set for the next commit.
    fn begin(&mut self) {
        self.len = 0;
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.slots.iter_mut().for_each(|slot| slot.0 = 0);
            self.stamp = 1;
        }
    }

    /// Adds `t`; `false` if it was already a member. Only after
    /// [`Sources::begin`]: under stamp 0 every zero-filled slot would look
    /// taken.
    fn insert(&mut self, t: TxnId) -> bool {
        debug_assert_ne!(self.stamp, 0, "a commit's sources are added after `begin`");
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        // Fibonacci hashing: the product's top bits index the table
        let key = t.cycle().number().wrapping_mul(0x0100_0000_01b3) ^ u64::from(t.seq());
        let mut at = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize & mask;
        while let Some(slot) = self.slots.get_mut(at) {
            if slot.0 != self.stamp {
                *slot = (self.stamp, t);
                self.len += 1;
                return true;
            }
            if slot.1 == t {
                return false;
            }
            at = (at + 1) & mask;
        }
        false
    }

    /// Doubles the table (at least 16 slots), re-adding the members.
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(0, TxnId::new(Cycle::ZERO, 0)); size]);
        self.shift = 64 - size.trailing_zeros();
        self.len = 0;
        for (stamp, t) in old {
            if stamp == self.stamp {
                self.insert(t);
            }
        }
    }
}

/// Records `from → to` among the edges of the committing transaction
/// `to`, unless it is a self edge or `from` is already one of its
/// sources: every edge of a commit ends at the committing transaction, so
/// a duplicate is a repeated source. Edges keep their first-occurrence
/// order.
fn push_edge(edges: &mut Vec<(TxnId, TxnId)>, sources: &mut Sources, from: TxnId, to: TxnId) {
    debug_assert!(from <= to, "a serial history's edges run old -> new");
    if from != to && sources.insert(from) {
        edges.push((from, to));
    }
}

impl ConflictTracker {
    /// Creates a tracker. `reader_horizon` bounds how many cycles a
    /// read-item record is retained for precedence-edge derivation; it
    /// must be at least the largest client span of interest.
    ///
    /// # Panics
    /// Panics if `reader_horizon` is zero.
    pub fn new(reader_horizon: u32) -> Self {
        assert!(reader_horizon > 0, "reader horizon must be positive");
        ConflictTracker {
            slot_of: Vec::new(),
            touched: Vec::new(),
            reader_horizon,
            floor: Cycle::ZERO,
            cycle_edges: Vec::new(),
            cycle_committed: Vec::new(),
            cycle_first_writers: Vec::new(),
            sources: Sources::default(),
        }
    }

    /// Processes a committed transaction. Transactions must be fed in
    /// serial order; all of a cycle's transactions must be committed
    /// before [`ConflictTracker::end_cycle`] is called for it.
    pub fn commit(&mut self, txn: &ServerTxn) {
        let id = txn.id();
        self.sources.begin();
        self.cycle_committed.push(id);
        for &x in txn.reads() {
            let e = entry(&mut self.slot_of, &mut self.touched, x);
            if let Some(w) = e.last_writer {
                push_edge(&mut self.cycle_edges, &mut self.sources, w, id);
            }
            // The stream is serial, so a list is sorted and a repeated
            // read can only repeat its last entry.
            if e.readers.last() != Some(&id) {
                let retired = e.readers.partition_point(|r| r.cycle() < self.floor);
                e.readers.drain(..retired);
                if e.readers.capacity() == 0 {
                    // most items see one reader a horizon: room for one
                    // id, not `Vec`'s first four
                    e.readers.reserve_exact(1);
                }
                e.readers.push(id);
            }
        }
        for &x in txn.writes() {
            let e = entry(&mut self.slot_of, &mut self.touched, x);
            for &r in e.readers.iter().filter(|r| r.cycle() >= self.floor) {
                push_edge(&mut self.cycle_edges, &mut self.sources, r, id);
            }
            if let Some(w) = e.last_writer.replace(id) {
                push_edge(&mut self.cycle_edges, &mut self.sources, w, id);
            }
            e.readers.clear();
            e.readers.push(id);
            self.cycle_first_writers.push((x, id));
        }
    }

    /// Closes `cycle`, returning the graph difference and the
    /// `(item → first writer)` entries for the augmented report, in item
    /// order. Both are broadcast at the beginning of cycle `cycle + 1`.
    pub fn end_cycle(&mut self, cycle: Cycle) -> (GraphDiff, Vec<(ItemId, TxnId)>) {
        // `GraphDiff::new` checks (in debug builds) that every buffered
        // commit belongs to the closing cycle.
        let diff = GraphDiff::new(
            cycle,
            std::mem::take(&mut self.cycle_committed),
            std::mem::take(&mut self.cycle_edges),
        );
        // a stable sort: of an item's writers, the first to commit stays first
        let mut first_writers = std::mem::take(&mut self.cycle_first_writers);
        first_writers.sort_by_key(|&(x, _)| x);
        first_writers.dedup_by_key(|&mut (x, _)| x);
        if let Some(horizon_start) = cycle.checked_sub(u64::from(self.reader_horizon)) {
            self.floor = self.floor.max(horizon_start);
        }
        (diff, first_writers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(cycle: u64, seq: u32) -> TxnId {
        TxnId::new(Cycle::new(cycle), seq)
    }

    fn x(i: u32) -> ItemId {
        ItemId::new(i)
    }

    #[test]
    fn dependency_edge_from_last_writer() {
        let mut tr = ConflictTracker::new(8);
        tr.commit(&ServerTxn::new(id(0, 0), vec![x(1)], vec![x(1)]));
        let (d0, fw0) = tr.end_cycle(Cycle::new(0));
        assert_eq!(d0.committed(), &[id(0, 0)]);
        assert!(d0.edges().is_empty(), "first writer conflicts with nobody");
        assert_eq!(fw0, vec![(x(1), id(0, 0))]);

        // next cycle: a reader of x(1) depends on the writer
        tr.commit(&ServerTxn::new(id(1, 0), vec![x(1)], vec![]));
        let (d1, fw1) = tr.end_cycle(Cycle::new(1));
        assert_eq!(d1.edges(), &[(id(0, 0), id(1, 0))]);
        assert!(fw1.is_empty());
    }

    #[test]
    fn precedence_edge_from_earlier_reader() {
        let mut tr = ConflictTracker::new(8);
        tr.commit(&ServerTxn::new(id(0, 0), vec![x(5)], vec![])); // reads x5
        tr.end_cycle(Cycle::new(0));
        tr.commit(&ServerTxn::new(id(1, 0), vec![x(5)], vec![x(5)])); // overwrites it
        let (d, fw) = tr.end_cycle(Cycle::new(1));
        assert_eq!(d.edges(), &[(id(0, 0), id(1, 0))]);
        assert_eq!(fw, vec![(x(5), id(1, 0))]);
    }

    #[test]
    fn write_write_edge_and_first_writer_per_cycle() {
        let mut tr = ConflictTracker::new(8);
        tr.commit(&ServerTxn::new(id(0, 0), vec![x(2)], vec![x(2)]));
        tr.commit(&ServerTxn::new(id(0, 1), vec![x(2)], vec![x(2)]));
        let (d, fw) = tr.end_cycle(Cycle::new(0));
        // T0.1 read x2 (from T0.0) and overwrote it: one deduped edge
        assert_eq!(d.edges(), &[(id(0, 0), id(0, 1))]);
        // the first writer of the cycle is T0.0, not the last
        assert_eq!(fw, vec![(x(2), id(0, 0))]);
    }

    #[test]
    fn no_self_edges() {
        let mut tr = ConflictTracker::new(8);
        // reads then writes the same item: reader set contains itself
        tr.commit(&ServerTxn::new(id(0, 0), vec![x(1)], vec![x(1)]));
        let (d, _) = tr.end_cycle(Cycle::new(0));
        assert!(d.edges().is_empty());
    }

    #[test]
    fn edges_are_deduped() {
        let mut tr = ConflictTracker::new(8);
        tr.commit(&ServerTxn::new(
            id(0, 0),
            vec![x(1), x(2)],
            vec![x(1), x(2)],
        ));
        tr.end_cycle(Cycle::new(0));
        // reads both items written by T0.0 -> still a single edge
        tr.commit(&ServerTxn::new(id(1, 0), vec![x(1), x(2)], vec![]));
        let (d, _) = tr.end_cycle(Cycle::new(1));
        assert_eq!(d.edges().len(), 1);
    }

    #[test]
    fn reader_horizon_prunes_stale_readers() {
        let mut tr = ConflictTracker::new(2);
        tr.commit(&ServerTxn::new(id(0, 0), vec![x(9)], vec![]));
        tr.end_cycle(Cycle::new(0));
        for c in 1..5u64 {
            tr.end_cycle(Cycle::new(c));
        }
        // the cycle-0 reader is long outside the horizon; overwriting x9
        // yields no precedence edge anymore
        tr.commit(&ServerTxn::new(id(5, 0), vec![x(9)], vec![x(9)]));
        let (d, _) = tr.end_cycle(Cycle::new(5));
        assert!(d.edges().is_empty());
    }

    #[test]
    fn multi_cycle_chain_builds_transitive_path() {
        let mut tr = ConflictTracker::new(8);
        tr.commit(&ServerTxn::new(id(0, 0), vec![x(1)], vec![x(1)]));
        tr.end_cycle(Cycle::new(0));
        tr.commit(&ServerTxn::new(id(1, 0), vec![x(1), x(2)], vec![x(2)]));
        let (d1, _) = tr.end_cycle(Cycle::new(1));
        tr.commit(&ServerTxn::new(id(2, 0), vec![x(2), x(3)], vec![x(3)]));
        let (d2, _) = tr.end_cycle(Cycle::new(2));
        // apply both diffs to a graph: path T0.0 -> T1.0 -> T2.0
        let mut g = bpush_sgraph::SerializationGraph::new();
        g.push(&d1);
        g.push(&d2);
        let path = |a, b| g.path_exists(bpush_sgraph::Node::Txn(a), bpush_sgraph::Node::Txn(b));
        assert!(path(id(0, 0), id(2, 0)));
        assert!(!path(id(2, 0), id(0, 0)), "edges run old -> new");
    }

    #[test]
    fn reader_at_the_horizon_still_precedes_one_cycle_beyond_does_not() {
        // Closing cycle c retires the readers of cycles before c − H, so
        // a cycle-0 reader is last seen by a write of cycle H + 1.
        const H: u32 = 3;
        for (write_cycle, expect_edge) in [(u64::from(H) + 1, true), (u64::from(H) + 2, false)] {
            let mut tr = ConflictTracker::new(H);
            tr.commit(&ServerTxn::new(id(0, 0), vec![x(9)], vec![]));
            for c in 0..write_cycle {
                tr.end_cycle(Cycle::new(c));
            }
            tr.commit(&ServerTxn::new(id(write_cycle, 0), vec![x(9)], vec![x(9)]));
            let (d, _) = tr.end_cycle(Cycle::new(write_cycle));
            let want: &[(TxnId, TxnId)] = if expect_edge {
                &[(id(0, 0), id(write_cycle, 0))]
            } else {
                &[]
            };
            assert_eq!(d.edges(), want, "write in cycle {write_cycle}");
        }
    }

    #[test]
    fn retired_readers_are_dropped_by_the_next_read() {
        // a hot item that is read every cycle (twice by each reader) and
        // never written keeps one horizon of readers, not the whole run
        let mut tr = ConflictTracker::new(2);
        for c in 0..50u64 {
            tr.commit(&ServerTxn::new(id(c, 0), vec![x(3), x(3)], vec![]));
            tr.end_cycle(Cycle::new(c));
        }
        assert_eq!(tr.touched.len(), 1);
        assert_eq!(tr.touched[0].readers, [46, 47, 48, 49].map(|c| id(c, 0)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_horizon_rejected() {
        let _ = ConflictTracker::new(0);
    }

    #[test]
    fn sources_are_forgotten_at_each_commit_and_across_a_stamp_wrap() {
        let mut s = Sources::default();
        s.begin();
        // more members than the first table holds, each once
        for seq in 0..40 {
            assert!(s.insert(id(3, seq)));
            assert!(!s.insert(id(3, seq)));
        }
        assert!(s.insert(id(4, 0)) && !s.insert(id(3, 17)));
        s.begin();
        assert!(s.insert(id(3, 17)), "a new commit starts empty");
        s.stamp = u32::MAX;
        assert!(s.insert(id(5, 5)));
        s.begin();
        assert_eq!(s.stamp, 1, "the stamp skips 0, which marks empty slots");
        assert!(s.slots.iter().all(|&(stamp, _)| stamp == 0));
        assert!(s.insert(id(5, 5)) && !s.insert(id(5, 5)));
    }

    /// The tracker this module shipped before the flat one — ordered maps
    /// and sets, a per-cycle pair set, a sweep of every reader set at
    /// cycle end — kept as the model the differential test below holds
    /// the flat tracker to.
    mod model {
        use std::collections::{BTreeMap, BTreeSet};

        use super::*;

        #[derive(Debug, Clone)]
        pub(super) struct ModelTracker {
            last_writer: BTreeMap<ItemId, TxnId>,
            readers_since_write: BTreeMap<ItemId, BTreeSet<TxnId>>,
            reader_horizon: u32,
            cycle_edges: Vec<(TxnId, TxnId)>,
            cycle_edge_set: BTreeSet<(TxnId, TxnId)>,
            cycle_committed: Vec<TxnId>,
            cycle_first_writers: BTreeMap<ItemId, TxnId>,
        }

        impl ModelTracker {
            pub(super) fn new(reader_horizon: u32) -> Self {
                ModelTracker {
                    last_writer: BTreeMap::new(),
                    readers_since_write: BTreeMap::new(),
                    reader_horizon,
                    cycle_edges: Vec::new(),
                    cycle_edge_set: BTreeSet::new(),
                    cycle_committed: Vec::new(),
                    cycle_first_writers: BTreeMap::new(),
                }
            }

            fn push_edge(&mut self, from: TxnId, to: TxnId) {
                if from == to {
                    return;
                }
                if self.cycle_edge_set.insert((from, to)) {
                    self.cycle_edges.push((from, to));
                }
            }

            pub(super) fn commit(&mut self, txn: &ServerTxn) {
                let id = txn.id();
                self.cycle_committed.push(id);
                for &x in txn.reads() {
                    if let Some(&w) = self.last_writer.get(&x) {
                        self.push_edge(w, id);
                    }
                    self.readers_since_write.entry(x).or_default().insert(id);
                }
                for &x in txn.writes() {
                    if let Some(readers) = self.readers_since_write.get(&x) {
                        let edges: Vec<TxnId> =
                            readers.iter().copied().filter(|&r| r != id).collect();
                        for r in edges {
                            self.push_edge(r, id);
                        }
                    }
                    if let Some(&w) = self.last_writer.get(&x) {
                        self.push_edge(w, id);
                    }
                    self.last_writer.insert(x, id);
                    self.readers_since_write.insert(x, BTreeSet::from([id]));
                    self.cycle_first_writers.entry(x).or_insert(id);
                }
            }

            pub(super) fn end_cycle(&mut self, cycle: Cycle) -> (GraphDiff, Vec<(ItemId, TxnId)>) {
                let diff = GraphDiff::new(
                    cycle,
                    std::mem::take(&mut self.cycle_committed),
                    std::mem::take(&mut self.cycle_edges),
                );
                self.cycle_edge_set.clear();
                let mut first_writers: Vec<(ItemId, TxnId)> =
                    std::mem::take(&mut self.cycle_first_writers)
                        .into_iter()
                        .collect();
                first_writers.sort();
                if let Some(horizon_start) = cycle.checked_sub(u64::from(self.reader_horizon)) {
                    for readers in self.readers_since_write.values_mut() {
                        readers.retain(|t| t.cycle() >= horizon_start);
                    }
                    self.readers_since_write.retain(|_, r| !r.is_empty());
                }
                (diff, first_writers)
            }
        }
    }

    /// One transaction: the items it reads (repeats allowed) and a mask
    /// choosing which of those reads it also writes.
    type TxnScript = (Vec<u32>, u8);

    proptest::proptest! {
        /// Differential test: over random serial streams — duplicate
        /// reads, items rewritten within a cycle, idle cycles, runs much
        /// longer than the horizon — the flat tracker emits the model's
        /// diffs (edge order included) and first writers.
        #[test]
        fn flat_tracker_matches_the_ordered_map_model(
            horizon in 1u32..5,
            cycles in proptest::collection::vec(
                proptest::collection::vec(
                    (proptest::collection::vec(0u32..10, 1..7), 0u8..64),
                    0..4,
                ),
                1..40,
            ),
        ) {
            let cycles: Vec<Vec<TxnScript>> = cycles;
            let mut flat = ConflictTracker::new(horizon);
            let mut model = model::ModelTracker::new(horizon);
            for (c, txns) in (0u64..).zip(&cycles) {
                for (seq, (reads, mask)) in (0u32..).zip(txns) {
                    let reads: Vec<ItemId> = reads.iter().map(|&i| x(i)).collect();
                    let writes: Vec<ItemId> = reads
                        .iter()
                        .enumerate()
                        .filter(|&(at, _)| mask >> at & 1 == 1)
                        .map(|(_, &item)| item)
                        .collect();
                    let txn = ServerTxn::new(id(c, seq), reads, writes);
                    flat.commit(&txn);
                    model.commit(&txn);
                }
                let got = flat.end_cycle(Cycle::new(c));
                let want = model.end_cycle(Cycle::new(c));
                proptest::prop_assert_eq!(got, want, "cycle {}", c);
            }
        }
    }
}
