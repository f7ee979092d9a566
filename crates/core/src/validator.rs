//! After-the-fact serializability checking — the executable form of the
//! paper's correctness criterion (§2.2).
//!
//! A committed read-only transaction is correct iff its readset is a
//! subset of a consistent database state, i.e. iff there is a point in
//! the server's serial history at which *all* the values it read were
//! simultaneously current. Because the server executes update
//! transactions serially (and [`bpush_types::TxnId`]'s order *is* that
//! serial order), the check reduces to an interval intersection: the
//! value read for item `x` is current from its writer until the next
//! write of `x`; the transaction is serializable iff the intersection of
//! those intervals over the whole readset is non-empty.
//!
//! Every protocol in this crate is exercised against this validator in
//! the integration and property tests: no committed readset may ever
//! fail it, whatever the workload, cache behaviour or disconnection
//! pattern.

use std::fmt;
use std::sync::Arc;

use bpush_server::WriteHistory;
use bpush_sgraph::{GraphDiff, Window};
use bpush_types::{BpushError, Cycle, ItemId, ItemValue, TxnId};

/// One read of a committed query: the item and the exact value observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadRecord {
    /// The item read.
    pub item: ItemId,
    /// The value observed.
    pub value: ItemValue,
}

impl ReadRecord {
    /// Pairs an item with the value a query read for it.
    pub fn new(item: ItemId, value: ItemValue) -> Self {
        ReadRecord { item, value }
    }
}

/// The serial interval over which a readset is simultaneously current:
/// strictly after `after` committed (or from the initial load if `None`)
/// and strictly before `before` committed (or forever if `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidInterval {
    /// The latest writer among the values read.
    pub after: Option<TxnId>,
    /// The earliest transaction that overwrote any value read.
    pub before: Option<TxnId>,
}

/// A readset that corresponds to no consistent database state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsistencyViolation {
    /// A value whose writer commits at-or-after `stale_overwrite` —
    /// the witness pair proving the intervals cannot intersect.
    pub fresh_writer: TxnId,
    /// The overwrite that superseded another value read, before
    /// `fresh_writer` committed.
    pub stale_overwrite: TxnId,
}

impl fmt::Display for ConsistencyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "readset mixes a value written by {} with a value already overwritten by {}",
            self.fresh_writer, self.stale_overwrite
        )
    }
}

impl std::error::Error for ConsistencyViolation {}

/// Checks committed readsets against the server's ground-truth history.
#[derive(Debug, Clone, Copy)]
pub struct SerializabilityValidator<'a> {
    history: &'a WriteHistory,
}

impl<'a> SerializabilityValidator<'a> {
    /// Creates a validator over `history`.
    pub fn new(history: &'a WriteHistory) -> Self {
        SerializabilityValidator { history }
    }

    /// Verifies that `reads` is a subset of some consistent database
    /// state, returning the witnessing serial interval.
    ///
    /// # Errors
    /// Returns [`ConsistencyViolation`] with a witness pair when the
    /// intervals cannot intersect.
    ///
    /// # Panics
    /// Panics if a read value was never committed according to the
    /// history — that would be a broadcast-substrate bug, not a protocol
    /// anomaly.
    pub fn check(&self, reads: &[ReadRecord]) -> Result<ValidInterval, ConsistencyViolation> {
        // after = max over writers (None = initial load = -inf)
        let mut after: Option<TxnId> = None;
        // before = min over next-overwrites (None = +inf)
        let mut before: Option<TxnId> = None;
        for r in reads {
            after = after.max(r.value.writer());
            if let Some(over) = self.history.next_overwrite(r.item, r.value) {
                // lint: allow(panic) — history stores committed writes, which always carry a writer
                let over = over.writer().expect("overwrites are committed writes");
                before = Some(match before {
                    Some(b) => b.min(over),
                    None => over,
                });
            }
        }
        match (after, before) {
            (Some(a), Some(b)) if a >= b => Err(ConsistencyViolation {
                fresh_writer: a,
                stale_overwrite: b,
            }),
            _ => Ok(ValidInterval { after, before }),
        }
    }
}

/// The paper's exact correctness criterion (§2.2), for many committed
/// readsets against one (final) conflict graph.
///
/// A readset must correspond to a state produced by *some serializable
/// execution* of server transactions — not necessarily a prefix of the
/// actual commit order. This is weaker than
/// [`SerializabilityValidator::check`]: the SGT method (§3.3) commits
/// readsets that pass this test but can fail the prefix-snapshot test,
/// because non-conflicting server transactions may be reordered around
/// the query. Given the server's conflict graph, the query closes a cycle
/// iff some transaction that *overwrote* a value it read is, or reaches,
/// some transaction whose value it read.
///
/// Each check costs time bounded by the readset's own dependency window
/// rather than by the length of the history. The server commits update
/// transactions serially, so every conflict edge it records runs from an
/// older to a newer transaction, and everything reachable from an
/// overwriter `o` is `>= o`. Hence an overwriter newer than the readset's
/// newest writer can reach no writer at all — the readsets the interval
/// [`SerializabilityValidator::check`] accepts have only such overwriters
/// and cost O(|reads|) with no traversal — and a traversal from an older
/// overwriter never needs to expand a transaction past the newest
/// writer. [`SerializabilityBatch::new`] verifies that order on the graph
/// it is handed; for a graph with a back edge the bound is simply absent
/// and the same traversal runs unbounded.
///
/// The differential proptests hold the verdicts to the criterion written
/// out over [`bpush_sgraph::SerializationGraph::path_exists`], the plain
/// reference query of the append-only history graph. One visited set is
/// shared by all overwriters of a readset.
#[derive(Debug)]
pub struct SerializabilityBatch<'a> {
    history: &'a WriteHistory,
    graph: &'a bpush_sgraph::SerializationGraph,
    /// Whether every edge of `graph` runs from a smaller node to a larger
    /// one, i.e. respects the serial commit order.
    commit_ordered: bool,
    /// Scratch reused across checks: the readset's sorted writers, and
    /// the traversal's stack and sorted visited set.
    writers: Vec<TxnId>,
    stack: Vec<bpush_sgraph::Node>,
    seen: Vec<bpush_sgraph::Node>,
}

impl<'a> SerializabilityBatch<'a> {
    /// Creates a batch over the final `history` and conflict `graph`,
    /// checking once (one pass over the edges) whether the graph is
    /// commit-ordered.
    pub fn new(history: &'a WriteHistory, graph: &'a bpush_sgraph::SerializationGraph) -> Self {
        let commit_ordered = graph
            .nodes()
            .all(|from| graph.successors(from).all(|to| from < to));
        SerializabilityBatch {
            history,
            graph,
            commit_ordered,
            writers: Vec::new(),
            stack: Vec::new(),
            seen: Vec::new(),
        }
    }

    /// Checks one readset against the criterion.
    ///
    /// # Errors
    /// Returns [`ConsistencyViolation`] with a witnessing pair when a
    /// cycle through the query exists.
    pub fn check(&mut self, reads: &[ReadRecord]) -> Result<(), ConsistencyViolation> {
        use bpush_sgraph::Node;
        self.writers.clear();
        self.writers
            .extend(reads.iter().filter_map(|r| r.value.writer()));
        self.writers.sort_unstable();
        self.writers.dedup();
        // a cycle needs a writer to come back to
        let Some(&newest) = self.writers.last() else {
            return Ok(());
        };
        // in a commit-ordered graph nothing past the newest writer can
        // lead back to a writer
        let beyond = |n: Node| self.commit_ordered && n > Node::Txn(newest);
        self.seen.clear();
        for r in reads {
            // committed overwrites always carry a writer
            let over = self.history.next_overwrite(r.item, r.value);
            let Some(o) = over.and_then(|v| v.writer()) else {
                continue;
            };
            self.stack.clear();
            self.stack.push(Node::Txn(o));
            while let Some(n) = self.stack.pop() {
                if beyond(n) {
                    continue;
                }
                // nodes seen from an earlier overwriter led to no writer
                let Err(at) = self.seen.binary_search(&n) else {
                    continue;
                };
                self.seen.insert(at, n);
                if let Some(t) = n.as_txn() {
                    if self.writers.binary_search(&t).is_ok() {
                        return Err(ConsistencyViolation {
                            fresh_writer: t,
                            stale_overwrite: o,
                        });
                    }
                }
                self.stack.extend(self.graph.successors(n));
            }
        }
        Ok(())
    }
}

/// The paper's criterion (§2.2) applied to each committed readset when
/// its query finishes, over the graph differences the server already put
/// on air: the online form of the end-of-run audit.
///
/// A readset first gets the interval check
/// ([`SerializabilityValidator::check`]) against the history as it stands
/// when the query finishes. Every later write overwrites a value still
/// current then, so it commits after every writer read, and neither the
/// interval check's verdict nor the batch's (see [`SerializabilityBatch`])
/// can change after that point.
///
/// Only a readset the interval check rejects asks the graph question:
/// does some first overwriter `o` of a value read equal, or reach, the
/// writer `w` of a value read? An SGT server airs each cycle's conflict
/// edges as a [`GraphDiff`] a cycle later (§3.3), and [`Judge::air`]
/// keeps them in a [`Window`] that starts at the bound the caller proves:
/// no overwriter of a value a live query can read is older. The bcast of
/// the cycle a query finishes in carries every diff up to the cycle
/// before, the newest value read is no newer, and an overwriter newer
/// than the newest writer reaches no writer (every conflict edge runs
/// from an older transaction to a newer one), so the window holds every
/// edge a path can use. An overwriter the window does not reach back to,
/// or a writer it does not reach forward to, is a broken bound: the
/// judge answers [`BpushError::Internal`], since [`Window::path_exists`]
/// would answer `false` for it and pass the readset silently.
///
/// A server that airs no diff builds none, so a judge made with
/// `airs_diffs` unset keeps the rejected readsets and answers them at
/// [`Judge::tally`] from the conflict graph replayed once. Only a broken
/// method commits a readset that gets there.
#[derive(Debug)]
pub struct Judge {
    /// The aired diffs, when the server airs them.
    aired: Option<AiredGraph>,
    /// Readsets the interval check rejected that wait for the replayed
    /// graph.
    deferred: Vec<Vec<ReadRecord>>,
    /// Violations found so far.
    violations: u64,
    /// Scratch: the readset's sorted writers.
    writers: Vec<TxnId>,
}

/// The window of aired diffs a [`Judge`] searches, and its extent.
#[derive(Debug, Default)]
struct AiredGraph {
    window: Window,
    /// The cycle the window starts at.
    start: Cycle,
    /// The newest cycle whose diff the window keeps.
    newest: Option<Cycle>,
}

impl Judge {
    /// A judge with no readset judged yet. `airs_diffs` says whether the
    /// server puts its graph differences on air, for [`Judge::air`] to
    /// keep.
    pub fn new(airs_diffs: bool) -> Self {
        Judge {
            aired: airs_diffs.then(AiredGraph::default),
            deferred: Vec::new(),
            violations: 0,
            writers: Vec::new(),
        }
    }

    /// Moves the window to start at `start` and keeps `diff`, the
    /// graph difference the cycle's bcast airs. Call it once per cycle,
    /// before judging that cycle's readsets, with a `start` that never
    /// falls. A judge of a server that airs no diff ignores the call.
    pub fn air(&mut self, start: Cycle, diff: Option<&Arc<GraphDiff>>) {
        if let Some(aired) = &mut self.aired {
            if aired.window.advance(Some(start), diff) {
                aired.newest = diff.map(|d| d.cycle());
            }
            aired.start = start;
        }
    }

    /// Judges one committed readset against `history` as it stands when
    /// the query finishes.
    ///
    /// # Errors
    /// Returns [`BpushError::Internal`] if the graph question needs a
    /// transaction outside the window: an overwriter older than its
    /// start, or a writer newer than its newest diff.
    ///
    /// # Panics
    /// Panics if a read value was never committed according to the
    /// history, as [`SerializabilityValidator::check`] does.
    pub fn judge(
        &mut self,
        history: &WriteHistory,
        reads: &[ReadRecord],
    ) -> Result<(), BpushError> {
        if SerializabilityValidator::new(history).check(reads).is_ok() {
            return Ok(());
        }
        match &self.aired {
            None => self.deferred.push(reads.to_vec()),
            Some(aired) => {
                if aired.closes_cycle(history, reads, &mut self.writers)? {
                    self.violations += 1;
                }
            }
        }
        Ok(())
    }

    /// The number of violating readsets judged. The rejected readsets of
    /// a server that airs no diff are answered here, by one
    /// [`SerializabilityBatch`] over `graph()`, which is called only if
    /// there is one.
    pub fn tally<'g>(
        self,
        history: &'g WriteHistory,
        graph: impl FnOnce() -> &'g bpush_sgraph::SerializationGraph,
    ) -> u64 {
        if self.deferred.is_empty() {
            return self.violations;
        }
        let mut batch = SerializabilityBatch::new(history, graph());
        let late = self.deferred.iter().filter(|r| batch.check(r).is_err());
        self.violations + late.count() as u64
    }
}

impl AiredGraph {
    /// Whether a first overwriter of a value in `reads` is, or reaches, a
    /// writer of one.
    fn closes_cycle(
        &self,
        history: &WriteHistory,
        reads: &[ReadRecord],
        writers: &mut Vec<TxnId>,
    ) -> Result<bool, BpushError> {
        writers.clear();
        writers.extend(reads.iter().filter_map(|r| r.value.writer()));
        writers.sort_unstable();
        writers.dedup();
        let Some(&newest) = writers.last() else {
            return Ok(false);
        };
        if self.newest.map_or(true, |aired| newest.cycle() > aired) {
            return Err(BpushError::internal(
                "a value read was written in a cycle whose graph diff is not aired yet",
            ));
        }
        for r in reads {
            // committed overwrites always carry a writer
            let over = history.next_overwrite(r.item, r.value);
            let Some(o) = over.and_then(|v| v.writer()) else {
                continue;
            };
            // nothing past the newest writer leads back to a writer
            if o > newest {
                continue;
            }
            if o.cycle() < self.start {
                return Err(BpushError::internal(
                    "an overwriter fell below the judge's window",
                ));
            }
            let mut later = writers.iter().filter(|&&w| w > o);
            if writers.binary_search(&o).is_ok() || later.any(|&w| self.window.path_exists(o, w)) {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(cycle: u64, seq: u32) -> TxnId {
        TxnId::new(Cycle::new(cycle), seq)
    }

    fn v(writer: TxnId) -> ItemValue {
        ItemValue::written_by(writer)
    }

    fn x(i: u32) -> ItemId {
        ItemId::new(i)
    }

    /// History: x0 written by T1.0 then T3.0; x1 written by T2.0.
    fn history() -> WriteHistory {
        let mut h = WriteHistory::new();
        h.record(x(0), v(t(1, 0)));
        h.record(x(1), v(t(2, 0)));
        h.record(x(0), v(t(3, 0)));
        h
    }

    #[test]
    fn empty_readset_is_consistent() {
        let h = history();
        let val = SerializabilityValidator::new(&h);
        let interval = val.check(&[]).unwrap();
        assert_eq!(
            interval,
            ValidInterval {
                after: None,
                before: None
            }
        );
    }

    #[test]
    fn all_initial_values_are_consistent() {
        let h = history();
        let val = SerializabilityValidator::new(&h);
        let reads = [
            ReadRecord::new(x(0), ItemValue::initial()),
            ReadRecord::new(x(1), ItemValue::initial()),
        ];
        let interval = val.check(&reads).unwrap();
        assert_eq!(interval.after, None);
        assert_eq!(
            interval.before,
            Some(t(1, 0)),
            "valid until the first write"
        );
    }

    #[test]
    fn snapshot_readsets_are_consistent() {
        let h = history();
        let val = SerializabilityValidator::new(&h);
        // state after T2.0: x0 = T1.0's value, x1 = T2.0's value
        let reads = [
            ReadRecord::new(x(0), v(t(1, 0))),
            ReadRecord::new(x(1), v(t(2, 0))),
        ];
        let interval = val.check(&reads).unwrap();
        assert_eq!(interval.after, Some(t(2, 0)));
        assert_eq!(interval.before, Some(t(3, 0)));
    }

    #[test]
    fn torn_readset_is_rejected() {
        let h = history();
        let val = SerializabilityValidator::new(&h);
        // x0's *old* value (overwritten by T3.0)... fine so far
        // combined with nothing newer: consistent
        assert!(val.check(&[ReadRecord::new(x(0), v(t(1, 0)))]).is_ok());
        // but initial x0 (overwritten by T1.0) + x1 from T2.0 is torn:
        // x1's value requires being after T2.0, x0's initial value
        // requires being before T1.0.
        let torn = [
            ReadRecord::new(x(0), ItemValue::initial()),
            ReadRecord::new(x(1), v(t(2, 0))),
        ];
        let err = val.check(&torn).unwrap_err();
        assert_eq!(err.fresh_writer, t(2, 0));
        assert_eq!(err.stale_overwrite, t(1, 0));
        assert!(err.to_string().contains("overwritten"));
    }

    #[test]
    fn current_values_are_consistent() {
        let h = history();
        let val = SerializabilityValidator::new(&h);
        let reads = [
            ReadRecord::new(x(0), v(t(3, 0))),
            ReadRecord::new(x(1), v(t(2, 0))),
        ];
        let interval = val.check(&reads).unwrap();
        assert_eq!(interval.after, Some(t(3, 0)));
        assert_eq!(interval.before, None);
    }

    /// The batch against the criterion worked out by hand: a readset
    /// closes a cycle iff some first overwriter of a value read is, or
    /// reaches, the writer of a value read.
    #[test]
    fn batch_check_agrees_with_the_criterion() {
        use bpush_sgraph::{GraphDiff, SerializationGraph};
        let h = history();
        let mut graph = SerializationGraph::new();
        // conflict chain T1.0 -> T2.0 -> T3.0, plus — in release builds,
        // where `GraphDiff::new` admits a malformed diff — a back edge
        // forming a cycle T2.0 -> T3.0 -> T2.0
        let diff = |to: TxnId, from: TxnId| GraphDiff::new(to.cycle(), vec![to], vec![(from, to)]);
        graph.push(&diff(t(2, 0), t(1, 0)));
        graph.push(&diff(t(3, 0), t(2, 0)));
        let back = !cfg!(debug_assertions);
        if back {
            graph.push(&diff(t(2, 0), t(3, 0)));
        }
        let mut batch = SerializabilityBatch::new(&h, &graph);
        let readsets: Vec<(Vec<ReadRecord>, bool)> = vec![
            // no writer to come back to
            (vec![], true),
            // T3.0 overwrote x0 and reaches at most T2.0 and itself
            (vec![ReadRecord::new(x(0), v(t(1, 0)))], true),
            // T3.0 overwrote x0 and reaches T2.0, the writer of x1, only
            // over the back edge
            (
                vec![
                    ReadRecord::new(x(0), v(t(1, 0))),
                    ReadRecord::new(x(1), v(t(2, 0))),
                ],
                !back,
            ),
            // T1.0 overwrote x0 and reaches T2.0, the writer of x1
            (
                vec![
                    ReadRecord::new(x(0), ItemValue::initial()),
                    ReadRecord::new(x(1), v(t(2, 0))),
                ],
                false,
            ),
            // nothing read was overwritten
            (
                vec![
                    ReadRecord::new(x(0), v(t(3, 0))),
                    ReadRecord::new(x(1), v(t(2, 0))),
                ],
                true,
            ),
        ];
        for (reads, want) in &readsets {
            let want = *want;
            assert_eq!(
                batch.check(reads).is_ok(),
                want,
                "verdicts must agree on {reads:?}"
            );
            // reused scratch must not change later verdicts: re-check
            assert_eq!(batch.check(reads).is_ok(), want);
        }

        // the overwriter is itself a writer: a cycle with no edge at all
        let mut h = WriteHistory::new();
        h.record(x(0), v(t(1, 0)));
        h.record(x(1), v(t(1, 0)));
        let graph = SerializationGraph::new();
        let torn = [
            ReadRecord::new(x(0), ItemValue::initial()),
            ReadRecord::new(x(1), v(t(1, 0))),
        ];
        let err = SerializabilityBatch::new(&h, &graph)
            .check(&torn)
            .unwrap_err();
        assert_eq!((err.fresh_writer, err.stale_overwrite), (t(1, 0), t(1, 0)));
    }

    /// History and aired diffs for the judge: x0 loses its initial value
    /// to T1.0, T2.0 writes x1 and T2.1 writes x2; the only conflict edge
    /// is T1.0 → T2.0, aired with cycle 2's diff.
    fn judged_world() -> (WriteHistory, [Arc<GraphDiff>; 2]) {
        let mut h = WriteHistory::new();
        h.record(x(0), v(t(1, 0)));
        h.record(x(1), v(t(2, 0)));
        h.record(x(2), v(t(2, 1)));
        let d1 = GraphDiff::new(Cycle::new(1), vec![t(1, 0)], vec![]);
        let d2 = GraphDiff::new(
            Cycle::new(2),
            vec![t(2, 0), t(2, 1)],
            vec![(t(1, 0), t(2, 0))],
        );
        (h, [Arc::new(d1), Arc::new(d2)])
    }

    /// Both readsets fail the interval check: the initial x0 was
    /// overwritten by T1.0, before the writers of x1 and x2 committed.
    /// Only the first closes a cycle, over the aired edge T1.0 → T2.0.
    fn torn_readsets() -> [Vec<ReadRecord>; 2] {
        let initial_x0 = ReadRecord::new(x(0), ItemValue::initial());
        [
            vec![initial_x0, ReadRecord::new(x(1), v(t(2, 0)))],
            vec![initial_x0, ReadRecord::new(x(2), v(t(2, 1)))],
        ]
    }

    /// The judge over the aired diffs agrees with the batch over the
    /// graph they fold into: of two readsets the interval check rejects,
    /// the one with a path from an overwriter to a writer is a
    /// violation and the other is not. A judge that skipped the graph
    /// question, either way, would count 0 or 2.
    #[test]
    fn judge_asks_the_aired_diffs_only_for_rejected_readsets() {
        let (h, [d1, d2]) = judged_world();
        let mut judge = Judge::new(true);
        judge.air(Cycle::new(1), Some(&d1));
        judge.air(Cycle::new(1), Some(&d2));
        let [closes, passes] = torn_readsets();
        let mut graph = bpush_sgraph::SerializationGraph::new();
        graph.push(&d1);
        graph.push(&d2);
        let mut batch = SerializabilityBatch::new(&h, &graph);
        assert!(batch.check(&closes).is_err() && batch.check(&passes).is_ok());
        judge.judge(&h, &closes).unwrap();
        assert_eq!(judge.violations, 1);
        judge.judge(&h, &passes).unwrap();
        // an interval-clean readset never reaches the graph
        judge
            .judge(&h, &[ReadRecord::new(x(1), v(t(2, 0)))])
            .unwrap();
        assert_eq!(judge.tally(&h, || unreachable!("no readset deferred")), 1);
    }

    /// A window that starts one cycle after an overwriter the question
    /// needs cannot answer it: the judge says so instead of passing the
    /// readset, which `Window::path_exists` on a non-node would do. So
    /// does a writer newer than every aired diff.
    #[test]
    fn a_transaction_outside_the_window_is_internal() {
        let (h, [d1, d2]) = judged_world();
        let [closes, passes] = torn_readsets();
        let mut late = Judge::new(true);
        late.air(Cycle::new(2), Some(&d1));
        late.air(Cycle::new(2), Some(&d2));
        for reads in [&closes, &passes] {
            assert!(matches!(
                late.judge(&h, reads),
                Err(BpushError::Internal(_))
            ));
        }
        let mut early = Judge::new(true);
        early.air(Cycle::new(1), Some(&d1));
        assert!(matches!(
            early.judge(&h, &closes),
            Err(BpushError::Internal(_))
        ));
        // the same window answers once the newest writer's diff is on air
        early.air(Cycle::new(1), Some(&d2));
        early.judge(&h, &closes).unwrap();
        assert_eq!(early.violations, 1);
    }

    /// With no diff on air the rejected readsets wait for the end of
    /// run, where one batch over the replayed graph answers them.
    #[test]
    fn a_judge_without_aired_diffs_defers_to_the_replayed_graph() {
        let (h, [d1, d2]) = judged_world();
        let mut judge = Judge::new(false);
        judge.air(Cycle::new(1), Some(&d1));
        for reads in torn_readsets() {
            judge.judge(&h, &reads).unwrap();
        }
        assert_eq!((judge.violations, judge.deferred.len()), (0, 2));
        let mut graph = bpush_sgraph::SerializationGraph::new();
        graph.push(&d1);
        graph.push(&d2);
        assert_eq!(judge.tally(&h, || &graph), 1);
    }

    #[test]
    fn boundary_equal_is_rejected() {
        // reading a value written by T and a value overwritten by T means
        // the point must be both >= T and < T: impossible.
        let mut h = WriteHistory::new();
        h.record(x(0), v(t(1, 0))); // overwrites x0's initial value
        h.record(x(1), v(t(1, 0))); // same txn writes x1
        let val = SerializabilityValidator::new(&h);
        let torn = [
            ReadRecord::new(x(0), ItemValue::initial()),
            ReadRecord::new(x(1), v(t(1, 0))),
        ];
        assert!(val.check(&torn).is_err());
    }
}
