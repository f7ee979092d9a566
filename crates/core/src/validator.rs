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

use bpush_server::WriteHistory;
use bpush_types::{ItemId, ItemValue, TxnId};

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

#[cfg(test)]
mod tests {
    use super::*;
    use bpush_types::Cycle;

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
