//! The multiversion broadcast method (§3.2).

use std::collections::BTreeMap;

use bpush_broadcast::ControlInfo;
use bpush_types::{Cycle, ItemId, QueryId};

use crate::protocol::{
    AbortReason, CacheMode, ReadCandidate, ReadConstraint, ReadDirective, ReadOnlyProtocol,
    ReadOutcome,
};
use crate::readset::ReadSet;

#[derive(Debug)]
struct MvState {
    /// `c_0`: the cycle of the query's first read; all reads target the
    /// database state broadcast at `c_0` (Theorem 2).
    c0: Option<Cycle>,
    readset: ReadSet,
}

/// The multiversion broadcast method (§3.2).
///
/// The server broadcasts, besides each item's current value, its previous
/// values from the last `V` cycles. A query performing its first read at
/// cycle `c_0` subsequently reads, for every item, the version with the
/// largest cycle `≤ c_0` — i.e. it observes exactly the snapshot
/// broadcast at `c_0` and is serialized at the beginning of `c_0`
/// (Theorem 2). Queries with span `≤ V` always commit; a query whose span
/// exceeds the retention aborts only when a version it needs has fallen
/// off air ([`AbortReason::VersionUnavailable`]).
///
/// The method needs no invalidation processing at all and tolerates
/// missed cycles as long as the needed versions are still on air —
/// a transaction of span `s` can miss up to `V − s` cycles (§5.2.2).
///
/// Its `on_control` is a no-op by design: unlike the other methods it
/// never probes a report with its readsets
/// ([`InvalidationReport::any_stale`](bpush_broadcast::InvalidationReport::any_stale)).
#[derive(Debug, Default)]
pub struct MultiversionBroadcast {
    queries: BTreeMap<QueryId, MvState>,
    cached: bool,
}

impl MultiversionBroadcast {
    /// Creates the method. The span the server supports is a server-side
    /// property (`V`); the client needs no copy of it.
    pub fn new() -> Self {
        MultiversionBroadcast::default()
    }

    /// Variant that additionally reads from a version-aware client cache
    /// (the "combined with caching" configuration of §4.1).
    pub fn with_cache() -> Self {
        MultiversionBroadcast {
            queries: BTreeMap::new(),
            cached: true,
        }
    }

    /// The snapshot cycle of an active query, once its first read
    /// happened.
    pub fn snapshot_of(&self, q: QueryId) -> Option<Cycle> {
        self.queries.get(&q).and_then(|s| s.c0)
    }
}

impl ReadOnlyProtocol for MultiversionBroadcast {
    fn name(&self) -> &'static str {
        if self.cached {
            "multiversion+cache"
        } else {
            "multiversion"
        }
    }

    fn cache_mode(&self) -> CacheMode {
        if self.cached {
            CacheMode::Multiversion
        } else {
            CacheMode::None
        }
    }

    fn on_control(&mut self, _ctrl: &ControlInfo) {
        // Multiversion queries are pinned by their first read; reports
        // carry no information they need.
    }

    fn on_missed_cycle(&mut self, _cycle: Cycle) {
        // Tolerated: if a needed version falls off air meanwhile, the
        // read itself will fail with VersionUnavailable.
    }

    fn begin_query(&mut self, q: QueryId, _now: Cycle) {
        let prev = self.queries.insert(
            q,
            MvState {
                c0: None,
                readset: ReadSet::new(),
            },
        );
        assert!(prev.is_none(), "query ids must not be reused");
    }

    fn read_directive(&self, q: QueryId, _item: ItemId, now: Cycle) -> ReadDirective {
        let qs = &self.queries[&q];
        ReadDirective::Read(ReadConstraint {
            state: qs.c0.unwrap_or(now),
            cache_only: false,
        })
    }

    fn apply_read(
        &mut self,
        q: QueryId,
        item: ItemId,
        candidate: &ReadCandidate,
        now: Cycle,
    ) -> ReadOutcome {
        // lint: allow(panic) — protocol contract: reads only arrive for begun queries
        let qs = self.queries.get_mut(&q).expect("unknown query");
        let c0 = *qs.c0.get_or_insert(now);
        if !candidate.current_at(c0) {
            return ReadOutcome::Rejected(AbortReason::VersionUnavailable);
        }
        qs.readset.insert(item);
        ReadOutcome::Accepted
    }

    fn finish_query(&mut self, q: QueryId) {
        self.queries.remove(&q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Source;
    use bpush_types::{ItemValue, TxnId};

    fn candidate(from: u64, until: Option<u64>) -> ReadCandidate {
        ReadCandidate {
            value: if from == 0 {
                ItemValue::initial()
            } else {
                ItemValue::written_by(TxnId::new(Cycle::new(from - 1), 0))
            },
            last_writer_tag: None,
            valid_from: Cycle::new(from),
            valid_until: until.map(Cycle::new),
            source: Source::BroadcastOld,
        }
    }

    #[test]
    fn first_read_sets_snapshot() {
        let mut p = MultiversionBroadcast::new();
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(5));
        assert_eq!(p.snapshot_of(q), None);
        // before the first read, the directive targets "now"
        match p.read_directive(q, ItemId::new(0), Cycle::new(5)) {
            ReadDirective::Read(c) => assert_eq!(c.state, Cycle::new(5)),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            p.apply_read(q, ItemId::new(0), &candidate(5, None), Cycle::new(5)),
            ReadOutcome::Accepted
        );
        assert_eq!(p.snapshot_of(q), Some(Cycle::new(5)));
        // later directives stay pinned at c0 even as `now` advances
        match p.read_directive(q, ItemId::new(1), Cycle::new(9)) {
            ReadDirective::Read(c) => {
                assert_eq!(c.state, Cycle::new(5));
                assert!(!c.cache_only);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn old_version_satisfying_snapshot_is_accepted() {
        let mut p = MultiversionBroadcast::new();
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(5));
        p.apply_read(q, ItemId::new(0), &candidate(5, None), Cycle::new(5));
        // value current for states [4, 7): current at snapshot 5
        assert_eq!(
            p.apply_read(q, ItemId::new(1), &candidate(4, Some(7)), Cycle::new(6)),
            ReadOutcome::Accepted
        );
        // value only current from state 6 on: not part of snapshot 5
        assert_eq!(
            p.apply_read(q, ItemId::new(2), &candidate(6, None), Cycle::new(6)),
            ReadOutcome::Rejected(AbortReason::VersionUnavailable)
        );
        // value superseded before the snapshot: also wrong
        assert_eq!(
            p.apply_read(q, ItemId::new(3), &candidate(2, Some(4)), Cycle::new(6)),
            ReadOutcome::Rejected(AbortReason::VersionUnavailable)
        );
    }

    #[test]
    fn reports_and_gaps_are_ignored() {
        let mut p = MultiversionBroadcast::new();
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(0));
        p.apply_read(q, ItemId::new(0), &candidate(0, None), Cycle::new(0));
        p.on_missed_cycle(Cycle::new(1));
        p.on_missed_cycle(Cycle::new(2));
        // still pinned, still active
        match p.read_directive(q, ItemId::new(1), Cycle::new(3)) {
            ReadDirective::Read(c) => assert_eq!(c.state, Cycle::new(0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cache_variant_reports_cache_mode() {
        let p = MultiversionBroadcast::with_cache();
        assert_eq!(p.cache_mode(), CacheMode::Multiversion);
        assert_eq!(p.name(), "multiversion+cache");
        let plain = MultiversionBroadcast::new();
        assert_eq!(plain.cache_mode(), CacheMode::None);
        assert_eq!(plain.name(), "multiversion");
    }

    #[test]
    fn finish_releases_state() {
        let mut p = MultiversionBroadcast::new();
        p.begin_query(QueryId::new(0), Cycle::ZERO);
        p.finish_query(QueryId::new(0));
        assert!(p.queries.is_empty());
    }
}
