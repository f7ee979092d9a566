//! The multiversion caching method (§4.2, Theorem 5).

use std::collections::BTreeMap;

use bpush_broadcast::ControlInfo;
use bpush_types::{Cycle, ItemId, QueryId};

use crate::protocol::{
    AbortReason, CacheMode, ReadCandidate, ReadConstraint, ReadDirective, ReadOnlyProtocol,
    ReadOutcome,
};
use crate::readset::ReadSet;

#[derive(Debug)]
struct McState {
    readset: ReadSet,
    verified_state: Cycle,
    /// The pinned snapshot `c_u − 1` once an item the query read was
    /// updated for the first time.
    pinned: Option<Cycle>,
    doomed: Option<AbortReason>,
}

/// The multiversion caching method (§4.2).
///
/// The broadcast is invalidation-only plus per-item version numbers; the
/// *client cache* serves as the storage medium for old versions: when a
/// cached page is updated, the stale entry is moved to an old-version
/// partition instead of being discarded. Let `c_u` be the first cycle at
/// which an item read by the query was updated; from then on the query
/// reads the largest version `< c_u` of every item — i.e. it observes the
/// snapshot `c_u − 1` (Theorem 5). Old versions come from the cache; by
/// default, the current broadcast value is also accepted whenever its
/// version shows it still belongs to the pinned snapshot (provably safe —
/// versions are on air in this method; disable with
/// [`MultiversionCaching::strict`] for the letter-of-the-paper,
/// cache-only rule).
///
/// Unlike multiversion broadcast, the number of versions retained is a
/// property of *each client's cache*, not of the server.
#[derive(Debug)]
pub struct MultiversionCaching {
    broadcast_fallback: bool,
    queries: BTreeMap<QueryId, McState>,
    last_heard: Option<Cycle>,
}

impl MultiversionCaching {
    /// The method with the (safe) broadcast fallback for old-enough
    /// current values.
    pub fn new() -> Self {
        MultiversionCaching {
            broadcast_fallback: true,
            queries: BTreeMap::new(),
            last_heard: None,
        }
    }

    /// The strict variant: after pinning, reads are served from the cache
    /// only, exactly as §4.2 words it.
    pub fn strict() -> Self {
        MultiversionCaching {
            broadcast_fallback: false,
            ..MultiversionCaching::new()
        }
    }

    /// Whether the broadcast fallback is enabled.
    pub fn has_broadcast_fallback(&self) -> bool {
        self.broadcast_fallback
    }
}

impl Default for MultiversionCaching {
    fn default() -> Self {
        MultiversionCaching::new()
    }
}

impl ReadOnlyProtocol for MultiversionCaching {
    fn name(&self) -> &'static str {
        "mv-caching"
    }

    fn cache_mode(&self) -> CacheMode {
        CacheMode::Multiversion
    }

    fn on_control(&mut self, ctrl: &ControlInfo) {
        let n = ctrl.cycle();
        let report = ctrl.invalidation();
        let covered = match self.last_heard {
            None => true,
            Some(h) => n.number() <= h.number().saturating_add(u64::from(report.window())),
        };
        for q in self.queries.values_mut() {
            if q.doomed.is_some() || q.pinned.is_some() {
                continue;
            }
            if !covered {
                // Gap: pin at the last verified state and continue from
                // the cache — the disconnection tolerance of Table 1.
                q.pinned = Some(q.verified_state);
                continue;
            }
            if report.any_stale(q.readset.as_slice(), q.verified_state) {
                q.pinned = Some(q.verified_state);
            } else {
                q.verified_state = n;
            }
        }
        self.last_heard = Some(n);
    }

    fn on_missed_cycle(&mut self, _cycle: Cycle) {
        // Handled at the next heard report via the window check.
    }

    fn begin_query(&mut self, q: QueryId, now: Cycle) {
        let prev = self.queries.insert(
            q,
            McState {
                readset: ReadSet::new(),
                verified_state: now,
                pinned: None,
                doomed: None,
            },
        );
        assert!(prev.is_none(), "query ids must not be reused");
    }

    fn read_directive(&self, q: QueryId, _item: ItemId, now: Cycle) -> ReadDirective {
        let qs = &self.queries[&q];
        if let Some(reason) = qs.doomed {
            return ReadDirective::Doom(reason);
        }
        match qs.pinned {
            Some(state) => ReadDirective::Read(ReadConstraint {
                state,
                cache_only: !self.broadcast_fallback,
            }),
            None => ReadDirective::Read(ReadConstraint {
                state: now,
                cache_only: false,
            }),
        }
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
        if let Some(reason) = qs.doomed {
            return ReadOutcome::Rejected(reason);
        }
        let state = qs.pinned.unwrap_or(now);
        if !candidate.current_at(state) {
            let reason = AbortReason::VersionUnavailable;
            qs.doomed = Some(reason);
            return ReadOutcome::Rejected(reason);
        }
        if qs.pinned.is_some() && !self.broadcast_fallback && !candidate.source.is_cache() {
            let reason = AbortReason::VersionUnavailable;
            qs.doomed = Some(reason);
            return ReadOutcome::Rejected(reason);
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
    use bpush_broadcast::InvalidationReport;
    use bpush_types::{Granularity, ItemValue, TxnId};

    fn ctrl(cycle: u64, items: &[u32]) -> ControlInfo {
        let c = Cycle::new(cycle);
        ControlInfo::new(
            c,
            InvalidationReport::new(
                c,
                1,
                items.iter().map(|&i| ItemId::new(i)),
                Granularity::Item,
                1,
            ),
            None,
            None,
        )
    }

    fn cand(from: u64, until: Option<u64>, source: Source) -> ReadCandidate {
        let value = if from == 0 {
            ItemValue::initial()
        } else {
            ItemValue::written_by(TxnId::new(Cycle::new(from - 1), 0))
        };
        ReadCandidate {
            value,
            last_writer_tag: None,
            valid_from: Cycle::new(from),
            valid_until: until.map(Cycle::new),
            source,
        }
    }

    #[test]
    fn pin_at_first_invalidation_and_read_old_cache_versions() {
        let mut p = MultiversionCaching::new();
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(2));
        p.on_control(&ctrl(2, &[]));
        assert_eq!(
            p.apply_read(
                q,
                ItemId::new(1),
                &cand(1, None, Source::BroadcastCurrent),
                Cycle::new(2)
            ),
            ReadOutcome::Accepted
        );
        p.on_control(&ctrl(3, &[1])); // c_u = 3, pinned snapshot = 2
        match p.read_directive(q, ItemId::new(4), Cycle::new(3)) {
            ReadDirective::Read(c) => {
                assert_eq!(c.state, Cycle::new(2));
                assert!(!c.cache_only, "default has the broadcast fallback");
            }
            other => panic!("{other:?}"),
        }
        // an old cache version current at state 2 works
        assert_eq!(
            p.apply_read(
                q,
                ItemId::new(4),
                &cand(1, Some(3), Source::CacheOld),
                Cycle::new(3)
            ),
            ReadOutcome::Accepted
        );
        // a version created at state 3 does not
        assert_eq!(
            p.apply_read(
                q,
                ItemId::new(5),
                &cand(3, None, Source::CacheCurrent),
                Cycle::new(3)
            ),
            ReadOutcome::Rejected(AbortReason::VersionUnavailable)
        );
    }

    #[test]
    fn broadcast_fallback_accepts_old_enough_current_values() {
        let mut p = MultiversionCaching::new();
        assert!(p.has_broadcast_fallback());
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(2));
        p.on_control(&ctrl(2, &[]));
        p.apply_read(
            q,
            ItemId::new(1),
            &cand(1, None, Source::BroadcastCurrent),
            Cycle::new(2),
        );
        p.on_control(&ctrl(3, &[1]));
        // item 6's broadcast value has version 1 <= pinned state 2: safe
        assert_eq!(
            p.apply_read(
                q,
                ItemId::new(6),
                &cand(1, None, Source::BroadcastCurrent),
                Cycle::new(3)
            ),
            ReadOutcome::Accepted
        );
    }

    #[test]
    fn strict_variant_requires_cache_after_pin() {
        let mut p = MultiversionCaching::strict();
        assert!(!p.has_broadcast_fallback());
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(2));
        p.on_control(&ctrl(2, &[]));
        p.apply_read(
            q,
            ItemId::new(1),
            &cand(1, None, Source::BroadcastCurrent),
            Cycle::new(2),
        );
        p.on_control(&ctrl(3, &[1]));
        match p.read_directive(q, ItemId::new(6), Cycle::new(3)) {
            ReadDirective::Read(c) => assert!(c.cache_only),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            p.apply_read(
                q,
                ItemId::new(6),
                &cand(1, None, Source::BroadcastCurrent),
                Cycle::new(3)
            ),
            ReadOutcome::Rejected(AbortReason::VersionUnavailable)
        );
    }

    #[test]
    fn gap_pins_and_query_continues_from_cache() {
        let mut p = MultiversionCaching::new();
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(0));
        p.on_control(&ctrl(0, &[]));
        p.apply_read(
            q,
            ItemId::new(1),
            &cand(0, None, Source::BroadcastCurrent),
            Cycle::new(0),
        );
        p.on_control(&ctrl(1, &[]));
        // miss cycles 2-3; resume at 4 with window-1 report (uncovered gap)
        p.on_control(&ctrl(4, &[]));
        match p.read_directive(q, ItemId::new(2), Cycle::new(4)) {
            ReadDirective::Read(c) => assert_eq!(c.state, Cycle::new(1), "pinned at last verified"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unpinned_query_reads_current() {
        let mut p = MultiversionCaching::new();
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(7));
        match p.read_directive(q, ItemId::new(0), Cycle::new(7)) {
            ReadDirective::Read(c) => {
                assert_eq!(c.state, Cycle::new(7));
                assert!(!c.cache_only);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(p.name(), "mv-caching");
        assert_eq!(p.cache_mode(), CacheMode::Multiversion);
    }

    #[test]
    fn finish_releases_state() {
        let mut p = MultiversionCaching::new();
        p.begin_query(QueryId::new(0), Cycle::ZERO);
        p.finish_query(QueryId::new(0));
        assert!(p.queries.is_empty());
    }
}
