//! The invalidation-only method (§3.1) and its versioned-cache extension
//! (§4.1, Theorem 4).

use std::collections::BTreeMap;

use bpush_broadcast::ControlInfo;
use bpush_types::{Cycle, ItemId, QueryId};

use crate::protocol::{
    AbortReason, CacheMode, ReadCandidate, ReadConstraint, ReadDirective, ReadOnlyProtocol,
    ReadOutcome,
};
use crate::readset::ReadSet;

#[derive(Debug)]
struct QState {
    readset: ReadSet,
    /// Latest database state at which the whole readset is known current.
    verified_state: Cycle,
    /// Versioned-cache mode: the pinned snapshot once an item was
    /// invalidated (`u − 1` in the paper's terms).
    pinned: Option<Cycle>,
    doomed: Option<AbortReason>,
}

/// The invalidation-only method (§3.1).
///
/// Each bcast is preceded by an invalidation report listing the items
/// updated during the previous cycle(s); a query aborts as soon as an item
/// it has read appears in a report. Committed queries therefore read the
/// database state of their *last* read's cycle — the most current view of
/// all the methods (Table 1).
///
/// With [`InvalidationOnly::with_versioned_cache`], the §4.1 extension is
/// active: instead of aborting, the query is *marked* at the first
/// invalidation and may continue as long as every further read can be
/// served from cache entries old enough to belong to the pinned snapshot
/// (Theorem 4).
///
/// Disconnections: a missed cycle dooms active queries unless the report
/// window (§5.2.2) covers the gap; in versioned-cache mode a gap instead
/// pins the query, which then proceeds from cache (the cache-based
/// tolerance the paper describes).
#[derive(Debug)]
pub struct InvalidationOnly {
    versioned_cache: bool,
    /// Versioned mode only: permit pinned reads from the broadcast when
    /// the value is provably part of the pinned snapshot (the executor
    /// clamps validity to what heard reports prove). `false` gives the
    /// letter-of-the-paper, cache-only rule.
    broadcast_fallback: bool,
    queries: BTreeMap<QueryId, QState>,
    last_heard: Option<Cycle>,
}

impl InvalidationOnly {
    /// The plain §3.1 method.
    pub fn new() -> Self {
        InvalidationOnly {
            versioned_cache: false,
            broadcast_fallback: true,
            queries: BTreeMap::new(),
            last_heard: None,
        }
    }

    /// The §4.1 versioned-cache extension: pinned reads come from the
    /// cache, or from the broadcast when the report stream proves the
    /// value old enough.
    pub fn with_versioned_cache() -> Self {
        InvalidationOnly {
            versioned_cache: true,
            ..InvalidationOnly::new()
        }
    }

    /// The strict §4.1 variant: after the pin, reads are served from the
    /// cache only, exactly as Theorem 4 words it.
    pub fn with_strict_versioned_cache() -> Self {
        InvalidationOnly {
            versioned_cache: true,
            broadcast_fallback: false,
            ..InvalidationOnly::new()
        }
    }

    /// Whether the versioned-cache extension is active.
    pub fn is_versioned(&self) -> bool {
        self.versioned_cache
    }

    fn mark_or_doom(q: &mut QState, versioned: bool) {
        if versioned {
            if q.pinned.is_none() {
                q.pinned = Some(q.verified_state);
            }
        } else {
            q.doomed = Some(AbortReason::Invalidated);
        }
    }
}

impl Default for InvalidationOnly {
    fn default() -> Self {
        InvalidationOnly::new()
    }
}

impl ReadOnlyProtocol for InvalidationOnly {
    fn name(&self) -> &'static str {
        if self.versioned_cache {
            "inv-versioned-cache"
        } else {
            "inv-only"
        }
    }

    fn cache_mode(&self) -> CacheMode {
        if self.versioned_cache {
            CacheMode::Versioned
        } else {
            CacheMode::Plain
        }
    }

    fn on_control(&mut self, ctrl: &ControlInfo) {
        let n = ctrl.cycle();
        let report = ctrl.invalidation();
        // Does the report's window cover everything since we last heard?
        let covered = match self.last_heard {
            None => true, // nothing read before we first tune in
            Some(h) => n.number() <= h.number().saturating_add(u64::from(report.window())),
        };
        for q in self.queries.values_mut() {
            if q.doomed.is_some() {
                continue;
            }
            if q.pinned.is_some() {
                // Already pinned: the snapshot is fixed; reports (and
                // gaps) no longer matter.
                continue;
            }
            if !covered {
                // A gap we cannot reconstruct: abort, or pin at the last
                // verified state in versioned-cache mode.
                if self.versioned_cache {
                    q.pinned = Some(q.verified_state);
                } else {
                    q.doomed = Some(AbortReason::Disconnected);
                }
                continue;
            }
            if report.any_stale(q.readset.as_slice(), q.verified_state) {
                Self::mark_or_doom(q, self.versioned_cache);
            } else {
                // Whole readset unchanged through the cycles this report
                // covers: current at the state this bcast carries.
                q.verified_state = n;
            }
        }
        self.last_heard = Some(n);
    }

    fn on_missed_cycle(&mut self, _cycle: Cycle) {
        // Handled lazily at the next heard report via the window check;
        // nothing to do here (`last_heard` stays put).
    }

    fn begin_query(&mut self, q: QueryId, now: Cycle) {
        let prev = self.queries.insert(
            q,
            QState {
                readset: ReadSet::new(),
                verified_state: now,
                pinned: None,
                doomed: None,
            },
        );
        assert!(prev.is_none(), "query ids must not be reused");
    }

    fn read_directive(&self, q: QueryId, _item: ItemId, now: Cycle) -> ReadDirective {
        let q = &self.queries[&q];
        if let Some(reason) = q.doomed {
            return ReadDirective::Doom(reason);
        }
        match q.pinned {
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
            // the strict Theorem-4 rule is cache-only after marking; a
            // broadcast candidate here is an executor bug
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
    use bpush_types::{Granularity, ItemValue};

    fn ctrl(cycle: u64, window: u32, items: &[u32]) -> ControlInfo {
        let c = Cycle::new(cycle);
        ControlInfo::new(
            c,
            InvalidationReport::new(
                c,
                window,
                items.iter().map(|&i| ItemId::new(i)),
                Granularity::Item,
                1,
            ),
            None,
            None,
        )
    }

    fn current_candidate(_now: u64) -> ReadCandidate {
        ReadCandidate {
            value: ItemValue::initial(),
            last_writer_tag: None,
            valid_from: Cycle::ZERO,
            valid_until: None,
            source: Source::BroadcastCurrent,
        }
    }

    fn cache_candidate(valid_from: u64, valid_until: Option<u64>) -> ReadCandidate {
        ReadCandidate {
            value: ItemValue::initial(),
            last_writer_tag: None,
            valid_from: Cycle::new(valid_from),
            valid_until: valid_until.map(Cycle::new),
            source: Source::CacheOld,
        }
    }

    #[test]
    fn unrelated_invalidations_do_not_abort() {
        let mut p = InvalidationOnly::new();
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(0));
        assert_eq!(
            p.apply_read(q, ItemId::new(1), &current_candidate(0), Cycle::new(0)),
            ReadOutcome::Accepted
        );
        p.on_control(&ctrl(1, 1, &[5, 9]));
        assert!(matches!(
            p.read_directive(q, ItemId::new(2), Cycle::new(1)),
            ReadDirective::Read(ReadConstraint {
                cache_only: false,
                ..
            })
        ));
    }

    #[test]
    fn invalidated_read_dooms_plain_query() {
        let mut p = InvalidationOnly::new();
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(0));
        p.apply_read(q, ItemId::new(1), &current_candidate(0), Cycle::new(0));
        p.on_control(&ctrl(1, 1, &[1]));
        assert_eq!(
            p.read_directive(q, ItemId::new(2), Cycle::new(1)),
            ReadDirective::Doom(AbortReason::Invalidated)
        );
        assert_eq!(
            p.apply_read(q, ItemId::new(2), &current_candidate(1), Cycle::new(1)),
            ReadOutcome::Rejected(AbortReason::Invalidated)
        );
        assert_eq!(p.name(), "inv-only");
        assert_eq!(p.cache_mode(), CacheMode::Plain);
    }

    #[test]
    fn versioned_cache_pins_snapshot_instead_of_aborting() {
        let mut p = InvalidationOnly::with_versioned_cache();
        assert!(p.is_versioned());
        assert_eq!(p.cache_mode(), CacheMode::Versioned);
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(3));
        p.on_control(&ctrl(3, 1, &[])); // heard cycle 3's (empty) report
        p.apply_read(q, ItemId::new(1), &current_candidate(3), Cycle::new(3));
        p.on_control(&ctrl(4, 1, &[1])); // item 1 invalidated -> pin at state 3
        match p.read_directive(q, ItemId::new(2), Cycle::new(4)) {
            ReadDirective::Read(c) => {
                assert_eq!(c.state, Cycle::new(3));
                assert!(
                    !c.cache_only,
                    "default variant allows proven broadcast reads"
                );
            }
            other => panic!("expected pinned read, got {other:?}"),
        }
        // the strict variant is cache-only after the pin
        let mut s = InvalidationOnly::with_strict_versioned_cache();
        s.begin_query(q, Cycle::new(3));
        s.on_control(&ctrl(3, 1, &[]));
        s.apply_read(q, ItemId::new(1), &current_candidate(3), Cycle::new(3));
        s.on_control(&ctrl(4, 1, &[1]));
        match s.read_directive(q, ItemId::new(2), Cycle::new(4)) {
            ReadDirective::Read(c) => assert!(c.cache_only),
            other => panic!("expected pinned read, got {other:?}"),
        }
        // a cache entry valid at state 3 is accepted...
        assert_eq!(
            p.apply_read(
                q,
                ItemId::new(2),
                &cache_candidate(2, Some(4)),
                Cycle::new(4)
            ),
            ReadOutcome::Accepted
        );
        // ...but one fetched after the pin is not
        assert_eq!(
            p.apply_read(q, ItemId::new(3), &cache_candidate(4, None), Cycle::new(4)),
            ReadOutcome::Rejected(AbortReason::VersionUnavailable)
        );
    }

    #[test]
    fn strict_versioned_cache_rejects_broadcast_after_pin() {
        let mut p = InvalidationOnly::with_strict_versioned_cache();
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(0));
        p.apply_read(q, ItemId::new(1), &current_candidate(0), Cycle::new(0));
        p.on_control(&ctrl(1, 1, &[1]));
        // broadcast candidate, even if it claims validity, is rejected
        let bcast = ReadCandidate {
            source: Source::BroadcastCurrent,
            ..cache_candidate(0, None)
        };
        assert_eq!(
            p.apply_read(q, ItemId::new(2), &bcast, Cycle::new(1)),
            ReadOutcome::Rejected(AbortReason::VersionUnavailable)
        );
    }

    #[test]
    fn gap_dooms_plain_but_pins_versioned() {
        // plain: miss cycle 2 entirely (window 1 cannot cover it)
        let mut p = InvalidationOnly::new();
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(0));
        p.on_control(&ctrl(0, 1, &[]));
        p.apply_read(q, ItemId::new(1), &current_candidate(0), Cycle::new(0));
        p.on_control(&ctrl(1, 1, &[]));
        p.on_missed_cycle(Cycle::new(2));
        p.on_control(&ctrl(3, 1, &[]));
        assert_eq!(
            p.read_directive(q, ItemId::new(2), Cycle::new(3)),
            ReadDirective::Doom(AbortReason::Disconnected)
        );

        // versioned: the same gap pins at the last verified state
        let mut v = InvalidationOnly::with_versioned_cache();
        v.begin_query(q, Cycle::new(0));
        v.on_control(&ctrl(0, 1, &[]));
        v.apply_read(q, ItemId::new(1), &current_candidate(0), Cycle::new(0));
        v.on_control(&ctrl(1, 1, &[]));
        v.on_missed_cycle(Cycle::new(2));
        v.on_control(&ctrl(3, 1, &[]));
        match v.read_directive(q, ItemId::new(2), Cycle::new(3)) {
            ReadDirective::Read(c) => {
                assert_eq!(c.state, Cycle::new(1), "pinned at last verified state");
            }
            other => panic!("expected pinned read, got {other:?}"),
        }
    }

    #[test]
    fn windowed_report_covers_gap_for_plain_method() {
        let mut p = InvalidationOnly::new();
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(0));
        p.on_control(&ctrl(0, 3, &[]));
        p.apply_read(q, ItemId::new(1), &current_candidate(0), Cycle::new(0));
        p.on_missed_cycle(Cycle::new(1));
        p.on_missed_cycle(Cycle::new(2));
        // window-3 report at cycle 3 covers cycles 0..=2: still active
        p.on_control(&ctrl(3, 3, &[7]));
        assert!(matches!(
            p.read_directive(q, ItemId::new(2), Cycle::new(3)),
            ReadDirective::Read(_)
        ));
        // but a windowed report naming a read item still dooms it
        p.on_control(&ctrl(4, 3, &[1]));
        assert_eq!(
            p.read_directive(q, ItemId::new(2), Cycle::new(4)),
            ReadDirective::Doom(AbortReason::Invalidated)
        );
    }

    #[test]
    fn pinned_query_survives_later_gaps() {
        let mut p = InvalidationOnly::with_versioned_cache();
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(0));
        p.on_control(&ctrl(0, 1, &[]));
        p.apply_read(q, ItemId::new(1), &current_candidate(0), Cycle::new(0));
        p.on_control(&ctrl(1, 1, &[1])); // pin at state 0
        p.on_missed_cycle(Cycle::new(2));
        p.on_control(&ctrl(5, 1, &[])); // huge uncovered gap
        match p.read_directive(q, ItemId::new(2), Cycle::new(5)) {
            ReadDirective::Read(c) => assert_eq!(c.state, Cycle::new(0)),
            other => panic!("pinned query must survive gaps, got {other:?}"),
        }
    }

    #[test]
    fn finish_query_releases_state() {
        let mut p = InvalidationOnly::new();
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::ZERO);
        p.finish_query(q);
        p.begin_query(QueryId::new(1), Cycle::ZERO);
        assert_eq!(p.queries.len(), 1);
    }

    #[test]
    #[should_panic(expected = "must not be reused")]
    fn duplicate_query_id_rejected() {
        let mut p = InvalidationOnly::new();
        p.begin_query(QueryId::new(0), Cycle::ZERO);
        p.begin_query(QueryId::new(0), Cycle::ZERO);
    }
}
