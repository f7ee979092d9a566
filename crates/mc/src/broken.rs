//! A deliberately broken protocol fixture.
//!
//! The checker must be able to *find* bugs, not just bless correct code.
//! [`BrokenInvalidation`] is the §3.1 invalidation-only method with its
//! staleness comparison shifted by one cycle: where the genuine
//! implementation dooms a query whose readset item was updated at or
//! after the query's verified database state, this one compares against
//! `verified.next()` and therefore ignores updates that land exactly at
//! the verified state. A query that reads item `x`, then hears a control
//! reporting an update of `x` dated precisely at its verified state,
//! survives — and can go on to read another item written by the *same*
//! update transaction, committing a readset that mixes the transaction's
//! before- and after-images.
//!
//! The conformance battery in `crates/core` does not catch this (its
//! invalidation probes all land strictly after the verified state); the
//! model checker does, at every scope down to [`crate::Scope::ci`]. The
//! minimized counterexample is pinned in `tests/mc_replay.rs`.

use std::collections::{BTreeMap, BTreeSet};

use bpush_broadcast::ControlInfo;
use bpush_core::{
    AbortReason, CacheMode, Method, ReadCandidate, ReadConstraint, ReadDirective, ReadOnlyProtocol,
    ReadOutcome,
};
use bpush_types::{Cycle, ItemId, QueryId};

#[derive(Debug, Clone)]
struct QState {
    verified: Cycle,
    readset: BTreeSet<ItemId>,
    doomed: Option<AbortReason>,
}

/// Invalidation-only processing with an off-by-one staleness check — a
/// seeded bug used to demonstrate the checker finds real violations. See
/// the module docs for the failure mode.
#[derive(Debug, Clone, Default)]
pub struct BrokenInvalidation {
    queries: BTreeMap<QueryId, QState>,
}

impl BrokenInvalidation {
    /// A fresh instance with no active queries.
    pub fn new() -> Self {
        BrokenInvalidation::default()
    }
}

impl ReadOnlyProtocol for BrokenInvalidation {
    fn name(&self) -> &'static str {
        "broken-invalidation"
    }

    fn cache_mode(&self) -> CacheMode {
        CacheMode::None
    }

    fn on_control(&mut self, ctrl: &ControlInfo) {
        let report = ctrl.invalidation();
        for q in self.queries.values_mut() {
            if q.doomed.is_some() {
                continue;
            }
            // BUG (deliberate): the genuine method asks
            // `report.stale_at(x, q.verified)` — an update at exactly the
            // verified state invalidates the readset. Probing one cycle
            // later lets that boundary update slip through unnoticed.
            if q.readset
                .iter()
                .any(|&x| report.stale_at(x, q.verified.next()))
            {
                q.doomed = Some(AbortReason::Invalidated);
            } else {
                q.verified = ctrl.cycle();
            }
        }
    }

    fn on_missed_cycle(&mut self, _cycle: Cycle) {
        for q in self.queries.values_mut() {
            if q.doomed.is_none() {
                q.doomed = Some(AbortReason::Disconnected);
            }
        }
    }

    fn begin_query(&mut self, q: QueryId, now: Cycle) {
        let prev = self.queries.insert(
            q,
            QState {
                verified: now,
                readset: BTreeSet::new(),
                doomed: None,
            },
        );
        assert!(prev.is_none(), "query ids must not be reused");
    }

    fn read_directive(&self, q: QueryId, _item: ItemId, now: Cycle) -> ReadDirective {
        match self.queries[&q].doomed {
            Some(reason) => ReadDirective::Doom(reason),
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
        let state = self.queries.get_mut(&q);
        let Some(state) = state else {
            return ReadOutcome::Rejected(AbortReason::VersionUnavailable);
        };
        if let Some(reason) = state.doomed {
            return ReadOutcome::Rejected(reason);
        }
        if !candidate.current_at(now) {
            state.doomed = Some(AbortReason::VersionUnavailable);
            return ReadOutcome::Rejected(AbortReason::VersionUnavailable);
        }
        state.readset.insert(item);
        ReadOutcome::Accepted
    }

    fn finish_query(&mut self, q: QueryId) {
        self.queries.remove(&q);
    }
}

/// A sense an [`ImpairedSgt`] lacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Impairment {
    /// It asks for no diff and hears each control without one, so its
    /// window never links the server's conflicts and it commits what the
    /// §3.3 test would abort.
    DiffBlind,
    /// It ignores `on_missed_cycle`, so a query reads on across a gap
    /// that plain SGT must abort it for (§5.2.2).
    MissDeaf,
}

/// SGT with one [`Impairment`] — a seeded bug that commits readsets no
/// serial execution explains.
#[derive(Debug)]
pub struct ImpairedSgt {
    inner: Box<dyn ReadOnlyProtocol>,
    impairment: Impairment,
}

impl ImpairedSgt {
    /// Plain SGT with `impairment`.
    pub fn new(impairment: Impairment) -> Self {
        ImpairedSgt {
            inner: Method::Sgt.build_protocol(),
            impairment,
        }
    }

    /// A factory of fresh instances, one per client.
    pub fn factory(impairment: Impairment) -> impl Fn() -> Box<dyn ReadOnlyProtocol> {
        move || Box::new(ImpairedSgt::new(impairment))
    }
}

impl ReadOnlyProtocol for ImpairedSgt {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cache_mode(&self) -> CacheMode {
        self.inner.cache_mode()
    }

    fn on_control(&mut self, ctrl: &ControlInfo) {
        if self.impairment == Impairment::DiffBlind {
            let blind = ControlInfo::new(
                ctrl.cycle(),
                ctrl.invalidation().clone(),
                ctrl.augmented().cloned(),
                None,
            );
            self.inner.on_control(&blind);
        } else {
            self.inner.on_control(ctrl);
        }
    }

    fn needs_graph_diff(&self, head: &ControlInfo) -> bool {
        self.impairment != Impairment::DiffBlind && self.inner.needs_graph_diff(head)
    }

    fn on_missed_cycle(&mut self, cycle: Cycle) {
        if self.impairment != Impairment::MissDeaf {
            self.inner.on_missed_cycle(cycle);
        }
    }

    fn begin_query(&mut self, q: QueryId, now: Cycle) {
        self.inner.begin_query(q, now);
    }

    fn read_directive(&self, q: QueryId, item: ItemId, now: Cycle) -> ReadDirective {
        self.inner.read_directive(q, item, now)
    }

    fn apply_read(
        &mut self,
        q: QueryId,
        item: ItemId,
        candidate: &ReadCandidate,
        now: Cycle,
    ) -> ReadOutcome {
        self.inner.apply_read(q, item, candidate, now)
    }

    fn finish_query(&mut self, q: QueryId) {
        self.inner.finish_query(q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpush_broadcast::InvalidationReport;
    use bpush_types::Granularity;

    fn ctrl(cycle: u64, stale: &[u32]) -> ControlInfo {
        let items: Vec<ItemId> = stale.iter().copied().map(ItemId::new).collect();
        let report = InvalidationReport::new(Cycle::new(cycle), 1, items, Granularity::Item, 1);
        ControlInfo::new(Cycle::new(cycle), report, None, None)
    }

    #[test]
    fn misses_updates_at_the_verified_boundary() {
        let mut p = BrokenInvalidation::new();
        let q = QueryId::new(0);
        p.on_control(&ctrl(0, &[]));
        p.begin_query(q, Cycle::ZERO);
        // Read x0 during cycle 0; verified state stays 0.
        let cand = ReadCandidate {
            value: bpush_types::ItemValue::initial(),
            last_writer_tag: None,
            valid_from: Cycle::ZERO,
            valid_until: None,
            source: bpush_core::Source::BroadcastCurrent,
        };
        assert_eq!(
            p.apply_read(q, ItemId::new(0), &cand, Cycle::ZERO),
            ReadOutcome::Accepted
        );
        // Cycle 1's control dates the update of x0 at cycle 0 — exactly
        // the query's verified state. The genuine comparison
        // `stale_at(x, verified)` sees it (0 >= 0) and dooms; the broken
        // `stale_at(x, verified.next())` does not (0 >= 1 fails), so the
        // query sails on with a stale readset.
        let report =
            InvalidationReport::new(Cycle::new(1), 1, [ItemId::new(0)], Granularity::Item, 1);
        assert!(
            report.stale_at(ItemId::new(0), Cycle::ZERO),
            "genuine check would doom"
        );
        p.on_control(&ctrl(1, &[0]));
        assert!(
            matches!(
                p.read_directive(q, ItemId::new(1), Cycle::new(1)),
                ReadDirective::Read(_)
            ),
            "the bug: the boundary update is invisible and the query survives"
        );
        let cand2 = ReadCandidate {
            value: bpush_types::ItemValue::written_by(bpush_types::TxnId::new(Cycle::ZERO, 0)),
            last_writer_tag: None,
            valid_from: Cycle::ZERO,
            valid_until: None,
            source: bpush_core::Source::BroadcastCurrent,
        };
        assert_eq!(
            p.apply_read(q, ItemId::new(1), &cand2, Cycle::new(1)),
            ReadOutcome::Accepted
        );
        p.finish_query(q);
    }

    #[test]
    fn missed_cycles_still_doom() {
        let mut p = BrokenInvalidation::new();
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::ZERO);
        p.on_missed_cycle(Cycle::new(1));
        assert!(matches!(
            p.read_directive(q, ItemId::new(0), Cycle::new(2)),
            ReadDirective::Doom(AbortReason::Disconnected)
        ));
    }
}
