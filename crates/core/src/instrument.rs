//! A transparent instrumentation decorator for protocols.
//!
//! [`Instrumented`] wraps any [`ReadOnlyProtocol`] and counts its
//! operations without changing behaviour — the decorator pattern the
//! trait is designed to support (and a worked example for downstream
//! implementors; the conformance battery accepts the wrapped protocol
//! iff it accepts the inner one). With [`Instrumented::with_obs`] the
//! decorator additionally streams typed events into a
//! [`bpush_obs::Obs`] sink, giving every protocol tracing for free, and
//! feeds the sink's attached monitors, if any, their typed calls.
//!
//! Transparency is load-bearing in two ways. First, all counters live
//! in [`Cell`]s so even `&self` calls ([`ReadOnlyProtocol::read_directive`])
//! are counted without changing the trait's receiver types. Second,
//! [`ReadOnlyProtocol::debug_snapshot`] delegates to the *inner*
//! protocol: the model checker hashes snapshots to deduplicate states,
//! and wrapping must not perturb those hashes (counters are
//! observations, not state).

use std::cell::Cell;

use bpush_broadcast::ControlInfo;
use bpush_obs::{Actor, EventKind, Monitors, Obs};
use bpush_types::{AbortReason, Cycle, ItemId, QueryId};

use crate::protocol::{CacheMode, ReadCandidate, ReadDirective, ReadOnlyProtocol, ReadOutcome};

/// Operation counters accumulated by [`Instrumented`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Control segments processed.
    pub controls: u64,
    /// Cycles missed.
    pub missed_cycles: u64,
    /// Queries begun.
    pub queries: u64,
    /// Read directives answered (both `Read` and `Doom`).
    pub directives: u64,
    /// Reads accepted.
    pub accepts: u64,
    /// Reads rejected.
    pub rejects: u64,
    /// Directives answered with `Doom`.
    pub dooms: u64,
    /// Queries finished (committed or aborted).
    pub finishes: u64,
    /// `rejects`, broken down by [`AbortReason::index`].
    pub rejects_by_reason: [u64; AbortReason::COUNT],
    /// `dooms`, broken down by [`AbortReason::index`].
    pub dooms_by_reason: [u64; AbortReason::COUNT],
}

impl ProtocolStats {
    /// Rejections attributed to `reason`.
    pub const fn rejects_for(&self, reason: AbortReason) -> u64 {
        self.rejects_by_reason[reason.index()]
    }

    /// Doomed directives attributed to `reason`.
    pub const fn dooms_for(&self, reason: AbortReason) -> u64 {
        self.dooms_by_reason[reason.index()]
    }

    /// Rejections plus dooms per reason — every way the protocol killed
    /// a read, attributed to its cause, in [`AbortReason::index`] order.
    pub fn aborts_by_reason(&self) -> [u64; AbortReason::COUNT] {
        let mut out = [0; AbortReason::COUNT];
        for (slot, (r, d)) in out.iter_mut().zip(
            self.rejects_by_reason
                .iter()
                .zip(self.dooms_by_reason.iter()),
        ) {
            *slot = r + d;
        }
        out
    }
}

/// Wraps a protocol, transparently counting its operations.
///
/// # Example
/// ```
/// use bpush_core::instrument::Instrumented;
/// use bpush_core::{Method, ReadOnlyProtocol};
/// use bpush_types::{Cycle, QueryId};
///
/// let mut p = Instrumented::new(Method::Sgt.build_protocol());
/// p.begin_query(QueryId::new(0), Cycle::ZERO);
/// p.finish_query(QueryId::new(0));
/// assert_eq!(p.stats().queries, 1);
/// assert_eq!(p.stats().finishes, 1);
/// assert_eq!(p.name(), "sgt");
/// ```
#[derive(Debug)]
pub struct Instrumented {
    inner: Box<dyn ReadOnlyProtocol>,
    stats: Cell<ProtocolStats>,
    obs: Obs,
    actor: Actor,
    last_cycle: Cell<Cycle>,
}

impl Instrumented {
    /// Wraps `inner` with counters only (no event sink).
    pub fn new(inner: Box<dyn ReadOnlyProtocol>) -> Self {
        Instrumented::with_obs(inner, Obs::off(), Actor::Client(0))
    }

    /// Wraps `inner`, counting operations and emitting events into
    /// `obs` attributed to `actor`.
    pub fn with_obs(inner: Box<dyn ReadOnlyProtocol>, obs: Obs, actor: Actor) -> Self {
        Instrumented {
            inner,
            stats: Cell::new(ProtocolStats::default()),
            obs,
            actor,
            last_cycle: Cell::new(Cycle::ZERO),
        }
    }

    /// The counters so far.
    pub fn stats(&self) -> ProtocolStats {
        self.stats.get()
    }

    /// Unwraps the inner protocol.
    pub fn into_inner(self) -> Box<dyn ReadOnlyProtocol> {
        self.inner
    }

    fn update<F: FnOnce(&mut ProtocolStats)>(&self, f: F) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    /// The attached monitors and this client's lane, when a client is
    /// monitored.
    fn lane(&self) -> Option<(&Monitors, u32)> {
        match (self.obs.monitors(), self.actor) {
            (Some(mon), Actor::Client(c)) => Some((mon, c)),
            _ => None,
        }
    }
}

impl ReadOnlyProtocol for Instrumented {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cache_mode(&self) -> CacheMode {
        self.inner.cache_mode()
    }

    fn on_control(&mut self, ctrl: &ControlInfo) {
        self.update(|s| s.controls += 1);
        self.last_cycle.set(ctrl.cycle());
        let before = self.inner.space_metrics();
        self.inner.on_control(ctrl);
        self.obs
            .emit(ctrl.cycle(), self.actor, EventKind::ControlProcessed);
        // Typed monitor feed: the control, whole, in one call.
        if let Some((mon, c)) = self.lane() {
            let report = ctrl.invalidation();
            mon.control(
                c,
                ctrl.cycle(),
                report.window(),
                report.dated_items(),
                ctrl.shared_graph_diff(),
                ctrl.augmented().map_or(&[], |aug| aug.entries()),
            );
        }
        // Surface prunes of the validation structure (SGT's graph) by
        // observing the node/edge counts shrink across the control step.
        if self.obs.is_enabled() {
            if let (Some((n0, e0)), Some((n1, e1))) = (before, self.inner.space_metrics()) {
                if n1 < n0 || e1 < e0 {
                    self.obs.emit(
                        ctrl.cycle(),
                        self.actor,
                        EventKind::GraphPruned {
                            nodes_freed: (n0.saturating_sub(n1)) as u64,
                            edges_freed: (e0.saturating_sub(e1)) as u64,
                        },
                    );
                }
            }
        }
    }

    /// With monitors attached every diff is read: their graph lane
    /// keeps its own window of each one. Otherwise the inner method
    /// decides.
    fn needs_graph_diff(&self, head: &ControlInfo) -> bool {
        self.obs.monitors().is_some() || self.inner.needs_graph_diff(head)
    }

    fn on_missed_cycle(&mut self, cycle: Cycle) {
        self.update(|s| s.missed_cycles += 1);
        self.last_cycle.set(cycle);
        self.inner.on_missed_cycle(cycle);
        self.obs.emit(cycle, self.actor, EventKind::MissedCycle);
        if let Some((mon, c)) = self.lane() {
            mon.missed(c, cycle);
        }
    }

    fn begin_query(&mut self, q: QueryId, now: Cycle) {
        self.update(|s| s.queries += 1);
        self.inner.begin_query(q, now);
        self.obs
            .emit(now, self.actor, EventKind::QueryBegun { query: q.number() });
        if let Some((mon, c)) = self.lane() {
            mon.begin(c, q.number(), now);
        }
    }

    fn read_directive(&self, q: QueryId, item: ItemId, now: Cycle) -> ReadDirective {
        let directive = self.inner.read_directive(q, item, now);
        self.update(|s| {
            s.directives += 1;
            if let ReadDirective::Doom(reason) = directive {
                s.dooms += 1;
                s.dooms_by_reason[reason.index()] += 1;
            }
        });
        if let ReadDirective::Doom(reason) = directive {
            self.obs
                .emit(now, self.actor, EventKind::ReadDoomed { reason });
        }
        directive
    }

    fn apply_read(
        &mut self,
        q: QueryId,
        item: ItemId,
        candidate: &ReadCandidate,
        now: Cycle,
    ) -> ReadOutcome {
        let outcome = self.inner.apply_read(q, item, candidate, now);
        self.update(|s| match outcome {
            ReadOutcome::Accepted => s.accepts += 1,
            ReadOutcome::Rejected(reason) => {
                s.rejects += 1;
                s.rejects_by_reason[reason.index()] += 1;
            }
        });
        match outcome {
            ReadOutcome::Accepted => {
                self.obs.emit(
                    now,
                    self.actor,
                    EventKind::ReadAccepted { item: item.index() },
                );
                if let Some((mon, c)) = self.lane() {
                    mon.read_meta(
                        c,
                        q.number(),
                        item,
                        now,
                        candidate.valid_from,
                        candidate.valid_until,
                        candidate
                            .last_writer_tag
                            .or_else(|| candidate.value.writer()),
                    );
                }
            }
            ReadOutcome::Rejected(reason) => self.obs.emit(
                now,
                self.actor,
                EventKind::ReadRejected {
                    item: item.index(),
                    reason,
                },
            ),
        }
        outcome
    }

    fn finish_query(&mut self, q: QueryId) {
        self.update(|s| s.finishes += 1);
        self.inner.finish_query(q);
    }

    fn space_metrics(&self) -> Option<(usize, usize)> {
        self.inner.space_metrics()
    }

    /// Delegates to the inner protocol. The decorator's counters are
    /// observations, not protocol state: the model checker hashes
    /// snapshots to deduplicate explored states, and an instrumented
    /// run must hash identically to a bare one.
    fn debug_snapshot(&self) -> String {
        self.inner.debug_snapshot()
    }

    fn protocol_stats(&self) -> Option<ProtocolStats> {
        Some(self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;
    use crate::protocol::Source;
    use crate::Method;
    use bpush_types::{ItemValue, TxnId};

    #[test]
    fn wrapped_protocols_still_conform() {
        for method in Method::ALL {
            let violations =
                conformance::check(&|| Box::new(Instrumented::new(method.build_protocol())));
            assert!(violations.is_empty(), "{method}: {violations:?}");
        }
    }

    #[test]
    fn counters_track_operations() {
        let mut p = Instrumented::new(Method::InvalidationOnly.build_protocol());
        p.on_control(&ControlInfo::empty(Cycle::ZERO));
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::ZERO);
        assert!(matches!(
            p.read_directive(q, ItemId::new(1), Cycle::ZERO),
            ReadDirective::Read(_)
        ));
        let good = ReadCandidate {
            value: ItemValue::initial(),
            last_writer_tag: None,
            valid_from: Cycle::ZERO,
            valid_until: None,
            source: Source::BroadcastCurrent,
        };
        assert_eq!(
            p.apply_read(q, ItemId::new(1), &good, Cycle::ZERO),
            ReadOutcome::Accepted
        );
        let bad = ReadCandidate {
            valid_from: Cycle::new(9),
            value: ItemValue::written_by(TxnId::new(Cycle::new(8), 0)),
            ..good
        };
        let reason = match p.apply_read(q, ItemId::new(2), &bad, Cycle::ZERO) {
            ReadOutcome::Rejected(reason) => reason,
            ReadOutcome::Accepted => panic!("stale candidate must be rejected"),
        };
        p.on_missed_cycle(Cycle::new(1));
        p.finish_query(q);
        let stats = p.stats();
        assert_eq!(stats.controls, 1);
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.directives, 1);
        assert_eq!(stats.accepts, 1);
        assert_eq!(stats.rejects, 1);
        assert_eq!(stats.rejects_for(reason), 1);
        assert_eq!(stats.rejects_by_reason.iter().sum::<u64>(), stats.rejects);
        assert_eq!(stats.missed_cycles, 1);
        assert_eq!(stats.finishes, 1);
        assert_eq!(stats.dooms, 0);
        assert_eq!(p.protocol_stats(), Some(stats));
        assert_eq!(p.into_inner().name(), "inv-only");
    }

    #[test]
    fn doomed_directives_are_counted_by_reason() {
        // After an invalidation hits its readset, inv-only dooms every
        // later directive of the same query.
        let mut p = Instrumented::new(Method::InvalidationOnly.build_protocol());
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::ZERO);
        let good = ReadCandidate {
            value: ItemValue::initial(),
            last_writer_tag: None,
            valid_from: Cycle::ZERO,
            valid_until: None,
            source: Source::BroadcastCurrent,
        };
        assert_eq!(
            p.apply_read(q, ItemId::new(1), &good, Cycle::ZERO),
            ReadOutcome::Accepted
        );
        let report = bpush_broadcast::InvalidationReport::new(
            Cycle::new(1),
            1,
            [ItemId::new(1)],
            bpush_types::Granularity::Item,
            1,
        );
        p.on_control(&ControlInfo::new(Cycle::new(1), report, None, None));
        assert!(matches!(
            p.read_directive(q, ItemId::new(2), Cycle::new(1)),
            ReadDirective::Doom(AbortReason::Invalidated)
        ));
        let stats = p.stats();
        assert_eq!(stats.directives, 1);
        assert_eq!(stats.dooms, 1);
        assert_eq!(stats.dooms_for(AbortReason::Invalidated), 1);
        assert_eq!(
            stats.aborts_by_reason()[AbortReason::Invalidated.index()],
            1
        );
    }

    #[test]
    fn emits_events_into_the_sink() {
        let obs = Obs::recording(256);
        let mut p = Instrumented::with_obs(
            Method::InvalidationOnly.build_protocol(),
            obs.clone(),
            Actor::Client(3),
        );
        p.on_control(&ControlInfo::empty(Cycle::ZERO));
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::ZERO);
        let good = ReadCandidate {
            value: ItemValue::initial(),
            last_writer_tag: None,
            valid_from: Cycle::ZERO,
            valid_until: None,
            source: Source::BroadcastCurrent,
        };
        p.read_directive(q, ItemId::new(1), Cycle::ZERO);
        p.apply_read(q, ItemId::new(1), &good, Cycle::ZERO);
        p.finish_query(q);
        let snap = obs.snapshot().expect("recording");
        assert_eq!(snap.counter("control.processed"), 1);
        assert_eq!(snap.counter("queries.begun"), 1);
        assert_eq!(snap.counter("reads.accepted"), 1);
        assert!(snap.events.iter().all(|e| e.actor == Actor::Client(3)));
    }

    #[test]
    fn monitors_ride_the_obs_handle_and_genuine_runs_pass() {
        use bpush_obs::MonitorConfig;
        for method in [Method::InvalidationOnly, Method::Sgt] {
            let (policy, coverage) = method.monitor_policy();
            let monitors = Monitors::new(MonitorConfig::new(1, policy, coverage));
            let obs = Obs::off().with_monitors(monitors.clone());
            assert!(!obs.is_enabled(), "monitors alone do not enable the sink");
            let mut p =
                Instrumented::with_obs(method.build_protocol(), obs.clone(), Actor::Client(0));
            let q = QueryId::new(0);
            p.on_control(&ControlInfo::empty(Cycle::ZERO));
            p.begin_query(q, Cycle::ZERO);
            let good = ReadCandidate {
                value: ItemValue::initial(),
                last_writer_tag: None,
                valid_from: Cycle::ZERO,
                valid_until: None,
                source: Source::BroadcastCurrent,
            };
            assert_eq!(
                p.apply_read(q, ItemId::new(1), &good, Cycle::ZERO),
                ReadOutcome::Accepted
            );
            // an unrelated invalidation must not trip the monitor
            let report = bpush_broadcast::InvalidationReport::new(
                Cycle::new(1),
                1,
                [ItemId::new(9)],
                bpush_types::Granularity::Item,
                1,
            );
            p.on_control(&ControlInfo::new(Cycle::new(1), report, None, None));
            monitors.finish(0, 0, Cycle::new(1), None);
            p.finish_query(q);
            let v = monitors.verdict();
            assert!(v.pass(), "{method}: {}", v.render());
            assert_eq!(v.controls, 2, "{method}");
            assert_eq!(v.checks, 1, "{method}: the report reached the lane whole");
            assert_eq!(v.commits, 1, "{method}");
        }
    }

    #[test]
    fn monitors_catch_a_read_accepted_past_an_invalidation() {
        use bpush_obs::{MonitorConfig, MonitorPolicy};
        // Drive the monitor the way a *broken* inv-only would behave:
        // accept a read after a report entry hit the readset.
        let (policy, coverage) = Method::InvalidationOnly.monitor_policy();
        assert_eq!(policy, MonitorPolicy::Current);
        let monitors = Monitors::new(MonitorConfig::new(1, policy, coverage));
        monitors.begin(0, 0, Cycle::ZERO);
        monitors.read_meta(0, 0, ItemId::new(1), Cycle::ZERO, Cycle::ZERO, None, None);
        monitors.control(
            0,
            Cycle::new(1),
            1,
            &[(ItemId::new(1), Cycle::ZERO)],
            None,
            &[],
        );
        // a genuine protocol would doom; the broken one reads on
        monitors.read_meta(0, 0, ItemId::new(2), Cycle::new(1), Cycle::ZERO, None, None);
        let v = monitors.verdict();
        assert!(!v.pass());
        assert_eq!(v.violations[0].item, 1);
    }

    #[test]
    fn instrumentation_does_not_perturb_snapshots() {
        for method in Method::ALL {
            let mut plain = method.build_protocol();
            let mut wrapped = Instrumented::new(method.build_protocol());
            let q = QueryId::new(0);
            for p in [&mut *plain, &mut wrapped as &mut dyn ReadOnlyProtocol] {
                p.on_control(&ControlInfo::empty(Cycle::ZERO));
                p.begin_query(q, Cycle::ZERO);
            }
            assert_eq!(
                plain.debug_snapshot(),
                wrapped.debug_snapshot(),
                "{method}: wrapping must not change the hashed state"
            );
        }
    }

    /// Which graph diffs are read: every one while monitors are attached
    /// (their graph lane keeps each), else what the inner method asks
    /// for — an SGT client without queries asks for none.
    #[test]
    fn monitors_read_every_graph_diff() {
        use bpush_broadcast::{AugmentedReport, InvalidationReport};
        use bpush_obs::MonitorConfig;
        let cycle = Cycle::new(4);
        let head = ControlInfo::new(
            cycle,
            InvalidationReport::empty(cycle),
            Some(AugmentedReport::new(cycle.prev(), [])),
            None,
        );
        let (policy, coverage) = Method::Sgt.monitor_policy();
        let monitored =
            Obs::off().with_monitors(Monitors::new(MonitorConfig::new(1, policy, coverage)));
        for (obs, reads) in [(Obs::off(), false), (monitored, true)] {
            let p = Instrumented::with_obs(Method::Sgt.build_protocol(), obs, Actor::Client(0));
            assert_eq!(p.needs_graph_diff(&head), reads);
        }
    }

    #[test]
    fn delegates_cache_mode() {
        let p = Instrumented::new(Method::MultiversionCaching.build_protocol());
        assert_eq!(p.cache_mode(), CacheMode::Multiversion);
    }
}
