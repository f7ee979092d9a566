//! Serialization-graph testing at the client (§3.3).

use std::collections::BTreeMap;

use bpush_broadcast::ControlInfo;
use bpush_sgraph::Window;
use bpush_types::{Cycle, ItemId, QueryId, TxnId};

use crate::protocol::{
    AbortReason, CacheMode, ReadCandidate, ReadConstraint, ReadDirective, ReadOnlyProtocol,
    ReadOutcome,
};
use crate::readset::ReadSet;

/// Configuration of the SGT method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SgtConfig {
    /// Use the client cache for reads (the "SGT with caching" curve of
    /// Figure 5; cached entries carry the last-writer tag, §4.1).
    pub use_cache: bool,
    /// The §5.2.2 disconnection enhancement: items carry version numbers,
    /// and after a gap a query only accepts reads of values written
    /// before the gap — which provably keeps cycle detection complete
    /// without the missed control information.
    pub versioned_items: bool,
}

#[derive(Debug)]
struct SgtState {
    readset: ReadSet,
    /// `c_o`: commit cycle of the first transaction that overwrote an
    /// item this query read; pruning keeps subgraphs from here on.
    c_o: Option<Cycle>,
    /// With `versioned_items`, the version bound imposed by gaps: reads
    /// of values with a larger version cannot be certified.
    version_bound: Option<Cycle>,
    doomed: Option<AbortReason>,
}

/// The serialization-graph testing method (§3.3).
///
/// The client maintains a local copy of the server's conflict
/// serialization graph, restricted to recent cycles (Lemma 1), extended
/// with its own active queries. At each cycle it adds a precedence edge
/// `R → T_f(x)` for every readset item `x` that the augmented
/// invalidation report names (Claim 2: one edge to the *first* writer
/// suffices) and keeps the broadcast graph difference as it is — the
/// diff is the in-edge list of its cycle's commits — in a
/// [`Window`] that moves with the oldest `c_o`. A read of a value last
/// written by `T_l` is accepted iff the dependency edge `T_l → R` closes
/// no cycle (Claim 3: one edge from the *last* writer suffices), which
/// the window answers by searching backward from `T_l`; nothing is
/// linked per heard edge.
///
/// Committed queries observe a database state produced by a serializable
/// execution of a *subset* of the transactions committed during their
/// lifetime — between the invalidation-only method's most-current view
/// and the multiversion method's oldest view (Table 1).
#[derive(Debug)]
pub struct Sgt {
    config: SgtConfig,
    graph: Window,
    queries: BTreeMap<QueryId, SgtState>,
    last_heard: Option<Cycle>,
}

impl Sgt {
    /// Creates the method with the given configuration.
    pub fn new(config: SgtConfig) -> Self {
        Sgt {
            config,
            graph: Window::new(),
            queries: BTreeMap::new(),
            last_heard: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> SgtConfig {
        self.config
    }

    /// Size of the locally retained graph (nodes, edges) — the space
    /// overhead Table 1 calls "considerable".
    pub fn graph_size(&self) -> (usize, usize) {
        (self.graph.node_count(), self.graph.edge_count())
    }

    /// Adds a precedence edge `R → T_f` for every readset item the
    /// augmented report names, to the first writer it names, and lowers
    /// the query's `c_o` to that writer's cycle. Only items in the
    /// augmented report represent *new* information (re-reports in
    /// windowed invalidation lists have no first-writer entry and were
    /// processed when first announced).
    fn match_report(&mut self, ctrl: &ControlInfo) {
        for (q, qs) in self.queries.iter_mut() {
            if qs.doomed.is_some() {
                continue;
            }
            match first_writers(ctrl, &qs.readset) {
                Ok(writers) => {
                    for t_f in writers {
                        self.graph.add_precedence(*q, t_f);
                        let co = qs.c_o.get_or_insert(t_f.cycle());
                        *co = (*co).min(t_f.cycle());
                    }
                }
                Err(reason) => qs.doomed = Some(reason),
            }
        }
    }

    /// Hears `ctrl` and returns whether its graph diff was kept.
    fn hear(&mut self, ctrl: &ControlInfo) -> bool {
        // 1. Precedence edges and `c_o` from the report. Matching asks no
        //    path question and only adds query nodes' out-edges, which
        //    step 2 never touches, so it can run first — and must: it
        //    lowers the `c_o` that starts the window.
        self.match_report(ctrl);
        self.last_heard = Some(ctrl.cycle());
        // 2. Move the Lemma-1 window and keep the server graph difference
        //    (commits of cycle n−1) as its newest chunk: what fell out of
        //    the window is retired — chunks of older cycles, the last
        //    writers `T_l` accepted reads named — and the chunks it keeps
        //    have their floors raised.
        self.graph
            .advance(self.window_start(), ctrl.shared_graph_diff())
    }

    /// The first commit cycle Lemma 1 keeps: the earliest `c_o` of any
    /// live query, else the last cycle heard — with no invalidated query
    /// no precedence edge `R → T_f` exists, so no cycle through a query is
    /// possible yet and future ones only need subgraphs from the (future)
    /// first-invalidation cycle onward, even though queries may still hold
    /// dependency edges `T_l → R`. `None` when no query is active:
    /// nothing is kept at all.
    fn window_start(&self) -> Option<Cycle> {
        if self.queries.is_empty() {
            return None;
        }
        let min_co = self
            .queries
            .values()
            .filter(|q| q.doomed.is_none())
            .filter_map(|q| q.c_o)
            .min();
        Some(min_co.or(self.last_heard).unwrap_or(Cycle::ZERO))
    }
}

/// How `ctrl`'s report meets one live query's readset — the one rule
/// [`Sgt::match_report`] applies and [`Sgt::needs_graph_diff`] predicts
/// with: the first writers `T_f` the augmented report names for readset
/// items, or, when the server is not broadcasting SGT information, the
/// abort of a query whose readset the report invalidates (without
/// first-writer data an invalidated query cannot be certified).
fn first_writers<'a>(
    ctrl: &'a ControlInfo,
    readset: &'a ReadSet,
) -> Result<impl Iterator<Item = TxnId> + 'a, AbortReason> {
    let aug = ctrl.augmented();
    if aug.is_none() && ctrl.invalidation().any_invalidated(readset.as_slice()) {
        return Err(AbortReason::Invalidated);
    }
    Ok(aug
        .into_iter()
        .flat_map(|aug| aug.matches_in(readset.as_slice()))
        .map(|(_, t_f)| t_f))
}

impl ReadOnlyProtocol for Sgt {
    fn name(&self) -> &'static str {
        if self.config.use_cache {
            "sgt+cache"
        } else {
            "sgt"
        }
    }

    fn cache_mode(&self) -> CacheMode {
        if self.config.use_cache {
            CacheMode::Plain
        } else {
            CacheMode::None
        }
    }

    fn on_control(&mut self, ctrl: &ControlInfo) {
        let predicted = cfg!(debug_assertions) && self.needs_graph_diff(ctrl);
        let kept = self.hear(ctrl);
        debug_assert!(
            predicted || !kept,
            "the window kept a graph diff needs_graph_diff would have left unread"
        );
    }

    /// Lemma 1 from the head alone: the window keeps the diff, of cycle
    /// `n−1`, iff it starts at or before `n−1` after this report's
    /// matches — iff some live query's `c_o`, lowered by the first
    /// writers the report names for it, is at or before `n−1`
    /// (`window_start` otherwise starts at `n`, or keeps nothing).
    /// A diff without an augmented report is not what an SGT server airs
    /// (it airs both or neither), so such a diff is always read.
    fn needs_graph_diff(&self, head: &ControlInfo) -> bool {
        let (Some(_), Some(diff_cycle)) = (head.augmented(), head.cycle().checked_sub(1)) else {
            return true;
        };
        self.queries
            .values()
            .filter(|qs| qs.doomed.is_none())
            .any(|qs| {
                first_writers(head, &qs.readset).is_ok_and(|mut writers| {
                    qs.c_o.is_some_and(|co| co <= diff_cycle)
                        || writers.any(|t_f| t_f.cycle() <= diff_cycle)
                })
            })
    }

    fn on_missed_cycle(&mut self, cycle: Cycle) {
        for qs in self.queries.values_mut() {
            if qs.doomed.is_some() {
                continue;
            }
            if self.config.versioned_items {
                // Sound recovery: restrict future reads to values written
                // before the gap. Values with version <= last_heard were
                // fully covered by control information already processed.
                let bound = self.last_heard.unwrap_or(Cycle::ZERO);
                let vb = qs.version_bound.get_or_insert(bound);
                *vb = (*vb).min(bound);
            } else {
                qs.doomed = Some(AbortReason::Disconnected);
            }
        }
        let _ = cycle;
    }

    fn begin_query(&mut self, q: QueryId, _now: Cycle) {
        let prev = self.queries.insert(
            q,
            SgtState {
                readset: ReadSet::new(),
                c_o: None,
                version_bound: None,
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
        ReadDirective::Read(ReadConstraint {
            state: now,
            cache_only: false,
        })
    }

    fn apply_read(
        &mut self,
        q: QueryId,
        item: ItemId,
        candidate: &ReadCandidate,
        _now: Cycle,
    ) -> ReadOutcome {
        // lint: allow(panic) — protocol contract: reads only arrive for begun queries
        let qs = self.queries.get_mut(&q).expect("unknown query");
        if let Some(reason) = qs.doomed {
            return ReadOutcome::Rejected(reason);
        }
        if !candidate.current_at(_now) {
            // SGT reads current values only (§3.3); a non-current
            // candidate is an executor bug, not a protocol decision.
            let reason = AbortReason::VersionUnavailable;
            qs.doomed = Some(reason);
            return ReadOutcome::Rejected(reason);
        }
        if let Some(bound) = qs.version_bound {
            if candidate.value.version() > bound {
                let reason = AbortReason::Disconnected;
                qs.doomed = Some(reason);
                return ReadOutcome::Rejected(reason);
            }
        }
        // The dependency edge comes from the transmitted last-writer tag.
        let t_l = candidate
            .last_writer_tag
            .or_else(|| candidate.value.writer());
        match t_l {
            None => {
                // Initial-load value: no writer, no edge, always safe.
                qs.readset.insert(item);
                ReadOutcome::Accepted
            }
            Some(t_l) => {
                if self.graph.would_close_cycle(t_l, q) {
                    let reason = AbortReason::CycleDetected;
                    qs.doomed = Some(reason);
                    ReadOutcome::Rejected(reason)
                } else {
                    self.graph.add_dependency(t_l, q);
                    qs.readset.insert(item);
                    ReadOutcome::Accepted
                }
            }
        }
    }

    fn finish_query(&mut self, q: QueryId) {
        self.queries.remove(&q);
        self.graph.remove_query(q);
        self.graph.advance(self.window_start(), None);
    }

    fn space_metrics(&self) -> Option<(usize, usize)> {
        Some(self.graph_size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Source;
    use bpush_broadcast::{AugmentedReport, InvalidationReport};
    use bpush_sgraph::GraphDiff;
    use bpush_types::{Granularity, ItemValue, TxnId};

    fn txn(cycle: u64, seq: u32) -> TxnId {
        TxnId::new(Cycle::new(cycle), seq)
    }

    fn candidate_from(writer: Option<TxnId>) -> ReadCandidate {
        let value = match writer {
            Some(t) => ItemValue::written_by(t),
            None => ItemValue::initial(),
        };
        ReadCandidate {
            value,
            last_writer_tag: writer,
            valid_from: value.version(),
            valid_until: None,
            source: Source::BroadcastCurrent,
        }
    }

    /// Control info for cycle `n`: invalidations with first writers, plus
    /// a graph diff of the previous cycle's commits.
    fn ctrl(
        n: u64,
        invalidated: &[(u32, TxnId)],
        committed: &[TxnId],
        edges: &[(TxnId, TxnId)],
    ) -> ControlInfo {
        let cycle = Cycle::new(n);
        let prev = cycle.prev();
        ControlInfo::new(
            cycle,
            InvalidationReport::new(
                cycle,
                1,
                invalidated.iter().map(|&(i, _)| ItemId::new(i)),
                Granularity::Item,
                1,
            ),
            Some(AugmentedReport::new(
                prev,
                invalidated.iter().map(|&(i, t)| (ItemId::new(i), t)),
            )),
            Some(GraphDiff::new(prev, committed.to_vec(), edges.to_vec())),
        )
    }

    #[test]
    fn paper_figure3_cycle_is_detected() {
        // R reads x at cycle 1 (written by T0.0). During cycle 1, T1.0
        // overwrites x. During cycle 2, T2.0 reads something T1.0 wrote
        // (conflict edge T1.0 -> T2.0) and writes y. At cycle 3, R tries
        // to read y (written by T2.0): cycle R -> T1.0 -> T2.0 -> R.
        let mut p = Sgt::new(SgtConfig::default());
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(1));
        assert_eq!(
            p.apply_read(
                q,
                ItemId::new(7),
                &candidate_from(Some(txn(0, 0))),
                Cycle::new(1)
            ),
            ReadOutcome::Accepted
        );
        // cycle 2's control: x (item 7) invalidated, first writer T1.0
        p.on_control(&ctrl(2, &[(7, txn(1, 0))], &[txn(1, 0)], &[]));
        // cycle 3's control: T2.0 committed, conflicting with T1.0
        p.on_control(&ctrl(3, &[], &[txn(2, 0)], &[(txn(1, 0), txn(2, 0))]));
        // reading y from T2.0 must now be rejected
        assert_eq!(
            p.apply_read(
                q,
                ItemId::new(9),
                &candidate_from(Some(txn(2, 0))),
                Cycle::new(3)
            ),
            ReadOutcome::Rejected(AbortReason::CycleDetected)
        );
        assert_eq!(
            p.read_directive(q, ItemId::new(9), Cycle::new(3)),
            ReadDirective::Doom(AbortReason::CycleDetected)
        );
    }

    #[test]
    fn invalidation_without_dependent_read_commits() {
        // Unlike invalidation-only, an overwrite alone never dooms the
        // query — only a cycle does.
        let mut p = Sgt::new(SgtConfig::default());
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(1));
        p.apply_read(
            q,
            ItemId::new(7),
            &candidate_from(Some(txn(0, 0))),
            Cycle::new(1),
        );
        p.on_control(&ctrl(2, &[(7, txn(1, 0))], &[txn(1, 0)], &[]));
        // reading an item whose writer is unrelated to T1.0 is fine
        assert_eq!(
            p.apply_read(
                q,
                ItemId::new(8),
                &candidate_from(Some(txn(0, 1))),
                Cycle::new(2)
            ),
            ReadOutcome::Accepted
        );
        // reading an initial-load value is always fine
        assert_eq!(
            p.apply_read(q, ItemId::new(9), &candidate_from(None), Cycle::new(2)),
            ReadOutcome::Accepted
        );
    }

    #[test]
    fn direct_read_from_overwriter_is_rejected() {
        // R -> T_f and then a read from T_f itself: cycle of length 2.
        let mut p = Sgt::new(SgtConfig::default());
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(1));
        p.apply_read(
            q,
            ItemId::new(7),
            &candidate_from(Some(txn(0, 0))),
            Cycle::new(1),
        );
        p.on_control(&ctrl(2, &[(7, txn(1, 0))], &[txn(1, 0)], &[]));
        assert_eq!(
            p.apply_read(
                q,
                ItemId::new(8),
                &candidate_from(Some(txn(1, 0))),
                Cycle::new(2)
            ),
            ReadOutcome::Rejected(AbortReason::CycleDetected)
        );
    }

    #[test]
    fn pruning_clears_graph_when_no_invalidation() {
        let mut p = Sgt::new(SgtConfig::default());
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(1));
        p.apply_read(
            q,
            ItemId::new(7),
            &candidate_from(Some(txn(0, 0))),
            Cycle::new(1),
        );
        // lots of unrelated server activity
        for n in 2..10 {
            p.on_control(&ctrl(
                n,
                &[],
                &[txn(n - 1, 0), txn(n - 1, 1)],
                &[(txn(n - 1, 0), txn(n - 1, 1))],
            ));
        }
        let (nodes, _) = p.graph_size();
        // only the most recent cycle's subgraph plus query/edge endpoints
        // may survive; far fewer than the 16 committed transactions
        assert!(
            nodes <= 6,
            "pruning must bound the graph, got {nodes} nodes"
        );
    }

    #[test]
    fn pruning_keeps_window_from_first_invalidation() {
        let mut p = Sgt::new(SgtConfig::default());
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(1));
        p.apply_read(
            q,
            ItemId::new(7),
            &candidate_from(Some(txn(0, 0))),
            Cycle::new(1),
        );
        p.on_control(&ctrl(2, &[(7, txn(1, 0))], &[txn(1, 0)], &[]));
        for n in 3..8 {
            p.on_control(&ctrl(
                n,
                &[],
                &[txn(n - 1, 0)],
                &[(txn(n - 2, 0), txn(n - 1, 0))],
            ));
        }
        // the chain from T1.0 (cycle c_o = 1) must be fully retained:
        // reading from the end of the chain must still detect the cycle
        assert_eq!(
            p.apply_read(
                q,
                ItemId::new(9),
                &candidate_from(Some(txn(6, 0))),
                Cycle::new(7)
            ),
            ReadOutcome::Rejected(AbortReason::CycleDetected)
        );
    }

    #[test]
    fn gap_dooms_unversioned_queries() {
        let mut p = Sgt::new(SgtConfig::default());
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(1));
        p.apply_read(
            q,
            ItemId::new(7),
            &candidate_from(Some(txn(0, 0))),
            Cycle::new(1),
        );
        p.on_missed_cycle(Cycle::new(2));
        assert_eq!(
            p.read_directive(q, ItemId::new(8), Cycle::new(3)),
            ReadDirective::Doom(AbortReason::Disconnected)
        );
    }

    #[test]
    fn versioned_items_survive_gaps_with_old_reads() {
        let mut p = Sgt::new(SgtConfig {
            versioned_items: true,
            ..SgtConfig::default()
        });
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(1));
        p.on_control(&ctrl(1, &[], &[txn(0, 0)], &[]));
        p.apply_read(
            q,
            ItemId::new(7),
            &candidate_from(Some(txn(0, 0))),
            Cycle::new(1),
        );
        p.on_missed_cycle(Cycle::new(2));
        p.on_control(&ctrl(3, &[], &[txn(2, 0)], &[]));
        // a value written before the gap (version <= 1) is accepted
        assert_eq!(
            p.apply_read(
                q,
                ItemId::new(8),
                &candidate_from(Some(txn(0, 1))),
                Cycle::new(3)
            ),
            ReadOutcome::Accepted
        );
        // a value written during/after the gap is not certifiable
        assert_eq!(
            p.apply_read(
                q,
                ItemId::new(9),
                &candidate_from(Some(txn(2, 0))),
                Cycle::new(3)
            ),
            ReadOutcome::Rejected(AbortReason::Disconnected)
        );
    }

    #[test]
    fn missing_server_sgt_info_falls_back_to_invalidation() {
        let mut p = Sgt::new(SgtConfig::default());
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(1));
        assert_eq!(
            p.apply_read(
                q,
                ItemId::new(7),
                &candidate_from(Some(txn(0, 0))),
                Cycle::new(1)
            ),
            ReadOutcome::Accepted
        );
        // a bare invalidation report without augmented info
        let bare = ControlInfo::new(
            Cycle::new(2),
            InvalidationReport::new(Cycle::new(2), 1, [ItemId::new(7)], Granularity::Item, 1),
            None,
            None,
        );
        p.on_control(&bare);
        assert_eq!(
            p.read_directive(q, ItemId::new(8), Cycle::new(2)),
            ReadDirective::Doom(AbortReason::Invalidated)
        );
    }

    #[test]
    fn names_and_cache_modes() {
        assert_eq!(Sgt::new(SgtConfig::default()).name(), "sgt");
        assert_eq!(Sgt::new(SgtConfig::default()).cache_mode(), CacheMode::None);
        let cached = Sgt::new(SgtConfig {
            use_cache: true,
            ..Default::default()
        });
        assert_eq!(cached.name(), "sgt+cache");
        assert_eq!(cached.cache_mode(), CacheMode::Plain);
        assert!(cached.config().use_cache);
    }

    #[test]
    fn finish_query_removes_graph_node() {
        let mut p = Sgt::new(SgtConfig::default());
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(1));
        p.apply_read(
            q,
            ItemId::new(7),
            &candidate_from(Some(txn(0, 0))),
            Cycle::new(1),
        );
        p.finish_query(q);
        assert_eq!(p.graph_size().0, 0, "graph fully pruned after last query");
    }

    #[test]
    fn no_active_query_means_no_graph_at_all() {
        // Lemma 1: "no space or processing overhead" for an idle client.
        let mut p = Sgt::new(SgtConfig::default());
        for n in 1..6 {
            p.on_control(&ctrl(
                n,
                &[(7, txn(n - 1, 0))],
                &[txn(n - 1, 0), txn(n - 1, 1)],
                &[(txn(n - 1, 0), txn(n - 1, 1))],
            ));
            assert_eq!(p.graph_size(), (0, 0), "cycle {n}");
        }
    }

    #[test]
    fn uninvalidated_queries_keep_the_graph_at_their_own_nodes() {
        let mut p = Sgt::new(SgtConfig::default());
        for q in 0..2 {
            p.begin_query(QueryId::new(q), Cycle::new(1));
            p.apply_read(
                QueryId::new(q),
                ItemId::new(7),
                &candidate_from(Some(txn(0, 0))),
                Cycle::new(1),
            );
        }
        // two query nodes, the writer they read from, a dependency edge each
        assert_eq!(p.graph_size(), (3, 2));
        // the first report retires the writer (cycle 0 < last heard); from
        // then on nothing the server commits reaches the graph
        for n in 2..8 {
            p.on_control(&ctrl(
                n,
                &[(9, txn(n - 1, 0))],
                &[txn(n - 1, 0), txn(n - 1, 1)],
                &[
                    (txn(n - 2, 0), txn(n - 1, 0)),
                    (txn(n - 1, 0), txn(n - 1, 1)),
                ],
            ));
            assert_eq!(p.graph_size(), (2, 0), "cycle {n}");
        }
    }

    /// `needs_graph_diff` answers exactly whether the window keeps the
    /// diff, at every control of a real SGT server's stream heard
    /// struct-fed: with no query, with live queries before and after
    /// their first invalidation (no `c_o`, then one), and with queries
    /// doomed by a missed cycle or a detected cycle but not yet ended.
    #[test]
    fn needs_graph_diff_predicts_what_the_window_keeps() {
        use bpush_server::{BroadcastServer, ServerOptions};
        use bpush_types::ServerConfig;
        let config = ServerConfig {
            broadcast_size: 40,
            update_range: 20,
            server_read_range: 40,
            updates_per_cycle: 5,
            txns_per_cycle: 5,
            offset: 0,
            ..ServerConfig::default()
        };
        let mut server = BroadcastServer::new(config, ServerOptions::sgt(), 9).unwrap();
        let mut p = Sgt::new(SgtConfig::default());
        let mut active: Vec<(QueryId, u64)> = Vec::new();
        let mut next = 0;
        let mut answers = [0usize; 2];
        let mut doomed_at_control = 0;
        for n in 0u32..90 {
            let bcast = server.run_cycle();
            let now = bcast.cycle();
            if n % 13 == 7 {
                p.on_missed_cycle(now);
                continue;
            }
            let ctrl = bcast.control();
            // the decoder asks only of a control that carries a diff; the
            // server's first one carries neither SGT report
            assert_eq!(ctrl.augmented().is_some(), n > 0);
            if ctrl.graph_diff().is_none() {
                p.hear(ctrl);
            } else {
                doomed_at_control += p.queries.values().filter(|q| q.doomed.is_some()).count();
                let predicted = p.needs_graph_diff(ctrl);
                assert_eq!(predicted, p.hear(ctrl), "cycle {now}");
                answers[usize::from(predicted)] += 1;
            }
            // a query begins every third cycle (none for a stretch, so the
            // client idles); doomed queries end every fourth cycle, live
            // ones after six reads, each reading one item a cycle
            if n % 3 == 0 && !(40..50).contains(&n) {
                p.begin_query(QueryId::new(next), now);
                active.push((QueryId::new(next), 0));
                next += 1;
            }
            let mut ended = Vec::new();
            for (q, reads) in &mut active {
                let item = ItemId::new(u32::try_from((q.number() * 7 + *reads * 3) % 40).unwrap());
                match p.read_directive(*q, item, now) {
                    ReadDirective::Doom(_) => {
                        if n % 4 == 0 {
                            ended.push(*q);
                        }
                    }
                    ReadDirective::Read(_) => {
                        let candidate = ReadCandidate::from_broadcast(bcast.current(item).unwrap());
                        *reads += 1;
                        let rejected =
                            p.apply_read(*q, item, &candidate, now) != ReadOutcome::Accepted;
                        if *reads >= 6 && !rejected {
                            ended.push(*q);
                        }
                    }
                }
            }
            for q in ended {
                p.finish_query(q);
                active.retain(|(a, _)| *a != q);
            }
        }
        assert!(
            answers[0] > 0 && answers[1] > 0,
            "both answers: {answers:?}"
        );
        assert!(doomed_at_control > 0, "doomed queries heard controls");
    }

    /// The SGT client as it was before its graph became a [`Window`]:
    /// the same protocol over a linked graph that interns the part of
    /// each diff inside the window and keeps query nodes — the
    /// `SerializationGraph` of the time, observationally: a sorted map of
    /// successor lists in insertion order, which is also the text it
    /// printed. The struct is named `Sgt` with the same fields, so its
    /// `Debug` is the snapshot the real one must reproduce.
    mod reference {
        use super::super::SgtState;
        use super::*;
        use bpush_sgraph::Node;
        use std::fmt;

        #[derive(Default)]
        pub(super) struct LinkedGraph(BTreeMap<Node, Vec<Node>>);

        impl fmt::Debug for LinkedGraph {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(&self.0, f)
            }
        }

        impl LinkedGraph {
            pub(super) fn size(&self) -> (usize, usize) {
                (self.0.len(), self.0.values().map(Vec::len).sum())
            }

            fn add_edge(&mut self, from: Node, to: Node) {
                self.0.entry(to).or_default();
                let succ = self.0.entry(from).or_default();
                if !succ.contains(&to) {
                    succ.push(to);
                }
            }

            fn unlink(&mut self, gone: impl Fn(&Node) -> bool) {
                self.0.retain(|n, _| !gone(n));
                for succ in self.0.values_mut() {
                    succ.retain(|n| !gone(n));
                }
            }

            fn path_exists(&self, from: Node, to: Node) -> bool {
                if !self.0.contains_key(&from) || !self.0.contains_key(&to) {
                    return false;
                }
                let mut seen = std::collections::BTreeSet::new();
                let mut stack = self.0[&from].clone();
                while let Some(n) = stack.pop() {
                    if n == to {
                        return true;
                    }
                    if seen.insert(n) {
                        stack.extend_from_slice(&self.0[&n]);
                    }
                }
                false
            }

            /// Drops what lies before `start`, then interns the part of
            /// `diff` inside the window; `None` empties the graph.
            fn advance(&mut self, start: Option<Cycle>, diff: Option<&GraphDiff>) {
                let Some(start) = start else {
                    self.0.clear();
                    return;
                };
                self.unlink(|n| n.as_txn().is_some_and(|t| t.cycle() < start));
                let Some(diff) = diff else { return };
                for &t in diff.committed().iter().filter(|t| t.cycle() >= start) {
                    self.0.entry(Node::Txn(t)).or_default();
                }
                for &(from, to) in diff.edges() {
                    for t in [from, to].into_iter().filter(|t| t.cycle() >= start) {
                        self.0.entry(Node::Txn(t)).or_default();
                    }
                    if from.cycle() >= start && to.cycle() >= start {
                        self.add_edge(Node::Txn(from), Node::Txn(to));
                    }
                }
            }
        }

        #[derive(Debug)]
        pub(super) struct Sgt {
            config: SgtConfig,
            pub(super) graph: LinkedGraph,
            queries: BTreeMap<QueryId, SgtState>,
            last_heard: Option<Cycle>,
        }

        impl Sgt {
            pub(super) fn new(config: SgtConfig) -> Self {
                Sgt {
                    config,
                    graph: LinkedGraph::default(),
                    queries: BTreeMap::new(),
                    last_heard: None,
                }
            }

            fn window_start(&self) -> Option<Cycle> {
                if self.queries.is_empty() {
                    return None;
                }
                let live = self.queries.values().filter(|q| q.doomed.is_none());
                let min_co = live.filter_map(|q| q.c_o).min();
                Some(min_co.or(self.last_heard).unwrap_or(Cycle::ZERO))
            }

            pub(super) fn on_control(&mut self, ctrl: &ControlInfo) {
                if let Some(aug) = ctrl.augmented() {
                    for (q, qs) in self.queries.iter_mut() {
                        if qs.doomed.is_some() {
                            continue;
                        }
                        for (_, t_f) in aug.matches_in(qs.readset.as_slice()) {
                            self.graph.add_edge(Node::Query(*q), Node::Txn(t_f));
                            let co = qs.c_o.get_or_insert(t_f.cycle());
                            *co = (*co).min(t_f.cycle());
                        }
                    }
                } else {
                    let report = ctrl.invalidation();
                    for qs in self.queries.values_mut() {
                        if qs.doomed.is_none() && report.any_invalidated(qs.readset.as_slice()) {
                            qs.doomed = Some(AbortReason::Invalidated);
                        }
                    }
                }
                self.last_heard = Some(ctrl.cycle());
                self.graph.advance(self.window_start(), ctrl.graph_diff());
            }

            pub(super) fn on_missed_cycle(&mut self) {
                let bound = self.last_heard.unwrap_or(Cycle::ZERO);
                for qs in self.queries.values_mut().filter(|q| q.doomed.is_none()) {
                    if self.config.versioned_items {
                        let vb = qs.version_bound.get_or_insert(bound);
                        *vb = (*vb).min(bound);
                    } else {
                        qs.doomed = Some(AbortReason::Disconnected);
                    }
                }
            }

            pub(super) fn begin_query(&mut self, q: QueryId) {
                let state = SgtState {
                    readset: ReadSet::new(),
                    c_o: None,
                    version_bound: None,
                    doomed: None,
                };
                self.queries.insert(q, state);
            }

            pub(super) fn read_directive(&self, q: QueryId, now: Cycle) -> ReadDirective {
                match self.queries[&q].doomed {
                    Some(reason) => ReadDirective::Doom(reason),
                    None => ReadDirective::Read(ReadConstraint {
                        state: now,
                        cache_only: false,
                    }),
                }
            }

            pub(super) fn apply_read(
                &mut self,
                q: QueryId,
                item: ItemId,
                candidate: &ReadCandidate,
                now: Cycle,
            ) -> ReadOutcome {
                let qs = self.queries.get_mut(&q).unwrap();
                let doom = |qs: &mut SgtState, reason| {
                    qs.doomed = Some(reason);
                    ReadOutcome::Rejected(reason)
                };
                if let Some(reason) = qs.doomed {
                    return ReadOutcome::Rejected(reason);
                }
                if !candidate.current_at(now) {
                    return doom(qs, AbortReason::VersionUnavailable);
                }
                if qs
                    .version_bound
                    .is_some_and(|b| candidate.value.version() > b)
                {
                    return doom(qs, AbortReason::Disconnected);
                }
                let t_l = candidate
                    .last_writer_tag
                    .or_else(|| candidate.value.writer());
                if let Some(t_l) = t_l {
                    let (from, to) = (Node::Txn(t_l), Node::Query(q));
                    if self.graph.path_exists(to, from) {
                        return doom(qs, AbortReason::CycleDetected);
                    }
                    self.graph.add_edge(from, to);
                }
                qs.readset.insert(item);
                ReadOutcome::Accepted
            }

            pub(super) fn finish_query(&mut self, q: QueryId) {
                self.queries.remove(&q);
                self.graph.unlink(|n| *n == Node::Query(q));
                self.graph.advance(self.window_start(), None);
            }
        }
    }

    /// What happens in one cycle of a generated run: whether the control
    /// segment is heard and carries SGT information, the client's
    /// `(operation, query slot, item)` steps after it, and the server
    /// transactions `(reads, write mask)` committed during the cycle.
    type CycleScript = ((bool, bool), Vec<(u8, usize, u32)>, Vec<(Vec<u32>, u8)>);

    /// Runs one generated script against the window-backed [`Sgt`] and
    /// the [`reference::Sgt`] on the linked graph it replaced, requiring
    /// the same snapshot, the same `graph_size()` and the same verdict
    /// after every step.
    fn run_against_the_linked_graph(
        versioned_items: bool,
        script: &[CycleScript],
    ) -> Result<(), proptest::TestCaseError> {
        let config = SgtConfig {
            versioned_items,
            ..SgtConfig::default()
        };
        let mut windowed = Sgt::new(config);
        let mut linked = reference::Sgt::new(config);
        let mut server = bpush_server::ConflictTracker::new(16);
        let mut pending = server.end_cycle(Cycle::ZERO);
        // each item's last committed writer, as the server airs it
        let mut last_writer: [Option<TxnId>; 8] = [None; 8];
        let mut slots: [Option<QueryId>; 3] = [None; 3];
        let mut next_query = 0;
        let same = |windowed: &Sgt, linked: &reference::Sgt| {
            proptest::prop_assert_eq!(windowed.debug_snapshot(), format!("{linked:?}"));
            proptest::prop_assert_eq!(windowed.graph_size(), linked.graph.size());
            Ok(())
        };
        for (n, ((heard, sgt_info), steps, txns)) in (1u64..).zip(script) {
            let now = Cycle::new(n);
            if *heard {
                let (diff, first_writers) = &pending;
                let report = InvalidationReport::new(
                    now,
                    1,
                    first_writers.iter().map(|&(x, _)| x),
                    Granularity::Item,
                    1,
                );
                let ctrl = if *sgt_info {
                    let aug = AugmentedReport::new(now.prev(), first_writers.iter().copied());
                    ControlInfo::new(now, report, Some(aug), Some(diff.clone()))
                } else {
                    ControlInfo::new(now, report, None, None)
                };
                windowed.on_control(&ctrl);
                linked.on_control(&ctrl);
            } else {
                windowed.on_missed_cycle(now);
                linked.on_missed_cycle();
            }
            same(&windowed, &linked)?;
            for &(op, slot, item) in steps {
                let item = ItemId::new(item);
                match (op, slots[slot]) {
                    (0, None) => {
                        let q = QueryId::new(next_query);
                        next_query += 1;
                        slots[slot] = Some(q);
                        windowed.begin_query(q, now);
                        linked.begin_query(q);
                    }
                    (1..=3, Some(q)) => {
                        proptest::prop_assert_eq!(
                            windowed.read_directive(q, item, now),
                            linked.read_directive(q, now)
                        );
                        let candidate = candidate_from(last_writer[item.as_usize()]);
                        proptest::prop_assert_eq!(
                            windowed.apply_read(q, item, &candidate, now),
                            linked.apply_read(q, item, &candidate, now)
                        );
                    }
                    (4, Some(q)) => {
                        slots[slot] = None;
                        windowed.finish_query(q);
                        linked.finish_query(q);
                    }
                    _ => {}
                }
                same(&windowed, &linked)?;
            }
            for (seq, (reads, mask)) in (0u32..).zip(txns) {
                let reads: Vec<ItemId> = reads.iter().map(|&i| ItemId::new(i)).collect();
                let writes: Vec<ItemId> = reads
                    .iter()
                    .enumerate()
                    .filter(|&(at, _)| mask >> at & 1 == 1)
                    .map(|(_, &x)| x)
                    .collect();
                let id = TxnId::new(now, seq);
                for x in &writes {
                    last_writer[x.as_usize()] = Some(id);
                }
                server.commit(&bpush_server::ServerTxn::new(id, reads, writes));
            }
            pending = server.end_cycle(now);
        }
        Ok(())
    }

    proptest::proptest! {
        /// Differential test: over generated control / read / finish /
        /// missed-cycle streams — real tracker diffs, doomed queries,
        /// reports without SGT information, with and without
        /// `versioned_items` — the window of shared chunks leaves the
        /// session exactly where the linked graph it replaced leaves it
        /// (same snapshot, same `graph_size()`), after every step, and
        /// answers every read alike.
        #[test]
        fn window_matches_the_linked_graph(
            versioned_items in proptest::bool::ANY,
            script in proptest::collection::vec(
                (
                    (proptest::bool::weighted(0.85), proptest::bool::weighted(0.9)),
                    proptest::collection::vec((0u8..5, 0usize..3, 0u32..8), 0..6),
                    proptest::collection::vec(
                        (proptest::collection::vec(0u32..8, 1..4), 0u8..8),
                        0..3,
                    ),
                ),
                1..16,
            ),
        ) {
            run_against_the_linked_graph(versioned_items, &script)?;
        }
    }

    /// The differential on a fixed script that needs every rule at once:
    /// a query reads from a writer whose cycle is in the window, then a
    /// later diff adds an edge out of that writer (its successor list
    /// interleaves an overlay edge and a chunk edge), a cycle is missed
    /// so a later diff names a source without a chunk, and the query
    /// finishes while another is live.
    #[test]
    fn window_matches_the_linked_graph_on_a_fixed_script() {
        let script: Vec<CycleScript> = vec![
            (
                (true, true),
                vec![(0, 0, 0), (1, 0, 1)],
                vec![(vec![1, 2], 0b11)],
            ),
            (
                (true, true),
                vec![(1, 0, 2), (0, 1, 0)],
                vec![(vec![2, 3], 0b10)],
            ),
            (
                (true, true),
                vec![(1, 0, 3), (1, 1, 2)],
                vec![(vec![3, 4], 0b11)],
            ),
            ((false, true), vec![], vec![(vec![4, 5], 0b11)]),
            (
                (true, true),
                vec![(1, 1, 4), (4, 0, 0)],
                vec![(vec![5, 1], 0b01)],
            ),
            (
                (true, true),
                vec![(1, 1, 5), (1, 1, 1)],
                vec![(vec![1, 2], 0b11)],
            ),
            ((true, false), vec![(4, 1, 0)], vec![]),
        ];
        for versioned_items in [false, true] {
            run_against_the_linked_graph(versioned_items, &script).unwrap();
        }
    }

    /// Malformed graph diffs — which `GraphDiff::new` rejects under
    /// `debug_assertions` and the wire no longer admits, but a hand-built
    /// report can still carry in a release build — cost no panic, with
    /// queries reading, invalidated and finishing around them. The cases:
    /// a new → old edge, a duplicate edge, a target missing from the
    /// commits, a target of another cycle than the diff's, targets out of
    /// order, and commits out of order.
    #[test]
    #[cfg(not(debug_assertions))]
    fn malformed_diffs_cost_on_control_no_panic() {
        type Malformed = fn(u64) -> (Vec<TxnId>, Vec<(TxnId, TxnId)>);
        let cases: [(&str, Malformed); 6] = [
            ("new -> old edge", |c| {
                (
                    vec![txn(c, 0), txn(c, 1)],
                    vec![(txn(c, 1), txn(c, 0)), (txn(c, 0), txn(c - 1, 0))],
                )
            }),
            ("duplicate edge", |c| {
                (
                    vec![txn(c, 0), txn(c, 1)],
                    vec![(txn(c - 1, 0), txn(c, 0)), (txn(c - 1, 0), txn(c, 0))],
                )
            }),
            ("target missing from the commits", |c| {
                (vec![txn(c, 0), txn(c, 1)], vec![(txn(c - 1, 0), txn(c, 2))])
            }),
            ("target of another cycle", |c| {
                (
                    vec![txn(c, 0), txn(c, 1)],
                    vec![
                        (txn(c - 1, 0), txn(c + 2, 0)),
                        (txn(c - 1, 1), txn(c - 2, 0)),
                    ],
                )
            }),
            ("targets out of order", |c| {
                (
                    vec![txn(c, 0), txn(c, 1)],
                    vec![(txn(c - 1, 0), txn(c, 1)), (txn(c - 1, 1), txn(c, 0))],
                )
            }),
            ("commits out of order", |c| {
                (
                    vec![txn(c, 1), txn(c, 0), txn(c, 1)],
                    vec![(txn(c - 1, 1), txn(c, 1))],
                )
            }),
        ];
        for (label, malformed) in cases {
            let mut p = Sgt::new(SgtConfig::default());
            let (q0, q1) = (QueryId::new(0), QueryId::new(1));
            p.begin_query(q0, Cycle::new(1));
            p.apply_read(
                q0,
                ItemId::new(7),
                &candidate_from(Some(txn(0, 0))),
                Cycle::new(1),
            );
            for (n, item) in (3..9).zip(13..) {
                let c = n - 1;
                // item 7 is overwritten once, at cycle 2, then item 8 each cycle
                let overwritten = if n == 3 { 7 } else { 8 };
                let (committed, edges) = malformed(c);
                let cycle = Cycle::new(n);
                let control = ControlInfo::new(
                    cycle,
                    InvalidationReport::new(
                        cycle,
                        1,
                        [ItemId::new(overwritten)],
                        Granularity::Item,
                        1,
                    ),
                    Some(AugmentedReport::new(
                        cycle.prev(),
                        [(ItemId::new(overwritten), txn(c, 0))],
                    )),
                    Some(GraphDiff::new(cycle.prev(), committed, edges)),
                );
                p.on_control(&control);
                let live = if n < 6 { q0 } else { q1 };
                if n == 6 {
                    p.finish_query(q0);
                    p.begin_query(q1, cycle);
                }
                for writer in [txn(c, 0), txn(c, 1), txn(c - 1, 0)] {
                    let _ = p.apply_read(
                        live,
                        ItemId::new(item),
                        &candidate_from(Some(writer)),
                        cycle,
                    );
                }
                let _ = p.graph_size();
                assert!(!p.debug_snapshot().is_empty(), "{label}, cycle {n}");
            }
        }
    }
}
