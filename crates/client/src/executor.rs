//! The query executor: drives a client's read-only transactions across
//! broadcast cycles, accounting for tuning latency, think time, cache
//! hits, spans and disconnections.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use bpush_broadcast::Bcast;
use bpush_core::instrument::ProtocolStats;
use bpush_core::validator::ReadRecord;
use bpush_core::{AbortReason, ReadOnlyProtocol, ReadOutcome};
use bpush_obs::{Actor, EventKind, Obs};
use bpush_types::config::ReadOrder;
use bpush_types::zipf::AccessPattern;
use bpush_types::{BpushError, ClientConfig, ClientId, Cycle, ItemId, QueryId, Slot};

use crate::cache::ClientCache;
use crate::core::{ClientCore, ReadPlan};

/// The fate of one query, with everything the experiments need.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The client that ran the query.
    pub client: ClientId,
    /// The query id (unique within the client).
    pub id: QueryId,
    /// `None` if committed; the abort reason otherwise.
    pub aborted: Option<AbortReason>,
    /// Slot at which the query issued its first read request.
    pub started: Slot,
    /// Slot at which it committed or aborted.
    pub finished: Slot,
    /// Number of distinct broadcast cycles data was read from (§2.2).
    pub span: u32,
    /// The earliest broadcast cycle a value was read from, if any read
    /// came off the air (the `c_0` of §3.2 for cacheless methods).
    pub first_read_cycle: Option<Cycle>,
    /// The broadcast cycle during which the query finished.
    pub finished_cycle: Cycle,
    /// Reads served by the cache.
    pub cache_reads: u32,
    /// Reads served by the broadcast.
    pub broadcast_reads: u32,
    /// Slots the client spent actively listening on behalf of this query
    /// (control segments heard during its lifetime plus the data buckets
    /// read) — the selective-tuning energy cost of §2.1: everything else
    /// is doze time.
    pub tuning_slots: u64,
    /// The exact values read (for serializability validation).
    pub reads: Vec<ReadRecord>,
}

impl QueryOutcome {
    /// Whether the query committed.
    pub fn committed(&self) -> bool {
        self.aborted.is_none()
    }

    /// Latency in slots.
    pub fn latency_slots(&self) -> u64 {
        self.finished.since(self.started)
    }
}

#[derive(Debug)]
struct ActiveQuery {
    id: QueryId,
    /// The cycle whose bcast the query began under.
    began: Cycle,
    items: Vec<ItemId>,
    next: usize,
    started: Slot,
    cycles_read: std::collections::BTreeSet<Cycle>,
    cache_reads: u32,
    broadcast_reads: u32,
    tuning_slots: u64,
}

/// Drives one simulated client: starts queries, performs their reads
/// against the cache and the broadcast under the protocol's directives,
/// and reports a [`QueryOutcome`] per finished query.
///
/// Timing model: transmitting one bucket takes one [`Slot`]; a client
/// must wait until the slot carrying the data it needs. Cache reads are
/// instantaneous. After every read the client "thinks" for
/// [`ClientConfig::think_time`] slots (§5.1).
#[derive(Debug)]
pub struct QueryExecutor {
    client: ClientId,
    config: ClientConfig,
    core: ClientCore,
    pattern: AccessPattern,
    rng: StdRng,
    active: Option<ActiveQuery>,
    /// Absolute next-action time.
    cursor: Slot,
    queries_budget: u32,
    obs: Obs,
}

impl QueryExecutor {
    /// Creates an executor.
    ///
    /// `queries_budget` bounds how many queries the client will run in
    /// total (commit or abort); afterwards [`QueryExecutor::is_done`]
    /// turns true and `run_cycle` only drains the in-flight query.
    ///
    /// # Errors
    /// Returns [`BpushError::InvalidConfig`] if the client configuration
    /// is inconsistent (empty read range, excessive query size, ...).
    pub fn new(
        client: ClientId,
        config: ClientConfig,
        protocol: Box<dyn ReadOnlyProtocol>,
        cache: Option<ClientCache>,
        queries_budget: u32,
        seed: u64,
    ) -> Result<Self, BpushError> {
        let pattern = QueryExecutor::read_pattern(&config)?;
        QueryExecutor::with_read_pattern(
            client,
            config,
            protocol,
            cache,
            queries_budget,
            seed,
            pattern,
        )
    }

    /// The read pattern a client of `config` draws its readsets from: a
    /// Zipf(θ) table over the read range. Clones share the table, so a
    /// simulation builds it once for all its clients.
    ///
    /// # Errors
    /// Returns [`BpushError::InvalidConfig`] if the client configuration
    /// is inconsistent (empty read range, excessive query size, ...).
    pub fn read_pattern(config: &ClientConfig) -> Result<AccessPattern, BpushError> {
        QueryExecutor::check_config(config)?;
        AccessPattern::new(config.read_range, config.theta, 0)
    }

    /// Rejects a configuration no client can run.
    fn check_config(config: &ClientConfig) -> Result<(), BpushError> {
        if config.read_range == 0 {
            return Err(BpushError::invalid_config("read_range must be > 0"));
        }
        if config.reads_per_query == 0 || config.reads_per_query > config.read_range {
            return Err(BpushError::invalid_config(
                "reads_per_query must be in 1..=read_range",
            ));
        }
        Ok(())
    }

    /// [`QueryExecutor::new`] with the read pattern built already — by
    /// [`QueryExecutor::read_pattern`] for the same configuration, or a
    /// clone of one, which shares its table.
    ///
    /// # Errors
    /// Returns [`BpushError::InvalidConfig`] if the client configuration
    /// is inconsistent, or `pattern` is not the one it reads with.
    pub fn with_read_pattern(
        client: ClientId,
        config: ClientConfig,
        protocol: Box<dyn ReadOnlyProtocol>,
        cache: Option<ClientCache>,
        queries_budget: u32,
        seed: u64,
        pattern: AccessPattern,
    ) -> Result<Self, BpushError> {
        QueryExecutor::check_config(&config)?;
        let same = pattern.range_len() == config.read_range
            && pattern.theta().to_bits() == config.theta.to_bits()
            && pattern.offset() == 0;
        if !same {
            return Err(BpushError::invalid_config(
                "the read pattern does not match the client configuration",
            ));
        }
        Ok(QueryExecutor {
            client,
            config,
            core: ClientCore::new(protocol, cache),
            pattern,
            rng: StdRng::seed_from_u64(seed),
            active: None,
            cursor: Slot::ZERO,
            queries_budget,
            obs: Obs::off(),
        })
    }

    /// The pattern this client draws its readsets from.
    pub fn pattern(&self) -> &AccessPattern {
        &self.pattern
    }

    /// Routes this client's activity into `obs`: the protocol is
    /// wrapped in an [`Instrumented`](bpush_core::instrument::Instrumented)
    /// decorator emitting per-operation events, and the executor itself
    /// emits cache hit/miss and query
    /// commit/abort events, all attributed to this client's
    /// [`Actor`] lane. Monitors attached to `obs` hear each query's fate
    /// from the executor, which decides it. A second call replaces the
    /// sink: the protocol keeps one decorator, whose counters start again
    /// with the new sink.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        let actor = self.actor();
        self.core = self.core.observe(obs.clone(), actor);
        self.obs = obs;
        self
    }

    /// This client's lane in traces and monitors.
    fn actor(&self) -> Actor {
        Actor::Client(self.client.index())
    }

    /// Feeds this client's control reports through the wire codec:
    /// every cycle the client encodes the report to a framed broadcast
    /// segment, scans it out of its byte buffer and decodes it back, and
    /// the protocol hears only the decoded report. The run must stay
    /// bit-identical to the struct-fed run — any difference is a
    /// wire/in-memory divergence in the codec.
    #[must_use]
    pub fn with_wire_feed(mut self, params: bpush_broadcast::wire::WireParams) -> Self {
        self.core.set_wire(params);
        self
    }

    /// Replaces the protocol the executor holds — the fault-injection
    /// seam the monitor-layer tests use to run a broken mutant under an
    /// otherwise identical workload. An executor routed into a sink by
    /// [`QueryExecutor::with_obs`] wraps the replacement in a fresh
    /// decorator over the same sink.
    #[must_use]
    pub fn with_protocol(mut self, protocol: Box<dyn ReadOnlyProtocol>) -> Self {
        let observed = self.core.is_observed();
        self.core = self.core.with_protocol(protocol);
        if observed {
            let actor = self.actor();
            self.core = self.core.observe(self.obs.clone(), actor);
        }
        self
    }

    /// The inner protocol's opaque state snapshot — the input to the
    /// flight recorder's client-state fingerprint.
    pub fn debug_snapshot(&self) -> String {
        self.core.protocol().debug_snapshot()
    }

    /// The wrapped protocol's operation counters, when this executor
    /// was instrumented via [`QueryExecutor::with_obs`].
    pub fn protocol_stats(&self) -> Option<ProtocolStats> {
        self.core.protocol().protocol_stats()
    }

    /// The client this executor simulates.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// The cycle the query in flight began in, if one is: no value it
    /// reads comes off a bcast older than that one.
    pub fn live_since(&self) -> Option<Cycle> {
        self.active.as_ref().map(|aq| aq.began)
    }

    /// Whether the query budget is exhausted and no query is in flight.
    pub fn is_done(&self) -> bool {
        self.queries_budget == 0 && self.active.is_none()
    }

    /// Cache statistics, if a cache is configured.
    pub fn cache_stats(&self) -> Option<crate::cache::CacheStats> {
        self.core.cache().map(ClientCache::stats)
    }

    /// The protocol's current validation-structure size (`(nodes,
    /// edges)` of the SGT graph), if it maintains one — sampled by the
    /// simulator to track the peak space overhead.
    pub fn space_metrics(&self) -> Option<(usize, usize)> {
        self.core.protocol().space_metrics()
    }

    /// Whether the client is disconnected for the coming cycle.
    pub fn roll_disconnect(&mut self) -> bool {
        self.config.disconnect_prob > 0.0 && self.rng.gen::<f64>() < self.config.disconnect_prob
    }

    fn start_query(&mut self, bcast: &Bcast) -> ActiveQuery {
        self.queries_budget -= 1;
        let mut items = self
            .pattern
            .sample_distinct(&mut self.rng, self.config.reads_per_query as usize);
        if self.config.read_order == ReadOrder::BroadcastOrder {
            items.sort_by_key(|&x| bcast.slot_of_current(x).unwrap_or(u64::MAX));
        }
        ActiveQuery {
            id: self.core.begin(),
            began: bcast.cycle(),
            items,
            next: 0,
            started: self.cursor,
            cycles_read: std::collections::BTreeSet::new(),
            cache_reads: 0,
            broadcast_reads: 0,
            tuning_slots: 0,
        }
    }

    /// Ends the active query at the cursor — commit when `aborted` is
    /// `None` — and moves on after a minimal regrouping pause.
    fn conclude(
        &mut self,
        aborted: Option<AbortReason>,
        cycle: Cycle,
    ) -> Result<QueryOutcome, BpushError> {
        let Some(aq) = self.active.take() else {
            return Err(BpushError::internal("no active query to conclude"));
        };
        let now = self.cursor;
        self.cursor = now.plus(1);
        let reads = self.core.end(aq.id);
        if let Some(mon) = self.obs.monitors() {
            mon.finish(self.client.index(), aq.id.number(), cycle, aborted);
        }
        if self.obs.is_enabled() {
            let actor = self.actor();
            match aborted {
                None => self.obs.emit(
                    cycle,
                    actor,
                    EventKind::QueryCommitted {
                        query: aq.id.number(),
                        latency_slots: now.since(aq.started),
                    },
                ),
                Some(reason) => self.obs.emit(
                    cycle,
                    actor,
                    EventKind::QueryAborted {
                        query: aq.id.number(),
                        reason,
                    },
                ),
            }
            self.obs.record("query.tuning.slots", aq.tuning_slots);
        }
        Ok(QueryOutcome {
            client: self.client,
            id: aq.id,
            aborted,
            started: aq.started,
            finished: now,
            span: u32::try_from(aq.cycles_read.len()).unwrap_or(u32::MAX),
            first_read_cycle: aq.cycles_read.iter().min().copied(),
            finished_cycle: cycle,
            cache_reads: aq.cache_reads,
            broadcast_reads: aq.broadcast_reads,
            tuning_slots: aq.tuning_slots,
            reads,
        })
    }

    /// Runs the client over one broadcast cycle. `cycle_start` is the
    /// absolute slot at which this bcast begins; `connected` is false if
    /// the client misses the whole cycle.
    ///
    /// Returns the queries that finished during the cycle.
    ///
    /// # Errors
    /// Returns [`BpushError::Internal`] if the executor's own state
    /// machine loses track of the active query, or if a wire-fed
    /// client's self-encoded control segment does not decode back — a
    /// bug, not a user error; surfaced as a `Result` so long simulations
    /// fail with context instead of a panic.
    pub fn run_cycle(
        &mut self,
        bcast: &Bcast,
        cycle_start: Slot,
        connected: bool,
    ) -> Result<Vec<QueryOutcome>, BpushError> {
        let cycle = bcast.cycle();
        let cycle_end = cycle_start.plus(bcast.total_slots());
        let mut out = Vec::new();

        if !connected {
            self.core.missed(cycle);
            self.cursor = self.cursor.max(cycle_end);
            return Ok(out);
        }

        self.core.hear(bcast)?;
        // Reading the control segment occupies its slots; a query alive
        // across the boundary pays that listening cost (§2.1).
        if let Some(aq) = &mut self.active {
            aq.tuning_slots += bcast.control_slots();
        }
        self.cursor = self.cursor.max(cycle_start.plus(bcast.control_slots()));

        while self.cursor < cycle_end {
            // Ensure there is an active query (or we are done).
            if self.active.is_none() {
                if self.queries_budget == 0 {
                    break;
                }
                self.active = Some(self.start_query(bcast));
            }
            let Some(aq) = self.active.as_mut() else {
                return Err(BpushError::internal("no active query after ensuring one"));
            };
            let item = aq.items[aq.next];

            let plan = self.core.plan(aq.id, item);
            if self.obs.is_enabled() {
                let kind = match plan {
                    ReadPlan::Cached(_) => Some(EventKind::CacheHit { item: item.index() }),
                    ReadPlan::Air { probed: true, .. } => {
                        Some(EventKind::CacheMiss { item: item.index() })
                    }
                    ReadPlan::Doom(_) | ReadPlan::Air { probed: false, .. } => None,
                };
                if let Some(kind) = kind {
                    self.obs
                        .emit(cycle, Actor::Client(self.client.index()), kind);
                }
            }
            let (candidate, read_slot) = match plan {
                ReadPlan::Doom(reason) => {
                    out.push(self.conclude(Some(reason), cycle)?);
                    continue;
                }
                ReadPlan::Cached(c) => (Some(c), None),
                ReadPlan::Air { constraint, .. } if constraint.cache_only => (None, None),
                ReadPlan::Air { constraint, .. } => {
                    // Without a locally stored directory (§2.1), the
                    // client must first locate the item: via the next
                    // on-air index copy when one exists, or by scanning
                    // the channel otherwise.
                    let mut in_cycle = self.cursor.since(cycle_start);
                    let mut probe_tuning = 0u64;
                    let mut scanning = false;
                    if !self.config.has_directory {
                        if bcast.index_slots().is_empty() {
                            scanning = true;
                        } else if let Some(i) = bcast.next_index_slot(in_cycle) {
                            // doze to the index copy, probe it
                            in_cycle = i + 1;
                            probe_tuning = 1;
                        } else {
                            // no index copy left this cycle
                            self.cursor = cycle_end;
                            break;
                        }
                    }
                    match self.core.locate(bcast, item, constraint.state, in_cycle) {
                        // not provably part of the required snapshot
                        None => (None, None),
                        Some((slot, _)) if slot < in_cycle => {
                            // already passed: wait for the next bcast
                            self.cursor = cycle_end;
                            break;
                        }
                        Some((slot, cand)) => {
                            if scanning {
                                // listened to everything from the current
                                // position to the item (§2.1 energy cost)
                                probe_tuning = slot - in_cycle;
                            }
                            aq.tuning_slots += probe_tuning;
                            (Some(cand), Some(slot))
                        }
                    }
                }
            };
            let Some(candidate) = candidate else {
                out.push(self.conclude(Some(AbortReason::VersionUnavailable), cycle)?);
                continue;
            };

            // Account the tuning time for a broadcast read.
            if let Some(slot) = read_slot {
                self.cursor = cycle_start.plus(slot + 1).min(cycle_end);
            }
            match self.core.apply(aq.id, item, &candidate, Some(bcast)) {
                ReadOutcome::Rejected(reason) => out.push(self.conclude(Some(reason), cycle)?),
                ReadOutcome::Accepted => {
                    if candidate.source.is_cache() {
                        aq.cache_reads += 1;
                    } else {
                        aq.broadcast_reads += 1;
                        aq.tuning_slots += 1; // the data bucket itself
                        aq.cycles_read.insert(cycle);
                    }
                    aq.next += 1;
                    if aq.next == aq.items.len() {
                        out.push(self.conclude(None, cycle)?);
                    } else {
                        self.cursor = self.cursor.plus(u64::from(self.config.think_time).max(1));
                    }
                }
            }
        }
        self.cursor = self.cursor.max(cycle_end);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheParams, ClientCache};
    use bpush_core::{CacheMode, Method};
    use bpush_server::{BroadcastServer, ServerOptions};
    use bpush_types::config::MultiversionLayout;
    use bpush_types::ServerConfig;

    fn server_config() -> ServerConfig {
        ServerConfig {
            broadcast_size: 100,
            update_range: 50,
            server_read_range: 100,
            updates_per_cycle: 10,
            txns_per_cycle: 5,
            offset: 0,
            versions_retained: 4,
            ..ServerConfig::default()
        }
    }

    fn client_config() -> ClientConfig {
        ClientConfig {
            read_range: 100,
            reads_per_query: 5,
            think_time: 2,
            ..ClientConfig::default()
        }
    }

    fn executor_for(method: Method, budget: u32) -> QueryExecutor {
        let cache = method.uses_cache().then(|| {
            ClientCache::new(CacheParams {
                mode: method.cache_mode(),
                current_capacity: 20,
                old_capacity: if method.cache_mode() == CacheMode::Multiversion {
                    10
                } else {
                    0
                },
                items_per_bucket: 1,
            })
        });
        QueryExecutor::new(
            ClientId::new(0),
            client_config(),
            method.build_protocol(),
            cache,
            budget,
            7,
        )
        .unwrap()
    }

    fn run(method: Method, opts: ServerOptions, cycles: u32, budget: u32) -> Vec<QueryOutcome> {
        let mut server = BroadcastServer::new(server_config(), opts, 3).unwrap();
        let mut exec = executor_for(method, budget);
        let mut outcomes = Vec::new();
        let mut start = Slot::ZERO;
        for _ in 0..cycles {
            let bcast = server.run_cycle();
            outcomes.extend(exec.run_cycle(&bcast, start, true).unwrap());
            start = start.plus(bcast.total_slots());
        }
        outcomes
    }

    /// A client built on a shared read pattern draws exactly the queries
    /// one built by `QueryExecutor::new` draws for the same seed, and a
    /// pattern of another configuration is refused.
    #[test]
    fn a_shared_read_pattern_draws_the_same_queries() {
        let shared = QueryExecutor::read_pattern(&client_config()).unwrap();
        let mut own = executor_for(Method::Sgt, 12);
        let mut borrowed = QueryExecutor::with_read_pattern(
            ClientId::new(0),
            client_config(),
            Method::Sgt.build_protocol(),
            None,
            12,
            7,
            shared.clone(),
        )
        .unwrap();
        assert!(borrowed.pattern().shares_table_with(&shared));
        assert!(!own.pattern().shares_table_with(&shared));
        let mut server = BroadcastServer::new(
            server_config(),
            Method::Sgt.server_options(MultiversionLayout::Overflow),
            3,
        )
        .unwrap();
        let mut start = Slot::ZERO;
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for _ in 0..60 {
            let bcast = server.run_cycle();
            a.extend(own.run_cycle(&bcast, start, true).unwrap());
            b.extend(borrowed.run_cycle(&bcast, start, true).unwrap());
            start = start.plus(bcast.total_slots());
        }
        assert_eq!(a.len(), 12);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let other = ClientConfig {
            theta: 0.5,
            ..client_config()
        };
        let refused = QueryExecutor::with_read_pattern(
            ClientId::new(0),
            other,
            Method::Sgt.build_protocol(),
            None,
            12,
            7,
            shared,
        );
        assert!(refused.is_err());
    }

    #[test]
    fn invalidation_only_completes_queries() {
        let outcomes = run(Method::InvalidationOnly, ServerOptions::plain(), 40, 10);
        assert_eq!(outcomes.len(), 10, "budget fully consumed");
        let committed = outcomes.iter().filter(|o| o.committed()).count();
        assert!(committed > 0, "some queries commit");
        for o in &outcomes {
            if o.committed() {
                assert_eq!(o.reads.len(), 5);
                assert!(o.span >= 1);
                assert!(o.finished >= o.started);
            } else {
                assert!(o.aborted.is_some());
            }
        }
    }

    #[test]
    fn committed_readsets_are_serializable() {
        for method in Method::ALL {
            let opts = method.server_options(MultiversionLayout::Overflow);
            let mut server = BroadcastServer::new(server_config(), opts, 11).unwrap();
            let mut exec = executor_for(method, 30);
            let mut outcomes = Vec::new();
            let mut start = Slot::ZERO;
            for _ in 0..60 {
                let bcast = server.run_cycle();
                outcomes.extend(exec.run_cycle(&bcast, start, true).unwrap());
                start = start.plus(bcast.total_slots());
            }
            let validator = bpush_core::validator::SerializabilityValidator::new(server.history());
            let mut batch = bpush_core::validator::SerializabilityBatch::new(
                server.history(),
                server.conflict_graph(),
            );
            let sgt_like = matches!(method, Method::Sgt | Method::SgtCache);
            let mut committed = 0;
            for o in &outcomes {
                if o.committed() {
                    committed += 1;
                    if sgt_like {
                        // SGT guarantees the paper's criterion (§2.2):
                        // a state of *some* serializable execution
                        batch.check(&o.reads).unwrap_or_else(|e| {
                            panic!("{method}: query {} inconsistent: {e}", o.id)
                        });
                    } else {
                        // snapshot methods satisfy the stronger
                        // prefix-snapshot property
                        validator.check(&o.reads).unwrap_or_else(|e| {
                            panic!("{method}: query {} inconsistent: {e}", o.id)
                        });
                    }
                }
            }
            assert!(committed > 0, "{method}: no queries committed");
        }
    }

    #[test]
    fn multiversion_accepts_everything_within_span() {
        let opts = ServerOptions::multiversion(MultiversionLayout::Overflow);
        let outcomes = run(Method::MultiversionBroadcast, opts, 120, 20);
        let aborted = outcomes.iter().filter(|o| !o.committed()).count();
        // spans of 5-read queries stay well within versions_retained = 4
        assert_eq!(aborted, 0, "multiversion must accept span<=V queries");
        assert_eq!(outcomes.len(), 20);
    }

    #[test]
    fn cache_reduces_latency() {
        let no_cache = run(Method::InvalidationOnly, ServerOptions::plain(), 80, 20);
        let with_cache = run(Method::InvalidationCache, ServerOptions::plain(), 80, 20);
        let mean = |os: &[QueryOutcome]| -> f64 {
            let committed: Vec<_> = os.iter().filter(|o| o.committed()).collect();
            committed
                .iter()
                .map(|o| o.latency_slots() as f64)
                .sum::<f64>()
                / committed.len().max(1) as f64
        };
        assert!(
            mean(&with_cache) < mean(&no_cache),
            "cache must cut latency: {} vs {}",
            mean(&with_cache),
            mean(&no_cache)
        );
        let cached_total: u32 = with_cache.iter().map(|o| o.cache_reads).sum();
        assert!(cached_total > 0, "cache reads happen");
    }

    #[test]
    fn broadcast_order_reduces_span() {
        let run_order = |order: ReadOrder| -> f64 {
            let mut server =
                BroadcastServer::new(server_config(), ServerOptions::plain(), 3).unwrap();
            let mut exec = QueryExecutor::new(
                ClientId::new(0),
                ClientConfig {
                    read_order: order,
                    ..client_config()
                },
                Method::InvalidationOnly.build_protocol(),
                None,
                20,
                7,
            )
            .unwrap();
            let mut outcomes = Vec::new();
            let mut start = Slot::ZERO;
            for _ in 0..100 {
                let b = server.run_cycle();
                outcomes.extend(exec.run_cycle(&b, start, true).unwrap());
                start = start.plus(b.total_slots());
            }
            let committed: Vec<_> = outcomes.iter().filter(|o| o.committed()).collect();
            committed.iter().map(|o| f64::from(o.span)).sum::<f64>() / committed.len() as f64
        };
        let as_issued = run_order(ReadOrder::AsIssued);
        let optimized = run_order(ReadOrder::BroadcastOrder);
        assert!(
            optimized < as_issued,
            "read-order optimization must shrink span: {optimized} vs {as_issued}"
        );
    }

    #[test]
    fn disconnection_dooms_invalidation_only() {
        let mut server = BroadcastServer::new(server_config(), ServerOptions::plain(), 3).unwrap();
        let mut exec = executor_for(Method::InvalidationOnly, 5);
        let mut outcomes = Vec::new();
        let mut start = Slot::ZERO;
        for i in 0..30 {
            let b = server.run_cycle();
            let connected = i % 2 == 0; // miss every other cycle
            outcomes.extend(exec.run_cycle(&b, start, connected).unwrap());
            start = start.plus(b.total_slots());
        }
        // 5-read queries at think-time 2 cannot finish within one cycle
        // here only if they span cycles; any that do must abort
        for o in &outcomes {
            if !o.committed() {
                assert!(matches!(
                    o.aborted,
                    Some(AbortReason::Disconnected)
                        | Some(AbortReason::Invalidated)
                        | Some(AbortReason::VersionUnavailable)
                ));
            }
        }
        let validator = bpush_core::validator::SerializabilityValidator::new(server.history());
        for o in outcomes.iter().filter(|o| o.committed()) {
            validator.check(&o.reads).unwrap();
        }
    }

    #[test]
    fn executor_budget_reaches_done() {
        let mut server = BroadcastServer::new(server_config(), ServerOptions::plain(), 3).unwrap();
        let mut exec = executor_for(Method::InvalidationOnly, 3);
        assert!(!exec.is_done());
        let mut start = Slot::ZERO;
        for _ in 0..50 {
            let b = server.run_cycle();
            exec.run_cycle(&b, start, true).unwrap();
            start = start.plus(b.total_slots());
            if exec.is_done() {
                break;
            }
        }
        assert!(exec.is_done());
        assert!(exec.cache_stats().is_none());
        assert_eq!(exec.client(), ClientId::new(0));
    }

    #[test]
    fn observed_runs_match_bare_runs_and_reconcile() {
        let run_observed = |obs: Option<Obs>| -> (Vec<QueryOutcome>, Option<ProtocolStats>) {
            let mut server =
                BroadcastServer::new(server_config(), ServerOptions::plain(), 3).unwrap();
            let mut exec = executor_for(Method::InvalidationCache, 15);
            if let Some(obs) = obs {
                exec = exec.with_obs(obs);
            }
            let mut outcomes = Vec::new();
            let mut start = Slot::ZERO;
            for _ in 0..60 {
                let b = server.run_cycle();
                outcomes.extend(exec.run_cycle(&b, start, true).unwrap());
                start = start.plus(b.total_slots());
            }
            (outcomes, exec.protocol_stats())
        };
        let (bare, no_stats) = run_observed(None);
        assert!(no_stats.is_none(), "bare executor exposes no stats");
        let obs = Obs::recording(1 << 14);
        let (observed, stats) = run_observed(Some(obs.clone()));
        let stats = stats.expect("instrumented executor exposes stats");

        // Observation must not perturb a single outcome.
        assert_eq!(bare.len(), observed.len());
        for (a, b) in bare.iter().zip(observed.iter()) {
            assert_eq!(a.aborted, b.aborted);
            assert_eq!(a.finished, b.finished);
            assert_eq!(a.reads, b.reads);
        }

        // The event-derived counters reconcile with the decorator's
        // stats and with the outcomes themselves.
        let snap = obs.snapshot().expect("recording");
        assert_eq!(snap.counter("reads.accepted"), stats.accepts);
        assert_eq!(snap.counter("reads.rejected"), stats.rejects);
        assert_eq!(snap.counter("queries.begun"), stats.queries);
        let committed = observed.iter().filter(|o| o.committed()).count() as u64;
        assert_eq!(snap.counter("queries.committed"), committed);
        assert_eq!(
            snap.counter("queries.aborted"),
            observed.len() as u64 - committed
        );
        let h = snap.histogram("query.latency.slots").expect("latencies");
        assert_eq!(h.count(), committed);
        let cache = exec_cache_totals(&observed);
        // Every accepted cache read was a recorded hit (a hit whose
        // candidate the protocol then rejects stays a hit, hence >=).
        assert!(snap.counter("cache.hits") >= u64::from(cache));
        assert!(cache > 0, "the caching method must see hits here");
    }

    /// Runs `exec` for 60 cycles of a plain server.
    fn drive(exec: &mut QueryExecutor) {
        let mut server = BroadcastServer::new(server_config(), ServerOptions::plain(), 3).unwrap();
        let mut start = Slot::ZERO;
        for _ in 0..60 {
            let b = server.run_cycle();
            exec.run_cycle(&b, start, true).unwrap();
            start = start.plus(b.total_slots());
        }
    }

    /// A second `with_obs` replaces the sink of the one decorator: the
    /// same sink given twice records each event once, and a sink given
    /// first and then replaced records nothing.
    #[test]
    fn a_second_with_obs_replaces_the_sink() {
        for same_sink in [true, false] {
            let (first, obs) = (Obs::recording(1 << 14), Obs::recording(1 << 14));
            let earlier = if same_sink {
                obs.clone()
            } else {
                first.clone()
            };
            let mut exec = executor_for(Method::InvalidationCache, 15)
                .with_obs(earlier)
                .with_obs(obs.clone());
            drive(&mut exec);
            let stats = exec.protocol_stats().expect("instrumented");
            let snap = obs.snapshot().expect("recording");
            assert!(stats.accepts > 0);
            assert_eq!(snap.counter("reads.accepted"), stats.accepts, "{same_sink}");
            assert_eq!(snap.counter("queries.begun"), stats.queries, "{same_sink}");
            if !same_sink {
                let replaced = first.snapshot().expect("recording");
                assert_eq!(replaced.counter("reads.accepted"), 0);
            }
        }
    }

    /// A protocol swapped in after `with_obs` runs under a decorator over
    /// the same sink, so its monitors still hear it.
    #[test]
    fn a_protocol_swapped_in_after_with_obs_is_still_observed() {
        let method = Method::InvalidationCache;
        let (policy, coverage) = method.monitor_policy();
        let monitors = bpush_obs::Monitors::new(bpush_obs::MonitorConfig::new(1, policy, coverage));
        let obs = Obs::recording(1 << 14).with_monitors(monitors.clone());
        let mut exec = executor_for(method, 15)
            .with_obs(obs.clone())
            .with_protocol(method.build_protocol());
        drive(&mut exec);
        let stats = exec.protocol_stats().expect("still instrumented");
        let snap = obs.snapshot().expect("recording");
        assert!(stats.accepts > 0);
        assert_eq!(snap.counter("reads.accepted"), stats.accepts);
        let verdict = monitors.verdict();
        assert!(verdict.pass(), "{}", verdict.render());
        assert_eq!(verdict.controls, stats.controls);
    }

    fn exec_cache_totals(outcomes: &[QueryOutcome]) -> u32 {
        outcomes.iter().map(|o| o.cache_reads).sum()
    }

    #[test]
    fn invalid_client_config_rejected() {
        let bad = ClientConfig {
            reads_per_query: 0,
            ..client_config()
        };
        assert!(QueryExecutor::new(
            ClientId::new(0),
            bad,
            Method::InvalidationOnly.build_protocol(),
            None,
            1,
            0
        )
        .is_err());
    }
}
