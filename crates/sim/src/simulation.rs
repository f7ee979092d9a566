//! The cycle-driven simulation engine tying server and clients together.

use std::sync::Arc;

use bpush_broadcast::feed::encode_bcast_segments;
use bpush_client::{CacheParams, ClientCache, QueryExecutor, QueryOutcome};
use bpush_core::validator::{SerializabilityBatch, SerializabilityValidator};
use bpush_core::{AbortReason, CacheMode, Method, ReadOnlyProtocol};
use bpush_obs::flight::fnv64;
use bpush_obs::{Actor, Capture, FlightRecorder, MonitorConfig, Monitors, Obs};
use bpush_server::BroadcastServer;
use bpush_types::config::MultiversionLayout;
use bpush_types::seed::SeedSequence;
use bpush_types::stats::{Histogram, Ratio, Summary};
use bpush_types::{BpushError, ClientId, Cycle, SimConfig, Slot};
use parking_lot::Mutex;

/// Everything measured about one method under one configuration.
#[derive(Debug, Clone)]
pub struct MethodMetrics {
    /// The method simulated.
    pub method: Method,
    /// Queries finished after warm-up (committed + aborted).
    pub queries: u64,
    /// Committed / total — the paper's "percent of transactions
    /// accepted" is `1 − abort_rate`.
    pub aborts: Ratio,
    /// Per-reason abort counts.
    pub abort_reasons: Vec<(AbortReason, u64)>,
    /// Latency of *committed* queries, in broadcast cycles (§5.2.1
    /// measures accepted transactions only).
    pub latency_cycles: Summary,
    /// Latency of committed queries in raw slots (useful when comparing
    /// organizations with different cycle lengths).
    pub latency_slots: Summary,
    /// Latency distribution (cycles) of committed queries, for quantiles.
    pub latency_hist: Histogram,
    /// Span of committed queries (distinct cycles read from).
    pub span: Summary,
    /// Active-listening slots per committed query (§2.1 selective-tuning
    /// energy cost: control segments heard plus data buckets read).
    pub tuning_slots: Summary,
    /// Broadcast (non-cache) reads per committed query.
    pub broadcast_reads: Summary,
    /// Cache hits / lookups pooled across all clients, if the method
    /// caches — kept as exact integer counts so merging replications
    /// and shards is exact.
    pub cache_hit_rate: Option<Ratio>,
    /// Mean on-air bcast length in slots.
    pub mean_bcast_slots: f64,
    /// Data-segment length (the no-overhead baseline).
    pub base_slots: u64,
    /// Committed readsets that failed serializability validation —
    /// always zero unless a protocol is broken.
    pub violations: u64,
    /// Broadcast cycles simulated.
    pub cycles: u64,
    /// Peak size of the validation structure (SGT serialization graph)
    /// across all clients and cycles, as `(nodes, edges)` — the space
    /// overhead Table 1 calls "considerable". Zero for methods that
    /// keep no such structure.
    pub peak_graph_nodes: usize,
    /// Peak edge count; see [`MethodMetrics::peak_graph_nodes`].
    pub peak_graph_edges: usize,
    /// Wall time spent in client-side per-cycle processing (control
    /// handling + validation + reads), one sample per simulated cycle,
    /// in nanoseconds. Wall time is measured here in `bpush-sim` — the
    /// protocol crates stay clock-free for determinism.
    pub validation_ns: Summary,
}

impl MethodMetrics {
    /// Abort rate in percent.
    pub fn abort_pct(&self) -> f64 {
        self.aborts.rate() * 100.0
    }

    /// Broadcast-size increase over the bare data segment, in percent.
    pub fn overhead_pct(&self) -> f64 {
        (self.mean_bcast_slots - self.base_slots as f64) / self.base_slots as f64 * 100.0
    }

    /// Every field except `validation_ns`, rendered to a string: the
    /// deterministic projection of the metrics. `validation_ns` is
    /// wall-clock time and legitimately varies run to run; everything
    /// else is a pure function of the seed, so the sharded-runner tests
    /// assert byte-identical snapshots across worker counts.
    pub fn deterministic_snapshot(&self) -> String {
        format!(
            "method={:?} queries={} aborts={:?} reasons={:?} latency_cycles={:?} \
             latency_slots={:?} latency_hist={:?} span={:?} tuning={:?} breads={:?} \
             cache_hit={:?} mean_bcast_slots={:?} base_slots={} violations={} cycles={} \
             peak_nodes={} peak_edges={}",
            self.method,
            self.queries,
            self.aborts,
            self.abort_reasons,
            self.latency_cycles,
            self.latency_slots,
            self.latency_hist,
            self.span,
            self.tuning_slots,
            self.broadcast_reads,
            self.cache_hit_rate,
            self.mean_bcast_slots,
            self.base_slots,
            self.violations,
            self.cycles,
            self.peak_graph_nodes,
            self.peak_graph_edges,
        )
    }

    /// Merges metrics from an independent replication of the same
    /// configuration (different seed) into this one.
    ///
    /// # Panics
    /// Panics if the replications simulated different methods.
    pub fn merge(&mut self, other: &MethodMetrics) {
        assert_eq!(self.method, other.method, "replications must match methods");
        let total_cycles = (self.cycles + other.cycles).max(1);
        self.mean_bcast_slots = (self.mean_bcast_slots * self.cycles as f64
            + other.mean_bcast_slots * other.cycles as f64)
            / total_cycles as f64;
        self.queries += other.queries;
        self.aborts.merge(&other.aborts);
        for &(reason, n) in &other.abort_reasons {
            match self.abort_reasons.iter_mut().find(|(r, _)| *r == reason) {
                Some((_, count)) => *count += n,
                None => self.abort_reasons.push((reason, n)),
            }
        }
        self.latency_cycles.merge(&other.latency_cycles);
        self.latency_slots.merge(&other.latency_slots);
        self.latency_hist.merge(&other.latency_hist);
        self.span.merge(&other.span);
        self.tuning_slots.merge(&other.tuning_slots);
        self.broadcast_reads.merge(&other.broadcast_reads);
        self.cache_hit_rate = match (self.cache_hit_rate, other.cache_hit_rate) {
            (Some(mut a), Some(b)) => {
                a.merge(&b);
                Some(a)
            }
            (a, b) => a.or(b),
        };
        // keep a canonical order so a merged tally is bit-identical to
        // the single-run tally regardless of which shard saw which
        // reason first
        self.abort_reasons.sort_by_key(|&(reason, _)| reason);
        self.violations += other.violations;
        self.cycles += other.cycles;
        self.peak_graph_nodes = self.peak_graph_nodes.max(other.peak_graph_nodes);
        self.peak_graph_edges = self.peak_graph_edges.max(other.peak_graph_edges);
        self.validation_ns.merge(&other.validation_ns);
    }
}

/// One simulation: a [`BroadcastServer`] plus `n_clients` independent
/// [`QueryExecutor`]s, advanced cycle by cycle until every client
/// exhausts its query budget.
///
/// # Example
/// ```
/// use bpush_core::Method;
/// use bpush_sim::Simulation;
/// use bpush_types::SimConfig;
///
/// let mut config = SimConfig::default();
/// config.n_clients = 2;
/// config.queries_per_client = 5;
/// config.warmup_cycles = 0; // measure from the first cycle
/// let metrics = Simulation::new(config, Method::InvalidationOnly)?.run()?;
/// assert_eq!(metrics.queries, 10);
/// assert_eq!(metrics.violations, 0);
/// # Ok::<(), bpush_types::BpushError>(())
/// ```
#[derive(Debug)]
pub struct Simulation {
    config: SimConfig,
    method: Method,
    server: BroadcastServer,
    clients: Vec<QueryExecutor>,
    /// The sink [`Simulation::run`] routes the server and every client
    /// into, once.
    obs: Obs,
    /// The monitors [`Simulation::run`] attaches to `obs`.
    monitors: Option<Monitors>,
    flight: Option<FlightState>,
}

/// Online monitors sized for `config`, checking the invariant family
/// `method` guarantees ([`Method::monitor_policy`]). The lane table is
/// sized for the *global* client population, so the same handle (or a
/// same-configured one per shard) indexes clients identically in
/// sharded and unsharded runs.
pub fn monitors_for(config: &SimConfig, method: Method) -> Monitors {
    let (policy, coverage) = method.monitor_policy();
    Monitors::new(MonitorConfig::new(config.n_clients, policy, coverage))
}

/// A shared write-once mailbox for the first [`Capture`] of a run: the
/// flight recorder dumps into it when a monitor fires (or a watched
/// abort matches), and the harness [`CaptureSlot::take`]s it afterwards.
#[derive(Debug, Clone, Default)]
pub struct CaptureSlot {
    inner: Arc<Mutex<Option<Capture>>>,
}

impl CaptureSlot {
    /// An empty slot.
    pub fn new() -> Self {
        CaptureSlot::default()
    }

    /// Whether a capture has already been deposited.
    pub fn is_filled(&self) -> bool {
        self.lock().is_some()
    }

    /// Deposits `capture` if the slot is empty; returns whether it was
    /// stored (the first trigger wins, later ones are dropped).
    pub fn put_if_empty(&self, capture: Capture) -> bool {
        let mut slot = self.lock();
        if slot.is_some() {
            return false;
        }
        *slot = Some(capture);
        true
    }

    /// Removes and returns the capture, leaving the slot empty.
    pub fn take(&self) -> Option<Capture> {
        self.lock().take()
    }

    fn lock(&self) -> parking_lot::MutexGuard<'_, Option<Capture>> {
        self.inner.lock()
    }
}

/// The flight-recorder side of a simulation: the bounded frame ring and
/// the slot the capture is deposited into on trigger.
#[derive(Debug)]
struct FlightState {
    recorder: FlightRecorder,
    slot: CaptureSlot,
}

impl Simulation {
    /// Builds a simulation of `method` under `config`, using the overflow
    /// multiversion layout where applicable.
    ///
    /// # Errors
    /// Returns [`BpushError::InvalidConfig`] for inconsistent
    /// configurations.
    pub fn new(config: SimConfig, method: Method) -> Result<Self, BpushError> {
        Simulation::with_layout(config, method, MultiversionLayout::Overflow)
    }

    /// Builds a simulation choosing the multiversion on-air layout.
    ///
    /// # Errors
    /// Returns [`BpushError::InvalidConfig`] for inconsistent
    /// configurations.
    pub fn with_layout(
        config: SimConfig,
        method: Method,
        layout: MultiversionLayout,
    ) -> Result<Self, BpushError> {
        let all = 0..config.n_clients;
        Simulation::with_client_range(config, method, layout, all)
    }

    /// Builds a *shard* of a simulation: the same server stream, but only
    /// the clients with global indices in `clients`. The server's update
    /// workload is derived purely from the seed (clients never feed back
    /// into it), so every shard replays the identical broadcast prefix,
    /// and each client's seed comes from its *global* index — a client
    /// behaves bit-identically whether it runs in a shard or in the full
    /// simulation. [`crate::run_sharded_with_workers`] builds on this to
    /// spread one large simulation's clients across threads
    /// deterministically.
    ///
    /// # Errors
    /// Returns [`BpushError::InvalidConfig`] for inconsistent
    /// configurations, an empty range, or a range beyond `n_clients`.
    pub fn with_client_range(
        config: SimConfig,
        method: Method,
        layout: MultiversionLayout,
        clients: std::ops::Range<u32>,
    ) -> Result<Self, BpushError> {
        config.validate()?;
        if clients.is_empty() {
            return Err(BpushError::invalid_config(
                "a simulation shard needs at least one client",
            ));
        }
        if clients.end > config.n_clients {
            return Err(BpushError::invalid_config("client range exceeds n_clients"));
        }
        let seeds = SeedSequence::new(config.seed);
        let server = BroadcastServer::new(
            config.server.clone(),
            method.server_options(layout),
            seeds.derive(&["server"]),
        )?;
        // one Zipf table for every client: each holds a clone
        let pattern = QueryExecutor::read_pattern(&config.client)?;
        let mut built = Vec::with_capacity(clients.len());
        for i in clients {
            let cache = match method.cache_mode() {
                CacheMode::None => None,
                mode @ (CacheMode::Plain | CacheMode::Versioned | CacheMode::Multiversion) => {
                    let cache_cfg = &config.client.cache;
                    if !cache_cfg.is_enabled() {
                        None
                    } else {
                        let (current, old) = if mode == CacheMode::Multiversion {
                            (cache_cfg.current_capacity(), cache_cfg.old_capacity())
                        } else {
                            (cache_cfg.capacity, 0)
                        };
                        Some(ClientCache::new(CacheParams {
                            mode,
                            current_capacity: current,
                            old_capacity: old,
                            items_per_bucket: config.server.items_per_bucket,
                        }))
                    }
                }
            };
            built.push(QueryExecutor::with_read_pattern(
                ClientId::new(i),
                config.client.clone(),
                method.build_protocol(),
                cache,
                config.queries_per_client,
                seeds.derive(&["client", &i.to_string()]),
                pattern.clone(),
            )?);
        }
        Ok(Simulation {
            config,
            method,
            server,
            clients: built,
            obs: Obs::off(),
            monitors: None,
            flight: None,
        })
    }

    /// Routes the whole simulation into `obs` when it runs: the server
    /// gets a per-cycle span and size histogram, every client's protocol
    /// is wrapped in an instrumentation decorator streaming per-operation
    /// events, and the end-of-run validation pass is bracketed by a
    /// `validator.check` span. After the run, the aggregated
    /// [`bpush_core::instrument::ProtocolStats`] of all clients are
    /// published into the registry as `stats.*` counters, so the
    /// event-derived counters can be reconciled against the decorator's
    /// independent tally.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Attaches online invariant monitors: every client's typed monitor
    /// feed is routed into `monitors`, which check the method's
    /// published consistency rules *during* the run — see
    /// [`monitors_for`] for a handle matched to the method. Composes
    /// with [`Simulation::with_obs`] in either order; monitors alone
    /// emit no events, since they read none.
    #[must_use]
    pub fn with_monitors(mut self, monitors: Monitors) -> Self {
        self.monitors = Some(monitors);
        self
    }

    /// Retains the last `frames` broadcast cycles as wire-format bytes
    /// and, the first time a monitor fires (or a watched abort reason
    /// matches), freezes them into a `bpush-capture-v1` [`Capture`]
    /// deposited into `slot`. Requires [`Simulation::with_monitors`] for
    /// a trigger to ever fire.
    #[must_use]
    pub fn with_flight_recorder(mut self, frames: usize, slot: CaptureSlot) -> Self {
        self.flight = Some(FlightState {
            recorder: FlightRecorder::new(frames),
            slot,
        });
        self
    }

    /// Replaces every client's protocol with a fresh instance from
    /// `factory` — the fault-injection seam: the monitors' detection
    /// claims are tested by seeding deliberately broken protocols (e.g.
    /// `bpush-mc`'s `BrokenInvalidation`) into an otherwise genuine
    /// simulation. The instrumentation [`Simulation::run`] attaches
    /// wraps the replacement, whatever the builder order.
    #[must_use]
    pub fn with_protocol_factory(
        mut self,
        factory: impl Fn() -> Box<dyn ReadOnlyProtocol>,
    ) -> Self {
        self.clients = self
            .clients
            .into_iter()
            .map(|c| c.with_protocol(factory()))
            .collect();
        self
    }

    /// Feeds every client's control reports through the wire codec:
    /// each client encodes the report to a framed broadcast segment and
    /// decodes it back before its protocol hears it
    /// ([`bpush_client::QueryExecutor::with_wire_feed`]). A wire-fed run
    /// must produce bit-identical
    /// [`MethodMetrics::deterministic_snapshot`]s to the struct-fed
    /// run — any difference is a wire/in-memory divergence.
    #[must_use]
    pub fn with_wire_feed(mut self) -> Self {
        let params = wire_params_for(&self.config);
        self.clients = self
            .clients
            .into_iter()
            .map(|c| c.with_wire_feed(params))
            .collect();
        self
    }

    /// Replaces the server's broadcast mode (e.g. with a
    /// [`bpush_server::BroadcastMode::Disks`] organization), rebuilding
    /// the server from the same seed. Must be called before
    /// [`Simulation::run`].
    ///
    /// # Errors
    /// Returns [`BpushError::InvalidConfig`] if the mode is incompatible
    /// with the configuration (e.g. a disk partitioning that does not
    /// cover the broadcast set).
    pub fn with_server_mode(
        mut self,
        mode: bpush_server::BroadcastMode,
    ) -> Result<Self, BpushError> {
        let seeds = SeedSequence::new(self.config.seed);
        let options = bpush_server::ServerOptions {
            mode,
            sgt_info: self.server.options().sgt_info,
        };
        self.server = BroadcastServer::new(
            self.config.server.clone(),
            options,
            seeds.derive(&["server"]),
        )?;
        Ok(self)
    }

    /// Runs to completion and reduces the outcomes to [`MethodMetrics`].
    ///
    /// # Errors
    /// Returns [`BpushError::CycleBudgetExhausted`] if the configured
    /// `max_cycles` elapse before every client finishes its queries.
    pub fn run(self) -> Result<MethodMetrics, BpushError> {
        self.run_with_observer(|_| {})
    }

    /// Like [`Simulation::run`], but additionally streams every measured
    /// [`QueryOutcome`] to `observer` as it completes — for query-level
    /// traces, custom metrics, or progress reporting.
    ///
    /// # Errors
    /// Returns [`BpushError::CycleBudgetExhausted`] if the configured
    /// `max_cycles` elapse before every client finishes its queries.
    pub fn run_with_observer(
        mut self,
        mut observer: impl FnMut(&QueryOutcome),
    ) -> Result<MethodMetrics, BpushError> {
        // Wire what the builders collected, once: the monitors ride the
        // sink, the server reports into it, and each client's protocol,
        // as the last factory left it, gets one instrumentation decorator.
        if let Some(monitors) = self.monitors.take() {
            self.obs = self.obs.with_monitors(monitors);
        }
        if self.obs.is_enabled() || self.obs.monitors().is_some() {
            let obs = self.obs.clone();
            self.clients = self
                .clients
                .into_iter()
                .map(|c| c.with_obs(obs.clone()))
                .collect();
        }
        self.server = self.server.with_obs(self.obs.clone());

        let warmup = Cycle::new(u64::from(self.config.warmup_cycles));
        let mut start = Slot::ZERO;
        let mut outcomes: Vec<QueryOutcome> = Vec::new();
        let mut total_slots = 0u64;
        let mut cycles = 0u64;
        let mut peak_graph = (0usize, 0usize);
        let mut validation_ns = Summary::new();

        while self.clients.iter().any(|c| !c.is_done()) {
            if cycles >= self.config.max_cycles {
                return Err(BpushError::CycleBudgetExhausted {
                    max_cycles: self.config.max_cycles,
                });
            }
            let bcast = self.server.run_cycle();
            if let Some(flight) = self.flight.as_mut() {
                let bytes = encode_bcast_segments(&bcast, wire_params_for(&self.config));
                flight.recorder.record_frame(bcast.cycle().number(), &bytes);
            }
            total_slots += bcast.total_slots();
            cycles += 1;
            let measured = bcast.cycle() >= warmup;
            // Wall-time the client side of the cycle — the validation
            // work whose cost the interned data structures target. The
            // clock lives here in `bpush-sim`; protocol crates are
            // clock-free by lint rule L2.
            let cycle_started = std::time::Instant::now();
            for client in &mut self.clients {
                let connected = !client.roll_disconnect();
                for outcome in client.run_cycle(&bcast, start, connected)? {
                    if measured {
                        observer(&outcome);
                        outcomes.push(outcome);
                    }
                }
            }
            validation_ns.record(cycle_started.elapsed().as_nanos() as f64);
            // Flight-recorder trigger: the first monitor violation (or
            // watched abort) freezes the retained wire window into a
            // capture, fingerprinting the affected client's protocol
            // state at the end of the triggering cycle.
            if let (Some(flight), Some(mon)) = (self.flight.as_ref(), self.obs.monitors()) {
                if !flight.slot.is_filled() {
                    if let Some(trigger) = mon.first_trigger() {
                        let fingerprint = self
                            .clients
                            .iter()
                            .find(|c| c.client().index() == trigger.client)
                            .map(|c| fnv64(c.debug_snapshot().as_bytes()))
                            .unwrap_or(0);
                        let capture = flight.recorder.capture(
                            self.method.name(),
                            self.config.seed,
                            self.config.n_clients,
                            // so `cargo xtask explain` can decode the
                            // frames from the capture alone
                            wire_quadruple(&self.config),
                            trigger,
                            fingerprint,
                        );
                        flight.slot.put_if_empty(capture);
                    }
                }
            }
            for client in &self.clients {
                if let Some((nodes, edges)) = client.space_metrics() {
                    peak_graph.0 = peak_graph.0.max(nodes);
                    peak_graph.1 = peak_graph.1.max(edges);
                }
            }
            start = start.plus(bcast.total_slots());
        }

        // Publish the decorator-side tally so event-derived counters can
        // be reconciled against an independent count of the same run.
        if self.obs.is_enabled() {
            self.obs.counter_add("sim.cycles", cycles);
            for client in &self.clients {
                if let Some(stats) = client.protocol_stats() {
                    self.obs.counter_add("stats.controls", stats.controls);
                    self.obs.counter_add("stats.queries", stats.queries);
                    self.obs.counter_add("stats.directives", stats.directives);
                    self.obs.counter_add("stats.accepts", stats.accepts);
                    self.obs.counter_add("stats.rejects", stats.rejects);
                    self.obs.counter_add("stats.dooms", stats.dooms);
                    self.obs.counter_add("stats.finishes", stats.finishes);
                    self.obs
                        .counter_add("stats.missed-cycles", stats.missed_cycles);
                }
            }
        }

        // Validate every committed readset against the ground truth,
        // using the paper's exact criterion (readset = a state of *some*
        // serializable execution, checked against the full conflict
        // graph). A readset the interval check accepts has only
        // overwriters newer than its newest writer, which on the server's
        // commit-ordered graph reach no writer: only a rejected readset
        // goes to the batch, so the graph is replayed only for one.
        let _validator_span =
            self.obs
                .span("validator.check", Cycle::new(cycles), Actor::Validator);
        let interval = SerializabilityValidator::new(self.server.history());
        let mut batch = None;
        let mut violations = 0;
        for o in outcomes
            .iter()
            .filter(|o| o.committed() && interval.check(&o.reads).is_err())
        {
            let batch = batch.get_or_insert_with(|| {
                SerializabilityBatch::new(self.server.history(), self.server.conflict_graph())
            });
            if batch.check(&o.reads).is_err() {
                violations += 1;
            }
        }
        drop(_validator_span);

        let mean_bcast_slots = total_slots as f64 / cycles.max(1) as f64;
        let cycle_len = mean_bcast_slots.max(1.0);
        let mut aborts = Ratio::new();
        let mut latency = Summary::new();
        let mut latency_slots = Summary::new();
        let mut latency_hist = Histogram::new();
        let mut span = Summary::new();
        let mut tuning = Summary::new();
        let mut broadcast_reads = Summary::new();
        let mut reasons: std::collections::BTreeMap<AbortReason, u64> =
            std::collections::BTreeMap::new();
        for o in &outcomes {
            aborts.record(!o.committed());
            match o.aborted {
                Some(reason) => *reasons.entry(reason).or_insert(0) += 1,
                None => {
                    latency.record(o.latency_slots() as f64 / cycle_len);
                    latency_hist.record(o.latency_slots() as f64 / cycle_len);
                    latency_slots.record(o.latency_slots() as f64);
                    span.record(f64::from(o.span));
                    tuning.record(o.tuning_slots as f64);
                    broadcast_reads.record(f64::from(o.broadcast_reads));
                }
            }
        }
        let cache_hit_rate = if self.method.uses_cache() {
            let (mut hits, mut total) = (0u64, 0u64);
            for c in &self.clients {
                if let Some(s) = c.cache_stats() {
                    hits += s.hits;
                    total += s.hits + s.misses;
                }
            }
            (total > 0).then(|| Ratio::from_counts(hits, total))
        } else {
            None
        };

        Ok(MethodMetrics {
            method: self.method,
            queries: outcomes.len() as u64,
            aborts,
            abort_reasons: reasons.into_iter().collect(),
            latency_cycles: latency,
            latency_slots,
            latency_hist,
            span,
            tuning_slots: tuning,
            broadcast_reads,
            cache_hit_rate,
            mean_bcast_slots,
            base_slots: u64::from(self.config.server.data_buckets()),
            violations,
            cycles,
            peak_graph_nodes: peak_graph.0,
            peak_graph_edges: peak_graph.1,
            validation_ns,
        })
    }
}

/// The `WireParams::derive` arguments for a simulation's configured
/// universe — the one spelling both the encoder and a flight capture's
/// header take them from, so a capture can never disagree with the
/// frames it holds. Keys span the broadcast set and sequence numbers
/// span one cycle's update transactions (both exact bounds), while the
/// two age fields are escape-coded, so `window` and `span` only size the
/// common case and out-of-range ages still round-trip exactly.
fn wire_quadruple(config: &SimConfig) -> [u32; 4] {
    [
        config.server.broadcast_size,
        config.server.report_window,
        config.server.txns_per_cycle,
        u32::try_from(config.max_cycles).unwrap_or(u32::MAX),
    ]
}

fn wire_params_for(config: &SimConfig) -> bpush_broadcast::wire::WireParams {
    let [d_items, window, n_txns, span] = wire_quadruple(config);
    bpush_broadcast::wire::WireParams::derive(d_items, window, n_txns, span)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> SimConfig {
        SimConfig {
            server: bpush_types::ServerConfig {
                broadcast_size: 200,
                update_range: 100,
                server_read_range: 200,
                updates_per_cycle: 20,
                txns_per_cycle: 5,
                ..bpush_types::ServerConfig::default()
            },
            client: bpush_types::ClientConfig {
                read_range: 100,
                reads_per_query: 6,
                ..bpush_types::ClientConfig::default()
            },
            n_clients: 3,
            queries_per_client: 15,
            warmup_cycles: 3,
            max_cycles: 20_000,
            seed: 99,
        }
    }

    /// A simulation builds its Zipf read table once: every client, of
    /// the whole run or of a shard, draws from the one table.
    #[test]
    fn every_client_shares_one_zipf_table() {
        let sim = Simulation::new(quick_config(), Method::Sgt).unwrap();
        let first = sim.clients[0].pattern();
        assert_eq!(sim.clients.len(), 3);
        assert!(sim
            .clients
            .iter()
            .all(|c| c.pattern().shares_table_with(first)));
        let own = QueryExecutor::read_pattern(&quick_config().client).unwrap();
        assert!(!own.shares_table_with(first));
        assert_eq!(&own, first);
        let shard = Simulation::with_client_range(
            quick_config(),
            Method::Sgt,
            MultiversionLayout::Overflow,
            1..3,
        )
        .unwrap();
        let first = shard.clients[0].pattern();
        assert!(shard
            .clients
            .iter()
            .all(|c| c.pattern().shares_table_with(first)));
    }

    /// The tentpole acceptance check at the simulation level: attaching
    /// a recording [`Obs`] must not perturb the run (bit-identical
    /// metrics vs the bare run), the event-derived counters must
    /// reconcile exactly with the decorator's independent
    /// `ProtocolStats` tally, and two same-seed traced runs must export
    /// byte-identical traces.
    #[test]
    fn traced_runs_match_bare_runs_and_reconcile() {
        for method in [Method::InvalidationOnly, Method::Sgt, Method::SgtCache] {
            let bare = Simulation::new(quick_config(), method)
                .unwrap()
                .run()
                .unwrap();

            let obs = Obs::recording(1 << 14);
            let traced = Simulation::new(quick_config(), method)
                .unwrap()
                .with_obs(obs.clone())
                .run()
                .unwrap();

            assert_eq!(bare.queries, traced.queries, "{method}");
            assert_eq!(bare.aborts.hits(), traced.aborts.hits(), "{method}");
            assert_eq!(bare.cycles, traced.cycles, "{method}");
            assert_eq!(bare.violations, traced.violations, "{method}");
            assert_eq!(bare.abort_reasons, traced.abort_reasons, "{method}");

            let snap = obs.snapshot().expect("recording sink");
            assert_eq!(
                snap.counter("reads.accepted"),
                snap.counter("stats.accepts"),
                "{method}: event stream vs decorator tally diverged"
            );
            assert_eq!(
                snap.counter("reads.rejected"),
                snap.counter("stats.rejects"),
                "{method}"
            );
            assert_eq!(
                snap.counter("control.processed"),
                snap.counter("stats.controls"),
                "{method}"
            );
            assert_eq!(
                snap.counter("queries.committed") + snap.counter("queries.aborted"),
                snap.counter("stats.finishes"),
                "{method}"
            );
            assert_eq!(snap.counter("server.cycles"), traced.cycles, "{method}");
            // Committed-query events cover at least the measured
            // (post-warmup) outcomes.
            let committed = traced.queries - traced.aborts.hits();
            assert!(
                snap.counter("queries.committed") >= committed,
                "{method}: {} < {committed}",
                snap.counter("queries.committed")
            );

            // Same seed, same capacity => byte-identical exports.
            let obs2 = Obs::recording(1 << 14);
            Simulation::new(quick_config(), method)
                .unwrap()
                .with_obs(obs2.clone())
                .run()
                .unwrap();
            let snap2 = obs2.snapshot().expect("recording sink");
            assert_eq!(
                bpush_obs::export::chrome_trace(&snap),
                bpush_obs::export::chrome_trace(&snap2),
                "{method}: same-seed traces not byte-identical"
            );
            assert_eq!(
                bpush_obs::export::ndjson(&snap),
                bpush_obs::export::ndjson(&snap2),
                "{method}"
            );
        }
    }

    /// The sans-IO acceptance check at the simulation level: every
    /// method run wire-fed (reports encoded to framed segments and
    /// decoded back on the feed path) produces a bit-identical
    /// deterministic metrics snapshot to the struct-fed run. Any
    /// encode/decode divergence in the codec surfaces here.
    #[test]
    fn wire_fed_runs_are_bit_identical() {
        for method in Method::ALL {
            let struct_fed = Simulation::new(quick_config(), method)
                .unwrap()
                .run()
                .unwrap();
            let wire_fed = Simulation::new(quick_config(), method)
                .unwrap()
                .with_wire_feed()
                .run()
                .unwrap();
            assert_eq!(
                struct_fed.deterministic_snapshot(),
                wire_fed.deterministic_snapshot(),
                "{method}: the wire perturbed the simulation"
            );
        }
    }

    /// Wire feeding composes with instrumentation: the decoded reports
    /// are what the instrumented protocol counts, and the counters
    /// reconcile exactly with a struct-fed traced run.
    #[test]
    fn wire_fed_composes_with_instrumentation() {
        let method = Method::Sgt;
        let obs_a = Obs::recording(1 << 14);
        Simulation::new(quick_config(), method)
            .unwrap()
            .with_obs(obs_a.clone())
            .run()
            .unwrap();
        let obs_b = Obs::recording(1 << 14);
        Simulation::new(quick_config(), method)
            .unwrap()
            .with_wire_feed()
            .with_obs(obs_b.clone())
            .run()
            .unwrap();
        let snap_a = obs_a.snapshot().expect("recording");
        let snap_b = obs_b.snapshot().expect("recording");
        assert_eq!(
            snap_a.counters, snap_b.counters,
            "wire-fed counters diverged from struct-fed"
        );
    }

    /// The wire round trip is a step of the client, not a wrapper around
    /// its protocol, so where `with_wire_feed` sits among the builders
    /// changes nothing: not the trace, not the metrics, and not which
    /// protocol a factory installed.
    #[test]
    fn builder_order_does_not_matter_for_the_wire() {
        let traced = |wire_first: bool| {
            let obs = Obs::recording(1 << 14);
            let sim = Simulation::new(quick_config(), Method::Sgt).unwrap();
            let sim = if wire_first {
                sim.with_wire_feed().with_obs(obs.clone())
            } else {
                sim.with_obs(obs.clone()).with_wire_feed()
            };
            let metrics = sim.run().unwrap();
            let snap = obs.snapshot().expect("recording");
            (
                bpush_obs::export::ndjson(&snap),
                metrics.deterministic_snapshot(),
            )
        };
        assert_eq!(traced(true), traced(false));

        let seeded = |wire_first: bool| {
            let broken =
                || -> Box<dyn ReadOnlyProtocol> { Box::new(bpush_mc::BrokenInvalidation::new()) };
            let sim = Simulation::new(quick_config(), Method::InvalidationOnly).unwrap();
            let sim = if wire_first {
                sim.with_wire_feed().with_protocol_factory(broken)
            } else {
                sim.with_protocol_factory(broken).with_wire_feed()
            };
            sim.run().unwrap().deterministic_snapshot()
        };
        let genuine = Simulation::new(quick_config(), Method::InvalidationOnly)
            .unwrap()
            .run()
            .unwrap()
            .deterministic_snapshot();
        assert_eq!(seeded(true), seeded(false));
        assert_ne!(seeded(true), genuine, "the factory's protocol must run");
    }

    #[test]
    fn every_method_runs_clean() {
        for method in Method::ALL {
            let metrics = Simulation::new(quick_config(), method)
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(metrics.violations, 0, "{method} violated serializability");
            assert!(metrics.queries > 0, "{method} finished no queries");
            assert!(metrics.cycles > 0);
            assert!(metrics.mean_bcast_slots >= metrics.base_slots as f64);
        }
    }

    #[test]
    fn multiversion_aborts_nothing_within_retention() {
        let mut cfg = quick_config();
        // retain enough old versions to cover every span the workload
        // can produce (the paper's S-multiversion server, §3.2)
        cfg.server.versions_retained = 24;
        let metrics = Simulation::new(cfg, Method::MultiversionBroadcast)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(metrics.aborts.hits(), 0, "span <= S queries all accepted");
    }

    #[test]
    fn multiversion_with_short_retention_aborts_long_spans() {
        let mut cfg = quick_config();
        cfg.server.versions_retained = 1; // V-multiversion with V = 1
        cfg.client.reads_per_query = 12;
        let metrics = Simulation::new(cfg, Method::MultiversionBroadcast)
            .unwrap()
            .run()
            .unwrap();
        assert!(
            metrics.aborts.hits() > 0,
            "span > V queries proceed at their own risk and abort"
        );
        assert_eq!(metrics.violations, 0, "but never commit inconsistently");
    }

    #[test]
    fn sgt_accepts_more_than_invalidation_only() {
        let inv = Simulation::new(quick_config(), Method::InvalidationOnly)
            .unwrap()
            .run()
            .unwrap();
        let sgt = Simulation::new(quick_config(), Method::Sgt)
            .unwrap()
            .run()
            .unwrap();
        assert!(
            sgt.aborts.rate() <= inv.aborts.rate(),
            "SGT must not abort more: {} vs {}",
            sgt.abort_pct(),
            inv.abort_pct()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = Simulation::new(quick_config(), Method::InvalidationCache)
            .unwrap()
            .run()
            .unwrap();
        let b = Simulation::new(quick_config(), Method::InvalidationCache)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(a.aborts, b.aborts);
        assert_eq!(a.cycles, b.cycles);
        assert!((a.latency_cycles.mean() - b.latency_cycles.mean()).abs() < 1e-12);
    }

    #[test]
    fn overhead_is_positive_for_multiversion() {
        let mv = Simulation::new(quick_config(), Method::MultiversionBroadcast)
            .unwrap()
            .run()
            .unwrap();
        let inv = Simulation::new(quick_config(), Method::InvalidationOnly)
            .unwrap()
            .run()
            .unwrap();
        assert!(mv.overhead_pct() > inv.overhead_pct());
        assert!(inv.overhead_pct() >= 0.0);
    }

    #[test]
    fn sgt_reports_peak_graph_size_and_validation_time() {
        let sgt = Simulation::new(quick_config(), Method::Sgt)
            .unwrap()
            .run()
            .unwrap();
        assert!(
            sgt.peak_graph_nodes > 0,
            "SGT under an updating workload must retain graph nodes"
        );
        assert!(sgt.peak_graph_edges > 0);
        // Pinned at the commit before window-first diff integration: what
        // a client retains is Lemma 1's window, however it gets there.
        assert_eq!(
            (sgt.peak_graph_nodes, sgt.peak_graph_edges, sgt.cycles),
            (12, 19, 45)
        );
        assert_eq!(
            sgt.validation_ns.count(),
            sgt.cycles,
            "one validation-time sample per simulated cycle"
        );
        let inv = Simulation::new(quick_config(), Method::InvalidationOnly)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(inv.peak_graph_nodes, 0, "no graph for invalidation-only");
        assert_eq!(inv.peak_graph_edges, 0);
    }

    #[test]
    fn merge_keeps_peak_and_validation_samples() {
        let mut a = Simulation::new(quick_config(), Method::Sgt)
            .unwrap()
            .run()
            .unwrap();
        let mut cfg = quick_config();
        cfg.seed = 123;
        let b = Simulation::new(cfg, Method::Sgt).unwrap().run().unwrap();
        let expect_nodes = a.peak_graph_nodes.max(b.peak_graph_nodes);
        let expect_samples = a.validation_ns.count() + b.validation_ns.count();
        a.merge(&b);
        assert_eq!(a.peak_graph_nodes, expect_nodes);
        assert_eq!(a.validation_ns.count(), expect_samples);
    }

    #[test]
    fn observer_sees_every_measured_outcome() {
        let mut seen = 0u64;
        let metrics = Simulation::new(quick_config(), Method::InvalidationOnly)
            .unwrap()
            .run_with_observer(|o| {
                assert!(o.finished >= o.started);
                seen += 1;
            })
            .unwrap();
        assert_eq!(seen, metrics.queries);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut cfg = quick_config();
        cfg.max_cycles = 2;
        let err = Simulation::new(cfg, Method::InvalidationOnly)
            .unwrap()
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            BpushError::CycleBudgetExhausted { max_cycles: 2 }
        ));
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let mut cfg = quick_config();
        cfg.n_clients = 0;
        assert!(Simulation::new(cfg, Method::InvalidationOnly).is_err());
    }

    /// The tentpole acceptance check at the monitor level: every genuine
    /// method passes its own invariant monitors over a full run, with
    /// the monitors attached through the plain [`Obs`] handle (no
    /// recording sink needed), and attaching them does not perturb the
    /// simulation (bit-identical deterministic metrics).
    ///
    /// The last run is `SgtVersionedItems` with disconnections: the one
    /// graph-policy method whose lanes may commit after missing a diff
    /// (its coverage rule is `Ignore`), so the only case where the
    /// shared graph knows more than a lane heard.
    #[test]
    fn every_genuine_method_passes_its_monitors() {
        let mut dozing = quick_config();
        dozing.client.disconnect_prob = 0.3;
        let runs = Method::ALL
            .map(|method| (method, quick_config()))
            .into_iter()
            .chain([(Method::SgtVersionedItems, dozing)]);
        for (method, config) in runs {
            let bare = Simulation::new(config.clone(), method)
                .unwrap()
                .run()
                .unwrap();
            let monitors = monitors_for(&config, method);
            let slot = CaptureSlot::new();
            let watched = Simulation::new(config, method)
                .unwrap()
                .with_monitors(monitors.clone())
                .with_flight_recorder(8, slot.clone())
                .run()
                .unwrap();
            let verdict = monitors.verdict();
            assert!(
                verdict.pass(),
                "{method}: genuine protocol flagged online:\n{}",
                verdict.render()
            );
            assert_eq!(verdict.violations.len(), 0, "{method}");
            assert!(verdict.commits > 0, "{method}: monitors saw no commits");
            assert!(verdict.controls > 0, "{method}: monitors saw no controls");
            assert!(slot.take().is_none(), "{method}: spurious capture");
            assert_eq!(
                bare.deterministic_snapshot(),
                watched.deterministic_snapshot(),
                "{method}: monitors perturbed the simulation"
            );
        }
    }

    /// The headline detection claim: a seeded `BrokenInvalidation`
    /// protocol (off-by-one staleness check, previously caught only by
    /// the model checker) is caught *online* by the currency monitor
    /// during a normal simulation run, and the flight recorder dumps a
    /// parseable `bpush-capture-v1` capture naming the violating read.
    #[test]
    fn broken_invalidation_is_caught_online_with_capture() {
        let monitors = monitors_for(&quick_config(), Method::InvalidationOnly);
        let slot = CaptureSlot::new();
        Simulation::new(quick_config(), Method::InvalidationOnly)
            .unwrap()
            .with_protocol_factory(|| Box::new(bpush_mc::BrokenInvalidation::new()))
            .with_monitors(monitors.clone())
            .with_flight_recorder(8, slot.clone())
            .run()
            .unwrap();
        let verdict = monitors.verdict();
        assert!(!verdict.pass(), "the seeded bug must be flagged online");
        assert!(monitors.first_trigger().is_some());
        let first = verdict.violations.first().expect("a retained violation");
        assert_eq!(first.kind, bpush_obs::monitor::MonitorKind::Currency);

        let capture = slot.take().expect("flight recorder must have dumped");
        assert_eq!(capture.method, "inv-only");
        assert_eq!(capture.seed, quick_config().seed);
        assert_eq!(capture.clients, quick_config().n_clients);
        assert_eq!(capture.trigger, *first, "capture trigger = first violation");
        assert!(!capture.frames.is_empty(), "capture retains wire frames");
        assert_ne!(capture.fingerprint, 0, "protocol state fingerprinted");
        let text = capture.render();
        let back = bpush_obs::Capture::parse(&text).expect("capture roundtrips");
        assert_eq!(back, capture);
    }

    /// A lane table smaller than the client population does not pass a
    /// run it could not check: each typed call from a client without a
    /// lane is counted unknown, so the seeded bug fails the verdict even
    /// with no lane at all.
    #[test]
    fn an_undersized_lane_table_does_not_pass_a_broken_run() {
        let (policy, coverage) = Method::InvalidationOnly.monitor_policy();
        for lanes in [0, 1] {
            let monitors = Monitors::new(MonitorConfig::new(lanes, policy, coverage));
            Simulation::new(quick_config(), Method::InvalidationOnly)
                .unwrap()
                .with_protocol_factory(|| Box::new(bpush_mc::BrokenInvalidation::new()))
                .with_monitors(monitors.clone())
                .run()
                .unwrap();
            let verdict = monitors.verdict();
            assert!(!verdict.pass(), "{lanes} lanes: {}", verdict.render());
            assert!(verdict.unknown_clients > 0, "{lanes} lanes");
        }
    }

    /// Every fate the run records reaches the monitors once: with no
    /// warm-up, their commit and abort counts are the run's, and each
    /// `Invalidated` abort is a watch hit, retained or dropped.
    #[test]
    fn monitors_hear_every_fate_the_run_records() {
        let mut config = quick_config();
        config.warmup_cycles = 0;
        for method in [Method::InvalidationOnly, Method::MultiversionCaching] {
            let (policy, coverage) = method.monitor_policy();
            let mut watched = MonitorConfig::new(config.n_clients, policy, coverage);
            watched.watch = Some(AbortReason::Invalidated);
            let monitors = Monitors::new(watched);
            let metrics = Simulation::new(config.clone(), method)
                .unwrap()
                .with_monitors(monitors.clone())
                .run()
                .unwrap();
            let verdict = monitors.verdict();
            assert!(verdict.pass(), "{method}: {}", verdict.render());
            let aborted = metrics.aborts.hits();
            assert_eq!(verdict.commits, metrics.queries - aborted, "{method}");
            assert_eq!(verdict.aborts, aborted, "{method}");
            let invalidated = metrics
                .abort_reasons
                .iter()
                .find(|(r, _)| *r == AbortReason::Invalidated)
                .map_or(0, |&(_, n)| n);
            let hits = verdict.watch_hits.len() as u64 + verdict.watch_dropped;
            assert_eq!(hits, invalidated, "{method}");
        }
    }

    /// Same-seed monitored runs produce byte-identical verdicts and
    /// captures — the determinism contract forensics relies on.
    #[test]
    fn same_seed_verdicts_and_captures_are_byte_identical() {
        let run = || {
            let monitors = monitors_for(&quick_config(), Method::InvalidationOnly);
            let slot = CaptureSlot::new();
            Simulation::new(quick_config(), Method::InvalidationOnly)
                .unwrap()
                .with_protocol_factory(|| Box::new(bpush_mc::BrokenInvalidation::new()))
                .with_monitors(monitors.clone())
                .with_flight_recorder(8, slot.clone())
                .run()
                .unwrap();
            let capture = slot.take().expect("capture");
            (monitors.verdict().render(), capture.render())
        };
        let (verdict_a, capture_a) = run();
        let (verdict_b, capture_b) = run();
        assert_eq!(verdict_a, verdict_b, "verdicts must be byte-identical");
        assert_eq!(capture_a, capture_b, "captures must be byte-identical");
    }

    /// Monitors compose with the wire feed and a recording sink: the
    /// decoded reports drive the same typed feed, so the verdict is
    /// identical to the struct-fed run's.
    #[test]
    fn monitors_compose_with_wire_feed_and_recording() {
        let struct_fed = monitors_for(&quick_config(), Method::Sgt);
        Simulation::new(quick_config(), Method::Sgt)
            .unwrap()
            .with_monitors(struct_fed.clone())
            .run()
            .unwrap();
        let wire_fed = monitors_for(&quick_config(), Method::Sgt);
        Simulation::new(quick_config(), Method::Sgt)
            .unwrap()
            .with_wire_feed()
            .with_obs(Obs::recording(1 << 14))
            .with_monitors(wire_fed.clone())
            .run()
            .unwrap();
        assert!(struct_fed.verdict().pass());
        assert_eq!(
            struct_fed.verdict().render(),
            wire_fed.verdict().render(),
            "wire feed or recording sink perturbed the monitors"
        );
    }

    /// A sense an [`ImpairedSgt`] lacks.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Impairment {
        /// It asks for no diff and hears each control without one, so
        /// its window never links the server's conflicts and it commits
        /// what the §3.3 test would abort.
        DiffBlind,
        /// It ignores `on_missed_cycle`, so a query reads on across a
        /// gap that plain SGT must abort it for (§5.2.2).
        MissDeaf,
    }

    /// SGT with one [`Impairment`], for the monitors to catch.
    #[derive(Debug)]
    struct ImpairedSgt(Box<dyn ReadOnlyProtocol>, Impairment);

    impl ImpairedSgt {
        fn factory(impairment: Impairment) -> impl Fn() -> Box<dyn ReadOnlyProtocol> {
            move || Box::new(ImpairedSgt(Method::Sgt.build_protocol(), impairment))
        }
    }

    impl ReadOnlyProtocol for ImpairedSgt {
        fn name(&self) -> &'static str {
            self.0.name()
        }

        fn cache_mode(&self) -> CacheMode {
            self.0.cache_mode()
        }

        fn on_control(&mut self, ctrl: &bpush_broadcast::ControlInfo) {
            if self.1 == Impairment::DiffBlind {
                let blind = bpush_broadcast::ControlInfo::new(
                    ctrl.cycle(),
                    ctrl.invalidation().clone(),
                    ctrl.augmented().cloned(),
                    None,
                );
                self.0.on_control(&blind);
            } else {
                self.0.on_control(ctrl);
            }
        }

        fn needs_graph_diff(&self, head: &bpush_broadcast::ControlInfo) -> bool {
            self.1 != Impairment::DiffBlind && self.0.needs_graph_diff(head)
        }

        fn on_missed_cycle(&mut self, cycle: Cycle) {
            if self.1 != Impairment::MissDeaf {
                self.0.on_missed_cycle(cycle);
            }
        }

        fn begin_query(&mut self, q: bpush_types::QueryId, now: Cycle) {
            self.0.begin_query(q, now);
        }

        fn read_directive(
            &self,
            q: bpush_types::QueryId,
            item: bpush_types::ItemId,
            now: Cycle,
        ) -> bpush_core::ReadDirective {
            self.0.read_directive(q, item, now)
        }

        fn apply_read(
            &mut self,
            q: bpush_types::QueryId,
            item: bpush_types::ItemId,
            candidate: &bpush_core::ReadCandidate,
            now: Cycle,
        ) -> bpush_core::ReadOutcome {
            self.0.apply_read(q, item, candidate, now)
        }

        fn finish_query(&mut self, q: bpush_types::QueryId) {
            self.0.finish_query(q);
        }
    }

    /// The monitors keep every diff themselves, so a diff-blind SGT is
    /// flagged whether its reports arrive as structs or through the wire
    /// codec, where a diff no protocol asks for stays unread.
    #[test]
    fn monitors_flag_a_diff_blind_sgt_on_either_feed() {
        let run = |wire: bool| {
            let monitors = monitors_for(&quick_config(), Method::Sgt);
            let sim = Simulation::new(quick_config(), Method::Sgt)
                .unwrap()
                .with_protocol_factory(ImpairedSgt::factory(Impairment::DiffBlind));
            let sim = if wire { sim.with_wire_feed() } else { sim };
            let metrics = sim.with_monitors(monitors.clone()).run().unwrap();
            assert!(
                metrics.violations > 0,
                "the audit must see the blind commits"
            );
            monitors.verdict()
        };
        let (struct_fed, wire_fed) = (run(false), run(true));
        assert!(
            struct_fed
                .violations
                .iter()
                .any(|v| v.kind == bpush_obs::monitor::MonitorKind::Serializability),
            "{}",
            struct_fed.render()
        );
        assert_eq!(struct_fed.render(), wire_fed.render());
    }

    /// A query that reads on across a missed cycle under plain SGT is a
    /// coverage violation, whichever feed brought the controls it heard.
    #[test]
    fn monitors_flag_an_sgt_deaf_to_missed_cycles_on_either_feed() {
        let mut dozing = quick_config();
        dozing.client.disconnect_prob = 0.3;
        let run = |wire: bool| {
            let monitors = monitors_for(&dozing, Method::Sgt);
            let sim = Simulation::new(dozing.clone(), Method::Sgt)
                .unwrap()
                .with_protocol_factory(ImpairedSgt::factory(Impairment::MissDeaf));
            let sim = if wire { sim.with_wire_feed() } else { sim };
            sim.with_monitors(monitors.clone()).run().unwrap();
            monitors.verdict()
        };
        let (struct_fed, wire_fed) = (run(false), run(true));
        assert!(
            struct_fed
                .violations
                .iter()
                .any(|v| v.kind == bpush_obs::monitor::MonitorKind::Coverage),
            "{}",
            struct_fed.render()
        );
        assert_eq!(struct_fed.render(), wire_fed.render());
    }

    /// Observation is wired once, when the run starts: a recording sink
    /// and monitors attached in either order record each protocol event
    /// once, so the counters reconcile with the decorator's tally and the
    /// trace is the one a recording-only run writes.
    #[test]
    fn recorded_and_monitored_runs_reconcile_in_either_order() {
        for method in [Method::InvalidationOnly, Method::Sgt] {
            let recorded_only = Obs::recording(1 << 14);
            Simulation::new(quick_config(), method)
                .unwrap()
                .with_obs(recorded_only.clone())
                .run()
                .unwrap();
            let alone = recorded_only.snapshot().expect("recording");
            for obs_first in [true, false] {
                let obs = Obs::recording(1 << 14);
                let monitors = monitors_for(&quick_config(), method);
                let sim = Simulation::new(quick_config(), method).unwrap();
                let sim = if obs_first {
                    sim.with_obs(obs.clone()).with_monitors(monitors.clone())
                } else {
                    sim.with_monitors(monitors.clone()).with_obs(obs.clone())
                };
                sim.run().unwrap();
                let snap = obs.snapshot().expect("recording");
                for (events, tally) in [
                    ("reads.accepted", "stats.accepts"),
                    ("reads.rejected", "stats.rejects"),
                    ("control.processed", "stats.controls"),
                ] {
                    assert_eq!(
                        snap.counter(events),
                        snap.counter(tally),
                        "{method} obs_first={obs_first}: {events} vs {tally}"
                    );
                }
                assert_eq!(
                    bpush_obs::export::ndjson(&snap),
                    bpush_obs::export::ndjson(&alone),
                    "{method} obs_first={obs_first}"
                );
                let verdict = monitors.verdict();
                assert!(verdict.pass(), "{method}: {}", verdict.render());
                assert_eq!(verdict.controls, snap.counter("stats.controls"));
            }
        }
    }

    /// A protocol factory applied after the monitors still runs under
    /// them: the seeded bug is flagged, with the verdict of the other
    /// builder order.
    #[test]
    fn a_factory_after_the_monitors_is_still_watched() {
        let run = |factory_first: bool| {
            let monitors = monitors_for(&quick_config(), Method::InvalidationOnly);
            let broken =
                || -> Box<dyn ReadOnlyProtocol> { Box::new(bpush_mc::BrokenInvalidation::new()) };
            let sim = Simulation::new(quick_config(), Method::InvalidationOnly).unwrap();
            let sim = if factory_first {
                sim.with_protocol_factory(broken)
                    .with_monitors(monitors.clone())
            } else {
                sim.with_monitors(monitors.clone())
                    .with_protocol_factory(broken)
            };
            sim.run().unwrap();
            monitors.verdict()
        };
        let late = run(false);
        assert!(!late.pass(), "{}", late.render());
        assert!(late.controls > 0);
        assert_eq!(late.render(), run(true).render());
    }

    #[test]
    fn capture_slot_is_write_once() {
        let slot = CaptureSlot::new();
        assert!(!slot.is_filled());
        assert!(slot.take().is_none());
        let mut fr = bpush_obs::FlightRecorder::new(2);
        fr.record_frame(1, &[0xaa]);
        let cap = |seed| {
            fr.capture(
                "m",
                seed,
                1,
                [1, 1, 1, 1],
                bpush_obs::Violation {
                    kind: bpush_obs::monitor::MonitorKind::Currency,
                    client: 0,
                    query: 1,
                    cycle: 2,
                    item: 3,
                    write_cycle: 1,
                    detail: 0,
                },
                7,
            )
        };
        assert!(slot.put_if_empty(cap(1)));
        assert!(slot.is_filled());
        assert!(!slot.put_if_empty(cap(2)), "first trigger wins");
        let kept = slot.take().expect("filled");
        assert_eq!(kept.seed, 1);
        assert!(!slot.is_filled(), "take drains the slot");
    }
}
