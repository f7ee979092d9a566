//! The benchmark's whole view of the program under test.
//!
//! This is the only file that names `bpush_*` items. Everything else in
//! the benchmark speaks in the plain types below, so when the program's
//! API is reshaped (ROADMAP item 3 collapses the client drivers, the
//! feed paths and the `run_sharded*` family) the repair is this one
//! file, and the workloads, metrics and checks keep their meaning.
//!
//! Calls used: `paper_defaults`, `config_for`,
//! `Simulation::{new, with_wire_feed, with_monitors, run}`,
//! `monitors_for`, `Job::new`, `run_sharded_with_workers`; for the
//! traced driver `BroadcastServer::{new, run_cycle, history,
//! conflict_graph}`, `ClientCache::new`, `QueryExecutor::{new,
//! with_wire_feed, roll_disconnect, run_cycle, is_done, cache_stats,
//! space_metrics}`, `SerializabilityBatch::{new, check}`,
//! `SeedSequence::derive`; for the channel pass `WireParams::derive`,
//! `encode_bcast_segments`, `WireFeed::{push, pop}`, `decode_segment`.

use std::time::Instant;

use bpush_broadcast::feed::{
    decode_segment, encode_bcast_segments, DecodedSegment, SegmentKind, WireFeed,
    SEGMENT_HEADER_BYTES,
};
use bpush_broadcast::wire::WireParams;
use bpush_broadcast::Bcast;
use bpush_client::{CacheParams, ClientCache, QueryExecutor, QueryOutcome};
use bpush_core::validator::SerializabilityBatch;
use bpush_core::{CacheMode, Method};
use bpush_server::BroadcastServer;
use bpush_sim::experiments::{config_for, paper_defaults};
use bpush_sim::{monitors_for, run_sharded_with_workers, Job, MethodMetrics, Simulation};
use bpush_types::config::MultiversionLayout;
use bpush_types::seed::SeedSequence;
use bpush_types::{AbortReason, ClientId, SimConfig, Slot};

pub use bpush_types::BpushError as Error;

/// The four method families every workload runs: the three server modes
/// (plain, multiversion, SGT) and a cached next to an uncached client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Plain server, no cache.
    InvOnly,
    /// Multiversion server with the overflow layout.
    Multiversion,
    /// SGT server, client-side serialization graph.
    Sgt,
    /// Plain server, multiversion client cache.
    MvCaching,
}

impl Family {
    /// All four, in reporting order.
    pub const ALL: [Family; 4] = [
        Family::InvOnly,
        Family::Multiversion,
        Family::Sgt,
        Family::MvCaching,
    ];

    /// The suffix this family has in per-method metric names.
    pub fn name(self) -> &'static str {
        match self {
            Family::InvOnly => "inv-only",
            Family::Multiversion => "multiversion",
            Family::Sgt => "sgt",
            Family::MvCaching => "mv-caching",
        }
    }

    fn method(self) -> Method {
        match self {
            Family::InvOnly => Method::InvalidationOnly,
            Family::Multiversion => Method::MultiversionBroadcast,
            Family::Sgt => Method::Sgt,
            Family::MvCaching => Method::MultiversionCaching,
        }
    }
}

/// How control reports reach the clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// As in-memory structures.
    Struct,
    /// Through encode → frame → decode, once per client.
    Wire,
}

/// The fields of the paper's Figure-4 configuration a workload changes.
/// Everything else stays at `paper_defaults()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// `D`: items broadcast per cycle; server transactions read all of it.
    pub broadcast_size: u32,
    /// Items `1..=update_range` are eligible for updates.
    pub update_range: u32,
    /// Items `1..=read_range` are what client queries read.
    pub read_range: u32,
    /// Offset between the server's update and the clients' read pattern.
    pub offset: u32,
    /// `U`: item updates per cycle.
    pub updates_per_cycle: u32,
    /// `N`: server transactions per cycle.
    pub txns_per_cycle: u32,
    /// Simulated clients.
    pub clients: u32,
    /// Queries each client finishes.
    pub queries_per_client: u32,
}

/// One method family's generated input: all the program ever sees of a
/// workload and its seed.
#[derive(Debug, Clone)]
pub struct Config {
    family: Family,
    sim: SimConfig,
}

impl Config {
    /// Builds the input for `family` from a workload shape and a seed.
    /// Replication 0 runs under `seed` itself, as `run_replicated` has
    /// it; later replications under seeds derived from it.
    pub fn new(shape: &Shape, family: Family, seed: u64, replication: u32) -> Self {
        let mut sim = paper_defaults();
        sim.server.broadcast_size = shape.broadcast_size;
        sim.server.server_read_range = shape.broadcast_size;
        sim.server.update_range = shape.update_range;
        sim.server.offset = shape.offset;
        sim.server.updates_per_cycle = shape.updates_per_cycle;
        sim.server.txns_per_cycle = shape.txns_per_cycle;
        sim.client.read_range = shape.read_range;
        sim.n_clients = shape.clients;
        sim.queries_per_client = shape.queries_per_client;
        sim.seed = match replication {
            0 => seed,
            r => SeedSequence::new(seed).derive(&["replication", &r.to_string()]),
        };
        Config {
            family,
            sim: config_for(family.method(), sim),
        }
    }

    /// The method family this input is for.
    pub fn family(&self) -> Family {
        self.family
    }

    /// Simulated clients.
    pub fn clients(&self) -> u32 {
        self.sim.n_clients
    }

    /// Cycles that run before queries are measured.
    pub fn warmup_cycles(&self) -> u64 {
        u64::from(self.sim.warmup_cycles)
    }

    /// The error a run gives up with once `cycles` reaches the
    /// configured cycle budget.
    ///
    /// # Errors
    /// Returns the program's own budget error.
    pub fn check_budget(&self, cycles: u64) -> Result<(), Error> {
        if cycles >= self.sim.max_cycles {
            return Err(Error::CycleBudgetExhausted {
                max_cycles: self.sim.max_cycles,
            });
        }
        Ok(())
    }

    /// A canonical rendering of the whole generated input.
    pub fn fingerprint(&self) -> String {
        format!("{:?}", self.sim)
    }

    fn wire_params(&self) -> WireParams {
        WireParams::derive(
            self.sim.server.broadcast_size,
            self.sim.server.report_window,
            self.sim.server.txns_per_cycle,
            u32::try_from(self.sim.max_cycles).unwrap_or(u32::MAX),
        )
    }
}

/// Labels of the per-reason abort counters in [`Counts::aborts`].
pub fn abort_labels() -> [&'static str; AbortReason::COUNT] {
    AbortReason::ALL.map(AbortReason::label)
}

/// The outcome counts the traced driver must reproduce exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Measured queries (committed + aborted, after warm-up).
    pub queries: u64,
    /// Measured queries that committed.
    pub commits: u64,
    /// Aborts per reason, in [`abort_labels`] order.
    pub aborts: [u64; AbortReason::COUNT],
    /// Broadcast cycles simulated (summed over shards when sharded).
    pub cycles: u64,
}

impl Counts {
    fn record(&mut self, outcome: &QueryOutcome) {
        self.queries += 1;
        match outcome.aborted {
            None => self.commits += 1,
            Some(reason) => {
                if let Some(slot) = self.aborts.get_mut(reason.index()) {
                    *slot += 1;
                }
            }
        }
    }
}

/// What one simulation reported, reduced to plain numbers.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Query, commit, abort and cycle counts.
    pub counts: Counts,
    /// Committed readsets the end-of-run audit rejected.
    pub violations: u64,
    /// Mean latency of committed queries, in broadcast cycles.
    pub latency_cycles_mean: f64,
    /// Slot-model broadcast-size increase over the bare data segment.
    pub overhead_pct: f64,
    /// Mean on-air bcast length in slots.
    pub bcast_slots_mean: f64,
    /// `MethodMetrics::deterministic_snapshot()`: every simulated
    /// statistic, for bit-identity checks between runs.
    pub snapshot: String,
}

impl From<MethodMetrics> for Outcome {
    fn from(m: MethodMetrics) -> Self {
        let mut aborts = [0; AbortReason::COUNT];
        for &(reason, n) in &m.abort_reasons {
            if let Some(slot) = aborts.get_mut(reason.index()) {
                *slot = n;
            }
        }
        Outcome {
            counts: Counts {
                queries: m.queries,
                commits: m.queries - m.aborts.hits(),
                aborts,
                cycles: m.cycles,
            },
            violations: m.violations,
            latency_cycles_mean: m.latency_cycles.mean(),
            overhead_pct: m.overhead_pct(),
            bcast_slots_mean: m.mean_bcast_slots,
            snapshot: m.deterministic_snapshot(),
        }
    }
}

/// How one simulation is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// `Simulation::new(..).run()` with the given feed.
    Plain(Feed),
    /// Struct-fed with the online invariant monitors attached.
    Monitored,
    /// `run_sharded_with_workers(job, shards, workers)`.
    Sharded {
        /// Client shards.
        shards: u32,
        /// Worker threads.
        workers: usize,
    },
}

/// A constructed, not yet run, simulation. Single-use, like the
/// program's own `Simulation`.
#[derive(Debug)]
pub struct Sim(Staged);

#[derive(Debug)]
enum Staged {
    Single(Box<Simulation>),
    /// The sharded runner constructs its simulations inside its one
    /// call, so only the job can be staged ahead of it.
    Sharded {
        job: Job,
        shards: u32,
        workers: usize,
    },
}

impl Sim {
    /// Constructs the simulation of `config` for `exec`.
    ///
    /// # Errors
    /// Propagates the program's configuration errors.
    pub fn construct(config: &Config, exec: Exec) -> Result<Self, Error> {
        let method = config.family.method();
        let new = || Simulation::new(config.sim.clone(), method);
        let single = |sim: Simulation| Staged::Single(Box::new(sim));
        Ok(Sim(match exec {
            Exec::Plain(Feed::Struct) => single(new()?),
            Exec::Plain(Feed::Wire) => single(new()?.with_wire_feed()),
            Exec::Monitored => single(new()?.with_monitors(monitors_for(&config.sim, method))),
            Exec::Sharded { shards, workers } => Staged::Sharded {
                job: Job::new(method, config.sim.clone()),
                shards,
                workers,
            },
        }))
    }

    /// Runs to completion.
    ///
    /// # Errors
    /// Propagates the program's cycle-budget or internal errors.
    pub fn run(self) -> Result<Outcome, Error> {
        match self.0 {
            Staged::Single(sim) => sim.run(),
            Staged::Sharded {
                job,
                shards,
                workers,
            } => run_sharded_with_workers(&job, shards, workers),
        }
        .map(Outcome::from)
    }
}

/// One cycle's broadcast, as the server produced it.
#[derive(Debug)]
pub struct Cast(Bcast);

impl Cast {
    /// The broadcast cycle's number.
    pub fn cycle(&self) -> u64 {
        self.0.cycle().number()
    }

    /// On-air length in slots.
    pub fn total_slots(&self) -> u64 {
        self.0.total_slots()
    }

    /// Items carried in the data segment.
    pub fn item_count(&self) -> usize {
        self.0.item_count()
    }
}

/// The server of the traced driver, seeded as `Simulation::new` seeds it.
#[derive(Debug)]
pub struct Server(BroadcastServer);

/// What the end-of-run audit is given and what it found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Audit {
    /// Committed readsets checked.
    pub readsets: u64,
    /// Readsets rejected as not serializable.
    pub violations: u64,
}

impl Server {
    /// Builds the server half of a simulation of `config`.
    ///
    /// # Errors
    /// Propagates the program's configuration errors.
    pub fn new(config: &Config) -> Result<Self, Error> {
        config.sim.validate()?;
        let options = config
            .family
            .method()
            .server_options(MultiversionLayout::Overflow);
        let seed = SeedSequence::new(config.sim.seed).derive(&["server"]);
        BroadcastServer::new(config.sim.server.clone(), options, seed).map(Server)
    }

    /// Commits one cycle's transactions and assembles its broadcast.
    pub fn run_cycle(&mut self) -> Cast {
        Cast(self.0.run_cycle())
    }

    /// Size of the audit's input: recorded writes, conflict-graph nodes
    /// and conflict-graph edges.
    pub fn audit_input(&self) -> (u64, u64, u64) {
        let graph = self.0.conflict_graph();
        (
            self.0.history().total_writes() as u64,
            graph.node_count() as u64,
            graph.edge_count() as u64,
        )
    }

    /// The end-of-run serializability audit over the committed queries.
    pub fn audit(&self, finished: &[Finished]) -> Audit {
        let mut batch = SerializabilityBatch::new(self.0.history(), self.0.conflict_graph());
        let mut audit = Audit::default();
        for outcome in finished.iter().filter(|f| f.0.committed()) {
            audit.readsets += 1;
            if batch.check(&outcome.0.reads).is_err() {
                audit.violations += 1;
            }
        }
        audit
    }
}

/// A query that finished (committed or aborted) in the traced driver.
#[derive(Debug)]
pub struct Finished(QueryOutcome);

/// Tallies the outcome counts of `finished` over `cycles` cycles.
pub fn tally(finished: &[Finished], cycles: u64) -> Counts {
    let mut counts = Counts {
        cycles,
        ..Counts::default()
    };
    for outcome in finished {
        counts.record(&outcome.0);
    }
    counts
}

/// One client of the traced driver, built and seeded as
/// `Simulation::new` builds and seeds it.
#[derive(Debug)]
pub struct Client(QueryExecutor);

impl Client {
    /// Builds client number `index` of a simulation of `config`.
    ///
    /// # Errors
    /// Propagates the program's configuration errors.
    pub fn new(config: &Config, index: u32, feed: Feed) -> Result<Self, Error> {
        let method = config.family.method();
        let cache_cfg = &config.sim.client.cache;
        let cache = match method.cache_mode() {
            CacheMode::None => None,
            _ if !cache_cfg.is_enabled() => None,
            mode => {
                let (current, old) = if mode == CacheMode::Multiversion {
                    (cache_cfg.current_capacity(), cache_cfg.old_capacity())
                } else {
                    (cache_cfg.capacity, 0)
                };
                Some(ClientCache::new(CacheParams {
                    mode,
                    current_capacity: current,
                    old_capacity: old,
                    items_per_bucket: config.sim.server.items_per_bucket,
                }))
            }
        };
        let seed = SeedSequence::new(config.sim.seed).derive(&["client", &index.to_string()]);
        let executor = QueryExecutor::new(
            ClientId::new(index),
            config.sim.client.clone(),
            method.build_protocol(),
            cache,
            config.sim.queries_per_client,
            seed,
        )?;
        Ok(Client(match feed {
            Feed::Struct => executor,
            Feed::Wire => executor.with_wire_feed(config.wire_params()),
        }))
    }

    /// Whether the client has finished all its queries.
    pub fn is_done(&self) -> bool {
        self.0.is_done()
    }

    /// Runs the client over one cycle that starts at slot `start`,
    /// appending the queries that finished to `out` when `measured`.
    ///
    /// # Errors
    /// Propagates the executor's internal errors.
    pub fn run_cycle(
        &mut self,
        cast: &Cast,
        start: u64,
        measured: bool,
        out: &mut Vec<Finished>,
    ) -> Result<(), Error> {
        let connected = !self.0.roll_disconnect();
        let outcomes = self.0.run_cycle(&cast.0, Slot::new(start), connected)?;
        if measured {
            out.extend(outcomes.into_iter().map(Finished));
        }
        Ok(())
    }

    /// Cache `(hits, lookups)`, if the client has a cache.
    pub fn cache_counts(&self) -> Option<(u64, u64)> {
        self.0.cache_stats().map(|s| (s.hits, s.hits + s.misses))
    }

    /// Current `(nodes, edges)` of the client's serialization graph, if
    /// the method keeps one.
    pub fn graph_size(&self) -> Option<(usize, usize)> {
        self.0.space_metrics()
    }
}

/// Bytes one cycle put on the air, by segment kind (headers included).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AirBytes {
    /// Control segment: invalidation report plus SGT reports.
    pub control: u64,
    /// Data segment: one record per item.
    pub data: u64,
    /// Directory segment (shifting-position organizations only).
    pub directory: u64,
}

impl AirBytes {
    /// All bytes of the cycle.
    pub fn total(&self) -> u64 {
        self.control + self.data + self.directory
    }
}

/// What receiving one cycle's bytes took and yielded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Received {
    /// Bytes per segment kind.
    pub air: AirBytes,
    /// Segments the feed parser framed.
    pub segments: u64,
    /// Control segments decoded.
    pub control_segments: u64,
    /// Data records decoded.
    pub data_records: u64,
    /// Time in `WireFeed::push` and `pop`: the framing scan.
    pub scan_ns: u64,
    /// Time in `decode_segment`.
    pub decode_ns: u64,
}

impl Received {
    /// Adds another cycle's receipts to these.
    pub fn add(&mut self, other: &Received) {
        self.air.control += other.air.control;
        self.air.data += other.air.data;
        self.air.directory += other.air.directory;
        self.segments += other.segments;
        self.control_segments += other.control_segments;
        self.data_records += other.data_records;
        self.scan_ns += other.scan_ns;
        self.decode_ns += other.decode_ns;
    }
}

/// The wire channel of one configuration: encoder parameters plus a
/// client-side feed parser.
#[derive(Debug)]
pub struct Channel {
    params: WireParams,
    feed: WireFeed,
}

/// Transport chunk size the channel pass pushes bytes in (an Ethernet
/// MTU: segments straddle chunk boundaries as they would on a socket).
pub const CHUNK_BYTES: usize = 1500;

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Channel {
    /// The channel clients of `config` listen on.
    pub fn new(config: &Config) -> Self {
        Channel {
            params: config.wire_params(),
            feed: WireFeed::new(),
        }
    }

    /// Encodes a cycle to its on-air bytes.
    pub fn encode(&self, cast: &Cast) -> Vec<u8> {
        encode_bcast_segments(&cast.0, self.params)
    }

    /// Pushes `bytes` through the feed parser in [`CHUNK_BYTES`] chunks
    /// and decodes every segment that completes. The popped views borrow
    /// the parser, so the scan and decode clocks are read here, around
    /// the same public calls a client makes.
    ///
    /// # Errors
    /// Returns the parser's or decoder's error on malformed bytes.
    pub fn receive(&mut self, bytes: &[u8]) -> Result<Received, Error> {
        let mut got = Received::default();
        for chunk in bytes.chunks(CHUNK_BYTES) {
            let started = Instant::now();
            self.feed.push(chunk);
            got.scan_ns += ns_since(started);
            loop {
                let started = Instant::now();
                let popped = self.feed.pop()?;
                got.scan_ns += ns_since(started);
                let Some(view) = popped else { break };
                got.segments += 1;
                let on_air = (SEGMENT_HEADER_BYTES + view.payload.len()) as u64;
                match view.kind {
                    SegmentKind::Control => got.air.control += on_air,
                    SegmentKind::Data => got.air.data += on_air,
                    SegmentKind::Directory => got.air.directory += on_air,
                }
                let started = Instant::now();
                let decoded = decode_segment(view, self.params)?;
                got.decode_ns += ns_since(started);
                match decoded {
                    DecodedSegment::Control(_) => got.control_segments += 1,
                    DecodedSegment::Data(_, records) => got.data_records += records.len() as u64,
                    DecodedSegment::Directory(_) => {}
                }
            }
        }
        Ok(got)
    }
}
