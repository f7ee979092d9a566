//! The traced pass and the channel pass: where one cycle's time and
//! bytes go.
//!
//! The traced driver repeats the loop of `Simulation::run` from the
//! program's public calls, with a span around each call into a layer:
//!
//! ```text
//! run ─┬─ construct
//!      ├─ cycle[n] ─┬─ server.run_cycle
//!      │            ├─ client.run_cycle[c]   (one per client)
//!      │            └─ broadcast.drop        (freeing the cycle's Bcast)
//!      └─ core.audit
//! ```
//!
//! The part of a span's name before the first `.` is its layer; `run`,
//! `construct` and `cycle` belong to the `sim` layer. Shares are self
//! times over the root span, so the five layers add up to 100 % and the
//! `sim` share is exactly what no layer call accounts for.
//!
//! The channel pass replays the same cycles through the server alone
//! and times encode, framing scan and decode — work a struct-fed
//! simulation never does, so it is kept out of the traced wall.

use std::time::Instant;

use crate::spans::Recorder;
use crate::surface::{
    tally, Audit, Cast, Channel, Client, Config, Counts, Error, Feed, Finished, Received, Server,
};

/// What one traced simulation produced besides its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct TracedRun {
    /// Outcome counts; must equal `Simulation::run()`'s.
    pub counts: Counts,
    /// The end-of-run audit's tally.
    pub audit: Audit,
    /// Recorded writes the audit was given.
    pub history_writes: u64,
    /// Conflict-graph nodes the audit was given.
    pub conflict_nodes: u64,
    /// Conflict-graph edges the audit was given.
    pub conflict_edges: u64,
    /// Cache hits pooled over clients.
    pub cache_hits: u64,
    /// Cache lookups pooled over clients.
    pub cache_lookups: u64,
    /// Peak client serialization-graph nodes.
    pub peak_nodes: u64,
    /// Peak client serialization-graph edges.
    pub peak_edges: u64,
    /// Items broadcast, summed over cycles.
    pub items: u64,
}

impl TracedRun {
    /// Pools another family's run into this one: counts add, peaks take
    /// the maximum.
    pub fn pool(&mut self, other: &TracedRun) {
        self.counts.queries += other.counts.queries;
        self.counts.commits += other.counts.commits;
        self.counts.cycles += other.counts.cycles;
        self.audit.readsets += other.audit.readsets;
        self.audit.violations += other.audit.violations;
        self.history_writes += other.history_writes;
        self.conflict_nodes += other.conflict_nodes;
        self.conflict_edges += other.conflict_edges;
        self.cache_hits += other.cache_hits;
        self.cache_lookups += other.cache_lookups;
        self.peak_nodes = self.peak_nodes.max(other.peak_nodes);
        self.peak_edges = self.peak_edges.max(other.peak_edges);
        self.items += other.items;
    }
}

/// Runs one simulation of `config` from the program's public calls,
/// recording a span around each. `run` numbers the root span.
///
/// # Errors
/// Propagates the first error the program returns, and the program's
/// own budget error when the cycle budget runs out.
pub fn traced_run(
    config: &Config,
    feed: Feed,
    run: u32,
    rec: &mut Recorder,
) -> Result<TracedRun, Error> {
    let mut out = TracedRun::default();
    rec.set_run(run);
    let root = rec.open("run", u64::from(run));

    let span = rec.open("construct", 0);
    let mut server = Server::new(config)?;
    let mut clients = (0..config.clients())
        .map(|index| Client::new(config, index, feed))
        .collect::<Result<Vec<_>, _>>()?;
    rec.close(span);

    let mut finished: Vec<Finished> = Vec::new();
    let mut start_slot = 0u64;
    let mut cycles = 0u64;
    while clients.iter().any(|c| !c.is_done()) {
        config.check_budget(cycles)?;
        let cycle = rec.open("cycle", cycles);

        let span = rec.open("server.run_cycle", cycles);
        let cast: Cast = server.run_cycle();
        rec.close(span);

        let measured = cast.cycle() >= config.warmup_cycles();
        for (index, client) in clients.iter_mut().enumerate() {
            let span = rec.open("client.run_cycle", index as u64);
            client.run_cycle(&cast, start_slot, measured, &mut finished)?;
            rec.close(span);
        }
        for (nodes, edges) in clients.iter().filter_map(Client::graph_size) {
            out.peak_nodes = out.peak_nodes.max(nodes as u64);
            out.peak_edges = out.peak_edges.max(edges as u64);
        }
        start_slot += cast.total_slots();
        out.items += cast.item_count() as u64;

        let span = rec.open("broadcast.drop", cycles);
        drop(cast);
        rec.close(span);

        rec.close(cycle);
        cycles += 1;
    }

    let span = rec.open("core.audit", 0);
    out.audit = server.audit(&finished);
    rec.close(span);

    (out.history_writes, out.conflict_nodes, out.conflict_edges) = server.audit_input();
    for (hits, lookups) in clients.iter().filter_map(Client::cache_counts) {
        out.cache_hits += hits;
        out.cache_lookups += lookups;
    }
    out.counts = tally(&finished, cycles);
    // `Simulation::run` consumes the simulation, so its callers pay for
    // freeing it inside their timed region; so does the root span.
    drop((server, clients, finished));
    rec.close(root);
    Ok(out)
}

/// One traced run's wall time, split into the self time of each layer.
/// The five layer fields add up to `root_ns`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Account {
    /// `server.*` spans.
    pub server_ns: u64,
    /// `client.*` spans.
    pub client_ns: u64,
    /// `broadcast.*` spans.
    pub broadcast_ns: u64,
    /// `core.*` spans.
    pub core_ns: u64,
    /// The driver's own spans (`run`, `construct`, `cycle`): what no
    /// call into a layer accounts for.
    pub sim_ns: u64,
    /// The root span's duration.
    pub root_ns: u64,
}

impl Account {
    /// The field of the layer a span called `span_name` belongs to: the
    /// part of the name before the first `.`, `sim` without one.
    fn layer_mut(&mut self, span_name: &str) -> &mut u64 {
        match span_name.split_once('.').map(|(layer, _)| layer) {
            Some("server") => &mut self.server_ns,
            Some("client") => &mut self.client_ns,
            Some("broadcast") => &mut self.broadcast_ns,
            Some("core") => &mut self.core_ns,
            _ => &mut self.sim_ns,
        }
    }

    /// Adds another run's account to this one.
    pub fn add(&mut self, other: &Account) {
        self.server_ns += other.server_ns;
        self.client_ns += other.client_ns;
        self.broadcast_ns += other.broadcast_ns;
        self.core_ns += other.core_ns;
        self.sim_ns += other.sim_ns;
        self.root_ns += other.root_ns;
    }
}

/// The per-layer account of every run in `rec`, in run order.
pub fn layer_accounts(rec: &Recorder) -> Vec<Account> {
    let mut runs: Vec<Account> = Vec::new();
    for (span, own) in rec.spans().iter().zip(rec.self_times_ns()) {
        if span.parent.is_none() {
            runs.push(Account {
                root_ns: span.duration_ns(),
                ..Account::default()
            });
        }
        // a run's spans follow its root span
        if let Some(account) = runs.last_mut() {
            *account.layer_mut(span.name) += own;
        }
    }
    runs
}

/// Durations, in nanoseconds, of every span called `name`.
pub fn durations_ns(rec: &Recorder, name: &str) -> Vec<f64> {
    rec.spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Totals of one channel pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChannelTotals {
    /// Cycles replayed.
    pub cycles: u64,
    /// Time in `encode_bcast_segments`.
    pub encode_ns: u64,
    /// Bytes, segments, records and time on the receiving side.
    pub got: Received,
    /// Cycles whose bytes did not decode to what was encoded.
    pub bad_cycles: u64,
}

impl ChannelTotals {
    /// Adds another pass's totals to these.
    pub fn add(&mut self, other: &ChannelTotals) {
        self.cycles += other.cycles;
        self.encode_ns += other.encode_ns;
        self.got.add(&other.got);
        self.bad_cycles += other.bad_cycles;
    }
}

/// Replays the first `cycles` cycles of `config`'s broadcast through the
/// wire channel: encode, push through the feed parser in MTU-sized
/// chunks, decode. A cycle is bad unless it decodes to exactly one
/// control segment and one data record per broadcast item, from exactly
/// the bytes that were encoded.
///
/// # Errors
/// Propagates configuration, framing and decoding errors.
pub fn channel_pass(config: &Config, cycles: u64) -> Result<ChannelTotals, Error> {
    let mut server = Server::new(config)?;
    let mut channel = Channel::new(config);
    let mut totals = ChannelTotals {
        cycles,
        ..ChannelTotals::default()
    };
    for _ in 0..cycles {
        let cast = server.run_cycle();
        let started = Instant::now();
        let bytes = channel.encode(&cast);
        totals.encode_ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let got = channel.receive(&bytes)?;
        let intact = got.control_segments == 1
            && got.data_records == cast.item_count() as u64
            && got.air.total() == bytes.len() as u64;
        totals.bad_cycles += u64::from(!intact);
        totals.got.add(&got);
    }
    Ok(totals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_land_in_the_layer_the_span_name_gives() {
        let mut rec = Recorder::with_capacity(16);
        for run in 0..2 {
            rec.set_run(run);
            let root = rec.open("run", u64::from(run));
            for name in [
                "construct",
                "server.run_cycle",
                "client.run_cycle",
                "broadcast.drop",
                "core.audit",
            ] {
                let span = rec.open(name, 0);
                std::hint::black_box((0..500u64).sum::<u64>());
                rec.close(span);
            }
            rec.close(root);
        }
        let accounts = layer_accounts(&rec);
        assert_eq!(accounts.len(), 2);
        for a in accounts {
            let layers = a.server_ns + a.client_ns + a.broadcast_ns + a.core_ns + a.sim_ns;
            assert_eq!(layers, a.root_ns, "layers must add up to the root span");
            assert!(a.server_ns > 0 && a.client_ns > 0 && a.broadcast_ns > 0 && a.core_ns > 0);
        }
        assert_eq!(durations_ns(&rec, "core.audit").len(), 2);
    }
}
