//! The broadcast server: snapshot emission plus the commit pipeline.

use std::collections::VecDeque;

use bpush_broadcast::organization::{
    BroadcastDisks, DiskSpec, Flat, IndexedFlat, MultiversionClustered, MultiversionOverflow,
    OldVersions,
};
use bpush_broadcast::{AugmentedReport, Bcast, ControlInfo, InvalidationReport, ItemRecord};
use bpush_obs::{Actor, Obs};
use bpush_sgraph::GraphDiff;
use bpush_types::config::MultiversionLayout;
use bpush_types::{BpushError, Cycle, ItemId, ItemValue, ServerConfig, TxnId};

use crate::conflicts::ConflictTracker;
use crate::database::MultiversionStore;
use crate::history::WriteHistory;
use crate::workload::{WorkloadGenerator, WorkloadSource};

/// What the server puts on air each cycle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum BroadcastMode {
    /// Flat organization, current versions only (§5.1 default).
    #[default]
    Plain,
    /// Multiversion broadcast (§3.2) under the chosen layout; the server
    /// retains and broadcasts old versions supporting spans up to the
    /// configured [`ServerConfig::versions_retained`].
    Multiversion(MultiversionLayout),
    /// Broadcast-disk organization (§7 extension), current versions only.
    Disks(Vec<DiskSpec>),
    /// Flat organization with `segments` replicated on-air index copies
    /// ((1, m) indexing, §2.1), current versions only.
    IndexedFlat {
        /// Number of replicated index copies per cycle.
        segments: u32,
    },
}

/// Server-side protocol support switches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerOptions {
    /// The on-air organization and version retention.
    pub mode: BroadcastMode,
    /// Broadcast SGT control information (§3.3): last-writer tags on every
    /// item, the augmented invalidation report and the per-cycle graph
    /// difference.
    pub sgt_info: bool,
}

impl ServerOptions {
    /// Plain flat broadcast with invalidation reports only.
    pub fn plain() -> Self {
        ServerOptions::default()
    }

    /// Multiversion broadcast under `layout`.
    pub fn multiversion(layout: MultiversionLayout) -> Self {
        ServerOptions {
            mode: BroadcastMode::Multiversion(layout),
            sgt_info: false,
        }
    }

    /// Flat broadcast with full SGT control information.
    pub fn sgt() -> Self {
        ServerOptions {
            mode: BroadcastMode::Plain,
            sgt_info: true,
        }
    }
}

/// The broadcast-push server (§2): every call to
/// [`BroadcastServer::run_cycle`] emits the bcast for the current cycle —
/// a transaction-consistent snapshot of the database as of the cycle's
/// beginning, preceded by control information describing the *previous*
/// cycle's updates — and then commits the cycle's update transactions.
#[derive(Debug)]
pub struct BroadcastServer {
    config: ServerConfig,
    options: ServerOptions,
    db: MultiversionStore,
    history: WriteHistory,
    workload: Box<dyn WorkloadSource>,
    conflicts: ConflictTracker,
    next_cycle: Cycle,
    /// Updated-item sets of recent cycles, newest last, for windowed
    /// invalidation reports (§5.2.2).
    recent_updates: VecDeque<(Cycle, Vec<ItemId>)>,
    /// SGT control info produced by the previous cycle's commits.
    pending_sgt: Option<(GraphDiff, Vec<(ItemId, TxnId)>)>,
    /// The full conflict serialization graph of all committed server
    /// transactions — ground truth for the serializability validator
    /// (never broadcast).
    validation_graph: bpush_sgraph::SerializationGraph,
    /// Observability sink; the no-op handle unless installed via
    /// [`BroadcastServer::with_obs`].
    obs: Obs,
}

impl BroadcastServer {
    /// Creates a server over a freshly loaded database.
    ///
    /// # Errors
    /// Returns [`BpushError::InvalidConfig`] for invalid configurations,
    /// including a broadcast-disk partitioning that does not cover the
    /// database.
    pub fn new(
        config: ServerConfig,
        options: ServerOptions,
        seed: u64,
    ) -> Result<Self, BpushError> {
        config.validate()?;
        if let BroadcastMode::IndexedFlat { segments } = &options.mode {
            if *segments == 0 {
                return Err(BpushError::invalid_config(
                    "indexed-flat mode needs at least one index segment",
                ));
            }
        }
        if let BroadcastMode::Disks(specs) = &options.mode {
            let covered: u32 = specs.iter().map(|d| d.items).sum();
            if covered != config.broadcast_size {
                return Err(BpushError::invalid_config(
                    "broadcast-disk partitioning must cover exactly the broadcast set",
                ));
            }
        }
        let workload = WorkloadGenerator::new(&config, seed)?;
        let horizon = config.versions_retained.max(8) * 2;
        Ok(BroadcastServer {
            db: MultiversionStore::new(config.broadcast_size),
            history: WriteHistory::new(),
            workload: Box::new(workload),
            conflicts: ConflictTracker::new(horizon),
            next_cycle: Cycle::ZERO,
            recent_updates: VecDeque::new(),
            pending_sgt: None,
            validation_graph: bpush_sgraph::SerializationGraph::new(),
            config,
            options,
            obs: Obs::off(),
        })
    }

    /// Routes the server's per-cycle work into `obs`: each
    /// [`BroadcastServer::run_cycle`] is bracketed by a `server.cycle`
    /// span and feeds the `bcast.slots` size histogram.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Replaces the update workload with a custom [`WorkloadSource`]
    /// (e.g. a [`crate::ScriptedWorkload`] for deterministic tests or a
    /// replayed trace). Must be called before the first
    /// [`BroadcastServer::run_cycle`].
    ///
    /// # Panics
    /// Panics if cycles have already run (the history would be split
    /// across workloads).
    #[must_use]
    pub fn with_workload(mut self, workload: Box<dyn WorkloadSource>) -> Self {
        assert_eq!(
            self.next_cycle,
            Cycle::ZERO,
            "workload must be set before the first cycle"
        );
        self.workload = workload;
        self
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The options in effect.
    pub fn options(&self) -> &ServerOptions {
        &self.options
    }

    /// The cycle the next [`BroadcastServer::run_cycle`] call will emit.
    pub fn next_cycle(&self) -> Cycle {
        self.next_cycle
    }

    /// The ground-truth write history (for validation; never broadcast).
    pub fn history(&self) -> &WriteHistory {
        &self.history
    }

    /// The full conflict serialization graph of every transaction the
    /// server has committed (for validation; never broadcast). Precedence
    /// edges from readers older than the tracker's horizon are elided.
    pub fn conflict_graph(&self) -> &bpush_sgraph::SerializationGraph {
        &self.validation_graph
    }

    /// Read access to the database (tests and validators).
    pub fn database(&self) -> &MultiversionStore {
        &self.db
    }

    /// The span bound the server's version retention supports: `S` in
    /// multiversion mode, 1 otherwise.
    pub fn span_supported(&self) -> u32 {
        match self.options.mode {
            BroadcastMode::Multiversion(_) => self.config.versions_retained,
            _ => 1,
        }
    }

    fn build_control(&self, cycle: Cycle) -> ControlInfo {
        let window = self.config.report_window;
        let horizon = cycle.checked_sub(u64::from(window));
        let updated = self
            .recent_updates
            .iter()
            .filter(|(c, _)| horizon.map_or(true, |h| *c >= h))
            .flat_map(|(c, items)| items.iter().map(move |&x| (x, *c)));
        let invalidation = InvalidationReport::with_dated(
            cycle,
            window,
            updated,
            self.config.granularity,
            self.config.items_per_bucket,
        );
        let (augmented, diff) = if self.options.sgt_info {
            match &self.pending_sgt {
                Some((diff, fw)) => (
                    Some(AugmentedReport::new(cycle.prev(), fw.iter().copied())),
                    Some(diff.clone()),
                ),
                None => (None, None),
            }
        } else {
            (None, None)
        };
        ControlInfo::new(cycle, invalidation, augmented, diff)
    }

    fn snapshot_records(&self) -> Vec<ItemRecord> {
        self.db
            .iter_current()
            .map(|(item, value)| {
                let tag = if self.options.sgt_info {
                    value.writer()
                } else {
                    None
                };
                ItemRecord::new(item, value, tag)
            })
            .collect()
    }

    fn old_versions(&self, cycle: Cycle) -> Vec<OldVersions> {
        match self.options.mode {
            BroadcastMode::Multiversion(_) => {
                let span = self.config.versions_retained;
                (0..self.config.broadcast_size)
                    .filter_map(|i| {
                        let item = ItemId::new(i);
                        let chain = self.db.on_air_old_versions(item, cycle, span);
                        (!chain.is_empty()).then_some((item, chain))
                    })
                    .collect()
            }
            _ => Vec::new(),
        }
    }

    /// Emits the bcast for the current cycle, then commits the cycle's
    /// update transactions (whose effects appear from the next cycle on).
    pub fn run_cycle(&mut self) -> Bcast {
        let cycle = self.next_cycle;
        let _cycle_span = self.obs.span("server.cycle", cycle, Actor::Server);
        let control = self.build_control(cycle);
        let records = self.snapshot_records();
        let old = self.old_versions(cycle);
        let ipb = self.config.items_per_bucket;
        let bcast = match &self.options.mode {
            BroadcastMode::Plain => Flat::new(ipb).assemble(cycle, control, records, old),
            BroadcastMode::Multiversion(MultiversionLayout::Overflow) => {
                MultiversionOverflow::new(ipb).assemble(cycle, control, records, old)
            }
            BroadcastMode::Multiversion(MultiversionLayout::Clustered) => {
                MultiversionClustered::new().assemble(cycle, control, records, old)
            }
            BroadcastMode::Disks(specs) => {
                BroadcastDisks::new(specs.clone()).assemble(cycle, control, records, old)
            }
            BroadcastMode::IndexedFlat { segments } => {
                IndexedFlat::new(*segments, ipb).assemble(cycle, control, records, old)
            }
        };

        // Commit this cycle's update transactions.
        let txns = self.workload.generate_cycle(cycle);
        for txn in &txns {
            self.conflicts.commit(txn);
            for &x in txn.writes() {
                self.db.apply_write(x, txn.id());
            }
        }
        let (diff, first_writers) = self.conflicts.end_cycle(cycle);
        // Record history once per item per cycle (the bcast only ever
        // carries cycle-final values; intermediate same-cycle values are
        // invisible to clients, matching MultiversionStore semantics):
        // the first writers name the updated items in item order, and the
        // tracker's last writer of each is now its cycle-final one.
        let mut updated = Vec::with_capacity(first_writers.len());
        for &(x, _) in &first_writers {
            if let Some(w) = self.conflicts.last_writer(x) {
                self.history.record(x, ItemValue::written_by(w));
                updated.push(x);
            }
        }
        self.validation_graph.apply_diff(&diff);
        self.pending_sgt = Some((diff, first_writers));

        self.recent_updates.push_back((cycle, updated));
        while self.recent_updates.len() > self.config.report_window as usize {
            self.recent_updates.pop_front();
        }

        self.next_cycle = cycle.next();
        self.db.gc(self.next_cycle, self.span_supported());
        if self.obs.is_enabled() {
            self.obs.counter_add("server.cycles", 1);
            self.obs.record("bcast.slots", bcast.total_slots());
        }
        bcast
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpush_types::Granularity;

    fn small_config() -> ServerConfig {
        ServerConfig {
            broadcast_size: 100,
            update_range: 50,
            server_read_range: 100,
            updates_per_cycle: 10,
            txns_per_cycle: 5,
            versions_retained: 3,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn first_cycle_is_initial_snapshot() {
        let mut s = BroadcastServer::new(small_config(), ServerOptions::plain(), 1).unwrap();
        let b = s.run_cycle();
        assert_eq!(b.cycle(), Cycle::ZERO);
        assert_eq!(b.item_count(), 100);
        assert!(b.control().invalidation().is_empty());
        assert!(b.control().graph_diff().is_none());
        for rec in b.records() {
            assert_eq!(rec.value(), bpush_types::ItemValue::initial());
        }
        assert_eq!(s.next_cycle(), Cycle::new(1));
    }

    #[test]
    fn second_cycle_reports_first_cycles_updates() {
        let mut s = BroadcastServer::new(small_config(), ServerOptions::plain(), 1).unwrap();
        s.run_cycle();
        let b = s.run_cycle();
        let report = b.control().invalidation();
        assert_eq!(report.len(), 10, "10 distinct updates per cycle");
        // the snapshot reflects exactly the reported updates
        for item in report.items() {
            let rec = b.current(item).unwrap();
            assert_eq!(rec.value().version(), Cycle::new(1));
        }
        // un-reported items are untouched
        let untouched = (0..100)
            .map(ItemId::new)
            .find(|x| !report.invalidates(*x))
            .unwrap();
        assert_eq!(
            b.current(untouched).unwrap().value(),
            bpush_types::ItemValue::initial()
        );
    }

    #[test]
    fn snapshot_is_cycle_consistent() {
        // Every value in the cycle-n bcast must have version <= n.
        let mut s = BroadcastServer::new(small_config(), ServerOptions::plain(), 2).unwrap();
        for _ in 0..5 {
            let b = s.run_cycle();
            for rec in b.records() {
                assert!(rec.value().version() <= b.cycle());
            }
        }
    }

    #[test]
    fn sgt_mode_broadcasts_control_info_and_tags() {
        let mut s = BroadcastServer::new(small_config(), ServerOptions::sgt(), 3).unwrap();
        s.run_cycle();
        let b = s.run_cycle();
        let diff = b.control().graph_diff().expect("diff broadcast");
        assert_eq!(diff.cycle(), Cycle::ZERO);
        assert_eq!(diff.committed().len(), 5);
        let aug = b.control().augmented().expect("augmented report");
        assert_eq!(aug.len(), 10);
        // every reported item's first writer committed during cycle 0
        for (_, t) in aug.entries() {
            assert_eq!(t.cycle(), Cycle::ZERO);
        }
        // updated items carry last-writer tags
        for item in b.control().invalidation().items() {
            let rec = b.current(item).unwrap();
            assert!(rec.last_writer().is_some());
            assert_eq!(rec.last_writer(), rec.value().writer());
        }
    }

    #[test]
    fn plain_mode_omits_sgt_info() {
        let mut s = BroadcastServer::new(small_config(), ServerOptions::plain(), 3).unwrap();
        s.run_cycle();
        let b = s.run_cycle();
        assert!(b.control().graph_diff().is_none());
        assert!(b.control().augmented().is_none());
        for rec in b.records() {
            assert!(rec.last_writer().is_none());
        }
    }

    #[test]
    fn multiversion_overflow_carries_old_versions() {
        let opts = ServerOptions::multiversion(MultiversionLayout::Overflow);
        let mut s = BroadcastServer::new(small_config(), opts, 4).unwrap();
        s.run_cycle();
        s.run_cycle();
        let b = s.run_cycle(); // cycle 2: items updated in cycles 0-1 have old versions
        assert!(b.overflow_slots() > 0, "old versions on air");
        // every item updated during cycle 1 has its pre-update value on air
        let report = b.control().invalidation();
        for item in report.items() {
            let old = b.old_versions_of(item);
            assert!(!old.is_empty(), "{item} lost its old version");
            // the old chain is strictly newer-first and all versions < current
            let cur = b.current(item).unwrap().value().version();
            for (_, v) in old {
                assert!(v.version() < cur);
            }
        }
    }

    #[test]
    fn multiversion_supports_span_bound() {
        let opts = ServerOptions::multiversion(MultiversionLayout::Overflow);
        let s = BroadcastServer::new(small_config(), opts, 4).unwrap();
        assert_eq!(s.span_supported(), 3);
        let p = BroadcastServer::new(small_config(), ServerOptions::plain(), 4).unwrap();
        assert_eq!(p.span_supported(), 1);
    }

    #[test]
    fn multiversion_read_rule_finds_snapshot_values() {
        // After several cycles, best_version_at_most(x, c0) must equal the
        // value x had at the beginning of cycle c0, for c0 within the span
        // window.
        let opts = ServerOptions::multiversion(MultiversionLayout::Overflow);
        let mut s = BroadcastServer::new(small_config(), opts, 5).unwrap();
        let mut snapshots = Vec::new();
        for _ in 0..6 {
            let b = s.run_cycle();
            let snap: std::collections::HashMap<ItemId, Cycle> = b
                .records()
                .map(|r| (r.item(), r.value().version()))
                .collect();
            snapshots.push(snap);
            if b.cycle().number() >= 2 {
                let c0 = b.cycle().prev(); // one cycle back: within span 3
                let want = &snapshots[c0.number() as usize];
                for i in 0..100u32 {
                    let item = ItemId::new(i);
                    let got = b
                        .best_version_at_most(item, c0)
                        .unwrap_or_else(|| panic!("{item} missing at {c0}"));
                    assert_eq!(got.1.version(), want[&item], "{item} at {c0}");
                }
            }
        }
    }

    #[test]
    fn windowed_reports_cover_multiple_cycles() {
        let config = ServerConfig {
            report_window: 3,
            ..small_config()
        };
        let mut s = BroadcastServer::new(config, ServerOptions::plain(), 6).unwrap();
        for _ in 0..4 {
            s.run_cycle();
        }
        let b = s.run_cycle(); // cycle 4 reports cycles 2-4's... window 3 => cycles 2,3 (and 4 not yet)
                               // ten distinct updates per cycle, overlapping hot sets: report is
                               // larger than a single cycle's worth but bounded by 3x
        let n = b.control().invalidation().len();
        assert!(n > 10, "windowed report covers several cycles: {n}");
        assert!(n <= 30);
        assert_eq!(b.control().invalidation().window(), 3);
    }

    #[test]
    fn bucket_granularity_report() {
        let config = ServerConfig {
            granularity: Granularity::Bucket,
            items_per_bucket: 10,
            ..small_config()
        };
        let mut s = BroadcastServer::new(config, ServerOptions::plain(), 7).unwrap();
        s.run_cycle();
        let b = s.run_cycle();
        let report = b.control().invalidation();
        assert!(report.len() <= 10, "at most one entry per bucket");
        assert!(report.buckets().count() > 0);
    }

    #[test]
    fn disks_mode_validates_partitioning() {
        let bad = ServerOptions {
            mode: BroadcastMode::Disks(vec![DiskSpec {
                items: 10,
                rel_freq: 2,
            }]),
            sgt_info: false,
        };
        assert!(BroadcastServer::new(small_config(), bad, 0).is_err());

        let good = ServerOptions {
            mode: BroadcastMode::Disks(vec![
                DiskSpec {
                    items: 20,
                    rel_freq: 2,
                },
                DiskSpec {
                    items: 80,
                    rel_freq: 1,
                },
            ]),
            sgt_info: false,
        };
        let mut s = BroadcastServer::new(small_config(), good, 0).unwrap();
        let b = s.run_cycle();
        assert_eq!(b.occurrences_of(ItemId::new(0)).len(), 2);
        assert_eq!(b.occurrences_of(ItemId::new(99)).len(), 1);
    }

    #[test]
    fn history_records_cycle_final_values() {
        let mut s = BroadcastServer::new(small_config(), ServerOptions::plain(), 8).unwrap();
        for _ in 0..3 {
            s.run_cycle();
        }
        assert!(s.history().total_writes() > 0);
        // every recorded write's version matches a cycle boundary <= now
        for i in 0..100u32 {
            for v in s.history().writes_of(ItemId::new(i)) {
                assert!(v.version() <= s.next_cycle());
            }
        }
    }

    #[test]
    fn gc_bounds_version_storage() {
        let opts = ServerOptions::multiversion(MultiversionLayout::Overflow);
        let mut s = BroadcastServer::new(small_config(), opts, 9).unwrap();
        for _ in 0..30 {
            s.run_cycle();
        }
        // at most span+1-ish versions per item survive GC
        let total = s.database().total_retained();
        assert!(
            total <= 100 * (3 + 1),
            "GC must bound retention, got {total}"
        );
    }
}
