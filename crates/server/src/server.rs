//! The broadcast server: snapshot emission plus the commit pipeline.

use std::cell::OnceCell;
use std::collections::VecDeque;

use bpush_broadcast::organization::{
    BroadcastDisks, DiskSpec, Flat, IndexedFlat, MultiversionClustered, MultiversionOverflow,
    OldVersions,
};
use bpush_broadcast::{
    AugmentedReport, Bcast, ControlInfo, InvalidationReport, ItemRecord, RecordColumn,
};
use bpush_obs::{Actor, Obs};
use bpush_sgraph::{GraphDiff, SerializationGraph};
use bpush_types::config::MultiversionLayout;
use bpush_types::{BpushError, Cycle, ItemId, ItemValue, ServerConfig, TxnId};

use crate::conflicts::ConflictTracker;
use crate::history::WriteHistory;
use crate::txn::ServerTxn;
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

/// The organization a server lays its bcasts out with, built once for the
/// run so the fixed-position ones keep their occurrence rows.
#[derive(Debug)]
enum Organization {
    Flat(Flat),
    Overflow(MultiversionOverflow),
    Clustered(MultiversionClustered),
    Disks(BroadcastDisks),
    IndexedFlat(IndexedFlat),
}

impl Organization {
    fn new(mode: &BroadcastMode, items_per_bucket: u32) -> Self {
        match mode {
            BroadcastMode::Plain => Organization::Flat(Flat::new(items_per_bucket)),
            BroadcastMode::Multiversion(MultiversionLayout::Overflow) => {
                Organization::Overflow(MultiversionOverflow::new(items_per_bucket))
            }
            BroadcastMode::Multiversion(MultiversionLayout::Clustered) => {
                Organization::Clustered(MultiversionClustered::new())
            }
            BroadcastMode::Disks(specs) => Organization::Disks(BroadcastDisks::new(specs.clone())),
            BroadcastMode::IndexedFlat { segments } => {
                Organization::IndexedFlat(IndexedFlat::new(*segments, items_per_bucket))
            }
        }
    }

    /// Lays the cycle out; only the multiversion organizations air `old`.
    fn assemble(
        &self,
        cycle: Cycle,
        control: ControlInfo,
        records: RecordColumn,
        old: OldVersions,
    ) -> Bcast {
        match self {
            Organization::Flat(org) => org.assemble(cycle, control, records),
            Organization::Overflow(org) => org.assemble(cycle, control, records, old),
            Organization::Clustered(org) => org.assemble(cycle, control, records, old),
            Organization::Disks(org) => org.assemble(cycle, control, records),
            Organization::IndexedFlat(org) => org.assemble(cycle, control, records),
        }
    }
}

/// The broadcast-push server (§2): every call to
/// [`BroadcastServer::run_cycle`] emits the bcast for the current cycle —
/// a transaction-consistent snapshot of the database as of the cycle's
/// beginning, preceded by control information describing the *previous*
/// cycle's updates — and then commits the cycle's update transactions.
///
/// A cycle costs what changed, not what exists: the snapshot is one
/// record column kept for the run and patched from the update log, the
/// organization keeps its occurrence rows, and old versions visit only
/// the items the log shows written. Every committed value is kept once,
/// in the [`WriteHistory`].
#[derive(Debug)]
pub struct BroadcastServer {
    config: ServerConfig,
    options: ServerOptions,
    history: WriteHistory,
    workload: Box<dyn WorkloadSource>,
    /// The live conflict tracker, present only under `sgt_info`.
    conflicts: Option<ConflictTracker>,
    /// Every cycle's commits (an idle one's empty), for `conflict_graph`.
    committed: Vec<Vec<ServerTxn>>,
    next_cycle: Cycle,
    /// The update log: the items each recent cycle wrote, in item order,
    /// oldest cycle first. Windowed invalidation reports (§5.2.2) read
    /// the last `report_window` entries; the record patch and the
    /// old-version candidates read the last one and the one `S` cycles
    /// back (see [`BroadcastServer::span_supported`]), so it holds
    /// `max(report_window, S)` entries.
    recent_updates: VecDeque<(Cycle, Vec<ItemId>)>,
    /// The current-version record of every item, tags included, as the
    /// last bcast aired it: shared with that bcast, patched at the start
    /// of each cycle.
    records: RecordColumn,
    /// The on-air organization, built once.
    organization: Organization,
    /// Multiversion mode: the items with old versions on air in the last
    /// bcast, ascending, each with the cycle that last wrote it.
    on_air: Vec<(ItemId, Cycle)>,
    /// SGT control info produced by the previous cycle's commits, kept
    /// only when the server broadcasts it.
    pending_sgt: Option<(GraphDiff, Vec<(ItemId, TxnId)>)>,
    /// The graph of `committed`, built on first ask, dropped by a cycle.
    ground_truth: OnceCell<SerializationGraph>,
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
        let horizon = reader_horizon(&config);
        let records: Vec<ItemRecord> = (0..config.broadcast_size)
            .map(|i| on_air(ItemId::new(i), ItemValue::initial(), options.sgt_info))
            .collect();
        Ok(BroadcastServer {
            history: WriteHistory::new(),
            workload: Box::new(workload),
            conflicts: options.sgt_info.then(|| ConflictTracker::new(horizon)),
            committed: Vec::new(),
            next_cycle: Cycle::ZERO,
            recent_updates: VecDeque::new(),
            records: RecordColumn::from(records),
            organization: Organization::new(&options.mode, config.items_per_bucket),
            on_air: Vec::new(),
            pending_sgt: None,
            ground_truth: OnceCell::new(),
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

    /// The write history: every value the server has committed, in
    /// serial order. The bcasts air from it, and the validators judge
    /// against it.
    pub fn history(&self) -> &WriteHistory {
        &self.history
    }

    /// The full conflict serialization graph of every transaction the
    /// server has committed (for validation; never broadcast). Precedence
    /// edges from readers older than the tracker's horizon are elided.
    /// Built at the first call after a cycle by replaying the commit log
    /// through a fresh [`ConflictTracker`] that closes every cycle, each
    /// cycle's diff pushed onto an append-only graph.
    pub fn conflict_graph(&self) -> &SerializationGraph {
        self.ground_truth.get_or_init(|| {
            let mut tracker = ConflictTracker::new(reader_horizon(&self.config));
            let mut graph = SerializationGraph::new();
            for (cycle, txns) in (0..).map(Cycle::new).zip(&self.committed) {
                for txn in txns {
                    tracker.commit(txn);
                }
                graph.push(&tracker.end_cycle(cycle).0);
            }
            graph
        })
    }

    /// The span bound the server's version retention supports: `S` in
    /// multiversion mode, 1 otherwise.
    pub fn span_supported(&self) -> u32 {
        match self.options.mode {
            BroadcastMode::Multiversion(_) => self.config.versions_retained,
            _ => 1,
        }
    }

    fn build_control(&mut self, cycle: Cycle) -> ControlInfo {
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
        let (augmented, diff) = match self.pending_sgt.take() {
            Some((diff, fw)) => (Some(AugmentedReport::new(cycle.prev(), fw)), Some(diff)),
            None => (None, None),
        };
        ControlInfo::new(cycle, invalidation, augmented, diff)
    }

    /// Brings the record column from the previous bcast's snapshot to
    /// `cycle`'s by rewriting, from the history, the items the log shows
    /// written in cycle `c − 1`, whose values changed, and in cycle
    /// `c − S` (`S` as in [`BroadcastServer::span_supported`]), whose old
    /// versions leave the air with this cycle: that clears the overflow
    /// pointers the previous bcast gave them. Every other pointer it gave
    /// belongs to an item written in `c − S + 1 ..= c − 2`, still on air,
    /// and is set afresh by this cycle's layout. (With `S` ≤ 1 nothing
    /// carries a pointer and `c − S` names no other logged cycle.)
    fn patch_records(&mut self, cycle: Cycle) {
        let back = u64::from(self.span_supported());
        let changed = [cycle.checked_sub(1), cycle.checked_sub(back)];
        let items = self
            .recent_updates
            .iter()
            .filter(|(c, _)| changed.contains(&Some(*c)))
            .flat_map(|(_, items)| items);
        let (history, sgt_info) = (&self.history, self.options.sgt_info);
        self.records
            .patch(items.map(|&x| on_air(x, history.current(x), sgt_info)));
    }

    /// The old versions on air at `cycle` in multiversion mode, in item
    /// order. Only a value superseded in `cycle − V + 1 ..= cycle − 1`
    /// is on air, so only the items last written then are asked for
    /// their chains: `on_air` takes in the previous cycle's writes from
    /// the log and lets go of the items last written before that window.
    /// Each write the log shows in that window superseded exactly one
    /// value still on air, so the column is sized exactly up front: three
    /// allocations a cycle, whatever the number of chains.
    fn old_versions(&mut self, cycle: Cycle) -> OldVersions {
        let BroadcastMode::Multiversion(_) = self.options.mode else {
            return OldVersions::default();
        };
        let span = self.config.versions_retained;
        if let Some((written, items)) = self.recent_updates.back() {
            if written.next() == cycle {
                self.on_air.extend(items.iter().map(|&x| (x, *written)));
            }
        }
        let horizon = cycle.next().checked_sub(u64::from(span));
        let in_window = |written: Cycle| horizon.map_or(true, |h| written >= h);
        self.on_air.retain(|&(_, written)| in_window(written));
        // two ascending runs, the newer appended: the stable sort merges
        // them and puts an item's older entry first, which the newer
        // one then overwrites
        self.on_air.sort_by_key(|&(item, _)| item);
        self.on_air.dedup_by(|newer, older| {
            let same = newer.0 == older.0;
            if same {
                older.1 = newer.1;
            }
            same
        });
        let entries = self
            .recent_updates
            .iter()
            .filter(|(written, _)| in_window(*written))
            .map(|(_, items)| items.len())
            .sum();
        let mut old = OldVersions::with_capacity(self.on_air.len(), entries);
        for &(item, _) in &self.on_air {
            old.add_chain(item, self.history.on_air_old_versions(item, cycle, span));
        }
        old
    }

    /// Emits the bcast for the current cycle, then commits the cycle's
    /// update transactions (whose effects appear from the next cycle on).
    pub fn run_cycle(&mut self) -> Bcast {
        let cycle = self.next_cycle;
        let _cycle_span = self.obs.span("server.cycle", cycle, Actor::Server);
        let control = self.build_control(cycle);
        self.patch_records(cycle);
        let old = self.old_versions(cycle);
        // The column goes in unshared, so the overflow layout sets its
        // pointers in place, and comes back shared with the bcast.
        let records = std::mem::take(&mut self.records);
        let bcast = self.organization.assemble(cycle, control, records, old);
        self.records = RecordColumn::from(&bcast);

        // Commit this cycle's update transactions: the history keeps each
        // item's cycle-final value, and the log the updated items.
        let txns = self.workload.generate_cycle(cycle);
        let mut updated = Vec::new();
        for txn in &txns {
            for &x in txn.writes() {
                self.history.record(x, ItemValue::written_by(txn.id()));
                updated.push(x);
            }
        }
        updated.sort_unstable();
        updated.dedup();
        if let Some(tracker) = &mut self.conflicts {
            for txn in &txns {
                tracker.commit(txn);
            }
            self.pending_sgt = Some(tracker.end_cycle(cycle));
        }
        self.committed.push(txns);
        self.ground_truth.take();

        self.recent_updates.push_back((cycle, updated));
        let keep = self.config.report_window.max(self.span_supported()) as usize;
        while self.recent_updates.len() > keep {
            self.recent_updates.pop_front();
        }

        self.next_cycle = cycle.next();
        if self.obs.is_enabled() {
            self.obs.counter_add("server.cycles", 1);
            self.obs.record("bcast.slots", bcast.total_slots());
        }
        bcast
    }
}

/// Cycles a tracker keeps readers for, shared by live tracker and replay.
fn reader_horizon(config: &ServerConfig) -> u32 {
    config.versions_retained.max(8).saturating_mul(2)
}

/// `item`'s record as a bcast airs `value`: the last writer rides along
/// as the SGT tag when the server broadcasts SGT information.
fn on_air(item: ItemId, value: ItemValue, sgt_info: bool) -> ItemRecord {
    let tag = if sgt_info { value.writer() } else { None };
    ItemRecord::new(item, value, tag)
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

    /// Two transactions writing one item in one cycle leave one version:
    /// the history records the later writer only and the next bcast airs
    /// it. The earlier value is never current at a cycle boundary, so it
    /// is neither aired nor kept as an old version.
    #[test]
    fn same_cycle_rewrite_replaces() {
        let (x, y) = (ItemId::new(3), ItemId::new(5));
        let script = crate::ScriptedWorkload::with_transactions(vec![vec![vec![x, y], vec![x]]]);
        let opts = ServerOptions {
            mode: BroadcastMode::Multiversion(MultiversionLayout::Overflow),
            sgt_info: true,
        };
        let mut s = BroadcastServer::new(small_config(), opts, 9)
            .unwrap()
            .with_workload(Box::new(script));
        s.run_cycle();
        let (earlier, later) = (TxnId::new(Cycle::ZERO, 0), TxnId::new(Cycle::ZERO, 1));
        assert_eq!(s.history().writes_of(x), [ItemValue::written_by(later)]);
        assert_eq!(s.history().writes_of(y), [ItemValue::written_by(earlier)]);
        let b = s.run_cycle();
        let aired = b.current(x).unwrap();
        assert_eq!(aired.value(), ItemValue::written_by(later));
        assert_eq!(aired.last_writer(), Some(later));
        let old: Vec<ItemValue> = b.old_versions_of(x).iter().map(|&(_, v)| v).collect();
        assert_eq!(old, [ItemValue::initial()]);
    }

    /// The server modes selecting each of the five organizations, for a
    /// database of `d` ≥ 4 items.
    fn every_mode(d: u32) -> [BroadcastMode; 5] {
        let disk = |items, rel_freq| DiskSpec { items, rel_freq };
        [
            BroadcastMode::Plain,
            BroadcastMode::Multiversion(MultiversionLayout::Overflow),
            BroadcastMode::Multiversion(MultiversionLayout::Clustered),
            BroadcastMode::Disks(vec![disk(d / 4, 3), disk(d - d / 4, 1)]),
            BroadcastMode::IndexedFlat { segments: 3 },
        ]
    }

    /// Every accessor of `got` against `want`, for each of `d` items and
    /// a few past them.
    fn assert_same_bcast(got: &Bcast, want: &Bcast, d: u32, label: &str) {
        assert_eq!(got.cycle(), want.cycle(), "{label}");
        assert_eq!(got.control(), want.control(), "{label}: control");
        assert_eq!(
            (got.control_slots(), got.data_slots(), got.overflow_slots()),
            (
                want.control_slots(),
                want.data_slots(),
                want.overflow_slots()
            ),
            "{label}: control / data / overflow slots"
        );
        assert_eq!(got.directory(), want.directory(), "{label}: directory");
        assert_eq!(got.index_slots(), want.index_slots(), "{label}: index");
        assert!(got.records().eq(want.records()), "{label}: records");
        for x in (0..d + 3).map(ItemId::new) {
            assert_eq!(got.current(x), want.current(x), "{label} {x}");
            assert_eq!(got.occurrences_of(x), want.occurrences_of(x), "{label} {x}");
            assert_eq!(
                got.old_versions_of(x),
                want.old_versions_of(x),
                "{label} {x}"
            );
        }
    }

    /// The §3.2 retention rule written out over one item's values
    /// (initial load first, current last): a superseded value airs at
    /// `cycle` iff `V` > 1 and its successor's version + `V` > `cycle` + 1.
    /// Newest first.
    fn model_old_versions(values: &[ItemValue], cycle: Cycle, span: u32) -> Vec<ItemValue> {
        values
            .windows(2)
            .rev()
            .filter(|pair| {
                span > 1 && pair[1].version().number() + u64::from(span) > cycle.number() + 1
            })
            .map(|pair| pair[0])
            .collect()
    }

    /// Runs 32 cycles of a server in `mode` next to the server as it was
    /// before it kept anything across cycles: each bcast assembled from a
    /// fresh snapshot, the old versions of every item (the `0..D` scan)
    /// and a fresh organization fed a `Vec`, over a model of its own —
    /// every item's values, initial load first — that airs old versions
    /// by [`model_old_versions`]. The model replays each cycle's writes
    /// from the server's history. The augmented report and graph diff
    /// are the tracker's, not the snapshot's, so the model borrows them
    /// from the bcast it checks.
    fn run_against_rebuild(config: &ServerConfig, options: &ServerOptions, seed: u64) {
        let label = format!("{:?} sgt={} {config:?}", options.mode, options.sgt_info);
        let mut s = BroadcastServer::new(config.clone(), options.clone(), seed).unwrap();
        let d = config.broadcast_size;
        let span = s.span_supported();
        let mut model = vec![vec![ItemValue::initial()]; d as usize];
        let mut log: VecDeque<(Cycle, Vec<ItemId>)> = VecDeque::new();
        let current = |model: &[Vec<ItemValue>], x: ItemId| *model[x.as_usize()].last().unwrap();
        for _ in 0..32 {
            let cycle = s.next_cycle();
            let records: Vec<ItemRecord> = (0..d)
                .map(ItemId::new)
                .map(|x| on_air(x, current(&model, x), options.sgt_info))
                .collect();
            let mut old = OldVersions::default();
            if let BroadcastMode::Multiversion(_) = options.mode {
                for x in (0..d).map(ItemId::new) {
                    old.add_chain(x, model_old_versions(&model[x.as_usize()], cycle, span));
                }
            }
            let got = s.run_cycle();
            let window = config.report_window;
            let horizon = cycle.checked_sub(u64::from(window));
            let dated = log
                .iter()
                .filter(|(c, _)| horizon.map_or(true, |h| *c >= h))
                .flat_map(|(c, items)| items.iter().map(move |&x| (x, *c)));
            let invalidation = InvalidationReport::with_dated(
                cycle,
                window,
                dated,
                config.granularity,
                config.items_per_bucket,
            );
            let control = ControlInfo::new(
                cycle,
                invalidation,
                got.control().augmented().cloned(),
                got.control().graph_diff().cloned(),
            );
            let want = Organization::new(&options.mode, config.items_per_bucket).assemble(
                cycle,
                control,
                records.into(),
                old,
            );
            assert_same_bcast(&got, &want, d, &format!("{label} at {cycle}"));
            drop(got);
            if let BroadcastMode::Multiversion(_) = options.mode {
                // exactly the items last written in `c − V + 1 ..= c − 1`:
                // a wider or stale list airs the same bytes but grows
                let last_write = |x| current(&model, x).version().checked_sub(1);
                let window = cycle.next().checked_sub(u64::from(span));
                let want: Vec<(ItemId, Cycle)> = (0..d)
                    .map(ItemId::new)
                    .filter_map(|x| Some((x, last_write(x)?)))
                    .filter(|&(_, w)| window.map_or(true, |h| w >= h))
                    .collect();
                assert_eq!(s.on_air, want, "{label}: on-air list at {cycle}");
            }

            // replay the cycle's writes into the model
            let mut written = Vec::new();
            for x in (0..d).map(ItemId::new) {
                if let Some(&value) = s.history().writes_of(x).last() {
                    if value.version() == cycle.next() {
                        model[x.as_usize()].push(value);
                        written.push(x);
                    }
                }
            }
            log.push_back((cycle, written));
            if log.len() > window as usize {
                log.pop_front();
            }
        }
    }

    proptest::proptest! {
        /// Differential test: for every organization, with and without
        /// SGT information, report windows 1 and 3, `V` ∈ {0, 1, 2, 18}
        /// and 1 or 4 items to a bucket, every bcast of the incremental
        /// server equals the per-cycle rebuild's field by field, old
        /// versions chosen by the retention rule written out, and its
        /// on-air list holds exactly the items with old versions on air.
        #[test]
        fn incremental_cycle_matches_the_rebuild(
            seed in 0u64..u64::MAX,
            d in 12u32..40,
            updates in 1u32..7,
            txns in 1u32..4,
            per_bucket in 0usize..2,
        ) {
            for (mode, sgt_info) in every_mode(d).into_iter().flat_map(|m| [(m.clone(), false), (m, true)]) {
                for (report_window, versions_retained) in [1u32, 3].into_iter().flat_map(|w| [0u32, 1, 2, 18].map(|v| (w, v))) {
                    let config = ServerConfig {
                        broadcast_size: d,
                        update_range: d / 2,
                        server_read_range: d,
                        updates_per_cycle: updates,
                        txns_per_cycle: txns,
                        versions_retained,
                        report_window,
                        items_per_bucket: [1, 4][per_bucket],
                        ..ServerConfig::default()
                    };
                    let options = ServerOptions { mode: mode.clone(), sgt_info };
                    run_against_rebuild(&config, &options, seed);
                }
            }
        }
    }

    /// Every conflict graph the server builds is commit-ordered — each
    /// edge runs from an older to a newer transaction — for every
    /// organization, with and without SGT information, report windows 1
    /// and 3. The end-of-run audit cuts its traversal at a readset's
    /// newest writer only on such a graph.
    #[test]
    fn conflict_graph_is_commit_ordered() {
        let d = small_config().broadcast_size;
        for mode in every_mode(d) {
            for sgt_info in [false, true] {
                for report_window in [1u32, 3] {
                    let label = format!("{mode:?} sgt={sgt_info} window={report_window}");
                    let config = ServerConfig {
                        report_window,
                        ..small_config()
                    };
                    let options = ServerOptions {
                        mode: mode.clone(),
                        sgt_info,
                    };
                    let mut s = BroadcastServer::new(config, options, 13).unwrap();
                    for _ in 0..24 {
                        s.run_cycle();
                    }
                    let g = s.conflict_graph();
                    assert!(g.edge_count() > 0, "{label}: no conflict edges");
                    for from in g.nodes() {
                        for to in g.successors(from) {
                            assert!(from < to, "{label}: back edge {from} -> {to}");
                        }
                    }
                }
            }
        }
    }

    /// The graph as the server built it before it replayed anything: a
    /// tracker over `V.max(8) * 2` cycles of readers, fed every cycle's
    /// commits and closed every cycle, each diff applied as it closes.
    struct Fold {
        tracker: ConflictTracker,
        graph: SerializationGraph,
    }

    impl Fold {
        fn new(config: &ServerConfig) -> Self {
            Fold {
                tracker: ConflictTracker::new(config.versions_retained.max(8) * 2),
                graph: SerializationGraph::new(),
            }
        }

        fn cycle(&mut self, cycle: Cycle, txns: &[ServerTxn]) {
            for txn in txns {
                self.tracker.commit(txn);
            }
            let diff = self.tracker.end_cycle(cycle).0;
            self.graph.push(&diff);
        }
    }

    /// Replays fixed transactions, so a script can hold a pure reader,
    /// which a [`crate::ScriptedWorkload`] transaction never is.
    #[derive(Debug, Clone)]
    struct Replayed(Vec<Vec<ServerTxn>>);

    impl WorkloadSource for Replayed {
        fn generate_cycle(&mut self, cycle: Cycle) -> Vec<ServerTxn> {
            let at = usize::try_from(cycle.number()).unwrap();
            self.0.get(at).cloned().unwrap_or_default()
        }
    }

    /// The replayed ground truth is the graph the server folded cycle by
    /// cycle before: for every organization, with and without SGT
    /// information, report windows 1 and 3, the graph asked for after
    /// cycles 0, 5 and 23 of one run prints as the fold of a twin
    /// workload's commits — a cache kept across a cycle would show — and,
    /// under SGT, as the fold of every aired graph difference. Scripted
    /// idle cycles run past the reader horizon `H`: a cycle-0 reader still
    /// precedes a write of cycle `H + 1` and no longer one of `H + 2`, so
    /// the replay must close idle cycles as the live tracker does.
    #[test]
    fn conflict_graph_is_the_fold_of_the_commit_stream() {
        let d = small_config().broadcast_size;
        for mode in every_mode(d) {
            for sgt_info in [false, true] {
                for report_window in [1u32, 3] {
                    let label = format!("{mode:?} sgt={sgt_info} window={report_window}");
                    let config = ServerConfig {
                        report_window,
                        ..small_config()
                    };
                    let options = ServerOptions {
                        mode: mode.clone(),
                        sgt_info,
                    };
                    let mut s = BroadcastServer::new(config.clone(), options, 14).unwrap();
                    let mut twin = WorkloadGenerator::new(&config, 14).unwrap();
                    let mut fold = Fold::new(&config);
                    let mut aired = SerializationGraph::new();
                    let mut asked: Option<String> = None;
                    for c in (0..25).map(Cycle::new) {
                        let b = s.run_cycle();
                        if let Some(diff) = b.control().graph_diff() {
                            aired.push(diff);
                        }
                        // the graph asked for a cycle ago is aired by now
                        if let Some(text) = asked.take().filter(|_| sgt_info) {
                            assert_eq!(text, format!("{aired:?}"), "{label}: aired by {c}");
                        }
                        fold.cycle(c, &twin.generate_cycle(c));
                        if [0, 5, 23].contains(&c.number()) {
                            let text = format!("{:?}", s.conflict_graph());
                            assert_eq!(text, format!("{:?}", fold.graph), "{label} after {c}");
                            asked = Some(text);
                        }
                    }
                    assert!(fold.graph.edge_count() > 0, "{label}: no conflict edges");
                }
            }
        }

        let config = small_config();
        let h = u64::from(config.versions_retained.max(8) * 2);
        let x = ItemId::new(9);
        for (write_at, precedes) in [(h + 1, true), (h + 2, false)] {
            let mut script = vec![Vec::new(); usize::try_from(write_at).unwrap() + 2];
            let reader = TxnId::new(Cycle::ZERO, 0);
            script[0].push(ServerTxn::new(reader, vec![x], vec![]));
            let writer = TxnId::new(Cycle::new(write_at), 0);
            script[usize::try_from(write_at).unwrap()].push(ServerTxn::new(
                writer,
                vec![x],
                vec![x],
            ));
            let mut s = BroadcastServer::new(config.clone(), ServerOptions::sgt(), 0)
                .unwrap()
                .with_workload(Box::new(Replayed(script.clone())));
            let mut fold = Fold::new(&config);
            for (c, txns) in (0..).map(Cycle::new).zip(&script) {
                s.run_cycle();
                fold.cycle(c, txns);
                let got = s.conflict_graph();
                assert_eq!(
                    format!("{got:?}"),
                    format!("{:?}", fold.graph),
                    "write at {write_at}, {c}"
                );
            }
            let edge = s
                .conflict_graph()
                .successors(bpush_sgraph::Node::Txn(reader))
                .any(|n| n == bpush_sgraph::Node::Txn(writer));
            assert_eq!(edge, precedes, "write at {write_at}");
        }
    }

    /// The reader horizon saturates: a `V` whose doubling overflows `u32`
    /// passes validation, and plain and multiversion SGT servers built
    /// with it run and answer the conflict graph.
    #[test]
    fn huge_versions_retained_saturates_the_reader_horizon() {
        for versions_retained in [1u32 << 31, (1 << 31) + 1, u32::MAX] {
            let config = ServerConfig {
                versions_retained,
                ..small_config()
            };
            assert_eq!(reader_horizon(&config), u32::MAX);
            for mode in [
                BroadcastMode::Plain,
                BroadcastMode::Multiversion(MultiversionLayout::Overflow),
            ] {
                let options = ServerOptions {
                    mode,
                    sgt_info: true,
                };
                let mut s = BroadcastServer::new(config.clone(), options, 15).unwrap();
                for _ in 0..4 {
                    s.run_cycle();
                }
                let committed = 4 * config.txns_per_cycle as usize;
                assert_eq!(s.conflict_graph().node_count(), committed, "{config:?}");
            }
        }
    }

    /// `versions_retained = 0` passes validation and retains nothing old:
    /// a multiversion server airs no old version, exactly as with `V = 1`.
    #[test]
    fn zero_versions_retained_keeps_nothing_old() {
        let config = ServerConfig {
            versions_retained: 0,
            ..small_config()
        };
        config.validate().unwrap();
        let opts = ServerOptions::multiversion(MultiversionLayout::Overflow);
        let mut s = BroadcastServer::new(config, opts, 10).unwrap();
        for _ in 0..12 {
            let b = s.run_cycle();
            assert_eq!(b.overflow_slots(), 0);
            assert!(b.records().all(|r| r.overflow_ptr().is_none()));
        }
    }

    /// Copy-on-write is safe: every bcast of a multiversion + SGT run,
    /// all kept alive to the end, still shows the records (tags and
    /// overflow pointers included) and slots it had at its own cycle —
    /// a write through storage shared with a later cycle would show, as
    /// would a patch lost because the storage was shared.
    #[test]
    fn retained_bcasts_stay_snapshots() {
        let opts = ServerOptions {
            mode: BroadcastMode::Multiversion(MultiversionLayout::Overflow),
            sgt_info: true,
        };
        let mut s = BroadcastServer::new(small_config(), opts, 11).unwrap();
        let seen = |b: &Bcast| {
            let occ: Vec<Vec<u64>> = b
                .records()
                .map(|r| b.occurrences_of(r.item()).to_vec())
                .collect();
            (b.records().copied().collect::<Vec<_>>(), occ)
        };
        let mut kept = Vec::new();
        for _ in 0..30 {
            // ... and each was right when it was made, although the
            // column it was patched into was shared with a live bcast
            let snapshot: Vec<_> = (0..100)
                .map(ItemId::new)
                .map(|x| (x, s.history().current(x)))
                .map(|(x, v)| (x, v, v.writer()))
                .collect();
            let b = s.run_cycle();
            let aired: Vec<_> = b
                .records()
                .map(|r| (r.item(), r.value(), r.last_writer()))
                .collect();
            assert_eq!(aired, snapshot, "{}", b.cycle());
            let at_its_cycle = seen(&b);
            kept.push((b, at_its_cycle));
        }
        let tagged = kept
            .iter()
            .flat_map(|(_, (r, _))| r)
            .filter(|r| r.last_writer().is_some());
        let pointed = kept
            .iter()
            .flat_map(|(_, (r, _))| r)
            .filter(|r| r.overflow_ptr().is_some());
        assert!(
            tagged.count() > 0 && pointed.count() > 0,
            "the run exercises tags and pointers"
        );
        for (b, at_its_cycle) in &kept {
            assert_eq!(&seen(b), at_its_cycle, "{}", b.cycle());
        }
    }

    /// Copy-on-write is free: with the previous bcast dropped, every
    /// organization patches the same record allocation cycle after
    /// cycle, and the fixed-position ones hand out the same occurrence
    /// rows — a clone per cycle would show here and nowhere else.
    #[test]
    fn dropped_bcasts_are_patched_in_place() {
        for mode in every_mode(100) {
            let fixed = !matches!(
                mode,
                BroadcastMode::Multiversion(MultiversionLayout::Clustered)
            );
            let opts = ServerOptions {
                mode,
                sgt_info: true,
            };
            let mut s = BroadcastServer::new(small_config(), opts.clone(), 12).unwrap();
            let mut first = None;
            for _ in 0..12 {
                let b = s.run_cycle();
                let at = (
                    std::ptr::from_ref(b.records().next().unwrap()),
                    fixed.then(|| b.occurrences_of(ItemId::new(0)).as_ptr()),
                );
                assert_eq!(
                    *first.get_or_insert(at),
                    at,
                    "{:?} at {}",
                    opts.mode,
                    b.cycle()
                );
            }
        }
    }
}
