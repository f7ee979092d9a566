//! Property tests for the observability primitives.

// Integration tests are exempt from the panic-freedom policy
// (mirrors `allow-unwrap-in-tests` in clippy.toml and the `#[cfg(test)]`
// carve-out in `cargo xtask lint`).
#![allow(clippy::unwrap_used)]
use proptest::collection::vec;
use proptest::prelude::*;

use bpush_obs::monitor::{MonitorKind, NO_CYCLE, NO_ITEM};
use bpush_obs::{
    CoverageRule, Log2Histogram, MonitorConfig, MonitorPolicy, MonitorVerdict, Monitors,
    RingBuffer, Violation,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bpush_sgraph::{GraphDiff, Node};
use bpush_types::{Cycle, ItemId, QueryId, TxnId};

proptest! {
    /// Merging two histograms is indistinguishable from recording the
    /// concatenation of their input streams: buckets, count, sum,
    /// min and max all agree exactly.
    #[test]
    fn merge_equals_concatenated_recording(
        left in vec(0u64..u64::MAX, 0..200),
        right in vec(0u64..u64::MAX, 0..200),
    ) {
        let mut a = Log2Histogram::new();
        for &v in &left {
            a.record(v);
        }
        let mut b = Log2Histogram::new();
        for &v in &right {
            b.record(v);
        }
        let mut whole = Log2Histogram::new();
        for &v in left.iter().chain(right.iter()) {
            whole.record(v);
        }
        a.merge(&b);
        prop_assert_eq!(a, whole);
    }

    /// Every sample lands in exactly one bucket whose bounds contain it,
    /// and bucket totals always reconcile with the sample count.
    #[test]
    fn buckets_partition_the_value_space(samples in vec(0u64..u64::MAX, 1..200)) {
        let mut h = Log2Histogram::new();
        for &v in &samples {
            let k = Log2Histogram::bucket_of(v);
            prop_assert!(Log2Histogram::bucket_floor(k) <= v);
            prop_assert!(v <= Log2Histogram::bucket_ceil(k));
            h.record(v);
        }
        let total: u64 = h.buckets().iter().sum();
        prop_assert_eq!(total, h.count());
        prop_assert_eq!(h.count(), samples.len() as u64);
    }

    /// The ring buffer keeps exactly the newest `capacity` entries and
    /// accounts for every eviction.
    #[test]
    fn ring_keeps_the_newest_suffix(
        capacity in 1usize..32,
        values in vec(0u64..1000, 0..100),
    ) {
        let mut r = RingBuffer::new(capacity);
        for &v in &values {
            r.push(v);
        }
        let kept: Vec<u64> = r.iter().copied().collect();
        let start = values.len().saturating_sub(capacity);
        prop_assert_eq!(&kept[..], &values[start..]);
        prop_assert_eq!(r.dropped(), start as u64);
    }
}

/// One step of a monitored run's feed, as the instrumentation decorator
/// drives it.
#[derive(Debug, Clone)]
enum Op {
    Begin {
        lane: u32,
        query: u64,
        cycle: u64,
    },
    Missed {
        lane: u32,
        cycle: u64,
    },
    Commit {
        lane: u32,
        query: u64,
        cycle: u64,
    },
    Abort {
        lane: u32,
        query: u64,
        cycle: u64,
    },
    /// One whole heard control; `dated` and `first_writers` in item
    /// order.
    Control {
        lane: u32,
        cycle: u64,
        window: u32,
        dated: Vec<(u32, u64)>,
        diff: Option<Arc<GraphDiff>>,
        first_writers: Vec<(u32, TxnId)>,
    },
    Read {
        lane: u32,
        query: u64,
        item: u32,
        now: u64,
        valid_from: u64,
        valid_until: Option<u64>,
        writer: Option<TxnId>,
    },
}

fn drive(monitors: &Monitors, op: &Op) {
    match *op {
        Op::Begin { lane, query, cycle } => monitors.begin(lane, query, Cycle::new(cycle)),
        Op::Missed { lane, cycle } => monitors.missed(lane, Cycle::new(cycle)),
        Op::Commit { lane, query, cycle } => {
            monitors.finish(lane, query, Cycle::new(cycle), None);
        }
        Op::Abort { lane, query, cycle } => monitors.finish(
            lane,
            query,
            Cycle::new(cycle),
            Some(bpush_types::AbortReason::CycleDetected),
        ),
        Op::Control {
            lane,
            cycle,
            window,
            ref dated,
            ref diff,
            ref first_writers,
        } => {
            let dated: Vec<_> = dated
                .iter()
                .map(|&(item, wc)| (ItemId::new(item), Cycle::new(wc)))
                .collect();
            let first_writers: Vec<_> = first_writers
                .iter()
                .map(|&(item, writer)| (ItemId::new(item), writer))
                .collect();
            monitors.control(
                lane,
                Cycle::new(cycle),
                window,
                &dated,
                diff.as_ref(),
                &first_writers,
            );
        }
        Op::Read {
            lane,
            query,
            item,
            now,
            valid_from,
            valid_until,
            writer,
        } => monitors.read_meta(
            lane,
            query,
            ItemId::new(item),
            Cycle::new(now),
            Cycle::new(valid_from),
            valid_until.map(Cycle::new),
            writer,
        ),
    }
}

/// A mirrored serialization graph with query nodes: the sorted map of
/// successor lists a client's copy of the graph is, linked edge by edge.
#[derive(Debug, Default)]
struct MirrorGraph(BTreeMap<Node, Vec<Node>>);

impl MirrorGraph {
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

    fn remove_query(&mut self, q: QueryId) {
        self.unlink(|n| *n == Node::Query(q));
    }

    /// Whether adding `from → to` closes a cycle: `to →* from`.
    fn would_close_cycle(&self, from: Node, to: Node) -> bool {
        if from == to {
            return true;
        }
        if !self.0.contains_key(&from) {
            return false;
        }
        let mut seen = BTreeSet::new();
        let mut stack = self.0.get(&to).cloned().unwrap_or_default();
        while let Some(n) = stack.pop() {
            if n == from {
                return true;
            }
            if seen.insert(n) {
                stack.extend(self.0.get(&n).into_iter().flatten());
            }
        }
        false
    }

    /// Drops the transactions before `start`, then links the diff's edges
    /// inside the window; `None` empties the graph.
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
            if from.cycle() >= start && to.cycle() >= start {
                self.add_edge(Node::Txn(from), Node::Txn(to));
            }
        }
    }
}

/// One lane of [`MirrorModel`]: the query's state plus its own mirrored
/// serialization graph.
#[derive(Debug, Default)]
struct MirrorLane {
    graph: MirrorGraph,
    active: bool,
    query: u64,
    /// StrictGap doom: the missed cycle that doomed the query.
    doom: Option<u64>,
    doom_reported: bool,
    /// A closing augmented entry: `(item, write cycle, writer seq)`.
    pending: Option<(u32, u64, u64)>,
    c_o: Option<u64>,
    held: Vec<u32>,
}

impl MirrorLane {
    fn retire(&mut self) {
        if self.active {
            self.graph.remove_query(QueryId::new(self.query));
        }
        self.active = false;
        self.doom = None;
        self.doom_reported = false;
        self.pending = None;
    }
}

/// A verdict with nothing counted yet.
fn empty_verdict() -> MonitorVerdict {
    MonitorVerdict {
        controls: 0,
        commits: 0,
        aborts: 0,
        checks: 0,
        graph_edges: 0,
        unknown_clients: 0,
        violations: Vec::new(),
        violations_dropped: 0,
        watch_hits: Vec::new(),
        watch_dropped: 0,
    }
}

/// The graph-policy monitor as it stood with one mirrored graph per
/// lane: every lane applies each diff it hears, prunes at its own
/// Lemma-1 bound, and keeps its query as a node of its graph.
#[derive(Debug)]
struct MirrorModel {
    strict_gap: bool,
    lanes: Vec<MirrorLane>,
    verdict: MonitorVerdict,
}

impl MirrorModel {
    fn new(lanes: u32, strict_gap: bool) -> Self {
        MirrorModel {
            strict_gap,
            lanes: (0..lanes).map(|_| MirrorLane::default()).collect(),
            verdict: empty_verdict(),
        }
    }

    fn apply(&mut self, op: &Op) {
        let v = &mut self.verdict;
        match *op {
            Op::Begin { lane, query, .. } => {
                let l = &mut self.lanes[lane as usize];
                l.retire();
                l.active = true;
                l.query = query;
                l.c_o = None;
                l.held.clear();
            }
            Op::Missed { lane, cycle } => {
                let l = &mut self.lanes[lane as usize];
                if self.strict_gap && l.active && l.doom.is_none() {
                    l.doom = Some(cycle);
                }
            }
            Op::Commit { lane, query, cycle } => {
                v.commits += 1;
                let l = &mut self.lanes[lane as usize];
                if l.active && l.query == query {
                    if let Some((item, write_cycle, detail)) = l.pending {
                        v.violations.push(Violation {
                            kind: MonitorKind::Serializability,
                            client: lane,
                            query,
                            cycle,
                            item,
                            write_cycle,
                            detail,
                        });
                    }
                    l.retire();
                }
            }
            Op::Abort { lane, query, .. } => {
                v.aborts += 1;
                let l = &mut self.lanes[lane as usize];
                if l.active && l.query == query {
                    l.retire();
                }
            }
            Op::Control {
                lane,
                cycle,
                ref dated,
                ref diff,
                ref first_writers,
                ..
            } => {
                v.controls += 1;
                v.checks += dated.len() as u64;
                let l = &mut self.lanes[lane as usize];
                if let Some(diff) = diff {
                    l.graph.advance(Some(Cycle::ZERO), Some(&**diff));
                }
                for &(item, writer) in first_writers {
                    if !l.active || !l.held.contains(&item) {
                        continue;
                    }
                    let wc = writer.cycle().number();
                    l.c_o = Some(l.c_o.map_or(wc, |c| c.min(wc)));
                    let q = Node::Query(QueryId::new(l.query));
                    let closes = l.graph.would_close_cycle(q, Node::Txn(writer));
                    l.graph.add_edge(q, Node::Txn(writer));
                    v.graph_edges += 1;
                    if closes && l.pending.is_none() {
                        l.pending = Some((item, wc, u64::from(writer.seq())));
                    }
                }
                let start = l.active.then(|| Cycle::new(l.c_o.unwrap_or(cycle)));
                l.graph.advance(start, None);
            }
            Op::Read {
                lane,
                query,
                item,
                now,
                writer,
                ..
            } => {
                let l = &mut self.lanes[lane as usize];
                if !l.active || l.query != query {
                    return;
                }
                if let (Some(missed), false) = (l.doom, l.doom_reported) {
                    l.doom_reported = true;
                    v.violations.push(Violation {
                        kind: MonitorKind::Coverage,
                        client: lane,
                        query,
                        cycle: now,
                        item: NO_ITEM,
                        write_cycle: NO_CYCLE,
                        detail: missed,
                    });
                }
                l.held.push(item);
                let Some(t) = writer else { return };
                let q = Node::Query(QueryId::new(query));
                let closes = l.graph.would_close_cycle(Node::Txn(t), q);
                l.graph.add_edge(Node::Txn(t), q);
                v.graph_edges += 1;
                if closes {
                    v.violations.push(Violation {
                        kind: MonitorKind::Serializability,
                        client: lane,
                        query,
                        cycle: now,
                        item,
                        write_cycle: t.cycle().number(),
                        detail: u64::from(t.seq()),
                    });
                }
            }
        }
    }
}

/// SplitMix64: the feed generator's own deterministic stream.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// A cycle's diff with the first writer of each item it wrote, as the
/// next cycle's control carries them.
type Aired = (Arc<GraphDiff>, Vec<(u32, TxnId)>);

/// A random commit-ordered feed: each cycle a few server transactions
/// commit, each conflicting with the previous writer of every item it
/// writes and sometimes with an older transaction (so every edge runs
/// old → new, grouped by target, none twice — a well-formed diff); every lane hears each control (or, with `miss_pct`,
/// misses it) in lane order, then begins, reads, commits or aborts.
fn feed(seed: u64, lanes: u32, cycles: u64, items: u32, miss_pct: u64) -> Vec<Op> {
    let mut g = Gen(seed);
    let mut ops = Vec::new();
    let mut writer_of: Vec<Option<TxnId>> = vec![None; items as usize];
    let mut committed: Vec<TxnId> = Vec::new();
    let mut active: Vec<Option<u64>> = vec![None; lanes as usize];
    let mut next_query = 0u64;
    let mut last: Option<Aired> = None;
    for n in 0..cycles {
        for lane in 0..lanes {
            if n > 0 && g.chance(miss_pct) {
                ops.push(Op::Missed { lane, cycle: n });
            } else {
                let (dated, diff, first_writers) = match &last {
                    Some((diff, first_writers)) => (
                        first_writers
                            .iter()
                            .map(|&(item, _)| (item, n - 1))
                            .collect(),
                        Some(Arc::clone(diff)),
                        first_writers.clone(),
                    ),
                    None => (Vec::new(), None, Vec::new()),
                };
                ops.push(Op::Control {
                    lane,
                    cycle: n,
                    window: 1,
                    dated,
                    diff,
                    first_writers,
                });
            }
            let slot = &mut active[lane as usize];
            if (slot.is_none() || g.chance(10)) && g.chance(60) {
                next_query += 1;
                *slot = Some(next_query);
                ops.push(Op::Begin {
                    lane,
                    query: next_query,
                    cycle: n,
                });
            }
            let Some(query) = *slot else { continue };
            for _ in 0..g.below(4) {
                let item = g.below(u64::from(items)) as u32;
                let writer = match g.below(10) {
                    0 => None,
                    1 if !committed.is_empty() => {
                        Some(committed[g.below(committed.len() as u64) as usize])
                    }
                    _ => writer_of[item as usize],
                };
                ops.push(Op::Read {
                    lane,
                    query,
                    item,
                    now: n,
                    valid_from: 0,
                    valid_until: None,
                    writer,
                });
            }
            if g.chance(25) {
                ops.push(Op::Commit {
                    lane,
                    query,
                    cycle: n,
                });
                *slot = None;
            } else if g.chance(10) {
                ops.push(Op::Abort {
                    lane,
                    query,
                    cycle: n,
                });
                *slot = None;
            }
        }
        let mut txns = Vec::new();
        let mut edges = Vec::new();
        let mut first_writers: Vec<(u32, TxnId)> = Vec::new();
        for seq in 0..g.below(4) as u32 {
            let t = TxnId::new(Cycle::new(n), seq);
            for _ in 0..=g.below(2) {
                let item = g.below(u64::from(items)) as u32;
                if let Some(prev) = writer_of[item as usize].filter(|&p| p != t) {
                    if !edges.contains(&(prev, t)) {
                        edges.push((prev, t));
                    }
                }
                writer_of[item as usize] = Some(t);
                if !first_writers.iter().any(|&(i, _)| i == item) {
                    first_writers.push((item, t));
                }
            }
            if !committed.is_empty() && g.chance(30) {
                let older = committed[g.below(committed.len() as u64) as usize];
                if !edges.contains(&(older, t)) {
                    edges.push((older, t));
                }
            }
            txns.push(t);
            committed.push(t);
        }
        first_writers.sort_unstable();
        let diff = GraphDiff::new(Cycle::new(n), txns, edges);
        last = Some((Arc::new(diff), first_writers));
    }
    ops
}

fn run_both(ops: &[Op], lanes: u32, coverage: CoverageRule) -> (MonitorVerdict, MonitorVerdict) {
    let mut config = MonitorConfig::new(lanes, MonitorPolicy::Graph, coverage);
    config.max_violations = 4096;
    let monitors = Monitors::new(config);
    let mut model = MirrorModel::new(lanes, coverage == CoverageRule::StrictGap);
    for op in ops {
        drive(&monitors, op);
        model.apply(op);
    }
    (monitors.verdict(), model.verdict)
}

fn coverage_of(strict: bool) -> CoverageRule {
    if strict {
        CoverageRule::StrictGap
    } else {
        CoverageRule::Ignore
    }
}

proptest! {
    /// When every lane hears every cycle, judging each lane against the
    /// one shared transaction graph renders exactly the verdict of one
    /// mirrored graph per lane, edge count and violations included.
    #[test]
    fn shared_graph_equals_the_per_lane_mirror_when_every_lane_hears(
        seed in 0u64..u64::MAX,
        lanes in 1u32..4,
        cycles in 2u64..12,
        items in 2u32..8,
        strict in proptest::bool::ANY,
    ) {
        let ops = feed(seed, lanes, cycles, items, 0);
        let (engine, model) = run_both(&ops, lanes, coverage_of(strict));
        prop_assert_eq!(engine.render(), model.render(), "feed {:?}", ops);
    }

    /// A lane that missed diffs has less in its mirror than the shared
    /// graph holds: the engine may flag more, never less.
    #[test]
    fn shared_graph_flags_all_the_mirror_flags_when_lanes_miss_cycles(
        seed in 0u64..u64::MAX,
        lanes in 1u32..4,
        cycles in 2u64..12,
        items in 2u32..8,
        strict in proptest::bool::ANY,
    ) {
        let ops = feed(seed, lanes, cycles, items, 30);
        let (engine, model) = run_both(&ops, lanes, coverage_of(strict));
        let key = |v: &Violation| (v.kind.label(), v.client, v.query, v.cycle);
        for v in &model.violations {
            prop_assert!(
                engine.violations.iter().any(|e| key(e) == key(v)),
                "mirror flagged {} but the engine did not\nengine: {}\nfeed {:?}",
                v.render(),
                engine.render(),
                ops
            );
        }
    }
}

/// One lane of [`EntryModel`].
#[derive(Debug, Default)]
struct EntryLane {
    heard: Option<u64>,
    /// The control cycle being fed.
    feeding: u64,
    active: bool,
    query: u64,
    verified: u64,
    /// `(kind, item, write cycle, detail)` of an armed doom.
    doom: Option<(MonitorKind, u32, u64, u64)>,
    doom_reported: bool,
    pending: Option<(u32, u64, u64)>,
    /// `(item, valid_from, valid_until)` per accepted read.
    reads: Vec<(u32, u64, u64)>,
    writers: Vec<TxnId>,
    overwriters: Vec<TxnId>,
}

impl EntryLane {
    fn holds(&self, item: u32) -> bool {
        self.reads.iter().any(|r| r.0 == item)
    }

    fn retire(&mut self) {
        self.active = false;
        self.doom = None;
        self.doom_reported = false;
        self.pending = None;
    }
}

/// The monitor engine without diffs as it stood when a lane heard a
/// control entry by entry: begin (window-gap rule), each dated report
/// entry, each first writer, done (watermarks). Its graph is empty, so
/// a first writer reaches a writer iff it is that writer.
#[derive(Debug)]
struct EntryModel {
    policy: MonitorPolicy,
    coverage: CoverageRule,
    lanes: Vec<EntryLane>,
    verdict: MonitorVerdict,
}

impl EntryModel {
    fn new(lanes: u32, config: MonitorConfig) -> Self {
        EntryModel {
            policy: config.policy,
            coverage: config.coverage,
            lanes: (0..lanes).map(|_| EntryLane::default()).collect(),
            verdict: empty_verdict(),
        }
    }

    fn violation(
        kind: MonitorKind,
        client: u32,
        query: u64,
        cycle: u64,
        (item, write_cycle, detail): (u32, u64, u64),
    ) -> Violation {
        Violation {
            kind,
            client,
            query,
            cycle,
            item,
            write_cycle,
            detail,
        }
    }

    fn control_begin(&mut self, lane: u32, n: u64, window: u32) {
        self.verdict.controls += 1;
        let window_gap = self.coverage == CoverageRule::WindowGap;
        let Some(l) = self.lanes.get_mut(lane as usize) else {
            self.verdict.unknown_clients += 1;
            return;
        };
        l.feeding = n;
        if let (true, true, None, Some(heard)) = (window_gap, l.active, l.doom, l.heard) {
            if n > heard + u64::from(window) {
                l.doom = Some((MonitorKind::Coverage, NO_ITEM, NO_CYCLE, n));
            }
        }
    }

    fn report_entry(&mut self, lane: u32, item: u32, wc: u64) {
        self.verdict.checks += 1;
        let Some(l) = self.lanes.get_mut(lane as usize) else {
            return;
        };
        if !l.active {
            return;
        }
        match self.policy {
            MonitorPolicy::Current => {
                if l.doom.is_none() && wc >= l.verified && l.holds(item) {
                    l.doom = Some((MonitorKind::Currency, item, wc, l.feeding));
                }
            }
            MonitorPolicy::Snapshot => {
                for r in l.reads.iter_mut().filter(|r| r.0 == item) {
                    if r.1 <= wc && wc + 1 < r.2 {
                        r.2 = wc + 1;
                    }
                }
            }
            MonitorPolicy::Graph => {}
        }
    }

    fn first_writer(&mut self, lane: u32, item: u32, writer: TxnId) {
        if self.policy != MonitorPolicy::Graph {
            return;
        }
        let Some(l) = self.lanes.get_mut(lane as usize) else {
            return;
        };
        if !l.active || !l.holds(item) {
            return;
        }
        let closes = l.writers.contains(&writer);
        if !l.overwriters.contains(&writer) {
            l.overwriters.push(writer);
        }
        self.verdict.graph_edges += 1;
        if closes && l.pending.is_none() {
            let wc = writer.cycle().number();
            l.pending = Some((item, wc, u64::from(writer.seq())));
        }
    }

    fn control_done(&mut self, lane: u32, n: u64) {
        let Some(l) = self.lanes.get_mut(lane as usize) else {
            return;
        };
        if l.active && l.doom.is_none() {
            l.verified = n;
        }
        l.heard = Some(n);
    }

    fn commit(&mut self, lane: u32, query: u64, n: u64) {
        let snapshot = self.policy == MonitorPolicy::Snapshot;
        let l = &mut self.lanes[lane as usize];
        if !l.active || l.query != query {
            return;
        }
        let mut found = l.pending.map(|at| (MonitorKind::Serializability, at));
        if found.is_none() && snapshot && !l.reads.is_empty() {
            let (mut max_from, mut from_item) = (0, NO_ITEM);
            let (mut min_until, mut until_item) = (NO_CYCLE, NO_ITEM);
            for &(item, from, until) in &l.reads {
                if from >= max_from {
                    (max_from, from_item) = (from, item);
                }
                if until < min_until {
                    (min_until, until_item) = (until, item);
                }
            }
            if max_from >= min_until {
                let at = (from_item, min_until, u64::from(until_item));
                found = Some((MonitorKind::Serializability, at));
            }
        }
        if let Some((kind, at)) = found {
            let v = Self::violation(kind, lane, query, n, at);
            self.verdict.violations.push(v);
        }
        l.retire();
    }

    fn read(
        &mut self,
        lane: u32,
        query: u64,
        item: u32,
        slot: (u64, u64),
        writer: Option<TxnId>,
        n: u64,
    ) {
        let graph = self.policy == MonitorPolicy::Graph;
        let Some(l) = self.lanes.get_mut(lane as usize) else {
            self.verdict.unknown_clients += 1;
            return;
        };
        if !l.active || l.query != query {
            return;
        }
        if let (Some((kind, doomed, wc, detail)), false) = (l.doom, l.doom_reported) {
            l.doom_reported = true;
            let v = Self::violation(kind, lane, query, n, (doomed, wc, detail));
            self.verdict.violations.push(v);
        }
        l.reads.push((item, slot.0, slot.1));
        let (true, Some(t)) = (graph, writer) else {
            return;
        };
        if !l.writers.contains(&t) {
            l.writers.push(t);
        }
        self.verdict.graph_edges += 1;
        if l.overwriters.contains(&t) {
            let at = (item, t.cycle().number(), u64::from(t.seq()));
            let v = Self::violation(MonitorKind::Serializability, lane, query, n, at);
            self.verdict.violations.push(v);
        }
    }

    fn apply(&mut self, op: &Op) {
        match *op {
            Op::Begin { lane, query, cycle } => {
                let l = &mut self.lanes[lane as usize];
                *l = EntryLane {
                    heard: l.heard,
                    active: true,
                    query,
                    verified: cycle,
                    ..EntryLane::default()
                };
            }
            Op::Missed { lane, cycle } => {
                let strict_gap = self.coverage == CoverageRule::StrictGap;
                let l = &mut self.lanes[lane as usize];
                if strict_gap && l.active && l.doom.is_none() {
                    l.doom = Some((MonitorKind::Coverage, NO_ITEM, NO_CYCLE, cycle));
                }
            }
            Op::Commit { lane, query, cycle } => {
                self.verdict.commits += 1;
                self.commit(lane, query, cycle);
            }
            Op::Abort { lane, query, .. } => {
                self.verdict.aborts += 1;
                let l = &mut self.lanes[lane as usize];
                if l.active && l.query == query {
                    l.retire();
                }
            }
            Op::Control {
                lane,
                cycle,
                window,
                ref dated,
                ref first_writers,
                ..
            } => {
                self.control_begin(lane, cycle, window);
                for &(item, wc) in dated {
                    self.report_entry(lane, item, wc);
                }
                for &(item, writer) in first_writers {
                    self.first_writer(lane, item, writer);
                }
                self.control_done(lane, cycle);
            }
            Op::Read {
                lane,
                query,
                item,
                now,
                valid_from,
                valid_until,
                writer,
            } => {
                let slot = (valid_from, valid_until.unwrap_or(NO_CYCLE));
                self.read(lane, query, item, slot, writer, now);
            }
        }
    }
}

/// A random feed for the report screen: `lanes` lanes plus one out of
/// range, each hearing (or, in range, sometimes missing) every cycle's
/// control. A control carries a random window, dated entries and first
/// writers, both sorted by item; reads repeat items, carry random
/// validity intervals and writers from the pool of three transactions
/// the first writers come from, so entries hit held items, items held
/// twice and the query's own writers, often several in one control.
fn screen_feed(seed: u64, lanes: u32, cycles: u64, items: u32) -> Vec<Op> {
    let mut g = Gen(seed);
    let mut ops = Vec::new();
    let mut active: Vec<Option<u64>> = vec![None; lanes as usize];
    let mut next_query = 0u64;
    let pool = |g: &mut Gen| TxnId::new(Cycle::new(g.below(3)), 0);
    for n in 0..cycles {
        for lane in 0..=lanes {
            let in_range = lane < lanes;
            if in_range && n > 0 && g.chance(15) {
                ops.push(Op::Missed { lane, cycle: n });
            } else {
                let mut dated = Vec::new();
                let mut first_writers = Vec::new();
                for item in 0..items {
                    if g.chance(50) {
                        dated.push((item, n.saturating_sub(1 + g.below(2))));
                    }
                    if g.chance(60) {
                        first_writers.push((item, pool(&mut g)));
                    }
                }
                ops.push(Op::Control {
                    lane,
                    cycle: n,
                    window: 1 + g.below(3) as u32,
                    dated,
                    diff: None,
                    first_writers,
                });
            }
            let query = if in_range {
                let slot = &mut active[lane as usize];
                if (slot.is_none() || g.chance(10)) && g.chance(60) {
                    next_query += 1;
                    *slot = Some(next_query);
                    ops.push(Op::Begin {
                        lane,
                        query: next_query,
                        cycle: n,
                    });
                }
                match *slot {
                    Some(query) => query,
                    None => continue,
                }
            } else {
                next_query
            };
            for _ in 0..=g.below(4) {
                let valid_from = n.saturating_sub(g.below(2));
                ops.push(Op::Read {
                    lane,
                    query,
                    item: g.below(u64::from(items)) as u32,
                    now: n,
                    valid_from,
                    valid_until: g.chance(50).then(|| valid_from + 1 + g.below(4)),
                    writer: g.chance(80).then(|| pool(&mut g)),
                });
            }
            if !in_range {
                continue;
            }
            if g.chance(25) {
                ops.push(Op::Commit {
                    lane,
                    query,
                    cycle: n,
                });
                active[lane as usize] = None;
            } else if g.chance(10) {
                ops.push(Op::Abort {
                    lane,
                    query,
                    cycle: n,
                });
                active[lane as usize] = None;
            }
        }
    }
    ops
}

/// The policy and gap rule pairs the screen proptest draws from.
const SCREENED: [(MonitorPolicy, CoverageRule); 4] = [
    (MonitorPolicy::Current, CoverageRule::WindowGap),
    (MonitorPolicy::Snapshot, CoverageRule::Ignore),
    (MonitorPolicy::Graph, CoverageRule::Ignore),
    (MonitorPolicy::Graph, CoverageRule::StrictGap),
];

proptest! {
    /// A lane screening its own slots against a whole report, in one
    /// call per control, renders exactly the verdict of the entry-by-entry
    /// feed: the first held entry in item order dooms a `Current` query,
    /// a `Snapshot` slot's validity tightens to `wc + 1`, and under
    /// `Graph` an item held twice is one edge and the first closing
    /// entry in item order arms the commit check. Inactive and
    /// out-of-range lanes count their controls and entries, every call
    /// of an out-of-range lane is counted unknown, and a lane
    /// verifies its readset only through a report that left it undoomed
    /// (what a `Current` lane's next screen compares against).
    #[test]
    fn one_call_screen_equals_the_entry_by_entry_feed(
        seed in 0u64..u64::MAX,
        lanes in 1u32..4,
        cycles in 2u64..16,
        items in 2u32..10,
        which in 0usize..SCREENED.len(),
    ) {
        let (policy, coverage) = SCREENED[which];
        let ops = screen_feed(seed, lanes, cycles, items);
        let mut config = MonitorConfig::new(lanes, policy, coverage);
        config.max_violations = 4096;
        let monitors = Monitors::new(config);
        let mut model = EntryModel::new(lanes, config);
        for op in &ops {
            drive(&monitors, op);
            model.apply(op);
        }
        prop_assert_eq!(monitors.verdict().render(), model.verdict.render(), "feed {:?}", ops);
    }
}
