//! Online invariant monitors over a typed feed of what each client hears
//! and does.
//!
//! Each monitor is a small deterministic state machine over integers:
//! fed the same same-seed calls, it produces byte-identical verdicts
//! ([`MonitorVerdict::render`]). The engine mirrors the
//! *published rules* of the processing methods (§3 of the paper) rather
//! than their implementations, so a protocol that diverges from its own
//! rule — such as the seeded `BrokenInvalidation` mutant — is caught
//! online, while every genuine method passes:
//!
//! * **Currency** ([`MonitorKind::Currency`], policy
//!   [`MonitorPolicy::Current`]) — mirrors the §3.1 invalidation screen
//!   at item granularity: once a report entry hits the active readset at
//!   or after the query's verified state, the protocol must doom the
//!   query; a read *accepted* past that point is a violation.
//! * **Serializability** ([`MonitorKind::Serializability`]) — for
//!   [`MonitorPolicy::Graph`] methods, one windowed graph of server
//!   transactions per monitor set (a `bpush_sgraph::Window` of the shared
//!   diffs, each kept once, from the least Lemma-1 bound over the active
//!   lanes). Each lane keeps its query's §3.3 edges as plain data, so
//!   both checks are reachability questions on the shared graph: an
//!   accepted read whose writer a recorded first overwriter is or
//!   reaches, or a commit after a first overwriter that is or reaches a
//!   writer the query read, is a violation. For
//!   [`MonitorPolicy::Snapshot`] methods, the committed readset's
//!   validity intervals must share a database state.
//! * **Coverage** ([`MonitorKind::Coverage`]) — every committed readset
//!   was screened against every overlapping report: an uncovered report
//!   gap (window rule, §5.2.2) or a missed cycle under a strict-gap
//!   method must doom the query before any further read is accepted.
//!
//! [`Monitors`] is the one monitor type: one lane per client, and five
//! typed calls, one per lane transition, each run under the set's one
//! lock: a query begun ([`Monitors::begin`]), each heard control whole
//! ([`Monitors::control`]), each missed cycle ([`Monitors::missed`]),
//! each accepted read with its validity metadata
//! ([`Monitors::read_meta`]), and the query's fate
//! ([`Monitors::finish`]). The first four are driven by the
//! `Instrumented` protocol decorator in `bpush-core`, the fate by the
//! client driver that decides it. A lane mirrors its query's whole
//! readset, so every committed readset is checked. The monitors read no
//! events: a monitored run without a recorder builds none.

// bpush-lint: sans_io — monitor feed path: pure state machines over integers, no clocks/threads/files/sockets

use std::sync::Arc;

use parking_lot::Mutex;

use bpush_sgraph::{GraphDiff, Window};
use bpush_types::{AbortReason, Cycle, ItemId, TxnId};

/// Sentinel for "no item" in an all-integer [`Violation`].
pub const NO_ITEM: u32 = u32::MAX;
/// Sentinel for "no cycle / not applicable" in an all-integer field.
pub const NO_CYCLE: u64 = u64::MAX;

/// Which invariant family a method is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// bpush-lint: protocol_enum — monitor rule family mirroring the method matrix
pub enum MonitorPolicy {
    /// Committed readsets must be current (§3.1 invalidation screen).
    Current,
    /// Committed readsets must share one database state (§4.1/§3.2).
    Snapshot,
    /// Commits must leave the serialization graph acyclic (§3.3).
    Graph,
}

/// How missed cycles must be handled by the method under watch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// bpush-lint: protocol_enum — gap-handling rule mirroring §5.2.2
pub enum CoverageRule {
    /// A gap is tolerable iff the next heard report's window covers it.
    WindowGap,
    /// Any missed cycle dooms active queries (plain SGT).
    StrictGap,
    /// Gaps never doom (multiversion / versioned methods).
    Ignore,
}

/// Which monitor produced a [`Violation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// bpush-lint: protocol_enum — verdict dimension of the monitor engine
pub enum MonitorKind {
    /// The §3.1 currency screen was bypassed.
    Currency,
    /// A commit was provably non-serializable under the method's rule.
    Serializability,
    /// A readset escaped screening against an overlapping report.
    Coverage,
    /// Not a violation: an [`AbortReason`] watch filter matched.
    AbortWatch,
}

impl MonitorKind {
    /// Short stable kebab-case label.
    pub const fn label(self) -> &'static str {
        match self {
            MonitorKind::Currency => "currency",
            MonitorKind::Serializability => "serializability",
            MonitorKind::Coverage => "coverage",
            MonitorKind::AbortWatch => "abort-watch",
        }
    }

    /// Parses [`MonitorKind::label`] output.
    pub fn from_label(s: &str) -> Option<MonitorKind> {
        match s {
            "currency" => Some(MonitorKind::Currency),
            "serializability" => Some(MonitorKind::Serializability),
            "coverage" => Some(MonitorKind::Coverage),
            "abort-watch" => Some(MonitorKind::AbortWatch),
            _ => None,
        }
    }
}

/// One detected invariant violation, all-integer so verdicts render
/// byte-identically across same-seed runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// Which monitor fired.
    pub kind: MonitorKind,
    /// The client lane (the client's dense index).
    pub client: u32,
    /// The query id involved.
    pub query: u64,
    /// The cycle at which the violation was confirmed.
    pub cycle: u64,
    /// The offending item ([`NO_ITEM`] when not item-specific).
    pub item: u32,
    /// The conflicting write's cycle ([`NO_CYCLE`] when n/a).
    pub write_cycle: u64,
    /// Kind-specific detail: the report cycle that should have doomed
    /// the query (currency/coverage), or the conflicting writer's
    /// sequence number (serializability).
    pub detail: u64,
}

impl Violation {
    /// Canonical one-line rendering, stable across runs.
    pub fn render(&self) -> String {
        format!(
            "violation kind={} client={} query={} cycle={} item={} write_cycle={} detail={}",
            self.kind.label(),
            self.client,
            self.query,
            self.cycle,
            self.item,
            self.write_cycle,
            self.detail
        )
    }

    /// Parses a [`Violation::render`] line.
    pub fn parse(line: &str) -> Option<Violation> {
        let mut kind = None;
        let mut client = None;
        let mut query = None;
        let mut cycle = None;
        let mut item = None;
        let mut write_cycle = None;
        let mut detail = None;
        let mut seen = 0usize;
        for part in line.split_ascii_whitespace() {
            if part == "violation" {
                continue;
            }
            let (key, value) = part.split_once('=')?;
            match key {
                "kind" => kind = MonitorKind::from_label(value),
                "client" => client = value.parse().ok(),
                "query" => query = value.parse().ok(),
                "cycle" => cycle = value.parse().ok(),
                "item" => item = value.parse().ok(),
                "write_cycle" => write_cycle = value.parse().ok(),
                "detail" => detail = value.parse().ok(),
                _ => return None,
            }
            seen = seen.saturating_add(1);
        }
        if seen != 7 {
            return None;
        }
        Some(Violation {
            kind: kind?,
            client: client?,
            query: query?,
            cycle: cycle?,
            item: item?,
            write_cycle: write_cycle?,
            detail: detail?,
        })
    }
}

/// A matched [`AbortReason`] watch filter hit (not a violation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchHit {
    /// The client lane.
    pub client: u32,
    /// The aborted query.
    pub query: u64,
    /// The abort cycle.
    pub cycle: u64,
    /// The matched reason.
    pub reason: AbortReason,
}

/// Configuration of a [`Monitors`] set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorConfig {
    /// Number of client lanes to preallocate.
    pub clients: u32,
    /// The invariant family of the method under watch.
    pub policy: MonitorPolicy,
    /// The gap rule of the method under watch.
    pub coverage: CoverageRule,
    /// Violation slots to retain (further violations are counted).
    pub max_violations: u32,
    /// Flight-recorder trigger: also capture on this abort reason.
    pub watch: Option<AbortReason>,
}

impl MonitorConfig {
    /// A config with conventional capacities.
    pub fn new(clients: u32, policy: MonitorPolicy, coverage: CoverageRule) -> Self {
        MonitorConfig {
            clients,
            policy,
            coverage,
            max_violations: 64,
            watch: None,
        }
    }
}

/// One readset slot mirrored by a lane.
#[derive(Debug, Clone, Copy)]
struct ReadSlot {
    item: u32,
    /// Inclusive earliest state at which the value is known current.
    valid_from: u64,
    /// Exclusive state bound at which it is superseded ([`NO_CYCLE`] =
    /// open); tightened by later report entries.
    valid_until: u64,
}

/// An armed expect-doom record: the method's own rule requires the
/// active query to abort; accepting a further read is a violation.
#[derive(Debug, Clone, Copy)]
struct DoomExpect {
    kind: MonitorKind,
    item: u32,
    write_cycle: u64,
    detail: u64,
}

impl DoomExpect {
    /// A gap the method must not read across, found at cycle `n`.
    const fn coverage(n: u64) -> DoomExpect {
        DoomExpect {
            kind: MonitorKind::Coverage,
            item: NO_ITEM,
            write_cycle: NO_CYCLE,
            detail: n,
        }
    }
}

/// Per-client protocol monitor state.
#[derive(Debug, Clone)]
struct Lane {
    /// Last heard control cycle ([`NO_CYCLE`] = never).
    heard: u64,
    active: bool,
    query: u64,
    /// The query's verified database state (§3.1 `verified_state`).
    verified: u64,
    doom: Option<DoomExpect>,
    doom_reported: bool,
    /// Graph policy: a cycle through the query exists (precedence-edge
    /// closure); a commit in this state is a violation.
    pending_cycle: Option<DoomExpect>,
    /// Graph policy: earliest first-writer cycle (`c_o`, Lemma 1).
    c_o: u64,
    /// The query's accepted reads, in read order: cleared at `begin`,
    /// its buffer reused by the lane's next query.
    reads: Vec<ReadSlot>,
    /// Graph policy: the distinct writers of the query's accepted reads
    /// (its dependency edges `T → R`).
    writers: Vec<TxnId>,
    /// Graph policy: the distinct first overwriters of items the query
    /// holds (its precedence edges `R → T_f`).
    overwriters: Vec<TxnId>,
}

impl Lane {
    const IDLE: Lane = Lane {
        heard: NO_CYCLE,
        active: false,
        query: 0,
        verified: 0,
        doom: None,
        doom_reported: false,
        pending_cycle: None,
        c_o: NO_CYCLE,
        reads: Vec::new(),
        writers: Vec::new(),
        overwriters: Vec::new(),
    };

    /// Screens the mirrored readset against a report's dated entries.
    /// Current (§3.1): the first held entry in item order written at or
    /// after the verified state dooms the query. Snapshot: a version
    /// current no later than an entry's write cycle `wc` was superseded
    /// by the write, so its validity ends at `wc + 1` at the latest.
    // bpush-lint: hot_path — report screen: runs once per heard control on every active lane of a monitored run
    fn screen(&mut self, policy: MonitorPolicy, report: u64, dated: &[(ItemId, Cycle)]) {
        match policy {
            MonitorPolicy::Current if self.doom.is_none() => {
                self.doom = self
                    .reads
                    .iter()
                    .filter_map(|s| Some((s.item, lookup(dated, s.item)?.number())))
                    .filter(|&(_, wc)| wc >= self.verified)
                    .min()
                    .map(|(item, write_cycle)| DoomExpect {
                        kind: MonitorKind::Currency,
                        item,
                        write_cycle,
                        detail: report,
                    });
            }
            MonitorPolicy::Snapshot => {
                for slot in &mut self.reads {
                    let wc = lookup(dated, slot.item).map(Cycle::number);
                    if let Some(wc) = wc.filter(|&wc| slot.valid_from <= wc) {
                        slot.valid_until = slot.valid_until.min(wc.saturating_add(1));
                    }
                }
            }
            MonitorPolicy::Current | MonitorPolicy::Graph => {}
        }
    }

    /// Hears an augmented report's first writers: each held item, once
    /// however often it was read, lowers `c_o` and records the
    /// precedence edge `R → T_f` (Claim 2: one edge to the first writer
    /// suffices). The edge closes a cycle iff `T_f` is, or reaches, a
    /// writer the query read; the first such entry in item order arms
    /// the commit check. Returns the edges judged.
    fn hear_first_writers(&mut self, graph: &Window, first_writers: &[(ItemId, TxnId)]) -> u64 {
        let mut edges = 0u64;
        let mut closing: Option<DoomExpect> = None;
        for (i, slot) in self.reads.iter().enumerate() {
            let Some(writer) = lookup(first_writers, slot.item) else {
                continue;
            };
            if self.reads.iter().take(i).any(|s| s.item == slot.item) {
                continue;
            }
            let wc = writer.cycle().number();
            self.c_o = self.c_o.min(wc);
            note_once(&mut self.overwriters, writer);
            edges = edges.saturating_add(1);
            let first =
                self.pending_cycle.is_none() && closing.map_or(true, |c| slot.item < c.item);
            if first && self.writers.iter().any(|&w| reaches(graph, writer, w)) {
                closing = Some(DoomExpect {
                    kind: MonitorKind::Serializability,
                    item: slot.item,
                    write_cycle: wc,
                    detail: u64::from(writer.seq()),
                });
            }
        }
        self.pending_cycle = self.pending_cycle.or(closing);
        edges
    }

    /// The commit-time checks of the lane's query, committed at cycle
    /// `n`; returns the violation to record, if any. An armed doom is
    /// not re-reported here: one that fired at an accepted read already
    /// counted, and one with no subsequent read matches the genuine
    /// methods' lazy doom observation.
    fn commit_verdict(&self, policy: MonitorPolicy, client: u32, n: u64) -> Option<Violation> {
        let at = |item, write_cycle, detail| Violation {
            kind: MonitorKind::Serializability,
            client,
            query: self.query,
            cycle: n,
            item,
            write_cycle,
            detail,
        };
        if let Some(pending) = self.pending_cycle {
            return Some(at(pending.item, pending.write_cycle, pending.detail));
        }
        if policy != MonitorPolicy::Snapshot || self.reads.is_empty() {
            return None;
        }
        let mut max_from = 0u64;
        let mut min_until = NO_CYCLE;
        let mut from_item = NO_ITEM;
        let mut until_item = NO_ITEM;
        for slot in &self.reads {
            if slot.valid_from >= max_from {
                max_from = slot.valid_from;
                from_item = slot.item;
            }
            if slot.valid_until < min_until {
                min_until = slot.valid_until;
                until_item = slot.item;
            }
        }
        (max_from >= min_until).then(|| at(from_item, min_until, u64::from(until_item)))
    }

    /// Starts `query` at `cycle`, dropping the last query's state.
    fn reset(&mut self, query: u64, cycle: u64) {
        self.active = true;
        self.query = query;
        self.verified = cycle;
        self.doom = None;
        self.doom_reported = false;
        self.pending_cycle = None;
        self.c_o = NO_CYCLE;
        self.reads.clear();
        self.writers.clear();
        self.overwriters.clear();
    }

    /// Ends the active query.
    fn retire(&mut self) {
        self.active = false;
        self.doom = None;
        self.doom_reported = false;
        self.pending_cycle = None;
    }
}

/// The value of `item`'s entry in `entries`, sorted by item.
// bpush-lint: hot_path — per-slot report probe of the monitors' screen
fn lookup<V: Copy>(entries: &[(ItemId, V)], item: u32) -> Option<V> {
    let i = entries.binary_search_by_key(&item, |e| e.0.index()).ok()?;
    entries.get(i).map(|e| e.1)
}

/// Whether `from` is, or reaches, `to` in the transaction graph.
fn reaches(graph: &Window, from: TxnId, to: TxnId) -> bool {
    from == to || graph.path_exists(from, to)
}

/// `client`'s lane. A call from a client beyond the lane table is
/// counted in `unknown`, and a verdict with any does not pass.
fn lane_of<'a>(lanes: &'a mut [Lane], unknown: &mut u64, client: u32) -> Option<&'a mut Lane> {
    let lane = lanes.get_mut(client as usize);
    if lane.is_none() {
        *unknown = unknown.saturating_add(1);
    }
    lane
}

/// Appends `txn` unless it is already listed.
fn note_once(list: &mut Vec<TxnId>, txn: TxnId) {
    if !list.contains(&txn) {
        list.push(txn);
    }
}

/// What a [`Monitors`] set holds behind its lock: every lane, the
/// shared graph window and the bounded verdict.
#[derive(Debug)]
struct Engine {
    config: MonitorConfig,
    lanes: Box<[Lane]>,
    /// Graph policy: the heard diffs inside the least Lemma-1 window over
    /// the active lanes.
    graph: Window,
    /// Commit cycle of the newest diff applied to `graph`.
    graph_cycle: Option<Cycle>,
    violations: Vec<Violation>,
    violations_dropped: u64,
    watch_hits: Vec<WatchHit>,
    watch_dropped: u64,
    controls: u64,
    commits: u64,
    aborts: u64,
    checks: u64,
    graph_edges: u64,
    unknown_clients: u64,
}

impl Engine {
    fn note_violation(&mut self, v: Violation) {
        if self.violations.len() < self.config.max_violations as usize {
            self.violations.push(v);
        } else {
            self.violations_dropped = self.violations_dropped.saturating_add(1);
        }
    }

    fn note_watch(&mut self, hit: WatchHit) {
        if self.watch_hits.len() < self.config.max_violations as usize {
            self.watch_hits.push(hit);
        } else {
            self.watch_dropped = self.watch_dropped.saturating_add(1);
        }
    }
}

/// The online monitors of one run: a cheaply cloneable handle over one
/// lane per client, whose typed calls each run under the set's one
/// lock. It rides an [`Obs`](crate::Obs) handle
/// ([`Obs::with_monitors`](crate::Obs::with_monitors)) to the decorator
/// and the client driver that call it.
#[derive(Debug, Clone)]
pub struct Monitors {
    inner: Arc<Mutex<Engine>>,
}

impl Monitors {
    /// Builds a monitor set for the given configuration, preallocating
    /// every lane and the retained violations.
    pub fn new(config: MonitorConfig) -> Self {
        let retained = config.max_violations as usize;
        let engine = Engine {
            config,
            lanes: vec![Lane::IDLE; config.clients as usize].into_boxed_slice(),
            graph: Window::new(),
            graph_cycle: None,
            violations: Vec::with_capacity(retained),
            violations_dropped: 0,
            watch_hits: Vec::with_capacity(retained),
            watch_dropped: 0,
            controls: 0,
            commits: 0,
            aborts: 0,
            checks: 0,
            graph_edges: 0,
            unknown_clients: 0,
        };
        Monitors {
            inner: Arc::new(Mutex::new(engine)),
        }
    }

    /// `client` begins `query` at `cycle`: its lane drops the last
    /// query's readset and edges and holds the readset verified from
    /// `cycle` on.
    pub fn begin(&self, client: u32, query: u64, cycle: Cycle) {
        let mut guard = self.inner.lock();
        let e = &mut *guard;
        if let Some(lane) = lane_of(&mut e.lanes, &mut e.unknown_clients, client) {
            lane.reset(query, cycle.number());
        }
    }

    /// `client` missed the control of `cycle`: under
    /// [`CoverageRule::StrictGap`] the gap dooms its active query.
    pub fn missed(&self, client: u32, cycle: Cycle) {
        let mut guard = self.inner.lock();
        let e = &mut *guard;
        let strict_gap = e.config.coverage == CoverageRule::StrictGap;
        if let Some(lane) = lane_of(&mut e.lanes, &mut e.unknown_clients, client) {
            if strict_gap && lane.active && lane.doom.is_none() {
                lane.doom = Some(DoomExpect::coverage(cycle.number()));
            }
        }
    }

    /// `client`'s `query` ends at `cycle`, committed when `aborted` is
    /// `None`. A commit of the lane's query runs the commit-time checks,
    /// an abort for the watched reason is a [`WatchHit`], and either
    /// way the lane retires the query.
    pub fn finish(&self, client: u32, query: u64, cycle: Cycle, aborted: Option<AbortReason>) {
        let mut guard = self.inner.lock();
        let e = &mut *guard;
        let n = cycle.number();
        let Some(lane) = lane_of(&mut e.lanes, &mut e.unknown_clients, client) else {
            return;
        };
        let current = lane.active && lane.query == query;
        let fire = match aborted {
            None => {
                e.commits = e.commits.saturating_add(1);
                current
                    .then(|| lane.commit_verdict(e.config.policy, client, n))
                    .flatten()
            }
            Some(_) => {
                e.aborts = e.aborts.saturating_add(1);
                None
            }
        };
        if current {
            lane.retire();
        }
        if let Some(v) = fire {
            e.note_violation(v);
        }
        if let Some(reason) = aborted.filter(|&r| e.config.watch == Some(r)) {
            e.note_watch(WatchHit {
                client,
                query,
                cycle: n,
                reason,
            });
        }
    }

    /// Feeds the control of `cycle` that `client` heard, whole: the
    /// invalidation report's window and dated entries and, under SGT, the
    /// shared graph diff and the augmented report's first writers, both
    /// entry lists sorted by item. The steps run in the order the genuine
    /// methods consume a control (diff before first writers, §3.3). A
    /// lane screens its own readset slots against the entries, so an
    /// inactive lane costs O(1). Only the screen is allocation-free: a
    /// kept diff may grow the window, a new first overwriter a lane's list.
    pub fn control(
        &self,
        client: u32,
        cycle: Cycle,
        window: u32,
        dated: &[(ItemId, Cycle)],
        diff: Option<&Arc<GraphDiff>>,
        first_writers: &[(ItemId, TxnId)],
    ) {
        let mut guard = self.inner.lock();
        let e = &mut *guard;
        e.controls = e.controls.saturating_add(1);
        e.checks = e.checks.saturating_add(dated.len() as u64);
        let n = cycle.number();
        let policy = e.config.policy;
        if let Some(lane) = lane_of(&mut e.lanes, &mut e.unknown_clients, client) {
            if e.config.coverage == CoverageRule::WindowGap
                && lane.active
                && lane.doom.is_none()
                && lane.heard != NO_CYCLE
                && n > lane.heard.saturating_add(u64::from(window))
            {
                lane.doom = Some(DoomExpect::coverage(n));
            }
            if lane.active {
                lane.screen(policy, n, dated);
            }
        }
        // The first lane fed a cycle's diff keeps it, the window starting
        // at the least Lemma-1 bound over the active lanes (`c_o`, else the
        // last heard cycle; no window when none is active). The part below
        // the bound cannot change a verdict: edges run old → new, and every
        // path question starts at a first writer `T_f` a lane was fed, so
        // it visits only transactions `≥ T_f`, whose cycle is at least the
        // bound (at most each active lane's `min(c_o, heard)`, and `heard ≤
        // diff.cycle() = T_f.cycle()` for the diff announcing `T_f`).
        if let (MonitorPolicy::Graph, Some(diff)) = (policy, diff) {
            if e.graph_cycle < Some(diff.cycle()) {
                e.graph_cycle = Some(diff.cycle());
                let start = e
                    .lanes
                    .iter()
                    .filter(|lane| lane.active)
                    .map(|lane| lane.c_o.min(lane.heard))
                    .min();
                e.graph.advance(start.map(Cycle::new), Some(diff));
            }
        }
        if let Some(lane) = e.lanes.get_mut(client as usize) {
            if policy == MonitorPolicy::Graph && lane.active {
                let edges = lane.hear_first_writers(&e.graph, first_writers);
                e.graph_edges = e.graph_edges.saturating_add(edges);
            }
            if lane.active && lane.doom.is_none() {
                // Whole readset screened clean through this report: the
                // readset is current at the state this bcast carries.
                lane.verified = n;
            }
            lane.heard = n;
        }
    }

    /// Feeds one *accepted* read: the mirrored readset gains a slot and,
    /// under the graph policy, the §3.3 dependency edge is judged. An
    /// accepted read while the method's own rule requires the query to
    /// be doomed is the online divergence signal.
    // The argument list mirrors the client's version-read metadata tuple
    // one-to-one; bundling it into a struct would only move the field
    // names away from the single call site in the decorator.
    #[allow(clippy::too_many_arguments)]
    pub fn read_meta(
        &self,
        client: u32,
        query: u64,
        item: ItemId,
        now: Cycle,
        valid_from: Cycle,
        valid_until: Option<Cycle>,
        writer: Option<TxnId>,
    ) {
        let mut guard = self.inner.lock();
        let e = &mut *guard;
        let idx = item.index();
        let n = now.number();
        let graph_policy = e.config.policy == MonitorPolicy::Graph;
        let mut fire = None;
        let mut cyclic = None;
        if let Some(lane) = lane_of(&mut e.lanes, &mut e.unknown_clients, client) {
            if !lane.active || lane.query != query {
                return;
            }
            if let Some(doom) = lane.doom.filter(|_| !lane.doom_reported) {
                lane.doom_reported = true;
                fire = Some(Violation {
                    kind: doom.kind,
                    client,
                    query,
                    cycle: n,
                    item: doom.item,
                    write_cycle: doom.write_cycle,
                    detail: doom.detail,
                });
            }
            lane.reads.push(ReadSlot {
                item: idx,
                valid_from: valid_from.number(),
                valid_until: valid_until.map_or(NO_CYCLE, |c| c.number()),
            });
            if let (true, Some(t)) = (graph_policy, writer) {
                // Claim 3: one dependency edge `T → R` from the last
                // writer suffices. It closes a cycle iff a recorded first
                // overwriter is, or reaches, `T`; the genuine method
                // *rejects* such a read, so an accepted one is an online
                // serializability violation.
                if lane.overwriters.iter().any(|&tf| reaches(&e.graph, tf, t)) {
                    cyclic = Some(t);
                }
                note_once(&mut lane.writers, t);
                e.graph_edges = e.graph_edges.saturating_add(1);
            }
        }
        if let Some(v) = fire {
            e.note_violation(v);
        }
        if let Some(t) = cyclic {
            e.note_violation(Violation {
                kind: MonitorKind::Serializability,
                client,
                query,
                cycle: n,
                item: idx,
                write_cycle: t.cycle().number(),
                detail: u64::from(t.seq()),
            });
        }
    }

    /// The first capture-worthy trigger: the first violation, else the
    /// first watch hit (as an [`MonitorKind::AbortWatch`] pseudo
    /// violation), else `None`.
    pub fn first_trigger(&self) -> Option<Violation> {
        let e = self.inner.lock();
        if let Some(&v) = e.violations.first() {
            return Some(v);
        }
        e.watch_hits.first().map(|hit| Violation {
            kind: MonitorKind::AbortWatch,
            client: hit.client,
            query: hit.query,
            cycle: hit.cycle,
            item: NO_ITEM,
            write_cycle: NO_CYCLE,
            detail: hit.reason.index() as u64,
        })
    }

    /// Copies out the current verdict.
    pub fn verdict(&self) -> MonitorVerdict {
        let e = self.inner.lock();
        MonitorVerdict {
            controls: e.controls,
            commits: e.commits,
            aborts: e.aborts,
            checks: e.checks,
            graph_edges: e.graph_edges,
            unknown_clients: e.unknown_clients,
            violations: e.violations.clone(),
            violations_dropped: e.violations_dropped,
            watch_hits: e.watch_hits.clone(),
            watch_dropped: e.watch_dropped,
        }
    }
}

/// The all-integer verdict of a monitored run, canonically renderable
/// ([`MonitorVerdict::render`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorVerdict {
    /// Control feeds processed.
    pub controls: u64,
    /// Commits observed.
    pub commits: u64,
    /// Aborts observed.
    pub aborts: u64,
    /// Report entries screened.
    pub checks: u64,
    /// Query edges judged under the graph policy: one per accepted read
    /// with a known writer, one per augmented entry on a held item.
    pub graph_edges: u64,
    /// Typed calls from clients beyond the lane table: those clients
    /// went unchecked, so a verdict with any does not pass.
    pub unknown_clients: u64,
    /// Retained violations, in detection order.
    pub violations: Vec<Violation>,
    /// Violations beyond the retention bound.
    pub violations_dropped: u64,
    /// Retained abort-watch hits, in detection order.
    pub watch_hits: Vec<WatchHit>,
    /// Watch hits beyond the retention bound.
    pub watch_dropped: u64,
}

impl MonitorVerdict {
    /// Whether the run upheld every invariant, on every client.
    pub fn pass(&self) -> bool {
        self.violations.is_empty() && self.violations_dropped == 0 && self.unknown_clients == 0
    }

    /// Canonical multi-line rendering: byte-identical across same-seed
    /// runs.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "monitor-verdict pass={} controls={} commits={} aborts={} checks={} edges={} \
             violations={} dropped={} watch={} unknown={}",
            u8::from(self.pass()),
            self.controls,
            self.commits,
            self.aborts,
            self.checks,
            self.graph_edges,
            self.violations.len(),
            self.violations_dropped,
            self.watch_hits.len(),
            self.unknown_clients,
        );
        for v in &self.violations {
            let _ = writeln!(out, "{}", v.render());
        }
        for hit in &self.watch_hits {
            let _ = writeln!(
                out,
                "watch client={} query={} cycle={} reason={}",
                hit.client,
                hit.query,
                hit.cycle,
                hit.reason.label()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitors(policy: MonitorPolicy, coverage: CoverageRule) -> Monitors {
        Monitors::new(MonitorConfig::new(2, policy, coverage))
    }

    fn begin(e: &Monitors, client: u32, query: u64, cycle: u64) {
        e.begin(client, query, Cycle::new(cycle));
    }

    fn accept_read(e: &Monitors, client: u32, query: u64, item: u32, now: u64) {
        e.read_meta(
            client,
            query,
            ItemId::new(item),
            Cycle::new(now),
            Cycle::ZERO,
            None,
            None,
        );
    }

    /// Feeds `client` the whole control of `cycle`: the report's dated
    /// entries, then the diff and the first writers, entries in item
    /// order.
    fn control(
        e: &Monitors,
        client: u32,
        cycle: u64,
        window: u32,
        dated: &[(u32, u64)],
        diff: Option<&Arc<GraphDiff>>,
        first_writers: &[(u32, TxnId)],
    ) {
        let dated: Vec<_> = dated
            .iter()
            .map(|&(item, wc)| (ItemId::new(item), Cycle::new(wc)))
            .collect();
        let first_writers: Vec<_> = first_writers
            .iter()
            .map(|&(item, writer)| (ItemId::new(item), writer))
            .collect();
        e.control(
            client,
            Cycle::new(cycle),
            window,
            &dated,
            diff,
            &first_writers,
        );
    }

    fn commit(e: &Monitors, client: u32, query: u64, cycle: u64) {
        e.finish(client, query, Cycle::new(cycle), None);
    }

    #[test]
    fn clean_current_run_passes() {
        let e = monitors(MonitorPolicy::Current, CoverageRule::WindowGap);
        begin(&e, 0, 1, 0);
        accept_read(&e, 0, 1, 7, 0);
        control(&e, 0, 1, 1, &[(9, 0)], None, &[]); // unrelated item
        accept_read(&e, 0, 1, 8, 1);
        commit(&e, 0, 1, 1);
        let v = e.verdict();
        assert!(v.pass(), "{}", v.render());
        assert_eq!(v.commits, 1);
        assert_eq!(v.checks, 1);
    }

    #[test]
    fn read_accepted_past_invalidation_is_a_currency_violation() {
        let e = monitors(MonitorPolicy::Current, CoverageRule::WindowGap);
        begin(&e, 0, 1, 0);
        accept_read(&e, 0, 1, 7, 0);
        // item 7 updated during cycle 0 (>= verified state 0): the
        // method must doom the query; a further accepted read diverges.
        control(&e, 0, 1, 1, &[(7, 0)], None, &[]);
        accept_read(&e, 0, 1, 8, 1);
        commit(&e, 0, 1, 1);
        let v = e.verdict();
        assert!(!v.pass());
        let viol = v.violations.first().expect("one violation");
        assert_eq!(viol.kind, MonitorKind::Currency);
        assert_eq!(viol.item, 7);
        assert_eq!(viol.write_cycle, 0);
        assert_eq!(viol.detail, 1, "report cycle");
    }

    #[test]
    fn doom_with_no_further_read_matches_lazy_observation() {
        // The genuine executor may commit before observing the doom; the
        // monitor only fires on a post-doom accepted read.
        let e = monitors(MonitorPolicy::Current, CoverageRule::WindowGap);
        begin(&e, 0, 1, 0);
        accept_read(&e, 0, 1, 7, 0);
        control(&e, 0, 1, 1, &[(7, 0)], None, &[]);
        commit(&e, 0, 1, 1);
        assert!(e.verdict().pass());
    }

    #[test]
    fn abort_after_doom_is_the_expected_outcome() {
        let e = monitors(MonitorPolicy::Current, CoverageRule::WindowGap);
        begin(&e, 0, 1, 0);
        accept_read(&e, 0, 1, 7, 0);
        control(&e, 0, 1, 1, &[(7, 0)], None, &[]);
        e.finish(0, 1, Cycle::new(1), Some(AbortReason::Invalidated));
        assert!(e.verdict().pass());
    }

    #[test]
    fn uncovered_gap_then_accepted_read_is_a_coverage_violation() {
        let e = monitors(MonitorPolicy::Current, CoverageRule::WindowGap);
        begin(&e, 0, 1, 0);
        control(&e, 0, 0, 1, &[], None, &[]);
        accept_read(&e, 0, 1, 7, 0);
        // cycles 1..2 missed; window-1 report at cycle 3 cannot cover
        control(&e, 0, 3, 1, &[], None, &[]);
        accept_read(&e, 0, 1, 8, 3);
        commit(&e, 0, 1, 3);
        let v = e.verdict();
        assert_eq!(
            v.violations.first().map(|v| v.kind),
            Some(MonitorKind::Coverage)
        );
    }

    #[test]
    fn covered_gap_is_fine() {
        let e = monitors(MonitorPolicy::Current, CoverageRule::WindowGap);
        begin(&e, 0, 1, 0);
        control(&e, 0, 0, 3, &[], None, &[]);
        accept_read(&e, 0, 1, 7, 0);
        // window-3 report at cycle 3 covers the gap
        control(&e, 0, 3, 3, &[], None, &[]);
        accept_read(&e, 0, 1, 8, 3);
        commit(&e, 0, 1, 3);
        assert!(e.verdict().pass());
    }

    #[test]
    fn strict_gap_dooms_on_any_miss() {
        let e = monitors(MonitorPolicy::Graph, CoverageRule::StrictGap);
        begin(&e, 0, 1, 0);
        accept_read(&e, 0, 1, 7, 0);
        e.missed(0, Cycle::new(1));
        accept_read(&e, 0, 1, 8, 2);
        commit(&e, 0, 1, 2);
        let v = e.verdict();
        assert_eq!(
            v.violations.first().map(|v| v.kind),
            Some(MonitorKind::Coverage)
        );
    }

    #[test]
    fn dependency_edge_closing_a_cycle_fires_online() {
        // Figure 3: R reads x (writer T0.0); T1.0 overwrites x; T2.0
        // conflicts with T1.0; R then reads a value written by T2.0.
        let e = monitors(MonitorPolicy::Graph, CoverageRule::StrictGap);
        let t0 = TxnId::new(Cycle::ZERO, 0);
        let t1 = TxnId::new(Cycle::new(1), 0);
        let t2 = TxnId::new(Cycle::new(2), 0);
        begin(&e, 0, 1, 1);
        e.read_meta(
            0,
            1,
            ItemId::new(7),
            Cycle::new(1),
            Cycle::ZERO,
            None,
            Some(t0),
        );
        let d1 = Arc::new(GraphDiff::new(Cycle::new(1), vec![t1], vec![]));
        control(&e, 0, 2, 1, &[], Some(&d1), &[(7, t1)]);
        let d2 = Arc::new(GraphDiff::new(Cycle::new(2), vec![t2], vec![(t1, t2)]));
        control(&e, 0, 3, 1, &[], Some(&d2), &[]);
        // the genuine method rejects this read; accepting it diverges
        e.read_meta(
            0,
            1,
            ItemId::new(9),
            Cycle::new(3),
            Cycle::ZERO,
            None,
            Some(t2),
        );
        let v = e.verdict();
        assert!(!v.pass());
        let viol = v.violations.first().expect("violation");
        assert_eq!(viol.kind, MonitorKind::Serializability);
        assert_eq!(viol.item, 9);
        assert_eq!(viol.write_cycle, 2);
    }

    #[test]
    fn acyclic_graph_run_passes_and_prunes() {
        let e = monitors(MonitorPolicy::Graph, CoverageRule::StrictGap);
        let t0 = TxnId::new(Cycle::ZERO, 0);
        let t1 = TxnId::new(Cycle::new(1), 0);
        let t2 = TxnId::new(Cycle::new(2), 0);
        begin(&e, 0, 1, 1);
        e.read_meta(
            0,
            1,
            ItemId::new(7),
            Cycle::new(1),
            Cycle::ZERO,
            None,
            Some(t0),
        );
        commit(&e, 0, 1, 1);
        // no lane is active: no window, so none of the diff is interned;
        // T0.0 and T1.0 are exactly what a full apply would hold here
        let d1 = Arc::new(GraphDiff::new(Cycle::new(1), vec![t1], vec![(t0, t1)]));
        control(&e, 0, 2, 1, &[], Some(&d1), &[]);
        assert_eq!(e.inner.lock().graph.node_count(), 0);
        // an active lane with no `c_o` keeps only what it last heard on:
        // T1.0, the edge's source below that bound and the one node a full
        // apply would add beyond T2.0, is not interned
        begin(&e, 0, 2, 2);
        let d2 = Arc::new(GraphDiff::new(Cycle::new(2), vec![t2], vec![(t1, t2)]));
        control(&e, 0, 3, 1, &[], Some(&d2), &[]);
        let counts = {
            let g = &e.inner.lock().graph;
            (g.node_count(), g.edge_count())
        };
        assert_eq!(counts, (1, 0));
        assert!(
            !e.inner.lock().graph.path_exists(t1, t2),
            "T1.0 is not a node"
        );
        let v = e.verdict();
        assert!(v.pass(), "{}", v.render());
        assert_eq!(v.graph_edges, 1);
    }

    #[test]
    fn one_diff_serves_every_lane_even_one_that_missed_it() {
        // Figure 3 on lane 1, which misses the cycle-3 control that
        // carries `T1.0 → T2.0`: lane 0 hears it, so the shared graph
        // holds the edge and lane 1's accepted read is still judged.
        let e = monitors(MonitorPolicy::Graph, CoverageRule::Ignore);
        let t0 = TxnId::new(Cycle::ZERO, 0);
        let t1 = TxnId::new(Cycle::new(1), 0);
        let t2 = TxnId::new(Cycle::new(2), 0);
        let d1 = Arc::new(GraphDiff::new(Cycle::new(1), vec![t1], vec![]));
        let d2 = Arc::new(GraphDiff::new(Cycle::new(2), vec![t2], vec![(t1, t2)]));
        for lane in 0..2 {
            begin(&e, lane, 1, 1);
            e.read_meta(
                lane,
                1,
                ItemId::new(7),
                Cycle::new(1),
                Cycle::ZERO,
                None,
                Some(t0),
            );
        }
        for lane in 0..2 {
            control(&e, lane, 2, 1, &[], Some(&d1), &[(7, t1)]);
        }
        control(&e, 0, 3, 1, &[], Some(&d2), &[]);
        e.missed(1, Cycle::new(3));
        e.read_meta(
            1,
            1,
            ItemId::new(9),
            Cycle::new(3),
            Cycle::ZERO,
            None,
            Some(t2),
        );
        let v = e.verdict();
        let viol = v.violations.first().expect("violation");
        assert_eq!(viol.kind, MonitorKind::Serializability);
        assert_eq!(viol.client, 1);
        assert_eq!(viol.item, 9);
    }

    #[test]
    fn reading_the_first_overwriter_itself_closes_a_cycle() {
        // `R → T1.0` (T1.0 overwrote x) and `T1.0 → R` (R reads y from
        // T1.0) form a cycle with no transaction edge at all.
        let e = monitors(MonitorPolicy::Graph, CoverageRule::StrictGap);
        let t0 = TxnId::new(Cycle::ZERO, 0);
        let t1 = TxnId::new(Cycle::new(1), 0);
        begin(&e, 0, 1, 1);
        e.read_meta(
            0,
            1,
            ItemId::new(7),
            Cycle::new(1),
            Cycle::ZERO,
            None,
            Some(t0),
        );
        let d1 = Arc::new(GraphDiff::new(Cycle::new(1), vec![t1], vec![]));
        control(&e, 0, 2, 1, &[], Some(&d1), &[(7, t1)]);
        e.read_meta(
            0,
            1,
            ItemId::new(8),
            Cycle::new(2),
            Cycle::new(1),
            None,
            Some(t1),
        );
        let v = e.verdict();
        let viol = v.violations.first().expect("violation");
        assert_eq!(viol.kind, MonitorKind::Serializability);
        assert_eq!((viol.item, viol.write_cycle), (8, 1));
        assert_eq!(v.graph_edges, 3);
        // the same two edges added the other way round arm the commit
        // check instead
        let e = monitors(MonitorPolicy::Graph, CoverageRule::StrictGap);
        begin(&e, 0, 1, 2);
        for (item, writer) in [(7, t0), (8, t1)] {
            e.read_meta(
                0,
                1,
                ItemId::new(item),
                Cycle::new(2),
                Cycle::ZERO,
                None,
                Some(writer),
            );
        }
        control(&e, 0, 2, 1, &[], None, &[(7, t1)]);
        commit(&e, 0, 1, 2);
        let v = e.verdict();
        let viol = v.violations.first().expect("violation");
        assert_eq!(viol.kind, MonitorKind::Serializability);
        assert_eq!((viol.item, viol.write_cycle), (7, 1));
    }

    #[test]
    fn a_finished_querys_edges_do_not_carry_over() {
        // `T1.0 → T2.0` is in the graph. Query 1 read from T2.0, query 2
        // has an item first overwritten by T1.0, query 3 reads from
        // T2.0: no query closes a cycle of its own.
        let e = monitors(MonitorPolicy::Graph, CoverageRule::StrictGap);
        let t0 = TxnId::new(Cycle::ZERO, 0);
        let t1 = TxnId::new(Cycle::new(1), 0);
        let t2 = TxnId::new(Cycle::new(2), 0);
        let d2 = Arc::new(GraphDiff::new(Cycle::new(2), vec![t2], vec![(t1, t2)]));
        control(&e, 0, 3, 1, &[], Some(&d2), &[]);
        let read = |e: &Monitors, query, item, writer| {
            e.read_meta(
                0,
                query,
                ItemId::new(item),
                Cycle::new(3),
                Cycle::ZERO,
                None,
                Some(writer),
            );
        };
        begin(&e, 0, 1, 3);
        read(&e, 1, 1, t2);
        commit(&e, 0, 1, 3);
        begin(&e, 0, 2, 3);
        read(&e, 2, 2, t0);
        control(&e, 0, 3, 1, &[], None, &[(2, t1)]);
        commit(&e, 0, 2, 3);
        begin(&e, 0, 3, 3);
        read(&e, 3, 3, t2);
        commit(&e, 0, 3, 3);
        let v = e.verdict();
        assert!(v.pass(), "{}", v.render());
        assert_eq!(v.graph_edges, 4);
    }

    #[test]
    fn snapshot_intersection_violation_detected_at_commit() {
        let e = monitors(MonitorPolicy::Snapshot, CoverageRule::Ignore);
        begin(&e, 0, 1, 0);
        // slot A valid [0, 2), slot B valid [3, inf): no common state
        e.read_meta(
            0,
            1,
            ItemId::new(1),
            Cycle::new(1),
            Cycle::ZERO,
            Some(Cycle::new(2)),
            None,
        );
        e.read_meta(
            0,
            1,
            ItemId::new(2),
            Cycle::new(3),
            Cycle::new(3),
            None,
            None,
        );
        commit(&e, 0, 1, 3);
        let v = e.verdict();
        let viol = v.violations.first().expect("violation");
        assert_eq!(viol.kind, MonitorKind::Serializability);
        assert_eq!(viol.item, 2, "the too-new read");
        assert_eq!(viol.write_cycle, 2, "the binding valid_until");
    }

    #[test]
    fn snapshot_tightening_from_report_entries() {
        let e = monitors(MonitorPolicy::Snapshot, CoverageRule::Ignore);
        begin(&e, 0, 1, 0);
        // read of a version from state 0, open-ended
        accept_read(&e, 0, 1, 7, 0);
        // item 7 updated during cycle 2: the slot's validity ends at 3
        control(&e, 0, 3, 1, &[(7, 2)], None, &[]);
        // a read pinned at state 5 can no longer share a snapshot
        e.read_meta(
            0,
            1,
            ItemId::new(8),
            Cycle::new(5),
            Cycle::new(5),
            None,
            None,
        );
        commit(&e, 0, 1, 5);
        assert!(!e.verdict().pass());
    }

    #[test]
    fn snapshot_consistent_run_passes() {
        let e = monitors(MonitorPolicy::Snapshot, CoverageRule::Ignore);
        begin(&e, 0, 1, 0);
        e.read_meta(
            0,
            1,
            ItemId::new(1),
            Cycle::new(1),
            Cycle::ZERO,
            Some(Cycle::new(4)),
            None,
        );
        e.read_meta(
            0,
            1,
            ItemId::new(2),
            Cycle::new(2),
            Cycle::new(3),
            None,
            None,
        );
        commit(&e, 0, 1, 2);
        assert!(e.verdict().pass());
    }

    #[test]
    fn a_client_without_a_lane_fails_the_verdict() {
        let e = monitors(MonitorPolicy::Current, CoverageRule::WindowGap);
        begin(&e, 2, 1, 0);
        accept_read(&e, 2, 1, 7, 0);
        control(&e, 2, 1, 1, &[(7, 0)], None, &[]);
        e.missed(2, Cycle::new(2));
        commit(&e, 2, 1, 2);
        let v = e.verdict();
        assert!(!v.pass(), "{}", v.render());
        assert_eq!((v.unknown_clients, v.controls, v.commits), (5, 1, 0));
    }

    #[test]
    fn watch_filter_records_hits_without_failing_the_verdict() {
        let mut cfg = MonitorConfig::new(1, MonitorPolicy::Current, CoverageRule::WindowGap);
        cfg.watch = Some(AbortReason::Invalidated);
        let e = Monitors::new(cfg);
        begin(&e, 0, 1, 0);
        e.finish(0, 1, Cycle::new(1), Some(AbortReason::Invalidated));
        let v = e.verdict();
        assert!(v.pass());
        assert_eq!(v.watch_hits.len(), 1);
        let trig = e.first_trigger().expect("watch trigger");
        assert_eq!(trig.kind, MonitorKind::AbortWatch);
    }

    #[test]
    fn verdict_render_is_stable_and_violations_roundtrip() {
        let e = monitors(MonitorPolicy::Current, CoverageRule::WindowGap);
        begin(&e, 0, 1, 0);
        accept_read(&e, 0, 1, 7, 0);
        control(&e, 0, 1, 1, &[(7, 0)], None, &[]);
        accept_read(&e, 0, 1, 8, 1);
        commit(&e, 0, 1, 1);
        let v = e.verdict();
        let text = v.render();
        assert!(text.starts_with("monitor-verdict pass=0 "));
        let line = text.lines().nth(1).expect("violation line");
        let parsed = Violation::parse(line).expect("roundtrip");
        assert_eq!(Some(&parsed), v.violations.first());
        // deterministic: a second identical engine renders identically
        let e2 = monitors(MonitorPolicy::Current, CoverageRule::WindowGap);
        begin(&e2, 0, 1, 0);
        accept_read(&e2, 0, 1, 7, 0);
        control(&e2, 0, 1, 1, &[(7, 0)], None, &[]);
        accept_read(&e2, 0, 1, 8, 1);
        commit(&e2, 0, 1, 1);
        assert_eq!(text, e2.verdict().render());
    }

    #[test]
    fn a_long_readset_keeps_every_commit_check() {
        // 70 reads of one shared state, then one that shares none with
        // the first: the mirror holds every read, so the commit is judged.
        let e = monitors(MonitorPolicy::Snapshot, CoverageRule::Ignore);
        begin(&e, 0, 1, 0);
        for item in 0..70 {
            e.read_meta(
                0,
                1,
                ItemId::new(item),
                Cycle::new(1),
                Cycle::ZERO,
                Some(Cycle::new(2)),
                None,
            );
        }
        e.read_meta(
            0,
            1,
            ItemId::new(70),
            Cycle::new(3),
            Cycle::new(3),
            None,
            None,
        );
        commit(&e, 0, 1, 3);
        let v = e.verdict();
        let viol = v.violations.first().expect("violation");
        assert_eq!(viol.kind, MonitorKind::Serializability);
        assert_eq!((viol.item, viol.write_cycle), (70, 2));
    }

    #[test]
    fn begin_drops_the_last_querys_readset() {
        // query 1 holds a version superseded at state 2 and aborts;
        // query 2 reads only at state 3 and commits consistently
        let e = monitors(MonitorPolicy::Snapshot, CoverageRule::Ignore);
        begin(&e, 0, 1, 0);
        e.read_meta(
            0,
            1,
            ItemId::new(1),
            Cycle::new(1),
            Cycle::ZERO,
            Some(Cycle::new(2)),
            None,
        );
        e.finish(0, 1, Cycle::new(1), Some(AbortReason::Invalidated));
        begin(&e, 0, 2, 3);
        e.read_meta(
            0,
            2,
            ItemId::new(2),
            Cycle::new(3),
            Cycle::new(3),
            None,
            None,
        );
        commit(&e, 0, 2, 3);
        let v = e.verdict();
        assert!(v.pass(), "{}", v.render());
    }

    #[test]
    fn monitors_handle_shares_one_engine() {
        let m = Monitors::new(MonitorConfig::new(
            1,
            MonitorPolicy::Current,
            CoverageRule::WindowGap,
        ));
        let clone = m.clone();
        m.begin(0, 1, Cycle::ZERO);
        clone.read_meta(0, 1, ItemId::new(7), Cycle::ZERO, Cycle::ZERO, None, None);
        m.control(
            0,
            Cycle::new(1),
            1,
            &[(ItemId::new(7), Cycle::ZERO)],
            None,
            &[],
        );
        clone.read_meta(0, 1, ItemId::new(8), Cycle::new(1), Cycle::ZERO, None, None);
        let v = m.verdict();
        assert_eq!(v.violations.len(), 1);
        assert!(m.first_trigger().is_some());
    }
}
