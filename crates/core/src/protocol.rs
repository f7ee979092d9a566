//! The protocol abstraction shared by all processing methods.

// bpush-lint: sans_io — protocol core: the processing-method vocabulary is pure data, no clocks/threads/files/sockets
use std::fmt;

use bpush_broadcast::ControlInfo;
use bpush_types::{Cycle, ItemId, ItemValue, QueryId, TxnId};

// The abort-reason taxonomy lives in `bpush-types` (it is a shared
// dimension for metrics and trace payloads); re-exported here because it
// is part of the protocol vocabulary.
pub use bpush_types::AbortReason;

/// Where a read candidate came from; used for latency accounting and for
/// `cache_only` constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
// bpush-lint: protocol_enum — the read-path data source a client answer came from
pub enum Source {
    /// A coherent (current) cache entry.
    CacheCurrent,
    /// An old-version cache entry (multiversion caching, §4.2) or a
    /// stale-but-tagged entry (versioned cache, §4.1).
    CacheOld,
    /// The current version from the data segment of the broadcast.
    BroadcastCurrent,
    /// An old version from the broadcast (overflow buckets or clustered
    /// chains, §3.2).
    BroadcastOld,
}

impl Source {
    /// Whether the candidate came from the local cache.
    pub const fn is_cache(self) -> bool {
        matches!(self, Source::CacheCurrent | Source::CacheOld)
    }
}

/// A concrete value offered to the protocol to satisfy a read.
///
/// `valid_from` / `valid_until` bound the database states at which the
/// value is known to be current: `valid_from` is the value's version (or,
/// for version-less cache entries, the cycle it was fetched — a
/// conservative later bound), and `valid_until` is the state at which it
/// is known superseded (`None` = still current as far as the source
/// knows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadCandidate {
    /// The committed value.
    pub value: ItemValue,
    /// The last-writer tag transmitted with the item (SGT mode), if any.
    pub last_writer_tag: Option<TxnId>,
    /// Earliest state at which the value is known current.
    pub valid_from: Cycle,
    /// Exclusive state bound at which the value is known superseded.
    pub valid_until: Option<Cycle>,
    /// Provenance.
    pub source: Source,
}

impl ReadCandidate {
    /// A candidate for the current version taken straight off the
    /// broadcast data segment at `cycle`.
    pub fn from_broadcast(record: &bpush_broadcast::ItemRecord) -> Self {
        ReadCandidate {
            value: record.value(),
            last_writer_tag: record.last_writer(),
            valid_from: record.value().version(),
            valid_until: None,
            source: Source::BroadcastCurrent,
        }
    }

    /// Whether this value is (known) current at database state `state`.
    pub fn current_at(&self, state: Cycle) -> bool {
        self.valid_from <= state && self.valid_until.map_or(true, |w| state < w)
    }
}

/// What a read must satisfy, handed from the protocol to the client
/// runtime before each read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReadConstraint {
    /// The query must read the value current at this database state:
    /// the current cycle for current-state methods, the first-read cycle
    /// `c_0` for multiversion broadcast, `u − 1` / `c_u − 1` for the
    /// versioned-cache and multiversion-caching methods.
    pub state: Cycle,
    /// Only the local cache may serve the read (versioned-cache rule of
    /// §4.1 and the strict form of multiversion caching, §4.2).
    pub cache_only: bool,
}

/// The protocol's answer to "may query `q` read item `x` now?".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// bpush-lint: protocol_enum — per-read client decision driven by the control report
pub enum ReadDirective {
    /// Proceed, fetching a value that satisfies the constraint.
    Read(ReadConstraint),
    /// The query is already doomed; abort it.
    Doom(AbortReason),
}

/// Result of offering a candidate to the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// bpush-lint: protocol_enum — terminal read status surfaced to the session layer
pub enum ReadOutcome {
    /// The read is accepted and recorded in the query's readset.
    Accepted,
    /// The read is rejected; the query must abort with this reason.
    Rejected(AbortReason),
}

/// What the client cache must provide for a method to work (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
// bpush-lint: protocol_enum — cache discipline negotiated by the method matrix
pub enum CacheMode {
    /// No cache.
    None,
    /// Plain coherent cache (invalidation + autoprefetch).
    Plain,
    /// Entries additionally tagged with their fetch cycle and invalidation
    /// cycle (§4.1).
    Versioned,
    /// Split cache retaining old versions (§4.2).
    Multiversion,
}

/// One replayable interaction with a [`ReadOnlyProtocol`], in the order
/// the trait contract prescribes.
///
/// A recorded `Vec<ProtocolStep>` is a complete deterministic transcript
/// of a client session: feeding it back through
/// [`ReadOnlyProtocol::step`] reproduces the protocol's decisions
/// exactly. This is the replay seam the model checker
/// (`bpush-mc`) serializes its counterexamples against.
#[derive(Debug, Clone)]
// bpush-lint: protocol_enum — client protocol automaton state
pub enum ProtocolStep {
    /// The control information of a cycle the client heard.
    Control(ControlInfo),
    /// A cycle the client missed entirely.
    MissedCycle(Cycle),
    /// Registration of a new query first scheduled at the given cycle.
    BeginQuery(QueryId, Cycle),
    /// One read attempt: the directive is re-derived from the protocol,
    /// and on [`ReadDirective::Read`] the candidate is offered via
    /// [`ReadOnlyProtocol::apply_read`].
    ApplyRead {
        /// The reading query.
        q: QueryId,
        /// The item read.
        item: ItemId,
        /// The candidate value offered to the protocol.
        candidate: ReadCandidate,
        /// The cycle during which the read happens.
        now: Cycle,
    },
    /// Termination (commit or abort) of a query.
    FinishQuery(QueryId),
}

/// A client-side read-only transaction processing method.
///
/// One instance serves one client (all state is client-local — the
/// scalability property of §1); it may interleave any number of queries.
///
/// # Contract
///
/// For each cycle the client hears, [`ReadOnlyProtocol::on_control`] is
/// called exactly once, before any read of that cycle; for each cycle the
/// client misses, [`ReadOnlyProtocol::on_missed_cycle`] is called instead.
/// Each read is a [`ReadOnlyProtocol::read_directive`] /
/// [`ReadOnlyProtocol::apply_read`] pair. A query ends with
/// [`ReadOnlyProtocol::finish_query`], after which its id must not be
/// reused.
pub trait ReadOnlyProtocol: fmt::Debug {
    /// A short stable name for reports ("inv-only", "sgt", ...).
    fn name(&self) -> &'static str;

    /// The cache support this method requires.
    fn cache_mode(&self) -> CacheMode;

    /// Processes the control information at the beginning of a cycle.
    fn on_control(&mut self, ctrl: &ControlInfo);

    /// Whether [`ReadOnlyProtocol::on_control`] of a control segment
    /// with `head`'s reports, heard next, would use the segment's graph
    /// diff. `head` carries no diff: a wire-fed client asks this after
    /// decoding the reports and reads the diff only on `true`, so a
    /// method that answers `false` must then behave as if the diff had
    /// been heard. The default reads every diff.
    fn needs_graph_diff(&self, head: &ControlInfo) -> bool {
        let _ = head;
        true
    }

    /// The client missed `cycle` entirely (disconnection, §5.2.2).
    fn on_missed_cycle(&mut self, cycle: Cycle);

    /// Registers a new query first scheduled at cycle `now`.
    fn begin_query(&mut self, q: QueryId, now: Cycle);

    /// What (if anything) query `q` may read of `item` at cycle `now`.
    fn read_directive(&self, q: QueryId, item: ItemId, now: Cycle) -> ReadDirective;

    /// Offers a candidate satisfying the last directive; the protocol
    /// validates it, records the read, and reports the outcome.
    fn apply_read(
        &mut self,
        q: QueryId,
        item: ItemId,
        candidate: &ReadCandidate,
        now: Cycle,
    ) -> ReadOutcome;

    /// Ends a query (committed or aborted), releasing its state.
    fn finish_query(&mut self, q: QueryId);

    /// Applies one recorded [`ProtocolStep`], dispatching to the
    /// appropriate trait method. Returns the read outcome for
    /// [`ProtocolStep::ApplyRead`] steps (a doomed directive short-cuts
    /// to [`ReadOutcome::Rejected`] without offering the candidate,
    /// mirroring the client runtime) and `None` for all other steps.
    ///
    /// The provided implementation is the replay seam: it must not be
    /// overridden to do anything other than dispatch, or recorded
    /// transcripts stop being faithful.
    fn step(&mut self, step: &ProtocolStep) -> Option<ReadOutcome> {
        match step {
            ProtocolStep::Control(ctrl) => {
                self.on_control(ctrl);
                None
            }
            ProtocolStep::MissedCycle(cycle) => {
                self.on_missed_cycle(*cycle);
                None
            }
            ProtocolStep::BeginQuery(q, now) => {
                self.begin_query(*q, *now);
                None
            }
            ProtocolStep::ApplyRead {
                q,
                item,
                candidate,
                now,
            } => Some(match self.read_directive(*q, *item, *now) {
                ReadDirective::Doom(reason) => ReadOutcome::Rejected(reason),
                ReadDirective::Read(_) => self.apply_read(*q, *item, candidate, *now),
            }),
            ProtocolStep::FinishQuery(q) => {
                self.finish_query(*q);
                None
            }
        }
    }

    /// The current size of whatever validation structure the method
    /// maintains, as `(nodes, edges)` — `None` for methods that keep no
    /// such structure. The SGT method reports its serialization graph;
    /// the simulator samples this every cycle to surface the space
    /// overhead Table 1 calls "considerable".
    fn space_metrics(&self) -> Option<(usize, usize)> {
        None
    }

    /// The operation counters of an instrumentation decorator, when
    /// this protocol is one (see [`crate::instrument::Instrumented`]);
    /// `None` for bare protocols. Lets callers holding a
    /// `Box<dyn ReadOnlyProtocol>` recover the counters without
    /// downcasting.
    fn protocol_stats(&self) -> Option<crate::instrument::ProtocolStats> {
        None
    }

    /// A `Debug`-stable snapshot of the full session state.
    ///
    /// Every protocol in this workspace keeps its state in ordered
    /// (`BTree*`) collections, so the derived `Debug` rendering is a
    /// canonical serialization: two sessions with equal snapshots behave
    /// identically on any future input. The model checker hashes these
    /// snapshots to deduplicate explored states.
    fn debug_snapshot(&self) -> String {
        format!("{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_current_at_ranges() {
        let c = ReadCandidate {
            value: ItemValue::initial(),
            last_writer_tag: None,
            valid_from: Cycle::new(3),
            valid_until: Some(Cycle::new(6)),
            source: Source::CacheOld,
        };
        assert!(!c.current_at(Cycle::new(2)));
        assert!(c.current_at(Cycle::new(3)));
        assert!(c.current_at(Cycle::new(5)));
        assert!(!c.current_at(Cycle::new(6)));

        let open = ReadCandidate {
            valid_until: None,
            ..c
        };
        assert!(open.current_at(Cycle::new(100)));
    }

    #[test]
    fn candidate_from_broadcast_record() {
        let t = TxnId::new(Cycle::new(2), 0);
        let rec =
            bpush_broadcast::ItemRecord::new(ItemId::new(1), ItemValue::written_by(t), Some(t));
        let c = ReadCandidate::from_broadcast(&rec);
        assert_eq!(c.valid_from, Cycle::new(3));
        assert_eq!(c.valid_until, None);
        assert_eq!(c.last_writer_tag, Some(t));
        assert_eq!(c.source, Source::BroadcastCurrent);
        assert!(!c.source.is_cache());
        assert!(Source::CacheOld.is_cache());
    }

    #[test]
    fn abort_reason_messages() {
        for r in [
            AbortReason::Invalidated,
            AbortReason::VersionUnavailable,
            AbortReason::CycleDetected,
            AbortReason::Disconnected,
        ] {
            assert!(!r.to_string().is_empty());
        }
    }
}
