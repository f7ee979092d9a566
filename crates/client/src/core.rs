//! The one client automaton of §2.1 and §3–§4: hear the control segment,
//! ask the method for a directive, serve the read from cache or air,
//! commit or abort. [`QueryExecutor`](crate::QueryExecutor),
//! [`BroadcastSession`](crate::BroadcastSession) and
//! [`WireClient`](crate::WireClient) are drivers over this core and hold
//! nothing of the protocol lifecycle themselves. The byte path is a step
//! of the same automaton: a core with a wire link hears its control
//! segments out of a [`WireFeed`], whoever produced the bytes.

use bpush_broadcast::feed::{
    decode_control_with, decode_segment, DecodedSegment, SegmentKind, WireFeed,
};
use bpush_broadcast::wire::WireParams;
use bpush_broadcast::{Bcast, ControlInfo};
use bpush_core::instrument::Instrumented;
use bpush_core::validator::ReadRecord;
use bpush_core::{
    AbortReason, CacheMode, ReadCandidate, ReadConstraint, ReadDirective, ReadOnlyProtocol,
    ReadOutcome, Source,
};
use bpush_obs::{Actor, Obs};
use bpush_types::{BpushError, Cycle, ItemId, QueryId};

use crate::cache::ClientCache;

/// How the next read of a transaction is to be served.
#[derive(Debug, Clone, Copy)]
// bpush-lint: protocol_enum — client core read plan
pub(crate) enum ReadPlan {
    /// The method doomed the transaction; end it with this reason.
    Doom(AbortReason),
    /// The cache holds a suitable value; apply it.
    Cached(ReadCandidate),
    /// The value must come off the air, subject to `constraint`.
    Air {
        /// What the read must satisfy.
        constraint: ReadConstraint,
        /// Whether the cache was consulted (and missed).
        probed: bool,
    },
}

/// The method a core drives: bare, or under the one instrumentation
/// decorator it was routed through.
#[derive(Debug)]
enum Held {
    Bare(Box<dyn ReadOnlyProtocol>),
    Observed(Box<Instrumented>),
}

impl Held {
    fn get(&self) -> &dyn ReadOnlyProtocol {
        match self {
            Held::Bare(p) => &**p,
            Held::Observed(p) => &**p,
        }
    }

    fn get_mut(&mut self) -> &mut dyn ReadOnlyProtocol {
        match self {
            Held::Bare(p) => &mut **p,
            Held::Observed(p) => &mut **p,
        }
    }
}

/// Protocol + cache + the in-flight transaction table.
#[derive(Debug)]
pub(crate) struct ClientCore {
    protocol: Held,
    cache: Option<ClientCache>,
    /// The wire link: the deployment's widths and the one byte buffer
    /// every segment this client hears is framed out of.
    wire: Option<(WireParams, WireFeed)>,
    /// Cycle of the last control segment heard.
    heard: Option<Cycle>,
    next_id: QueryId,
    /// In-flight transactions and their readsets so far.
    active: Vec<(QueryId, Vec<ReadRecord>)>,
}

impl ClientCore {
    pub(crate) fn new(protocol: Box<dyn ReadOnlyProtocol>, cache: Option<ClientCache>) -> Self {
        ClientCore {
            protocol: Held::Bare(protocol),
            cache,
            wire: None,
            heard: None,
            next_id: QueryId::new(0),
            active: Vec::new(),
        }
    }

    /// Routes the method into `obs` as `actor` under one
    /// [`Instrumented`] decorator, replacing the one it had, if any.
    pub(crate) fn observe(self, obs: Obs, actor: Actor) -> Self {
        let bare = match self.protocol {
            Held::Bare(p) => p,
            Held::Observed(d) => d.into_inner(),
        };
        let decorated = Instrumented::with_obs(bare, obs, actor);
        ClientCore {
            protocol: Held::Observed(Box::new(decorated)),
            ..self
        }
    }

    /// Whether the method runs under an instrumentation decorator.
    pub(crate) fn is_observed(&self) -> bool {
        matches!(self.protocol, Held::Observed(_))
    }

    /// Replaces the method by a bare `protocol` — the fault-injection
    /// seam.
    pub(crate) fn with_protocol(self, protocol: Box<dyn ReadOnlyProtocol>) -> Self {
        ClientCore {
            protocol: Held::Bare(protocol),
            ..self
        }
    }

    /// From here on control segments are heard off the wire, decoded
    /// with `params`.
    pub(crate) fn set_wire(&mut self, params: WireParams) {
        self.wire = Some((params, WireFeed::new()));
    }

    pub(crate) fn protocol(&self) -> &dyn ReadOnlyProtocol {
        self.protocol.get()
    }

    pub(crate) fn cache(&self) -> Option<&ClientCache> {
        self.cache.as_ref()
    }

    pub(crate) fn heard(&self) -> Option<Cycle> {
        self.heard
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.active.len()
    }

    fn now(&self) -> Cycle {
        // lint: allow(panic) — documented panic: callers must hear a cycle first
        self.heard.expect("hear a bcast's control segment first")
    }

    fn txn_index(&self, q: QueryId) -> usize {
        self.active
            .iter()
            .position(|(id, _)| *id == q)
            // lint: allow(panic) — documented panic: stale handles are a caller bug
            .expect("unknown or finished transaction handle")
    }

    /// Hears a control segment: the method validates its queries, the
    /// cache invalidates.
    fn hear_control(&mut self, ctrl: &ControlInfo) {
        self.protocol.get_mut().on_control(ctrl);
        if let Some(cache) = &mut self.cache {
            cache.on_report(ctrl.invalidation());
        }
        self.heard = Some(ctrl.cycle());
    }

    /// Appends transport bytes (any chunking) to the wire link; a core
    /// without one drops them.
    pub(crate) fn push(&mut self, chunk: &[u8]) {
        if let Some((_, feed)) = &mut self.wire {
            feed.push(chunk);
        }
    }

    /// Consumes the next complete segment off the wire link, or `None`
    /// when more bytes are needed. A control segment is heard here
    /// ([`ClientCore::hear_control`]); every segment is handed back
    /// decoded so the driver can keep what the core has no use for.
    ///
    /// A control segment's graph diff is decoded only when the method
    /// will use it ([`ReadOnlyProtocol::needs_graph_diff`], asked of the
    /// reports decoded before it); otherwise its bits are left unread
    /// and the control is heard, and handed back, without a diff.
    pub(crate) fn next_segment(&mut self) -> Result<Option<DecodedSegment>, BpushError> {
        let ClientCore {
            wire: Some((params, feed)),
            protocol,
            ..
        } = self
        else {
            return Ok(None);
        };
        let Some(seg) = feed.pop()? else {
            return Ok(None);
        };
        let decoded = match seg.kind {
            SegmentKind::Control => {
                decode_control_with(seg.payload, *params, seg.cycle, &mut |head| {
                    protocol.get().needs_graph_diff(head)
                })
                .map(DecodedSegment::Control)?
            }
            SegmentKind::Data | SegmentKind::Directory => decode_segment(seg, *params)?,
        };
        if let DecodedSegment::Control(ctrl) = &decoded {
            self.hear_control(ctrl);
        }
        Ok(Some(decoded))
    }

    /// Hears the start of a whole bcast, then the cache autoprefetches
    /// what the report invalidated. With a wire link the control
    /// information takes the byte path — the bcast's one encoding of
    /// it, framed and decoded by this client for itself — and only the
    /// decoded report is heard, with its graph diff when the method reads
    /// it ([`ClientCore::next_segment`]).
    ///
    /// # Errors
    /// Returns [`BpushError::Internal`] if the bcast's own bytes do not
    /// come back as this cycle's control segment: a codec bug.
    pub(crate) fn hear(&mut self, bcast: &Bcast) -> Result<(), BpushError> {
        let ctrl = bcast.control();
        match &mut self.wire {
            None => self.hear_control(ctrl),
            Some((params, feed)) => {
                feed.push(&bcast.control_segment(*params));
                let Ok(Some(DecodedSegment::Control(decoded))) = self.next_segment() else {
                    return Err(BpushError::internal(
                        "the bcast's own control segment did not frame and decode",
                    ));
                };
                debug_assert!(
                    decoded.is_heard_of(ctrl),
                    "wire roundtrip changed the control report"
                );
            }
        }
        if let Some(cache) = &mut self.cache {
            cache.autoprefetch(bcast);
        }
        Ok(())
    }

    /// The client missed `cycle` entirely.
    pub(crate) fn missed(&mut self, cycle: Cycle) {
        self.protocol.get_mut().on_missed_cycle(cycle);
        if let Some(cache) = &mut self.cache {
            cache.on_missed_cycle(cycle);
        }
    }

    /// Starts a transaction at the last heard cycle. Panics if none was.
    pub(crate) fn begin(&mut self) -> QueryId {
        let now = self.now();
        let id = self.next_id;
        self.next_id = id.next();
        self.protocol.get_mut().begin_query(id, now);
        self.active.push((id, Vec::new()));
        id
    }

    /// The method's raw directive for `q` reading `item` now. Panics on
    /// an unknown handle.
    pub(crate) fn directive(&self, q: QueryId, item: ItemId) -> ReadDirective {
        self.txn_index(q);
        self.protocol.get().read_directive(q, item, self.now())
    }

    /// Directive, then the cache.
    pub(crate) fn plan(&mut self, q: QueryId, item: ItemId) -> ReadPlan {
        let constraint = match self.directive(q, item) {
            ReadDirective::Doom(reason) => return ReadPlan::Doom(reason),
            ReadDirective::Read(c) => c,
        };
        let cache = self.cache.as_mut();
        let probed = cache.is_some();
        match cache.and_then(|c| c.lookup(item, constraint.state)) {
            Some(candidate) => ReadPlan::Cached(candidate),
            None => ReadPlan::Air { constraint, probed },
        }
    }

    /// Where on `bcast` the value of `item` current at `state` airs, for a
    /// client listening from slot `not_before`: the current version at
    /// its next repetition (under broadcast disks an item airs several
    /// times per cycle; when all have passed, the first one, so the
    /// caller sees `slot < not_before` and waits a cycle), else the
    /// old-version chain. `None` when no such value is provably on air.
    pub(crate) fn locate(
        &self,
        bcast: &Bcast,
        item: ItemId,
        state: Cycle,
        not_before: u64,
    ) -> Option<(u64, ReadCandidate)> {
        let record = bcast.current(item)?;
        let mut successor = record.value().version();
        if successor <= state {
            let slot = bcast
                .next_slot_of_current(item, not_before)
                .or_else(|| bcast.slot_of_current(item))?;
            let mut cand = ReadCandidate::from_broadcast(record);
            // Without versions on air (plain and versioned cache modes)
            // the client only knows what its report stream proves: clamp
            // the candidate's validity to the provable floor.
            if let Some(cache) = &self.cache {
                if cache.params().mode != CacheMode::Multiversion {
                    cand.valid_from = cache.provable_floor(item).unwrap_or(bcast.cycle());
                }
            }
            return cand.current_at(state).then_some((slot, cand));
        }
        // the chain is in reverse chronological order, so the successor
        // of each entry is the previous one
        for &(slot, value) in bcast.old_versions_of(item) {
            if value.version() <= state {
                let cand = ReadCandidate {
                    value,
                    last_writer_tag: value.writer(),
                    valid_from: value.version(),
                    valid_until: Some(successor),
                    source: Source::BroadcastOld,
                };
                // a retention gap would make the candidate invalid; treat
                // it as off-air rather than serve a wrong version
                return cand.current_at(state).then_some((slot, cand));
            }
            successor = value.version();
        }
        None
    }

    /// Offers `cand` to the method; an accepted value joins the readset,
    /// and a current value read off `air` is demand-cached.
    pub(crate) fn apply(
        &mut self,
        q: QueryId,
        item: ItemId,
        cand: &ReadCandidate,
        air: Option<&Bcast>,
    ) -> ReadOutcome {
        let idx = self.txn_index(q);
        let now = self.now();
        let outcome = self.protocol.get_mut().apply_read(q, item, cand, now);
        if outcome == ReadOutcome::Accepted {
            if let Some((_, reads)) = self.active.get_mut(idx) {
                reads.push(ReadRecord::new(item, cand.value));
            }
            if cand.source == Source::BroadcastCurrent {
                if let (Some(cache), Some(bcast)) = (&mut self.cache, air) {
                    if let Some(record) = bcast.current(item) {
                        cache.insert_from_broadcast(record, now);
                    }
                }
            }
        }
        outcome
    }

    /// Ends `q` (commit or abort alike), returning its readset so far.
    /// Panics on an unknown handle.
    pub(crate) fn end(&mut self, q: QueryId) -> Vec<ReadRecord> {
        let (id, reads) = self.active.remove(self.txn_index(q));
        self.protocol.get_mut().finish_query(id);
        reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheParams;
    use bpush_broadcast::organization::{
        BroadcastDisks, DiskSpec, Flat, MultiversionOverflow, OldVersions,
    };
    use bpush_broadcast::ItemRecord;
    use bpush_core::Method;
    use bpush_types::{ItemValue, TxnId};

    /// A value whose version (first cycle current) is `version`.
    fn value(version: u64) -> ItemValue {
        match version.checked_sub(1) {
            Some(written) => ItemValue::written_by(TxnId::new(Cycle::new(written), 0)),
            None => ItemValue::initial(),
        }
    }

    fn records(n: u32, versions: &[(u32, u64)]) -> Vec<ItemRecord> {
        (0..n)
            .map(|i| {
                let version = versions.iter().find(|(x, _)| *x == i).map_or(0, |v| v.1);
                ItemRecord::new(ItemId::new(i), value(version), None)
            })
            .collect()
    }

    fn core_with(mode: CacheMode) -> ClientCore {
        let cache = (mode != CacheMode::None).then(|| {
            ClientCache::new(CacheParams {
                mode,
                current_capacity: 4,
                old_capacity: if mode == CacheMode::Multiversion {
                    4
                } else {
                    0
                },
                items_per_bucket: 1,
            })
        });
        ClientCore::new(Method::InvalidationOnly.build_protocol(), cache)
    }

    /// Every branch of the one `locate`, as `(what, core, bcast, item,
    /// state, not_before) -> (slot, source, valid_from)`.
    #[test]
    fn locate_table() {
        let at = Cycle::new;
        let empty = |c: u64| ControlInfo::empty(at(c));
        let flat = Flat::new(1).assemble(at(6), empty(6), records(4, &[(2, 5)]));
        // schedule [0,1, 2,3] [0,1, 4,5]: item 0 airs at slots 0 and 4
        let disks = BroadcastDisks::new(vec![
            DiskSpec {
                items: 2,
                rel_freq: 2,
            },
            DiskSpec {
                items: 4,
                rel_freq: 1,
            },
        ])
        .assemble(at(6), empty(6), records(6, &[]));
        // item 1: current since 5, old versions 3 and 1 retained
        let mut old = OldVersions::default();
        old.add_chain(ItemId::new(1), [value(3), value(1)]);
        let multi =
            MultiversionOverflow::new(1).assemble(at(6), empty(6), records(4, &[(1, 5)]), old);
        let chain = multi.old_versions_of(ItemId::new(1));
        let (old3, old1) = (chain[0].0, chain[1].0);

        let bare = core_with(CacheMode::None);
        let air = Source::BroadcastCurrent;
        type Hit = Option<(u64, Source, u64)>;
        let cases: Vec<(&str, &ClientCore, &Bcast, u32, u64, u64, Hit)> = vec![
            (
                "current version usable",
                &bare,
                &flat,
                2,
                6,
                0,
                Some((2, air, 5)),
            ),
            (
                "current version too new, flat has no chain",
                &bare,
                &flat,
                2,
                4,
                0,
                None,
            ),
            ("item not on air", &bare, &flat, 9, 6, 0, None),
            (
                "disks: first repetition",
                &bare,
                &disks,
                0,
                6,
                0,
                Some((0, air, 0)),
            ),
            (
                "disks: later repetition",
                &bare,
                &disks,
                0,
                6,
                1,
                Some((4, air, 0)),
            ),
            (
                "disks: all passed, first again",
                &bare,
                &disks,
                0,
                6,
                5,
                Some((0, air, 0)),
            ),
            (
                "chain: newest old version",
                &bare,
                &multi,
                1,
                4,
                0,
                Some((old3, Source::BroadcastOld, 3)),
            ),
            (
                "chain: walks to the older one",
                &bare,
                &multi,
                1,
                2,
                0,
                Some((old1, Source::BroadcastOld, 1)),
            ),
            (
                "chain: state before retention",
                &bare,
                &multi,
                1,
                0,
                0,
                None,
            ),
        ];
        for (what, core, bcast, item, state, not_before, want) in cases {
            let got = core
                .locate(bcast, ItemId::new(item), at(state), not_before)
                .map(|(slot, c)| (slot, c.source, c.valid_from.number()));
            assert_eq!(got, want, "{what}");
        }
        // an old version is bounded by its successor
        let (_, cand) = bare.locate(&multi, ItemId::new(1), at(2), 0).unwrap();
        assert_eq!(cand.valid_until, Some(at(3)));

        // Report knowledge starts at cycle 6: without versions on air a
        // caching client cannot prove item 0 (version 0) was current
        // before that, so a query pinned at state 5 is refused; the
        // multiversion cache trusts the transmitted version.
        for (mode, at5, floor) in [
            (CacheMode::Plain, false, 6),
            (CacheMode::Versioned, false, 6),
            (CacheMode::Multiversion, true, 0),
        ] {
            let mut core = core_with(mode);
            core.hear(&flat).unwrap();
            let pinned = core.locate(&flat, ItemId::new(0), at(5), 0);
            assert_eq!(pinned.is_some(), at5, "{mode:?} at state 5");
            let (_, cand) = core.locate(&flat, ItemId::new(0), at(6), 0).unwrap();
            assert_eq!(cand.valid_from, at(floor), "{mode:?} floor");
        }
    }

    /// A core with a wire link hears a bcast only through its byte
    /// buffer: the self-encoded control segment frames out of it, and
    /// when it cannot — here the transport left a partial segment in
    /// front — hearing fails as an internal error instead of falling
    /// back to the struct or panicking.
    #[test]
    fn a_wire_link_hears_through_the_byte_buffer() {
        let bcast = |c: u64| {
            Flat::new(1).assemble(
                Cycle::new(c),
                ControlInfo::empty(Cycle::new(c)),
                records(4, &[]),
            )
        };
        let mut core = core_with(CacheMode::None);
        core.set_wire(WireParams::derive(4, 1, 1, 1));
        core.hear(&bcast(6)).unwrap();
        assert_eq!(core.heard(), Some(Cycle::new(6)));
        assert!(matches!(core.next_segment(), Ok(None)), "buffer drained");

        core.push(&[2]); // a directory kind byte and nothing else
        assert!(matches!(core.hear(&bcast(7)), Err(BpushError::Internal(_))));
        assert_eq!(core.heard(), Some(Cycle::new(6)), "cycle 7 was not heard");
    }
}
