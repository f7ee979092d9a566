//! The embeddable client API: run read-only transactions against a
//! broadcast you tune into yourself.
//!
//! [`QueryExecutor`](crate::QueryExecutor) simulates a client end to end;
//! `BroadcastSession` is the piece a real application embeds instead. The
//! application owns the radio loop: it hands each cycle's bcast to
//! [`BroadcastSession::on_bcast`], asks where to tune for each read, and
//! delivers what it heard. The session runs the protocol (any method from
//! [`bpush_core::Method`]), keeps the cache coherent, and decides
//! commit/abort.
//!
//! ```text
//! app loop:                      session:
//!   hear cycle start      ──────▶ on_bcast(&bcast)
//!   t = begin()           ◀────── transaction handle
//!   read(t, x)?           ──────▶ Done(value) | Tune{slot} | NextCycle
//!   tune to slot, hear x  ──────▶ deliver(t, x)  → value
//!   commit(t)             ──────▶ readset (consistent!) or abort reason
//! ```

use bpush_broadcast::Bcast;
use bpush_core::validator::ReadRecord;
use bpush_core::{
    AbortReason, CacheMode, ReadCandidate, ReadDirective, ReadOnlyProtocol, ReadOutcome,
};
use bpush_types::{Cycle, ItemId, ItemValue, QueryId};

use crate::cache::ClientCache;
use crate::core::{ClientCore, ReadPlan};

/// Where the next read of a transaction will come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// bpush-lint: protocol_enum — session read automaton state
pub enum ReadStep {
    /// The read completed from the cache; the value is recorded.
    Done,
    /// Tune to this slot of the current bcast, then call
    /// [`BroadcastSession::deliver`] for the item.
    Tune {
        /// Slot within the current bcast carrying the needed value.
        slot: u64,
    },
    /// The needed bucket has already passed this cycle; retry after the
    /// next [`BroadcastSession::on_bcast`].
    NextCycle,
}

/// Handle to an in-flight read-only transaction (of a
/// [`BroadcastSession`] or a [`WireClient`](crate::WireClient)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnHandle(pub(crate) QueryId);

/// An embeddable broadcast-push client: protocol + cache, application-
/// driven.
///
/// # Example
///
/// ```
/// use bpush_client::session::{BroadcastSession, ReadStep};
/// use bpush_core::Method;
/// use bpush_server::{BroadcastServer, ServerOptions};
/// use bpush_types::{ItemId, ServerConfig};
///
/// let config = ServerConfig { broadcast_size: 50, update_range: 25,
///     server_read_range: 50, updates_per_cycle: 5,
///     ..ServerConfig::default() };
/// let mut server = BroadcastServer::new(config, ServerOptions::plain(), 1)?;
/// let mut session = BroadcastSession::new(Method::InvalidationOnly.build_protocol(), None);
///
/// let bcast = server.run_cycle();
/// session.on_bcast(&bcast);
/// let txn = session.begin();
/// let step = session.read(txn, ItemId::new(3), &bcast)?;
/// if let ReadStep::Tune { .. } = step {
///     session.deliver(txn, ItemId::new(3), &bcast)?;
/// }
/// let readset = session.commit(txn)?;
/// assert_eq!(readset.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct BroadcastSession {
    core: ClientCore,
}

impl BroadcastSession {
    /// Creates a session around a protocol and an optional cache. The
    /// cache's [`CacheMode`] should match
    /// [`ReadOnlyProtocol::cache_mode`]; a missing cache is always
    /// acceptable (the protocol then works broadcast-only).
    pub fn new(protocol: Box<dyn ReadOnlyProtocol>, cache: Option<ClientCache>) -> Self {
        if let (Some(cache), mode) = (&cache, protocol.cache_mode()) {
            debug_assert!(
                mode == CacheMode::None || cache.params().mode == mode,
                "cache mode should match the protocol's requirement"
            );
        }
        BroadcastSession {
            core: ClientCore::new(protocol, cache),
        }
    }

    /// The protocol's reporting name.
    pub fn protocol_name(&self) -> &'static str {
        self.core.protocol().name()
    }

    /// Number of transactions currently in flight.
    pub fn active_transactions(&self) -> usize {
        self.core.in_flight()
    }

    /// Processes the control segment of a freshly heard bcast. Call once
    /// per cycle, before any read of that cycle.
    pub fn on_bcast(&mut self, bcast: &Bcast) {
        // only a wire link can fail to hear, and a session has none
        let heard = self.core.hear(bcast);
        debug_assert!(heard.is_ok());
    }

    /// Tells the session the client missed `cycle` entirely.
    pub fn on_missed_cycle(&mut self, cycle: Cycle) {
        self.core.missed(cycle);
    }

    /// Starts a read-only transaction.
    ///
    /// # Panics
    /// Panics if no bcast has been heard yet ([`BroadcastSession::on_bcast`]).
    pub fn begin(&mut self) -> TxnHandle {
        TxnHandle(self.core.begin())
    }

    /// Attempts to read `item`, given the slot the application is
    /// currently listening at within this bcast. Either completes from
    /// the cache ([`ReadStep::Done`]), tells the application where to
    /// tune (the item's next repetition at or after `position`), or
    /// reports that the needed bucket has already passed this cycle
    /// ([`ReadStep::NextCycle`]: retry after the next
    /// [`BroadcastSession::on_bcast`]).
    ///
    /// Call [`BroadcastSession::read`] for the common
    /// start-of-cycle case (`position = 0`).
    ///
    /// # Errors
    /// Returns the abort reason if the transaction cannot proceed; the
    /// transaction is dropped and its handle becomes invalid.
    ///
    /// # Panics
    /// Panics if the handle is unknown (already committed or aborted).
    pub fn read_at(
        &mut self,
        handle: TxnHandle,
        item: ItemId,
        bcast: &Bcast,
        position: u64,
    ) -> Result<ReadStep, AbortReason> {
        let located = match self.core.plan(handle.0, item) {
            ReadPlan::Doom(reason) => return self.fail(handle, reason),
            ReadPlan::Cached(cand) => {
                return self
                    .apply(handle, item, &cand, bcast)
                    .map(|_| ReadStep::Done)
            }
            ReadPlan::Air { constraint, .. } if constraint.cache_only => None,
            ReadPlan::Air { constraint, .. } => {
                self.core.locate(bcast, item, constraint.state, position)
            }
        };
        match located {
            None => self.fail(handle, AbortReason::VersionUnavailable),
            Some((slot, _)) if slot < position => Ok(ReadStep::NextCycle),
            Some((slot, _)) => Ok(ReadStep::Tune { slot }),
        }
    }

    /// [`BroadcastSession::read_at`] from the beginning of the bcast.
    ///
    /// # Errors
    /// Returns the abort reason if the transaction cannot proceed.
    ///
    /// # Panics
    /// Panics if the handle is unknown.
    pub fn read(
        &mut self,
        handle: TxnHandle,
        item: ItemId,
        bcast: &Bcast,
    ) -> Result<ReadStep, AbortReason> {
        self.read_at(handle, item, bcast, 0)
    }

    /// Delivers the bucket the application tuned to after a
    /// [`ReadStep::Tune`], completing the read.
    ///
    /// # Errors
    /// Returns the abort reason if the protocol rejects the value; the
    /// transaction is dropped.
    ///
    /// # Panics
    /// Panics if the handle is unknown.
    pub fn deliver(
        &mut self,
        handle: TxnHandle,
        item: ItemId,
        bcast: &Bcast,
    ) -> Result<ItemValue, AbortReason> {
        let state = match self.core.directive(handle.0, item) {
            ReadDirective::Doom(reason) => return self.fail(handle, reason),
            ReadDirective::Read(constraint) => constraint.state,
        };
        match self.core.locate(bcast, item, state, 0) {
            None => self.fail(handle, AbortReason::VersionUnavailable),
            Some((_, cand)) => self.apply(handle, item, &cand, bcast),
        }
    }

    fn apply(
        &mut self,
        handle: TxnHandle,
        item: ItemId,
        cand: &ReadCandidate,
        bcast: &Bcast,
    ) -> Result<ItemValue, AbortReason> {
        match self.core.apply(handle.0, item, cand, Some(bcast)) {
            ReadOutcome::Accepted => Ok(cand.value),
            ReadOutcome::Rejected(reason) => self.fail(handle, reason),
        }
    }

    /// Drops the transaction and reports why.
    fn fail<T>(&mut self, handle: TxnHandle, reason: AbortReason) -> Result<T, AbortReason> {
        self.abort(handle);
        Err(reason)
    }

    /// Commits the transaction, returning its (consistent) readset.
    ///
    /// # Errors
    /// Never fails for the shipped methods — once every read was
    /// accepted, commitment is local — but the signature leaves room for
    /// methods with commit-time certification.
    ///
    /// # Panics
    /// Panics if the handle is unknown.
    pub fn commit(&mut self, handle: TxnHandle) -> Result<Vec<ReadRecord>, AbortReason> {
        Ok(self.core.end(handle.0))
    }

    /// Abandons the transaction.
    ///
    /// # Panics
    /// Panics if the handle is unknown.
    pub fn abort(&mut self, handle: TxnHandle) {
        self.core.end(handle.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheParams;
    use bpush_core::Method;
    use bpush_server::{BroadcastServer, ServerOptions};
    use bpush_types::ServerConfig;

    fn server() -> BroadcastServer {
        server_with(ServerOptions::plain())
    }

    fn server_with(options: ServerOptions) -> BroadcastServer {
        BroadcastServer::new(
            ServerConfig {
                broadcast_size: 40,
                update_range: 20,
                server_read_range: 40,
                updates_per_cycle: 5,
                txns_per_cycle: 5,
                offset: 0,
                ..ServerConfig::default()
            },
            options,
            9,
        )
        .unwrap()
    }

    #[test]
    fn single_cycle_transaction_commits() {
        let mut srv = server();
        let mut s = BroadcastSession::new(Method::InvalidationOnly.build_protocol(), None);
        let bcast = srv.run_cycle();
        s.on_bcast(&bcast);
        assert_eq!(s.protocol_name(), "inv-only");
        let t = s.begin();
        assert_eq!(s.active_transactions(), 1);
        for i in [1u32, 5, 9] {
            match s.read(t, ItemId::new(i), &bcast).unwrap() {
                ReadStep::Tune { slot } => {
                    assert!(slot < bcast.total_slots());
                    s.deliver(t, ItemId::new(i), &bcast).unwrap();
                }
                other => panic!("expected a tune step, got {other:?}"),
            }
        }
        let reads = s.commit(t).unwrap();
        assert_eq!(reads.len(), 3);
        assert_eq!(s.active_transactions(), 0);
    }

    #[test]
    fn invalidation_aborts_across_cycles() {
        let mut srv = server();
        let mut s = BroadcastSession::new(Method::InvalidationOnly.build_protocol(), None);
        let b0 = srv.run_cycle();
        s.on_bcast(&b0);
        let t = s.begin();
        // read every hot item so the next cycle's updates must hit one
        for i in 0..20u32 {
            if let Ok(ReadStep::Tune { .. }) = s.read(t, ItemId::new(i), &b0) {
                s.deliver(t, ItemId::new(i), &b0).unwrap();
            }
        }
        let b1 = srv.run_cycle();
        s.on_bcast(&b1);
        // the transaction is now doomed: 5 updates hit the 20 hot items
        let result = s.read(t, ItemId::new(21), &b1);
        assert_eq!(result, Err(AbortReason::Invalidated));
        assert_eq!(s.active_transactions(), 0, "aborted handle released");
    }

    #[test]
    fn cache_serves_done_steps() {
        let mut srv = server();
        let cache = ClientCache::new(CacheParams {
            mode: CacheMode::Plain,
            current_capacity: 10,
            old_capacity: 0,
            items_per_bucket: 1,
        });
        let mut s = BroadcastSession::new(Method::InvalidationCache.build_protocol(), Some(cache));
        let b0 = srv.run_cycle();
        s.on_bcast(&b0);
        let t = s.begin();
        assert!(matches!(
            s.read(t, ItemId::new(3), &b0).unwrap(),
            ReadStep::Tune { .. }
        ));
        s.deliver(t, ItemId::new(3), &b0).unwrap();
        s.commit(t).unwrap();
        // a second transaction reads the same item straight from cache
        let t2 = s.begin();
        assert_eq!(s.read(t2, ItemId::new(3), &b0).unwrap(), ReadStep::Done);
        let reads = s.commit(t2).unwrap();
        assert_eq!(reads.len(), 1);
    }

    #[test]
    fn interleaved_transactions_are_independent() {
        let mut srv = server();
        let mut s = BroadcastSession::new(Method::Sgt.build_protocol(), None);
        let b0 = srv.run_cycle();
        s.on_bcast(&b0);
        let t1 = s.begin();
        let t2 = s.begin();
        assert_eq!(s.active_transactions(), 2);
        if let Ok(ReadStep::Tune { .. }) = s.read(t1, ItemId::new(1), &b0) {
            s.deliver(t1, ItemId::new(1), &b0).unwrap();
        }
        if let Ok(ReadStep::Tune { .. }) = s.read(t2, ItemId::new(2), &b0) {
            s.deliver(t2, ItemId::new(2), &b0).unwrap();
        }
        s.abort(t1);
        let reads = s.commit(t2).unwrap();
        assert_eq!(reads.len(), 1);
        assert_eq!(s.active_transactions(), 0);
    }

    #[test]
    fn committed_readsets_validate() {
        let mut srv = server();
        let mut s = BroadcastSession::new(Method::InvalidationOnly.build_protocol(), None);
        let mut committed = Vec::new();
        for _ in 0..20 {
            let bcast = srv.run_cycle();
            s.on_bcast(&bcast);
            let t = s.begin();
            let mut ok = true;
            for i in [2u32, 7, 11] {
                match s.read(t, ItemId::new(i), &bcast) {
                    Ok(ReadStep::Tune { .. }) => {
                        if s.deliver(t, ItemId::new(i), &bcast).is_err() {
                            ok = false;
                            break;
                        }
                    }
                    Ok(_) => {}
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                committed.push(s.commit(t).unwrap());
            }
        }
        assert!(!committed.is_empty());
        let validator = bpush_core::validator::SerializabilityValidator::new(srv.history());
        for reads in &committed {
            validator.check(reads).unwrap();
        }
    }

    #[test]
    fn read_at_reports_passed_slots() {
        let mut srv = server();
        let mut s = BroadcastSession::new(Method::InvalidationOnly.build_protocol(), None);
        let b = srv.run_cycle();
        s.on_bcast(&b);
        let t = s.begin();
        let slot = b.slot_of_current(ItemId::new(5)).unwrap();
        // listening past the item's slot: the bucket is gone this cycle
        assert_eq!(
            s.read_at(t, ItemId::new(5), &b, slot + 1).unwrap(),
            ReadStep::NextCycle
        );
        // the transaction is still alive and succeeds next cycle
        let b2 = srv.run_cycle();
        s.on_bcast(&b2);
        match s.read_at(t, ItemId::new(5), &b2, 0).unwrap() {
            ReadStep::Tune { .. } => {
                s.deliver(t, ItemId::new(5), &b2).unwrap();
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s.commit(t).unwrap().len(), 1);
    }

    /// Under broadcast disks an item airs several times per cycle: a
    /// read issued after the first repetition tunes to a later one, and
    /// only waits a cycle once every repetition has passed.
    #[test]
    fn read_at_tunes_to_a_later_disk_repetition() {
        use bpush_broadcast::organization::DiskSpec;
        let disks = vec![
            DiskSpec {
                items: 10,
                rel_freq: 2,
            },
            DiskSpec {
                items: 30,
                rel_freq: 1,
            },
        ];
        let mut srv = server_with(ServerOptions {
            mode: bpush_server::BroadcastMode::Disks(disks),
            sgt_info: false,
        });
        let mut s = BroadcastSession::new(Method::InvalidationOnly.build_protocol(), None);
        let b = srv.run_cycle();
        s.on_bcast(&b);
        let hot = ItemId::new(3);
        let &[first, later] = b.occurrences_of(hot) else {
            panic!("a frequency-2 item airs twice: {:?}", b.occurrences_of(hot));
        };
        let t = s.begin();
        assert_eq!(
            s.read_at(t, hot, &b, first + 1).unwrap(),
            ReadStep::Tune { slot: later }
        );
        assert_eq!(
            s.read_at(t, hot, &b, later + 1).unwrap(),
            ReadStep::NextCycle
        );
        s.deliver(t, hot, &b).unwrap();
        assert_eq!(s.commit(t).unwrap().len(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown or finished")]
    fn stale_handle_panics() {
        let mut srv = server();
        let mut s = BroadcastSession::new(Method::InvalidationOnly.build_protocol(), None);
        let b = srv.run_cycle();
        s.on_bcast(&b);
        let t = s.begin();
        s.commit(t).unwrap();
        let _ = s.commit(t);
    }

    #[test]
    #[should_panic(expected = "hear a bcast")]
    fn begin_before_bcast_panics() {
        let mut s = BroadcastSession::new(Method::InvalidationOnly.build_protocol(), None);
        let _ = s.begin();
    }
}
