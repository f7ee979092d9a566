//! The client cache (§4): LRU pages kept coherent by invalidation +
//! autoprefetch, with the versioned and multiversion extensions.

use std::collections::BTreeMap;

use bpush_broadcast::{Bcast, InvalidationReport, ItemRecord};
use bpush_core::{CacheMode, ReadCandidate, Source};
use bpush_types::{BucketId, Cycle, ItemId, ItemValue, TxnId};

use crate::lru::LruMap;

/// One cached (current-partition) entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    value: ItemValue,
    last_writer_tag: Option<TxnId>,
    /// Earliest state the value is known current at: the fetch cycle for
    /// version-less modes, the value's version when versions are on air
    /// (multiversion cache mode).
    valid_from: Cycle,
    /// Latest state the value is known current at (inclusive).
    valid_through: Cycle,
    /// Whether the entry is coherent: known equal to the current value.
    /// Cleared by invalidation (then the entry awaits autoprefetch) and
    /// by unrecoverable report gaps.
    coherent: bool,
}

/// A retained old version (multiversion caching, §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OldEntry {
    value: ItemValue,
    last_writer_tag: Option<TxnId>,
    valid_from: Cycle,
    /// Exclusive: the state at which the superseding version took over.
    valid_until: Cycle,
}

impl Entry {
    /// A coherent entry for `record`, read off the broadcast of `cycle`.
    fn fetched(record: &ItemRecord, valid_from: Cycle, cycle: Cycle) -> Self {
        Entry {
            value: record.value(),
            last_writer_tag: record.last_writer(),
            valid_from,
            valid_through: cycle,
            coherent: true,
        }
    }

    /// This value as an old version, superseded at `until` (§4.2).
    fn superseded_at(&self, until: Cycle) -> OldEntry {
        OldEntry {
            value: self.value,
            last_writer_tag: self.last_writer_tag,
            valid_from: self.valid_from,
            valid_until: until,
        }
    }
}

/// What the continuously heard reports prove about versions (§4.1).
#[derive(Debug, Default)]
struct ReportKnowledge {
    /// State since which the client has heard reports continuously; the
    /// basis for backdating `valid_from` below the fetch cycle.
    since: Option<Cycle>,
    /// Per item, the version floor derived from heard reports: an update
    /// reported for cycle `u` means a new version current from `u + 1`.
    /// Items absent from the map are known unchanged since `since`. Not
    /// kept in multiversion mode, where versions are on air and nothing
    /// reads it.
    update_floor: BTreeMap<ItemId, Cycle>,
}

impl ReportKnowledge {
    /// The earliest state `item`'s current value is provably current at.
    fn floor(&self, item: ItemId) -> Option<Cycle> {
        let since = self.since?;
        let floor = self.update_floor.get(&item).copied().unwrap_or(since);
        Some(floor.max(since))
    }

    /// The earliest state `record`'s value, read at `fetched`, is current at.
    fn valid_from(&self, mode: CacheMode, record: &ItemRecord, fetched: Cycle) -> Cycle {
        match mode {
            // Versions are on air in multiversion mode.
            CacheMode::Multiversion => record.value().version(),
            // Otherwise, backdate from the fetch cycle using what the
            // continuous report stream proves: the value cannot be newer
            // than the item's last reported update, nor older knowledge
            // than when we started listening (§4.1 — the client derives
            // the value's effective version from the reports themselves).
            CacheMode::None | CacheMode::Plain | CacheMode::Versioned => self
                .floor(record.item())
                .map_or(fetched, |floor| floor.min(fetched)),
        }
    }
}

/// Cache configuration resolved for a client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheParams {
    /// The organization required by the protocol in use.
    pub mode: CacheMode,
    /// Pages for current versions.
    pub current_capacity: u32,
    /// Pages for old versions (multiversion mode only).
    pub old_capacity: u32,
    /// Items per broadcast bucket — cache invalidation is page (bucket)
    /// grained (§4).
    pub items_per_bucket: u32,
}

/// Statistics the experiments report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the broadcast.
    pub misses: u64,
    /// Pages refreshed by autoprefetch.
    pub autoprefetches: u64,
}

/// The client cache: an LRU current partition kept coherent by
/// invalidation + autoprefetch (§4), plus — in multiversion mode — an
/// old-version partition that serves as the client-side version store
/// (§4.2, split-cache design).
#[derive(Debug)]
pub struct ClientCache {
    params: CacheParams,
    current: LruMap<ItemId, Entry>,
    old: LruMap<(ItemId, Cycle), OldEntry>,
    /// The last cycle whose report was processed.
    last_heard: Option<Cycle>,
    knowledge: ReportKnowledge,
    stats: CacheStats,
}

impl ClientCache {
    /// Creates a cache.
    ///
    /// # Panics
    /// Panics if `items_per_bucket` is zero, or if an old-version
    /// capacity is configured outside multiversion mode.
    pub fn new(params: CacheParams) -> Self {
        assert!(
            params.items_per_bucket > 0,
            "items_per_bucket must be positive"
        );
        assert!(
            params.old_capacity == 0 || params.mode == CacheMode::Multiversion,
            "old-version capacity requires multiversion mode"
        );
        ClientCache {
            current: LruMap::new(params.current_capacity as usize),
            old: LruMap::new(params.old_capacity as usize),
            params,
            last_heard: None,
            knowledge: ReportKnowledge::default(),
            stats: CacheStats::default(),
        }
    }

    /// The parameters in use.
    pub fn params(&self) -> CacheParams {
        self.params
    }

    /// Running statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Entries currently cached (current partition).
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// Whether the current partition is empty.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    /// Old versions currently retained.
    pub fn old_len(&self) -> usize {
        self.old.len()
    }

    /// The broadcast bucket (cache page) holding `item`.
    pub fn bucket_of(&self, item: ItemId) -> BucketId {
        BucketId::new(item.index() / self.params.items_per_bucket)
    }

    /// Processes the invalidation report heard at the beginning of a
    /// cycle. If the report's window does not cover every cycle since the
    /// last one heard, all entries lose coherence (their values may have
    /// changed silently) and are queued for autoprefetch. One pass over
    /// the cached entries either way.
    pub fn on_report(&mut self, report: &InvalidationReport) {
        let n = report.cycle();
        let covered = match self.last_heard {
            None => self.current.is_empty(),
            Some(h) => n.number() <= h.number().saturating_add(u64::from(report.window())),
        };
        if !covered {
            for entry in self.current.values_mut() {
                entry.coherent = false;
            }
            // report knowledge is no longer continuous: reset it
            self.knowledge.since = Some(n);
            self.knowledge.update_floor.clear();
        } else {
            self.knowledge.since.get_or_insert(n);
            let multiversion = self.params.mode == CacheMode::Multiversion;
            if !multiversion {
                for &(item, update_cycle) in report.dated_items() {
                    let floor = self
                        .knowledge
                        .update_floor
                        .entry(item)
                        .or_insert(Cycle::ZERO);
                    *floor = (*floor).max(update_cycle.next());
                }
            }
            for (&item, entry) in self.current.iter_mut() {
                if !entry.coherent {
                    continue;
                }
                // An update recorded at cycle u supersedes the value that
                // was current at state u; updates before the entry's
                // verified bound were already reflected in it.
                let bucket = BucketId::new(item.index() / self.params.items_per_bucket);
                let update = report.bucket_update_cycle(bucket);
                if update.is_some_and(|u| u >= entry.valid_through) {
                    entry.coherent = false;
                    // Multiversion mode keeps the displaced value as an old
                    // version, valid through the last state it was verified
                    // current at (conservative after covered gaps).
                    if multiversion {
                        let old = entry.superseded_at(entry.valid_through.next());
                        self.old.insert((item, entry.valid_from), old);
                    }
                } else {
                    entry.valid_through = n;
                }
            }
        }
        self.last_heard = Some(n);
    }

    /// The client missed `cycle` entirely: nothing to do immediately —
    /// coherence is re-established (or torn down) by the window check at
    /// the next heard report.
    pub fn on_missed_cycle(&mut self, _cycle: Cycle) {}

    /// Autoprefetch (§4): refresh every incoherent page whose new value is
    /// on the given bcast, and drop those no longer broadcast.
    pub fn autoprefetch(&mut self, bcast: &Bcast) {
        let fetched = bcast.cycle();
        self.current.retain_mut(|&item, entry| {
            if !entry.coherent {
                let Some(record) = bcast.current(item) else {
                    return false; // no longer broadcast: drop the page
                };
                let valid_from = self.knowledge.valid_from(self.params.mode, record, fetched);
                *entry = Entry::fetched(record, valid_from, fetched);
                self.stats.autoprefetches += 1;
            }
            true
        });
    }

    /// Inserts (demand-caches) a record just read off the broadcast.
    pub fn insert_from_broadcast(&mut self, record: &ItemRecord, cycle: Cycle) {
        let valid_from = self.knowledge.valid_from(self.params.mode, record, cycle);
        let entry = Entry::fetched(record, valid_from, cycle);
        let item = record.item();
        // In multiversion mode, a replaced coherent value moves to the
        // old partition if the new value actually supersedes it.
        let multiversion = self.params.mode == CacheMode::Multiversion;
        if let Some(prev) = self.current.peek(&item).filter(|_| multiversion) {
            if prev.value != entry.value && prev.valid_from < entry.valid_from {
                let old = prev.superseded_at(entry.valid_from);
                self.old.insert((item, prev.valid_from), old);
            }
        }
        self.current.insert(item, entry);
    }

    fn candidate(entry: &Entry) -> ReadCandidate {
        ReadCandidate {
            value: entry.value,
            last_writer_tag: entry.last_writer_tag,
            valid_from: entry.valid_from,
            valid_until: (!entry.coherent).then(|| entry.valid_through.next()),
            source: if entry.coherent {
                Source::CacheCurrent
            } else {
                Source::CacheOld
            },
        }
    }

    /// Looks up a value for `item` current at database state `state`,
    /// touching LRU recency on a hit and recording hit/miss statistics.
    ///
    /// The current partition is consulted first; in multiversion mode the
    /// old-version partition is searched next, from `item`'s oldest
    /// retained version.
    pub fn lookup(&mut self, item: ItemId, state: Cycle) -> Option<ReadCandidate> {
        if let Some(entry) = self.current.peek(&item) {
            let cand = Self::candidate(entry);
            if cand.current_at(state) {
                self.current.get(&item); // touch
                self.stats.hits += 1;
                return Some(cand);
            }
        }
        if self.params.mode == CacheMode::Multiversion {
            let hit = self
                .old
                .iter_from(&(item, Cycle::ZERO))
                .take_while(|(&(i, _), _)| i == item)
                .map(|(&key, e)| {
                    let cand = ReadCandidate {
                        value: e.value,
                        last_writer_tag: e.last_writer_tag,
                        valid_from: e.valid_from,
                        valid_until: Some(e.valid_until),
                        source: Source::CacheOld,
                    };
                    (key, cand)
                })
                .find(|(_, cand)| cand.current_at(state));
            if let Some((key, cand)) = hit {
                self.old.get(&key); // touch
                self.stats.hits += 1;
                return Some(cand);
            }
        }
        self.stats.misses += 1;
        None
    }

    /// The earliest state at which the client can *prove* (from its
    /// continuously heard invalidation reports) that `item`'s current
    /// value was already current — `None` when report knowledge is not
    /// continuous. Used to certify broadcast reads for pinned queries
    /// without transmitted version numbers (§4.1). Always `None` in
    /// multiversion mode, which reads versions off the air and keeps no
    /// floors.
    pub fn provable_floor(&self, item: ItemId) -> Option<Cycle> {
        if self.params.mode == CacheMode::Multiversion {
            return None;
        }
        self.knowledge.floor(item)
    }

    /// Whether `item` has a coherent cached current value (no staleness).
    pub fn has_current(&self, item: ItemId) -> bool {
        self.current.peek(&item).is_some_and(|e| e.coherent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpush_broadcast::organization::Flat;
    use bpush_broadcast::ControlInfo;
    use bpush_types::Granularity;

    fn params(mode: CacheMode) -> CacheParams {
        CacheParams {
            mode,
            current_capacity: 4,
            old_capacity: if mode == CacheMode::Multiversion {
                4
            } else {
                0
            },
            items_per_bucket: 1,
        }
    }

    fn record(item: u32, written_cycle: Option<u64>) -> ItemRecord {
        let value = match written_cycle {
            Some(c) => ItemValue::written_by(TxnId::new(Cycle::new(c), 0)),
            None => ItemValue::initial(),
        };
        ItemRecord::new(ItemId::new(item), value, value.writer())
    }

    fn report(cycle: u64, items: &[u32]) -> InvalidationReport {
        InvalidationReport::new(
            Cycle::new(cycle),
            1,
            items.iter().map(|&i| ItemId::new(i)),
            Granularity::Item,
            1,
        )
    }

    fn bcast_with(cycle: u64, records: Vec<ItemRecord>) -> Bcast {
        Flat::new(1).assemble(
            Cycle::new(cycle),
            ControlInfo::empty(Cycle::new(cycle)),
            records,
        )
    }

    #[test]
    fn insert_and_current_lookup() {
        let mut c = ClientCache::new(params(CacheMode::Plain));
        c.on_report(&report(1, &[]));
        c.insert_from_broadcast(&record(3, Some(0)), Cycle::new(1));
        assert!(c.has_current(ItemId::new(3)));
        let cand = c.lookup(ItemId::new(3), Cycle::new(1)).expect("hit");
        assert_eq!(cand.source, Source::CacheCurrent);
        assert!(
            cand.current_at(Cycle::new(5)),
            "coherent entries stay current"
        );
        assert_eq!(c.stats().hits, 1);
        assert!(c.lookup(ItemId::new(9), Cycle::new(1)).is_none());
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn invalidation_marks_stale_and_autoprefetch_refreshes() {
        let mut c = ClientCache::new(params(CacheMode::Plain));
        c.on_report(&report(1, &[]));
        c.insert_from_broadcast(&record(3, Some(0)), Cycle::new(1));
        c.on_report(&report(2, &[3]));
        assert!(!c.has_current(ItemId::new(3)));
        // current-state lookup now misses...
        assert!(c.lookup(ItemId::new(3), Cycle::new(2)).is_none());
        // ...but the stale value still answers for the pre-update state
        let cand = c.lookup(ItemId::new(3), Cycle::new(1)).expect("stale hit");
        assert_eq!(cand.source, Source::CacheOld);
        assert_eq!(cand.valid_until, Some(Cycle::new(2)));
        // autoprefetch from the new bcast restores coherence
        let b = bcast_with(2, vec![record(3, Some(1))]);
        c.autoprefetch(&b);
        assert!(c.has_current(ItemId::new(3)));
        assert_eq!(c.stats().autoprefetches, 1);
        let cand = c.lookup(ItemId::new(3), Cycle::new(2)).expect("fresh");
        assert_eq!(cand.value.version(), Cycle::new(2));
    }

    #[test]
    fn multiversion_mode_retains_old_versions() {
        let mut c = ClientCache::new(params(CacheMode::Multiversion));
        c.on_report(&report(1, &[]));
        c.insert_from_broadcast(&record(3, Some(0)), Cycle::new(1)); // version 1
        c.on_report(&report(2, &[3]));
        let b = bcast_with(2, vec![record(3, Some(1))]); // version 2
        c.autoprefetch(&b);
        assert_eq!(c.old_len(), 1, "displaced version retained");
        // the old version answers reads pinned at state 1
        let cand = c
            .lookup(ItemId::new(3), Cycle::new(1))
            .expect("old version");
        assert_eq!(cand.source, Source::CacheOld);
        assert_eq!(cand.value.version(), Cycle::new(1));
        // and the new one answers current reads
        let cand = c.lookup(ItemId::new(3), Cycle::new(2)).expect("current");
        assert_eq!(cand.value.version(), Cycle::new(2));
    }

    #[test]
    fn multiversion_valid_from_uses_value_version() {
        let mut c = ClientCache::new(params(CacheMode::Multiversion));
        c.on_report(&report(5, &[]));
        // value written long ago (version 1), fetched at cycle 5
        c.insert_from_broadcast(&record(3, Some(0)), Cycle::new(5));
        // multiversion mode knows it was current since state 1
        let cand = c.lookup(ItemId::new(3), Cycle::new(2)).expect("hit");
        assert_eq!(cand.valid_from, Cycle::new(1));
        // plain mode would only know from the fetch cycle
        let mut p = ClientCache::new(params(CacheMode::Plain));
        p.on_report(&report(5, &[]));
        p.insert_from_broadcast(&record(3, Some(0)), Cycle::new(5));
        assert!(p.lookup(ItemId::new(3), Cycle::new(2)).is_none());
    }

    #[test]
    fn provable_floor_only_where_floors_are_kept() {
        for mode in [CacheMode::Plain, CacheMode::Versioned] {
            let mut c = ClientCache::new(params(mode));
            assert_eq!(c.provable_floor(ItemId::new(3)), None, "no reports yet");
            c.on_report(&report(1, &[]));
            c.on_report(&report(2, &[3]));
            // the report heard at 2 lists an update committed during 1
            assert_eq!(c.provable_floor(ItemId::new(3)), Some(Cycle::new(2)));
            assert_eq!(c.provable_floor(ItemId::new(4)), Some(Cycle::new(1)));
        }
        // Multiversion mode reads versions off the air and keeps no
        // floors, so it proves none.
        let mut c = ClientCache::new(params(CacheMode::Multiversion));
        c.on_report(&report(1, &[]));
        c.on_report(&report(2, &[3]));
        assert_eq!(c.provable_floor(ItemId::new(3)), None);
        assert_eq!(c.provable_floor(ItemId::new(4)), None);
    }

    #[test]
    fn uncovered_gap_tears_down_coherence() {
        let mut c = ClientCache::new(params(CacheMode::Plain));
        c.on_report(&report(1, &[]));
        c.insert_from_broadcast(&record(3, Some(0)), Cycle::new(1));
        // miss cycles 2-3; window-1 report at 4 cannot cover them
        c.on_missed_cycle(Cycle::new(2));
        c.on_missed_cycle(Cycle::new(3));
        c.on_report(&report(4, &[]));
        assert!(!c.has_current(ItemId::new(3)), "gap invalidates everything");
        // stale value still usable for the pre-gap state
        let cand = c.lookup(ItemId::new(3), Cycle::new(1)).expect("stale");
        assert_eq!(cand.valid_until, Some(Cycle::new(2)));
    }

    #[test]
    fn windowed_report_preserves_coherence_across_gap() {
        let mut c = ClientCache::new(params(CacheMode::Plain));
        c.on_report(&InvalidationReport::new(
            Cycle::new(1),
            3,
            [],
            Granularity::Item,
            1,
        ));
        c.insert_from_broadcast(&record(3, Some(0)), Cycle::new(1));
        // miss cycles 2-3, resume with a window-3 report at 4
        let r = InvalidationReport::new(Cycle::new(4), 3, [ItemId::new(9)], Granularity::Item, 1);
        c.on_report(&r);
        assert!(c.has_current(ItemId::new(3)), "window covered the gap");
    }

    #[test]
    fn bucket_granular_invalidation() {
        let mut c = ClientCache::new(CacheParams {
            items_per_bucket: 4,
            ..params(CacheMode::Plain)
        });
        c.on_report(&InvalidationReport::new(
            Cycle::new(1),
            1,
            [],
            Granularity::Item,
            4,
        ));
        c.insert_from_broadcast(&record(1, Some(0)), Cycle::new(1));
        c.insert_from_broadcast(&record(6, Some(0)), Cycle::new(1));
        // item 2 shares bucket 0 with cached item 1
        let r = InvalidationReport::new(Cycle::new(2), 1, [ItemId::new(2)], Granularity::Item, 4);
        c.on_report(&r);
        assert!(!c.has_current(ItemId::new(1)), "same-bucket invalidation");
        assert!(c.has_current(ItemId::new(6)), "other bucket untouched");
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut c = ClientCache::new(params(CacheMode::Plain));
        c.on_report(&report(1, &[]));
        for i in 0..4 {
            c.insert_from_broadcast(&record(i, Some(0)), Cycle::new(1));
        }
        // touch items 0-2, then overflow
        for i in 0..3 {
            c.lookup(ItemId::new(i), Cycle::new(1));
        }
        c.insert_from_broadcast(&record(9, Some(0)), Cycle::new(1));
        assert_eq!(c.len(), 4);
        assert!(!c.has_current(ItemId::new(3)), "LRU item evicted");
        assert!(c.has_current(ItemId::new(9)));
    }

    #[test]
    fn autoprefetch_drops_items_off_air() {
        let mut c = ClientCache::new(params(CacheMode::Plain));
        c.on_report(&report(1, &[]));
        c.insert_from_broadcast(&record(3, Some(0)), Cycle::new(1));
        c.on_report(&report(2, &[3]));
        let b = bcast_with(2, vec![record(0, None)]); // item 3 not on air
        c.autoprefetch(&b);
        assert_eq!(c.len(), 0);
    }

    #[test]
    #[should_panic(expected = "multiversion mode")]
    fn old_capacity_requires_multiversion() {
        let _ = ClientCache::new(CacheParams {
            mode: CacheMode::Plain,
            current_capacity: 4,
            old_capacity: 2,
            items_per_bucket: 1,
        });
    }
}
