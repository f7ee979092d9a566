//! A fully assembled broadcast program for one cycle.

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

use bpush_types::{Cycle, ItemId, ItemValue};

use crate::bucket::{BucketHeader, ItemRecord};
use crate::control::ControlInfo;
use crate::directory::Directory;
use crate::feed::encode_control_segment;
use crate::organization::OldVersions;
use crate::wire::WireParams;

/// The current-version records of a broadcast set, sorted by item with
/// unique ids — the invariant every organization's positions rest on,
/// checked once, when the column is made from a `Vec`.
///
/// The storage is shared: each [`Bcast`] holds the column it was
/// assembled from (`RecordColumn::from(&bcast)` hands it back), and a
/// server keeps one column for the run and [`RecordColumn::patch`]es
/// only the records that changed. A patch writes in place while nobody
/// else holds the column and copies it first otherwise, so a `Bcast` a
/// caller keeps stays an immutable snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordColumn(Arc<Vec<ItemRecord>>);

impl RecordColumn {
    /// Overwrites, for each of `records`, the record of its item: in
    /// place while nobody else holds the column, on a copy otherwise.
    ///
    /// # Panics
    /// Panics if an item is not on the column.
    pub fn patch(&mut self, records: impl IntoIterator<Item = ItemRecord>) {
        let records = records.into_iter().map(|record| (record.item(), record));
        self.rewrite(records, |slot, item, record| {
            assert!(slot.is_some(), "{item} is not on the record column");
            if let Some(slot) = slot {
                *slot = record;
            }
        });
    }

    /// Points the record of each item of `ptrs` at its offset in the
    /// overflow area; items not on the column are skipped. In place
    /// while nobody else holds the column, on a copy otherwise.
    pub(crate) fn set_overflow_ptrs(&mut self, ptrs: impl IntoIterator<Item = (ItemId, u64)>) {
        self.rewrite(ptrs, |slot, _, ptr| {
            if let Some(rec) = slot {
                *rec = rec.with_overflow_ptr(ptr);
            }
        });
    }

    /// Hands `write` the record of each item of `changes` (`None` when
    /// the item is not on the column) with its change, behind one
    /// copy-on-write check for the lot; no check when there is nothing
    /// to change.
    fn rewrite<T>(
        &mut self,
        changes: impl IntoIterator<Item = (ItemId, T)>,
        mut write: impl FnMut(Option<&mut ItemRecord>, ItemId, T),
    ) {
        let mut changes = changes.into_iter().peekable();
        if changes.peek().is_none() {
            return;
        }
        let column = Arc::make_mut(&mut self.0);
        for (item, change) in changes {
            let slot = position(column, item).and_then(|at| column.get_mut(at));
            write(slot, item, change);
        }
    }

    /// Number of records.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Where `item` sits on the column.
    pub(crate) fn position(&self, item: ItemId) -> Option<usize> {
        position(&self.0, item)
    }

    /// The record of `item`, if it is on the column.
    pub(crate) fn record_of(&self, item: ItemId) -> Option<&ItemRecord> {
        self.0.get(self.position(item)?)
    }

    /// The records, in item order.
    pub(crate) fn as_slice(&self) -> &[ItemRecord] {
        &self.0
    }
}

/// Where `item` sits in `records` (sorted by item): its own index under
/// dense item numbering, a binary search otherwise.
fn position(records: &[ItemRecord], item: ItemId) -> Option<usize> {
    let guess = usize::try_from(item.index()).ok()?;
    match records.get(guess) {
        Some(rec) if rec.item() == item => Some(guess),
        _ => records.binary_search_by_key(&item, ItemRecord::item).ok(),
    }
}

impl From<Vec<ItemRecord>> for RecordColumn {
    /// # Panics
    /// Panics if `records` is not sorted by item id with unique ids.
    fn from(records: Vec<ItemRecord>) -> Self {
        assert!(
            records
                .windows(2)
                .all(|w| matches!(w, [a, b] if a.item() < b.item())),
            "records must be sorted by item id"
        );
        RecordColumn(Arc::new(records))
    }
}

impl From<&Bcast> for RecordColumn {
    /// The column `bcast` was assembled from, shared, not copied.
    fn from(bcast: &Bcast) -> Self {
        bcast.records.clone()
    }
}

/// CSR rows of the slots at which each record's current version is
/// transmitted: `slots[start[i]..start[i + 1]]` are record `i`'s, sorted
/// (one slot per item, several under the broadcast-disk organization).
/// The slots are absolute; `base` is the control-segment length they
/// were laid out after, so a fixed-position organization can keep its
/// rows across cycles and [`Occurrences::rebase`] them when the control
/// segment changes length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Occurrences {
    base: u64,
    start: Vec<u32>,
    slots: Vec<u64>,
}

impl Occurrences {
    /// Rows `start` over `slots`, laid out after `base` control slots.
    ///
    /// # Panics
    /// Panics if the rows do not tile `slots`.
    pub(crate) fn new(base: u64, start: Vec<u32>, slots: Vec<u64>) -> Self {
        assert_eq!(
            start.last().map(|&end| end as usize),
            Some(slots.len()),
            "rows must tile the occurrence slots"
        );
        Occurrences { base, start, slots }
    }

    /// The control-segment length the slots are laid out after.
    pub(crate) fn base(&self) -> u64 {
        self.base
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.start.len().saturating_sub(1)
    }

    /// Moves every slot by the change of control-segment length.
    pub(crate) fn rebase(&mut self, base: u64) {
        for slot in &mut self.slots {
            *slot = *slot - self.base + base;
        }
        self.base = base;
    }

    /// Row `i`, or `None` past the last row.
    fn row(&self, i: usize) -> Option<&[u64]> {
        let lo = *self.start.get(i)? as usize;
        let hi = *self.start.get(i.checked_add(1)?)? as usize;
        self.slots.get(lo..hi)
    }
}

/// One cycle's broadcast program ("bcast", §2): the control segment
/// followed by the data segment (and, under the multiversion overflow
/// organization, trailing overflow buckets with old versions).
///
/// A `Bcast` is produced by one of the organizations in
/// [`crate::organization`] and consumed by clients, which query it for
/// *where* (at which slot) an item appears so the simulation can account
/// for tuning latency. Slot 0 is the first control bucket; the data
/// segment starts at [`Bcast::data_start`].
///
/// The record column and (under the fixed-position organizations) the
/// occurrence rows are shared with whoever assembled the bcast — the
/// server patches them for the next cycle in place once this bcast is
/// dropped, and copies them first while it is alive — so cloning or
/// keeping a `Bcast` costs no copy of the data segment.
#[derive(Debug, Clone)]
pub struct Bcast {
    cycle: Cycle,
    control: ControlInfo,
    /// The control segment as the server puts it on air, encoded by the
    /// first listener to ask and heard by all of them: the widths it was
    /// encoded under, and the framed bytes.
    control_wire: OnceLock<(WireParams, Vec<u8>)>,
    control_slots: u64,
    data_slots: u64,
    overflow_slots: u64,
    /// Current value of every item on air, sorted by item. Under the
    /// usual dense numbering record `i` is item `i`, so a lookup is one
    /// index; sparse item ids fall back to a binary search.
    records: RecordColumn,
    /// One row per record: where its current version is transmitted.
    occurrences: Arc<Occurrences>,
    /// Old versions per item, most recent first, with the slot carrying
    /// each (§3.2). Empty outside multiversion organizations.
    old_versions: OldVersions,
    /// The on-air directory, present only when positions shift per cycle
    /// (clustered multiversion organization).
    directory: Option<Directory>,
    /// Slots at which replicated on-air index segments begin ((1, m)
    /// indexing, §2.1); empty when the organization broadcasts no index.
    index_slots: Vec<u64>,
}

impl Bcast {
    /// Assembles a bcast from its parts. Used by the organizations; not
    /// intended for direct construction by applications.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        cycle: Cycle,
        control: ControlInfo,
        control_slots: u64,
        data_slots: u64,
        overflow_slots: u64,
        occurrences: Arc<Occurrences>,
        records: RecordColumn,
        old_versions: OldVersions,
        directory: Option<Directory>,
    ) -> Self {
        assert_eq!(occurrences.rows(), records.len(), "one row per record");
        assert_eq!(
            occurrences.base(),
            control_slots,
            "rows laid out after this control segment"
        );
        debug_assert!((0..records.len()).all(|i| {
            occurrences
                .row(i)
                .is_some_and(|row| row.windows(2).all(|s| s[0] < s[1]))
        }));
        let total = control_slots + data_slots + overflow_slots;
        debug_assert!(
            occurrences
                .slots
                .iter()
                .all(|&s| s >= control_slots && s < control_slots + data_slots),
            "current versions live in the data segment"
        );
        debug_assert!(
            old_versions.entries.iter().all(|&(s, _)| s < total),
            "old versions must fit the bcast"
        );
        Bcast {
            cycle,
            control,
            control_wire: OnceLock::new(),
            control_slots,
            data_slots,
            overflow_slots,
            records,
            occurrences,
            old_versions,
            directory,
            index_slots: Vec::new(),
        }
    }

    /// Attaches the slots of replicated on-air index segments ((1, m)
    /// indexing).
    pub(crate) fn with_index_slots(mut self, slots: Vec<u64>) -> Self {
        debug_assert!(slots.windows(2).all(|w| w[0] < w[1]));
        self.index_slots = slots;
        self
    }

    /// The cycle this bcast transmits.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// The control segment (invalidation report and, for SGT, the
    /// augmented report and graph diff).
    pub fn control(&self) -> &ControlInfo {
        &self.control
    }

    /// The control segment framed for the wire under `params`
    /// ([`encode_control_segment`]). The server broadcasts those bytes
    /// once whatever the audience, so they are encoded once per bcast
    /// and every listener borrows the same buffer; a caller with other
    /// widths than the first one's gets its own encoding, never bytes of
    /// another deployment.
    pub fn control_segment(&self, params: WireParams) -> Cow<'_, [u8]> {
        let (encoded_for, bytes) = self
            .control_wire
            .get_or_init(|| (params, encode_control_segment(&self.control, params)));
        if *encoded_for == params {
            Cow::Borrowed(bytes)
        } else {
            Cow::Owned(encode_control_segment(&self.control, params))
        }
    }

    /// Slots occupied by the control segment (including the on-air
    /// directory if the organization needs one).
    pub fn control_slots(&self) -> u64 {
        self.control_slots
    }

    /// First slot of the data segment.
    pub fn data_start(&self) -> u64 {
        self.control_slots
    }

    /// Slots occupied by the data segment.
    pub fn data_slots(&self) -> u64 {
        self.data_slots
    }

    /// Slots occupied by overflow buckets (old versions), if any.
    pub fn overflow_slots(&self) -> u64 {
        self.overflow_slots
    }

    /// Total length of this bcast in slots; the next bcast starts this
    /// many slots after this one began.
    pub fn total_slots(&self) -> u64 {
        self.control_slots + self.data_slots + self.overflow_slots
    }

    /// The number of distinct items on air.
    pub fn item_count(&self) -> usize {
        self.records.len()
    }

    /// The current-version record of `item`, if the item is on air.
    // bpush-lint: hot_path — per-read record lookup on every client's read loop
    pub fn current(&self, item: ItemId) -> Option<&ItemRecord> {
        self.records.record_of(item)
    }

    /// The first slot at which `item`'s current version is transmitted.
    pub fn slot_of_current(&self, item: ItemId) -> Option<u64> {
        self.occurrences_of(item).first().copied()
    }

    /// The first slot `>= not_before` at which `item`'s current version is
    /// transmitted in *this* bcast; `None` if it has already passed (the
    /// client must wait for the next bcast).
    // bpush-lint: hot_path — per-read slot lookup on every client's read loop
    pub fn next_slot_of_current(&self, item: ItemId, not_before: u64) -> Option<u64> {
        let slots = self.occurrences_of(item);
        let idx = slots.partition_point(|&s| s < not_before);
        slots.get(idx).copied()
    }

    /// All slots at which `item`'s current version appears (one for flat
    /// organizations, several under broadcast disks).
    // bpush-lint: hot_path — per-read occurrence lookup on every client's read loop
    pub fn occurrences_of(&self, item: ItemId) -> &[u64] {
        let row = self
            .records
            .position(item)
            .and_then(|i| self.occurrences.row(i));
        row.unwrap_or(&[])
    }

    /// The old versions of `item` on air, most recent first, each with the
    /// slot that carries it.
    // bpush-lint: hot_path — per-read old-version lookup of the multiversion methods
    pub fn old_versions_of(&self, item: ItemId) -> &[(u64, ItemValue)] {
        self.old_versions.chain_of(item)
    }

    /// The multiversion read rule of §3.2: the value of `item` with the
    /// largest version `<= bound`, searching the current version first and
    /// then the old-version chain. Returns the slot carrying the value.
    pub fn best_version_at_most(&self, item: ItemId, bound: Cycle) -> Option<(u64, ItemValue)> {
        let rec = self.current(item)?;
        if rec.value().version() <= bound {
            return self.slot_of_current(item).map(|s| (s, rec.value()));
        }
        self.old_versions_of(item)
            .iter()
            .find(|(_, v)| v.version() <= bound)
            .copied()
    }

    /// The on-air directory, present only under shifting-position
    /// organizations.
    pub fn directory(&self) -> Option<&Directory> {
        self.directory.as_ref()
    }

    /// Slots of replicated on-air index segments, if the organization
    /// broadcasts any ((1, m) indexing, §2.1).
    pub fn index_slots(&self) -> &[u64] {
        &self.index_slots
    }

    /// The first index segment at or after `not_before` in this bcast,
    /// for a client without a locally stored directory.
    pub fn next_index_slot(&self, not_before: u64) -> Option<u64> {
        let idx = self.index_slots.partition_point(|&s| s < not_before);
        self.index_slots.get(idx).copied()
    }

    /// The header a client would find at `slot` (§2.1 self-description).
    ///
    /// # Panics
    /// Panics if `slot` is outside this bcast.
    pub fn header_at(&self, slot: u64) -> BucketHeader {
        BucketHeader::new(self.cycle, slot, self.total_slots())
    }

    /// Iterates over all current-version records in item order.
    pub fn records(&self) -> impl Iterator<Item = &ItemRecord> {
        self.records.as_slice().iter()
    }

    /// The current-version records as one slice, in item order — what the
    /// data-segment encoder reads.
    pub(crate) fn record_slice(&self) -> &[ItemRecord] {
        self.records.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::organization::Flat;
    use bpush_types::TxnId;

    fn simple_bcast() -> Bcast {
        let records: Vec<ItemRecord> = (0..8)
            .map(|i| ItemRecord::new(ItemId::new(i), ItemValue::initial(), None))
            .collect();
        Flat::new(1).assemble(Cycle::ZERO, ControlInfo::empty(Cycle::ZERO), records)
    }

    #[test]
    fn flat_slots_are_sequential() {
        let b = simple_bcast();
        assert_eq!(b.control_slots(), 0);
        assert_eq!(b.data_slots(), 8);
        assert_eq!(b.overflow_slots(), 0);
        assert_eq!(b.total_slots(), 8);
        assert_eq!(b.item_count(), 8);
        for i in 0..8u32 {
            assert_eq!(b.slot_of_current(ItemId::new(i)), Some(u64::from(i)));
        }
        assert_eq!(b.slot_of_current(ItemId::new(9)), None);
    }

    #[test]
    fn next_slot_respects_not_before() {
        let b = simple_bcast();
        let x = ItemId::new(3);
        assert_eq!(b.next_slot_of_current(x, 0), Some(3));
        assert_eq!(b.next_slot_of_current(x, 3), Some(3));
        assert_eq!(b.next_slot_of_current(x, 4), None, "already passed");
        assert_eq!(b.occurrences_of(x), &[3]);
    }

    #[test]
    fn best_version_uses_current_when_old_enough() {
        let mut records = vec![ItemRecord::new(
            ItemId::new(0),
            ItemValue::written_by(TxnId::new(Cycle::new(4), 0)), // version 5
            None,
        )];
        records.push(ItemRecord::new(ItemId::new(1), ItemValue::initial(), None));
        let mut old = OldVersions::default();
        old.add_chain(ItemId::new(0), [ItemValue::initial()]); // version 0
        let b = crate::organization::MultiversionOverflow::new(1).assemble(
            Cycle::new(5),
            ControlInfo::empty(Cycle::new(5)),
            records,
            old,
        );
        // bound 5: current version (5) qualifies
        let (slot, v) = b
            .best_version_at_most(ItemId::new(0), Cycle::new(5))
            .unwrap();
        assert_eq!(v.version(), Cycle::new(5));
        assert!(slot < b.data_start() + b.data_slots());
        // bound 4: must fall back to the old version in overflow
        let (slot, v) = b
            .best_version_at_most(ItemId::new(0), Cycle::new(4))
            .unwrap();
        assert_eq!(v.version(), Cycle::ZERO);
        assert!(
            slot >= b.data_start() + b.data_slots(),
            "old versions at the end"
        );
        // unknown item
        assert!(b
            .best_version_at_most(ItemId::new(9), Cycle::new(9))
            .is_none());
    }

    /// The control segment is encoded once per bcast and shared: the
    /// same buffer for every asker with the same widths (clones
    /// included), a fresh encoding — never the cached bytes — for any
    /// other widths.
    #[test]
    fn control_segment_is_encoded_once_and_never_for_other_widths() {
        use crate::feed::{decode_segment, DecodedSegment, WireFeed};
        use crate::{AugmentedReport, InvalidationReport};
        use bpush_types::Granularity;

        let c = Cycle::new(5);
        let prev = c.prev();
        let inv =
            InvalidationReport::new(c, 1, [ItemId::new(2), ItemId::new(7)], Granularity::Item, 1);
        let aug = AugmentedReport::new(prev, [(ItemId::new(2), TxnId::new(prev, 1))]);
        let ctrl = ControlInfo::new(c, inv, Some(aug), None);
        let records: Vec<ItemRecord> = (0..8)
            .map(|i| ItemRecord::new(ItemId::new(i), ItemValue::initial(), None))
            .collect();
        let b = Flat::new(1).assemble(c, ctrl, records);

        let narrow = WireParams::derive(8, 1, 4, 1);
        let wide = WireParams::derive(1 << 20, 9, 300, 40);
        let first = b.control_segment(narrow);
        let again = b.control_segment(narrow);
        assert!(matches!(first, Cow::Borrowed(_)) && std::ptr::eq(&*first, &*again));
        assert_eq!(*first, *encode_control_segment(b.control(), narrow));

        let other = b.control_segment(wide);
        assert_eq!(*other, *encode_control_segment(b.control(), wide));
        assert_ne!(*other, *first);
        for (bytes, params) in [(&first, narrow), (&other, wide)] {
            let mut feed = WireFeed::new();
            feed.push(bytes);
            let seg = feed.pop().unwrap().expect("one whole segment");
            let decoded = decode_segment(seg, params).unwrap();
            assert_eq!(decoded, DecodedSegment::Control(b.control().clone()));
        }

        let clone = b.clone();
        assert_eq!(*clone.control_segment(narrow), *first);
        assert_eq!(*clone.control_segment(wide), *other);

        // sharded runs hand bcasts to worker threads
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Bcast>();
    }

    #[test]
    fn header_self_description() {
        let b = simple_bcast();
        let h = b.header_at(5);
        assert_eq!(h.offset(), 5);
        assert_eq!(h.slots_to_next_bcast(), 3);
        assert_eq!(h.cycle(), Cycle::ZERO);
    }

    #[test]
    #[should_panic(expected = "outside its bcast")]
    fn header_out_of_range() {
        let _ = simple_bcast().header_at(8);
    }
}
